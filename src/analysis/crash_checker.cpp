#include "analysis/crash_checker.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "net/ip_address.hpp"
#include "store/sim_disk.hpp"
#include "util/rng.hpp"

namespace mhrp::analysis {

namespace {

using store::PersistAction;
using store::SimDisk;
using store::SyncPolicy;
using store::WalRecord;
using store::WalStore;

constexpr std::uint64_t kNoCrash = ~std::uint64_t{0};

net::IpAddress mobile_addr(std::uint32_t i) {
  return net::IpAddress(0x0A010100u + i + 1);
}

net::IpAddress foreign_addr(std::uint32_t i) {
  return net::IpAddress(0xC0A80001u + i * 256u);
}

/// The deterministic mutation history every run replays: provision each
/// mobile, then a seeded mix of re-registrations (dominant), timeouts,
/// and re-provisions — the record mix a home agent actually logs.
std::vector<WalRecord> make_workload(const CrashCheckerOptions& o) {
  util::Rng rng(o.seed);
  std::vector<WalRecord> history;
  history.reserve(o.workload_records);
  std::vector<std::uint32_t> sequence(o.mobiles, 0);
  std::vector<bool> provisioned(o.mobiles, false);
  for (std::uint32_t i = 0; i < o.mobiles && history.size() < o.workload_records;
       ++i) {
    history.push_back({WalRecord::Kind::kProvision, mobile_addr(i),
                       net::IpAddress(0), 0});
    provisioned[i] = true;
  }
  while (history.size() < o.workload_records) {
    const auto m = static_cast<std::uint32_t>(rng.index(o.mobiles));
    const double p = rng.real();
    if (!provisioned[m] || p < 0.1) {
      history.push_back({WalRecord::Kind::kProvision, mobile_addr(m),
                         net::IpAddress(0), 0});
      provisioned[m] = true;
    } else if (p < 0.9) {
      const auto fa = static_cast<std::uint32_t>(rng.index(4));
      history.push_back({WalRecord::Kind::kBinding, mobile_addr(m),
                         foreign_addr(fa), ++sequence[m]});
    } else {
      history.push_back(
          {WalRecord::Kind::kErase, mobile_addr(m), net::IpAddress(0), 0});
      provisioned[m] = false;
    }
  }
  return history;
}

/// The checker's own model of record semantics — independent of
/// WalStore::apply so a bug there shows up as a prefix mismatch instead
/// of being faithfully mirrored.
void fold(store::RecoveredDb& db, const WalRecord& r) {
  switch (r.kind) {
    case WalRecord::Kind::kProvision:
      db.emplace(r.mobile_host, store::RecoveredRow{r.foreign_agent, r.sequence});
      break;
    case WalRecord::Kind::kBinding:
      db[r.mobile_host] = store::RecoveredRow{r.foreign_agent, r.sequence};
      break;
    case WalRecord::Kind::kErase:
      db.erase(r.mobile_host);
      break;
  }
}

}  // namespace

struct CrashConsistencyChecker::RunOutcome {
  bool crashed = false;
};

std::string CrashCheckerResult::summary() const {
  std::ostringstream out;
  out << "crash-checker runs=" << runs << " points=" << crash_points
      << " torn=" << torn_runs << " logged=" << records_logged
      << " recovered=" << records_recovered << " acked=" << acked_before_crash
      << " acked_lost=" << acked_lost
      << " violations={prefix=" << prefix_violations
      << " ack=" << ack_violations << " determinism=" << determinism_violations
      << "}";
  return out.str();
}

std::uint64_t CrashConsistencyChecker::dry_run_steps() {
  // One hook-free pass over the identical workload counts how many
  // persist steps a run generates — the crash-point coordinate range.
  SimDisk disk(options_.store.sector_size, options_.store.disk_sectors);
  WalStore wal(disk, options_.store);
  wal.format();
  const auto history = make_workload(options_);
  store::Lsn max_acked = 0;
  std::uint64_t appended = 0;
  (void)drive_workload(wal, history, max_acked, appended);
  return disk.persist_steps();
}

bool CrashConsistencyChecker::drive_workload(
    WalStore& wal, const std::vector<WalRecord>& history,
    store::Lsn& max_acked, std::uint64_t& appended) {
  // Appends ride the group-commit batch exactly like a HomeStore window:
  // they buffer, and the sync boundary seals one frame.
  std::uint32_t since_sync = 0;
  for (const auto& rec : history) {
    const store::Lsn lsn = wal.append_buffered(rec);
    if (lsn == 0) return true;
    ++appended;
    // kAsync acks at append; the durable policies ack at the sync below.
    if (options_.store.sync_policy == SyncPolicy::kAsync) max_acked = lsn;
    ++since_sync;
    const bool boundary = options_.store.sync_policy == SyncPolicy::kSync ||
                          since_sync >= options_.sync_every;
    if (boundary) {
      since_sync = 0;
      if (!wal.sync()) return true;
      if (options_.store.sync_policy != SyncPolicy::kAsync) {
        max_acked = wal.durable_lsn();
      }
    }
  }
  if (!wal.sync()) return true;
  if (options_.store.sync_policy != SyncPolicy::kAsync) {
    max_acked = wal.durable_lsn();
  }
  return false;
}

CrashConsistencyChecker::RunOutcome CrashConsistencyChecker::run_once(
    std::uint64_t crash_step, bool torn, std::size_t tear_at,
    AuditReport& report, CrashCheckerResult& result) {
  const auto history = make_workload(options_);
  SimDisk disk(options_.store.sector_size, options_.store.disk_sectors);
  WalStore wal(disk, options_.store);
  wal.format();
  if (crash_step != kNoCrash) {
    disk.set_crash_hook([&](std::uint64_t step, std::size_t /*sector*/,
                            std::size_t& tear) -> PersistAction {
      if (step != crash_step) return PersistAction::kPersist;
      if (!torn) return PersistAction::kCrashBefore;
      tear = tear_at;
      return PersistAction::kTear;
    });
  }

  // Drive the workload under the configured sync policy, tracking the
  // highest LSN the "agent" acked before the crash.
  store::Lsn max_acked = 0;
  std::uint64_t appended = 0;
  const bool crashed = drive_workload(wal, history, max_acked, appended);
  disk.clear_crash_hook();
  ++result.runs;
  if (torn && crashed) ++result.torn_runs;
  result.records_logged += appended;
  result.acked_before_crash += max_acked;

  // Recover twice from the post-crash media and require byte-identical
  // results before checking anything else.
  WalStore first(disk, options_.store);
  (void)first.recover();
  WalStore second(disk, options_.store);
  (void)second.recover();
  const std::string digest = first.state_digest();
  if (digest != second.state_digest()) {
    ++result.determinism_violations;
    report.add({InvariantId::kWalPrefixConsistent, crash_step, sim::kTimeZero,
                "store",
                "recovery is not deterministic: \"" + digest + "\" vs \"" +
                    second.state_digest() + "\""});
  }

  // The recovered database must equal fold(history[0..n]) for some n.
  const auto& recovered = first.state();
  store::RecoveredDb model;
  bool matched = false;
  std::uint64_t best_n = 0;
  if (recovered == model) {
    matched = true;
  }
  for (std::uint64_t n = 1; n <= appended; ++n) {
    fold(model, history[n - 1]);
    if (recovered == model) {
      matched = true;
      best_n = n;  // keep the largest matching prefix
    }
  }
  if (!matched) {
    ++result.prefix_violations;
    std::ostringstream detail;
    detail << "recovered state matches no prefix of the " << appended
           << "-record history (crash step " << crash_step
           << (torn ? ", torn" : ", clean") << "): " << digest;
    report.add({InvariantId::kWalPrefixConsistent, crash_step, sim::kTimeZero,
                "store", detail.str()});
  } else {
    result.records_recovered += best_n;
    if (best_n < max_acked) {
      const std::uint64_t lost = max_acked - best_n;
      if (options_.store.sync_policy == SyncPolicy::kAsync) {
        result.acked_lost += lost;  // the documented kAsync trade
      } else {
        ++result.ack_violations;
        result.acked_lost += lost;
        std::ostringstream detail;
        detail << "acked through lsn " << max_acked << " but recovery ("
               << to_string(options_.store.sync_policy)
               << ") reaches only lsn " << best_n << " (crash step "
               << crash_step << (torn ? ", torn)" : ", clean)");
        report.add({InvariantId::kDurableAckNotLost, crash_step,
                    sim::kTimeZero, "store", detail.str()});
      }
    }
  }
  return {crashed};
}

CrashCheckerResult CrashConsistencyChecker::enumerate(AuditReport& report) {
  CrashCheckerResult result;
  const std::uint64_t steps = dry_run_steps();
  result.crash_points = steps;
  // The no-crash control run: a completed workload must recover whole.
  (void)run_once(kNoCrash, false, 0, report, result);
  for (std::uint64_t step = 0; step < steps; ++step) {
    (void)run_once(step, false, 0, report, result);
    const std::size_t tear =
        1 + static_cast<std::size_t>(step) % (options_.store.sector_size - 1);
    (void)run_once(step, true, tear, report, result);
  }
  return result;
}

CrashCheckerResult CrashConsistencyChecker::fuzz(std::uint64_t budget,
                                                 AuditReport& report) {
  CrashCheckerResult result;
  const std::uint64_t steps = dry_run_steps();
  result.crash_points = steps;
  util::Rng rng(options_.seed ^ 0xF022u);
  for (std::uint64_t i = 0; i < budget; ++i) {
    const std::uint64_t step = rng.uniform(0, steps - 1);
    const bool torn = rng.chance(options_.tear_fraction);
    const std::size_t tear = static_cast<std::size_t>(
        rng.uniform(1, options_.store.sector_size - 1));
    (void)run_once(step, torn, tear, report, result);
  }
  return result;
}

CrashCheckerResult CrashConsistencyChecker::round_trip(bool inject_crash,
                                                       AuditReport& report) {
  CrashCheckerResult result;
  const auto history = make_workload(options_);
  SimDisk disk(options_.store.sector_size, options_.store.disk_sectors);
  WalStore wal(disk, options_.store);
  wal.format();

  std::uint64_t crash_step = kNoCrash;
  if (inject_crash) {
    // One seeded (step, torn?, tear) draw; the coordinate range comes
    // from the same dry pass enumerate/fuzz use.
    const std::uint64_t steps = dry_run_steps();
    result.crash_points = steps;
    util::Rng rng(options_.seed ^ 0x207Du);
    crash_step = rng.uniform(0, steps - 1);
    const bool torn = rng.chance(options_.tear_fraction);
    const std::size_t tear = static_cast<std::size_t>(
        rng.uniform(1, options_.store.sector_size - 1));
    disk.set_crash_hook([crash_step, torn, tear](
                            std::uint64_t step, std::size_t /*sector*/,
                            std::size_t& tear_out) -> PersistAction {
      if (step != crash_step) return PersistAction::kPersist;
      if (!torn) return PersistAction::kCrashBefore;
      tear_out = tear;
      return PersistAction::kTear;
    });
  }

  store::Lsn max_acked = 0;
  std::uint64_t appended = 0;
  const bool crashed = drive_workload(wal, history, max_acked, appended);
  disk.clear_crash_hook();
  ++result.runs;
  result.records_logged += appended;
  result.acked_before_crash += max_acked;

  WalStore first(disk, options_.store);
  const store::RecoveryStats stats = first.recover();
  WalStore second(disk, options_.store);
  (void)second.recover();
  if (first.state_digest() != second.state_digest()) {
    ++result.determinism_violations;
    report.add({InvariantId::kWalPrefixConsistent, crash_step, sim::kTimeZero,
                "store", "round-trip recovery is not deterministic"});
  }

  // Recovery names its own prefix (the last LSN it reached); the
  // database must equal that prefix exactly — one fold, one compare.
  const std::uint64_t n = stats.last_lsn;
  std::ostringstream where;
  where << "round-trip of " << appended << " records"
        << (crashed ? " (crashed)" : "") << ", recovered lsn " << n;
  if (n > appended) {
    ++result.prefix_violations;
    report.add({InvariantId::kWalPrefixConsistent, crash_step, sim::kTimeZero,
                "store", where.str() + ": recovery claims unlogged records"});
    return result;
  }
  store::RecoveredDb model;
  for (std::uint64_t i = 0; i < n; ++i) fold(model, history[i]);
  if (first.state() != model) {
    ++result.prefix_violations;
    report.add({InvariantId::kWalPrefixConsistent, crash_step, sim::kTimeZero,
                "store",
                where.str() + ": state differs from that history prefix"});
    return result;
  }
  result.records_recovered += n;
  if (n < max_acked) {
    const std::uint64_t lost = max_acked - n;
    if (options_.store.sync_policy == SyncPolicy::kAsync) {
      result.acked_lost += lost;
    } else {
      ++result.ack_violations;
      result.acked_lost += lost;
      std::ostringstream detail;
      detail << where.str() << " but acked through lsn " << max_acked
             << " under " << to_string(options_.store.sync_policy);
      report.add({InvariantId::kDurableAckNotLost, crash_step, sim::kTimeZero,
                  "store", detail.str()});
    }
  }
  return result;
}

}  // namespace mhrp::analysis
