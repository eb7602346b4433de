// E-store — durability cost and crash consistency of the home-agent
// database (§2: the location database is "recorded on disk to survive
// any crashes and subsequent reboots"). Three measurements:
//
//   * raw WAL throughput — appends/sec against the SimDisk under each
//     sync policy (per-record sync, group commit of 4, no sync), every
//     record appended through the group-commit batch as HomeStore does,
//     plus recovery time for a log of the same size;
//   * the registration hot path — a seeded ScaleWorld run per policy
//     (disabled / kSync / kInterval / kAsync), reporting registrations,
//     handoff-latency percentiles, and events/sec, so the ack-latency
//     cost of group commit and the wall cost of per-record sync are
//     visible side by side;
//   * crash-point fuzzing — the CrashConsistencyChecker samples seeded
//     (persist step, torn?, tear offset) crashes under every policy and
//     the run FAILS (exit 1) on any prefix or durable-ack violation.
//     kAsync's acked-then-lost count is the experiment's headline: the
//     quantified price of acking ahead of the disk.
//
// E-bindings extensions (the million-binding home agent):
//
//   * bindings sweep — a HomeStore driven to 1e5 and 1e6 *distinct*
//     bindings per sync policy, reporting wall registrations/sec and the
//     sim-time ack RTT the policy adds (p99 under kInterval ≈ one group-
//     commit window);
//   * map vs open addressing — the BindingTable microbenchmark against
//     the std::map it replaced, same insert/probe/iterate workload; the
//     speedup column is the tentpole's ≥3x claim at 1e6 rows;
//   * compaction stall — worst single-call stall of a synchronous
//     snapshot vs the worst bounded slice of an incremental pass over
//     the same table; the run FAILS if a slice exceeds one group-commit
//     window (a registration would have stalled behind it);
//   * cache pressure — LocationCache hit rate vs capacity under a
//     skewed lookup load with movement-driven updates (capacity 0 is
//     the disabled-cache control line);
//   * construction — wall time to stand up the ScaleWorld at 1e5
//     mobiles (the superlinear-loop regression guard).
//
// The registration-path slices must pass bench/harness.hpp's slice rules;
// like the checks above, a broken one prints `INVALID:` and exits 1.
//
// Usage: bench_store [--small] [--fuzz N] [--out PATH]
//   --small    CI smoke: tiny worlds, short fuzz
//   --fuzz N   crash-point budget per policy (default 1000)
//   --out PATH where to write the JSON report (default BENCH_store.json)
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/crash_checker.hpp"
#include "core/binding_table.hpp"
#include "core/location_cache.hpp"
#include "harness.hpp"
#include "scenario/metrics.hpp"
#include "scenario/scale_world.hpp"
#include "sim/sharded_executive.hpp"
#include "store/home_store.hpp"
#include "store/sim_disk.hpp"
#include "store/wal_store.hpp"
#include "util/rng.hpp"

using namespace mhrp;

namespace {

store::StoreOptions bench_store_options(store::SyncPolicy policy) {
  store::StoreOptions o;
  o.enabled = true;
  o.sync_policy = policy;
  o.sector_size = 512;
  o.disk_sectors = 4096;
  o.snapshot_region_sectors = 256;
  o.snapshot_every = 1024;
  return o;
}

// ---- Raw WAL throughput ----

struct WalPoint {
  std::string policy;
  std::uint64_t records = 0;
  double appends_per_s = 0;
  std::uint64_t syncs = 0;
  std::uint64_t snapshots = 0;
  double recover_wall_s = 0;
  std::uint64_t records_replayed = 0;
};

WalPoint run_wal_point(bench::Harness& h, store::SyncPolicy policy,
                       std::uint64_t records) {
  store::StoreOptions o = bench_store_options(policy);
  store::SimDisk disk(o.sector_size, o.disk_sectors);
  store::WalStore wal(disk, o);
  wal.format();

  const std::uint32_t group = 4;  // kInterval's modeled commit size
  const double wall = h.timed([&] {
    for (std::uint64_t i = 0; i < records; ++i) {
      store::WalRecord r;
      r.kind = store::WalRecord::Kind::kBinding;
      r.mobile_host = net::IpAddress(0x0A010064u + std::uint32_t(i % 64));
      r.foreign_agent = net::IpAddress(0x0A020001u + std::uint32_t(i % 7));
      r.sequence = std::uint32_t(i);
      (void)wal.append_buffered(r);
      const bool commit =
          policy == store::SyncPolicy::kSync ||
          (policy == store::SyncPolicy::kInterval && (i + 1) % group == 0);
      if (commit && !wal.sync()) {
        std::fprintf(stderr, "unexpected wal crash during bench\n");
        std::exit(1);
      }
    }
    if (!wal.sync()) std::exit(1);
  });

  WalPoint p;
  p.policy = store::to_string(policy);
  p.records = records;
  p.appends_per_s = double(records) / wall;
  p.syncs = wal.stats().syncs;
  p.snapshots = wal.stats().snapshots;

  store::WalStore reopened(disk, o);
  p.recover_wall_s = h.timed(
      [&] { p.records_replayed = reopened.recover().records_replayed; });
  return p;
}

// ---- Bindings sweep: the home database at 1e5 / 1e6 bindings ----

struct BindingPoint {
  std::string policy;
  std::uint64_t bindings = 0;
  double wall_seconds = 0;
  double regs_per_s = 0;
  scenario::PercentileSummary ack_rtt{};  // sim-time ack delay, seconds
  std::uint64_t wal_batches = 0;
  std::uint64_t disk_syncs = 0;
  std::uint64_t table_slots = 0;
};

// Drives a HomeStore through `bindings` registrations for *distinct*
// mobiles (so the table really holds that many rows), one arrival every
// 20us of sim time. Ack RTT is the store-added delay: 0 when the ticket
// says ack_now, else the gap to the on_durable callback that releases it.
BindingPoint run_binding_point(bench::Harness& h, store::SyncPolicy policy,
                               std::uint64_t bindings) {
  store::StoreOptions o;
  o.enabled = true;
  o.sync_policy = policy;
  o.sector_size = 4096;
  o.snapshot_region_sectors = 16;
  o.snapshot_every = 0;  // measure the pure logging path, no compaction
  // Room for the kSync worst case (28 bytes/frame) plus slack, so the
  // log never fills mid-sweep and forces an (unfittable) snapshot.
  o.disk_sectors = 2 + 2 * o.snapshot_region_sectors +
                   bindings * 28 * 11 / 10 / o.sector_size + 64;

  sim::ShardedExecutive sim(1);
  store::HomeStore hs(sim, o);

  const sim::Time spacing = sim::micros(20);
  std::uint64_t next = 0;
  std::vector<double> rtts;
  rtts.reserve(bindings);
  std::deque<std::pair<store::Lsn, sim::Time>> parked;
  hs.on_durable = [&](store::Lsn lsn) {
    while (!parked.empty() && parked.front().first <= lsn) {
      rtts.push_back(sim::to_seconds(sim.now() - parked.front().second));
      parked.pop_front();
    }
  };

  std::function<void()> arrive = [&] {
    store::WalRecord r;
    r.kind = store::WalRecord::Kind::kBinding;
    r.mobile_host = net::IpAddress(0x0A010100u + std::uint32_t(next));
    r.foreign_agent = net::IpAddress(0x0A020001u + std::uint32_t(next % 8));
    r.sequence = std::uint32_t(next);
    const store::HomeStore::Ticket t = hs.log(r);
    if (t.ack_now) {
      rtts.push_back(0.0);
    } else {
      parked.emplace_back(t.lsn, sim.now());
    }
    if (++next < bindings) (void)sim.after(spacing, arrive);
  };
  (void)sim.after(0, arrive);

  // Two extra group-commit windows past the last arrival so the sweep
  // timer flushes (and releases) everything still parked.
  const sim::Time deadline =
      sim::Time(bindings) * spacing + 2 * o.sync_interval;
  const double wall = h.timed([&] { (void)sim.run_until(deadline); });
  if (next != bindings || !parked.empty()) {
    std::fprintf(stderr, "bindings sweep did not drain (%llu/%llu, %zu)\n",
                 static_cast<unsigned long long>(next),
                 static_cast<unsigned long long>(bindings), parked.size());
    std::exit(1);
  }

  BindingPoint p;
  p.policy = store::to_string(policy);
  p.bindings = bindings;
  p.wall_seconds = wall;
  p.regs_per_s = double(bindings) / wall;
  p.ack_rtt = scenario::summarize(std::move(rtts));
  p.wal_batches = hs.wal().stats().batches;
  p.disk_syncs = hs.disk().stats().syncs;
  p.table_slots = hs.wal().table().slot_count();
  return p;
}

// ---- Map vs open addressing: the structure swap, isolated ----

struct TablePoint {
  std::uint64_t rows = 0;
  double oa_wall_s = 0;
  double map_wall_s = 0;
  double speedup = 0;  // map_wall / oa_wall
};

// The workload the home agent actually runs: insert `rows` distinct keys
// in scrambled order, probe 2x rows random keys (bumping the sequence on
// hit, as a re-registration does), then one full ascending iteration
// (the snapshot/digest path). Identical op stream for both structures.
TablePoint run_table_point(bench::Harness& h, std::uint64_t rows) {
  constexpr std::uint32_t kBase = 0x0A010100u;
  // i * odd is a permutation of [0, rows) whenever gcd(odd, rows) == 1;
  // both row counts used here are coprime with this multiplier.
  const auto scrambled = [rows](std::uint64_t i) {
    return std::uint32_t((i * 2654435761ull) % rows);
  };
  std::uint64_t oa_check = 0, map_check = 0;

  const double oa_wall = h.timed([&] {
    core::BindingTable table;
    for (std::uint64_t i = 0; i < rows; ++i) {
      const auto e = table.try_emplace(net::IpAddress(kBase + scrambled(i)));
      table.set_sequence(e.ref, std::uint32_t(i));
    }
    util::Rng rng(0x0A5E);
    for (std::uint64_t i = 0; i < 2 * rows; ++i) {
      const auto key = kBase + std::uint32_t(rng.index(rows));
      const core::BindingTable::Ref ref = table.find(net::IpAddress(key));
      if (ref) {
        table.set_sequence(ref, table.sequence(ref) + 1);
        oa_check += table.sequence(ref);
      }
    }
    for (const net::IpAddress a : table.ascending_addresses()) {
      oa_check += a.raw();
    }
  });

  struct Row {
    std::uint32_t fa = 0;
    std::uint32_t seq = 0;
  };
  const double map_wall = h.timed([&] {
    std::map<std::uint32_t, Row> table;  // what MhrpAgent used to keep
    for (std::uint64_t i = 0; i < rows; ++i) {
      table[kBase + scrambled(i)].seq = std::uint32_t(i);
    }
    util::Rng rng(0x0A5E);
    for (std::uint64_t i = 0; i < 2 * rows; ++i) {
      const auto key = kBase + std::uint32_t(rng.index(rows));
      const auto it = table.find(key);
      if (it != table.end()) {
        ++it->second.seq;
        map_check += it->second.seq;
      }
    }
    for (const auto& [key, row] : table) map_check += key;
  });
  if (oa_check != map_check) {
    std::fprintf(stderr, "table workloads diverged (%llu vs %llu)\n",
                 static_cast<unsigned long long>(oa_check),
                 static_cast<unsigned long long>(map_check));
    std::exit(1);
  }

  TablePoint p;
  p.rows = rows;
  p.oa_wall_s = oa_wall;
  p.map_wall_s = map_wall;
  p.speedup = map_wall / oa_wall;
  return p;
}

// ---- Compaction stall: synchronous snapshot vs bounded slices ----

struct CompactionPoint {
  std::uint64_t rows = 0;
  std::size_t slice_rows = 0;
  double sync_stall_s = 0;        // the one-call snapshot() wall time
  double sliced_max_stall_s = 0;  // worst single compaction_step() wall
  std::uint64_t steps = 0;
  bool within_window = false;  // sliced stall < one group-commit window
};

store::StoreOptions compaction_options(std::uint64_t rows) {
  store::StoreOptions o;
  o.enabled = true;
  o.sector_size = 4096;
  // Each region must hold the full table image: 8 + 12 bytes/row, plus
  // patch slack.
  o.snapshot_region_sectors = (8 + rows * 12) / o.sector_size + 8;
  o.snapshot_every = 0;  // we trigger the passes by hand
  o.disk_sectors = 2 + 2 * o.snapshot_region_sectors +
                   rows * 16 / o.sector_size + 64;
  return o;
}

void fill_rows(store::WalStore& wal, std::uint64_t rows) {
  for (std::uint64_t i = 0; i < rows; ++i) {
    store::WalRecord r;
    r.kind = store::WalRecord::Kind::kBinding;
    r.mobile_host = net::IpAddress(0x0A010100u + std::uint32_t(i));
    r.foreign_agent = net::IpAddress(0x0A020001u);
    r.sequence = std::uint32_t(i);
    (void)wal.append_buffered(r);
    if ((i + 1) % 4096 == 0 && !wal.sync()) std::exit(1);
  }
  if (!wal.sync()) std::exit(1);
}

CompactionPoint run_compaction_point(bench::Harness& h, std::uint64_t rows,
                                     std::size_t slice_rows) {
  const store::StoreOptions o = compaction_options(rows);

  CompactionPoint p;
  p.rows = rows;
  p.slice_rows = slice_rows;
  {
    store::SimDisk disk(o.sector_size, o.disk_sectors);
    store::WalStore wal(disk, o);
    wal.format();
    fill_rows(wal, rows);
    p.sync_stall_s = h.timed([&] {
      if (!wal.snapshot()) std::exit(1);
    });
  }
  {
    store::SimDisk disk(o.sector_size, o.disk_sectors);
    store::WalStore wal(disk, o);
    wal.format();
    fill_rows(wal, rows);
    if (!wal.compaction_begin()) std::exit(1);
    while (wal.compaction_active()) {
      const double stall = h.timed([&] {
        if (!wal.compaction_step(slice_rows)) std::exit(1);
      });
      if (stall > p.sliced_max_stall_s) p.sliced_max_stall_s = stall;
      ++p.steps;
    }
  }
  p.within_window =
      p.sliced_max_stall_s < sim::to_seconds(store::StoreOptions{}.sync_interval);
  return p;
}

// ---- LocationCache pressure ----

struct CachePoint {
  std::size_t capacity = 0;
  std::uint64_t lookups = 0;
  double hit_rate = 0;
  std::uint64_t evictions = 0;
};

// Skewed redirect-table load: 90% of lookups target a hot eighth of the
// mobile population, every 16th op is a movement-driven update, and a
// miss installs the binding (the location-query reply would). Capacity 0
// is the disabled-cache control: every lookup misses, nothing evicts.
CachePoint run_cache_point(std::size_t capacity, std::size_t mobiles,
                           std::uint64_t ops) {
  core::LocationCache cache(capacity);
  util::Rng rng(0xCAC4E);
  const net::IpAddress fa(0x0A020001u);
  for (std::uint64_t i = 0; i < ops; ++i) {
    const std::size_t mobile =
        rng.chance(0.9) ? rng.index(mobiles / 8) : rng.index(mobiles);
    const net::IpAddress addr(0x0A010100u + std::uint32_t(mobile));
    if (i % 16 == 15) {
      cache.update(addr, fa);  // the host moved; a location update lands
    } else if (!cache.lookup(addr).has_value()) {
      cache.update(addr, fa);  // query went home; reply installs binding
    }
  }
  CachePoint p;
  p.capacity = capacity;
  p.lookups = cache.stats().hits + cache.stats().misses;
  p.hit_rate = p.lookups == 0
                   ? 0
                   : double(cache.stats().hits) / double(p.lookups);
  p.evictions = cache.stats().evictions;
  return p;
}

// ---- ScaleWorld construction time ----

struct ConstructionPoint {
  int mobiles = 0;
  double wall_seconds = 0;
  double mobiles_per_s = 0;
};

ConstructionPoint run_construction_point(bench::Harness& h, int mobiles) {
  scenario::ScaleWorldOptions opt;
  opt.routers = 16;
  opt.foreign_agents = 8;
  opt.correspondents = 2;
  opt.mobile_hosts = mobiles;
  opt.protocol.seed = 1;
  std::optional<scenario::ScaleWorld> world;
  ConstructionPoint p;
  p.mobiles = mobiles;
  p.wall_seconds = h.timed([&] {
    world.emplace(opt);
    world->start();
  });
  p.mobiles_per_s = double(mobiles) / p.wall_seconds;
  return p;
}

// ---- Registration hot path ----

struct RegPoint {
  std::string policy;  // "disabled" or a sync policy
  double sim_seconds = 0;
  double wall_seconds = 0;
  double events_per_s = 0;
  std::uint64_t wal_appends = 0;
  std::uint64_t disk_syncs = 0;
  std::uint64_t acks_deferred = 0;
  scenario::PercentileSummary handoff{};
  scenario::ScaleRunStats stats;
};

RegPoint run_reg_point(bench::Harness& h, bool enabled,
                       store::SyncPolicy policy,
                       double sim_secs, int routers, int mobiles) {
  scenario::ScaleWorldOptions opt;
  opt.routers = routers;
  opt.mobile_hosts = mobiles;
  opt.foreign_agents = 4;
  opt.correspondents = 2;
  opt.mean_dwell = sim::seconds(2);
  opt.protocol.seed = 1;
  if (enabled) {
    opt.protocol.store = bench_store_options(policy);
  }
  scenario::ScaleWorld world(opt);
  world.start();
  world.run_for(sim::seconds(2));  // warm-up

  RegPoint p;
  p.policy = enabled ? store::to_string(policy) : "disabled";
  p.sim_seconds = sim_secs;
  p.wall_seconds = h.timed(
      [&] { p.stats = world.run_for(sim::from_seconds(sim_secs)); });
  p.events_per_s = double(p.stats.events_executed) / p.wall_seconds;
  p.handoff = scenario::summarize(world.handoff_latencies());
  if (world.ha_store != nullptr) {
    p.wal_appends = world.ha_store->wal().stats().appends;
    p.disk_syncs = world.ha_store->disk().stats().syncs;
    p.acks_deferred = world.ha->stats().acks_deferred;
  }
  h.check_slice("registration path " + p.policy, p.stats);
  return p;
}

// ---- Crash-point fuzzing ----

struct FuzzPoint {
  std::string policy;
  analysis::CrashCheckerResult result{};
};

FuzzPoint run_fuzz_point(bench::Harness& h, store::SyncPolicy policy,
                         std::uint64_t budget) {
  analysis::CrashCheckerOptions o;
  o.store = bench_store_options(policy);
  o.store.disk_sectors = 512;
  o.store.snapshot_region_sectors = 32;
  o.store.snapshot_every = 64;
  o.workload_records = 160;
  o.mobiles = 6;
  o.sync_every = 4;
  o.seed = 0xD15C;  // fixed: CI compares runs across commits
  analysis::CrashConsistencyChecker checker(o);
  analysis::AuditReport report;

  FuzzPoint p;
  p.policy = store::to_string(policy);
  p.result = checker.fuzz(budget, report);
  if (!p.result.clean()) {
    std::fprintf(stderr, "VIOLATIONS under %s:\n%s%s\n", p.policy.c_str(),
                 p.result.summary().c_str(), report.to_string().c_str());
  }
  h.check(p.result.clean(),
          "crash-consistency violations under " + p.policy);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h(argc, argv, "BENCH_store.json", /*seed=*/1, {"--fuzz"});
  const bool small = h.small();

  std::printf("E-store: durability cost and crash consistency (§2)\n");

  const std::uint64_t wal_records = small ? 20000 : 200000;
  std::vector<WalPoint> wal;
  std::printf("\n  raw WAL (%llu records):\n",
              static_cast<unsigned long long>(wal_records));
  for (auto policy : {store::SyncPolicy::kSync, store::SyncPolicy::kInterval,
                      store::SyncPolicy::kAsync}) {
    WalPoint p = run_wal_point(h, policy, wal_records);
    std::printf("    %-8s | %9.0f appends/s | %6llu syncs | "
                "recover %llu records in %.4fs\n",
                p.policy.c_str(), p.appends_per_s,
                static_cast<unsigned long long>(p.syncs),
                static_cast<unsigned long long>(p.records_replayed),
                p.recover_wall_s);
    wal.push_back(p);
  }

  const std::uint64_t binding_scales[2] = {small ? 10000ull : 100000ull,
                                           small ? 100000ull : 1000000ull};
  std::vector<BindingPoint> bindings;
  std::printf("\n  bindings sweep (distinct mobiles, 20us arrivals):\n");
  for (const std::uint64_t scale : binding_scales) {
    for (auto policy : {store::SyncPolicy::kSync, store::SyncPolicy::kInterval,
                        store::SyncPolicy::kAsync}) {
      BindingPoint p = run_binding_point(h, policy, scale);
      std::printf("    %7llu x %-8s | %9.0f regs/s | ack p50=%.4fs "
                  "p99=%.4fs | %llu batches | %llu syncs\n",
                  static_cast<unsigned long long>(p.bindings),
                  p.policy.c_str(), p.regs_per_s, p.ack_rtt.p50,
                  p.ack_rtt.p99,
                  static_cast<unsigned long long>(p.wal_batches),
                  static_cast<unsigned long long>(p.disk_syncs));
      bindings.push_back(p);
    }
  }

  std::vector<TablePoint> tables;
  std::printf("\n  map vs open addressing (insert + 2x probe + iterate):\n");
  for (const std::uint64_t scale : binding_scales) {
    TablePoint p = run_table_point(h, scale);
    std::printf("    %7llu rows | oa %.3fs | map %.3fs | %.1fx\n",
                static_cast<unsigned long long>(p.rows), p.oa_wall_s,
                p.map_wall_s, p.speedup);
    tables.push_back(p);
  }
  // The tentpole's headline: >= 3x over std::map at the largest scale.
  h.check(tables.back().speedup >= 3.0,
          "BindingTable under 3x over std::map at the largest scale");

  std::vector<CompactionPoint> compaction;
  std::printf("\n  compaction stall (sync snapshot vs bounded slices):\n");
  {
    CompactionPoint p = run_compaction_point(h, binding_scales[1],
                                             small ? 512 : 4096);
    std::printf("    %7llu rows | sync %.4fs | sliced max %.6fs "
                "over %llu steps | %s\n",
                static_cast<unsigned long long>(p.rows), p.sync_stall_s,
                p.sliced_max_stall_s,
                static_cast<unsigned long long>(p.steps),
                p.within_window ? "within window" : "EXCEEDS WINDOW");
    h.check(p.within_window,
            "compaction stall exceeds one group-commit window");
    compaction.push_back(p);
  }

  const std::size_t cache_mobiles = small ? 4096 : 16384;
  const std::uint64_t cache_ops = small ? 50000 : 200000;
  std::vector<CachePoint> cache;
  std::printf(
      "\n  cache pressure (%zu mobiles, %llu ops, hot-eighth skew):\n",
      cache_mobiles, static_cast<unsigned long long>(cache_ops));
  std::vector<std::size_t> capacities = {0, 256, 1024, 4096};
  if (cache_mobiles != capacities.back()) capacities.push_back(cache_mobiles);
  for (const std::size_t capacity : capacities) {
    CachePoint p = run_cache_point(capacity, cache_mobiles, cache_ops);
    std::printf("    cap %6llu | hit rate %5.1f%% | %llu evictions\n",
                static_cast<unsigned long long>(p.capacity),
                100.0 * p.hit_rate,
                static_cast<unsigned long long>(p.evictions));
    cache.push_back(p);
  }

  const ConstructionPoint construction =
      run_construction_point(h, small ? 10000 : 100000);
  std::printf("\n  construction: %d mobiles stood up in %.2fs "
              "(%.0f mobiles/s)\n",
              construction.mobiles, construction.wall_seconds,
              construction.mobiles_per_s);

  const double sim_secs = small ? 10 : 40;
  const int routers = small ? 9 : 36;
  const int mobiles = small ? 8 : 48;
  std::vector<RegPoint> reg;
  std::printf("\n  registration path (N=%d M=%d, %.0fs sim):\n", routers,
              mobiles, sim_secs);
  reg.push_back(run_reg_point(h, false, store::SyncPolicy::kSync, sim_secs,
                              routers, mobiles));
  for (auto policy : {store::SyncPolicy::kSync, store::SyncPolicy::kInterval,
                      store::SyncPolicy::kAsync}) {
    reg.push_back(run_reg_point(h, true, policy, sim_secs, routers, mobiles));
  }
  for (const RegPoint& p : reg) {
    std::printf("    %-8s | %7.0f events/s | %5llu regs | "
                "handoff p50=%.3fs p99=%.3fs | %llu syncs\n",
                p.policy.c_str(), p.events_per_s,
                static_cast<unsigned long long>(p.stats.registrations),
                p.handoff.p50, p.handoff.p99,
                static_cast<unsigned long long>(p.disk_syncs));
  }

  const std::string fuzz_flag = h.flag("--fuzz");
  const std::uint64_t budget =
      fuzz_flag.empty() ? (small ? 200 : 1000)
                        : std::strtoull(fuzz_flag.c_str(), nullptr, 10);
  std::vector<FuzzPoint> fuzz;
  std::printf("\n  crash fuzz (%llu points/policy, seed 0xD15C):\n",
              static_cast<unsigned long long>(budget));
  for (auto policy : {store::SyncPolicy::kSync, store::SyncPolicy::kInterval,
                      store::SyncPolicy::kAsync}) {
    FuzzPoint p = run_fuzz_point(h, policy, budget);
    std::printf("    %-8s | %s\n", p.policy.c_str(),
                p.result.summary().c_str());
    fuzz.push_back(p);
  }

  return h.finish([&] {
    h.rows("wal", wal, [&](const WalPoint& p) {
      h.field("policy", p.policy);
      h.field("records", p.records);
      h.field("appends_per_sec", p.appends_per_s);
      h.field("syncs", p.syncs);
      h.field("snapshots", p.snapshots);
      h.field("recover_wall_s", p.recover_wall_s);
      h.field("records_replayed", p.records_replayed);
    });
    h.rows("bindings", bindings, [&](const BindingPoint& p) {
      h.field("policy", p.policy);
      h.field("bindings", p.bindings);
      h.field("wall_seconds", p.wall_seconds);
      h.field("regs_per_sec", p.regs_per_s);
      h.summary("ack_rtt_s", p.ack_rtt);
      h.field("wal_batches", p.wal_batches);
      h.field("disk_syncs", p.disk_syncs);
      h.field("table_slots", p.table_slots);
    });
    h.rows("map_vs_oa", tables, [&](const TablePoint& p) {
      h.field("rows", p.rows);
      h.field("oa_wall_s", p.oa_wall_s);
      h.field("map_wall_s", p.map_wall_s);
      h.field("speedup", p.speedup);
    });
    h.rows("compaction_stall", compaction, [&](const CompactionPoint& p) {
      h.field("rows", p.rows);
      h.field("slice_rows", p.slice_rows);
      h.field("sync_stall_s", p.sync_stall_s);
      h.field("sliced_max_stall_s", p.sliced_max_stall_s);
      h.field("steps", p.steps);
      h.field("within_window", p.within_window);
    });
    h.rows("cache_pressure", cache, [&](const CachePoint& p) {
      h.field("capacity", p.capacity);
      h.field("lookups", p.lookups);
      h.field("hit_rate", p.hit_rate);
      h.field("evictions", p.evictions);
    });
    h.object("construction", [&] {
      h.field("mobiles", construction.mobiles);
      h.field("wall_seconds", construction.wall_seconds);
      h.field("mobiles_per_sec", construction.mobiles_per_s);
    });
    h.rows("registration_path", reg, [&](const RegPoint& p) {
      h.field("policy", p.policy);
      h.field("sim_seconds", p.sim_seconds);
      h.field("wall_seconds", p.wall_seconds);
      h.field("events_per_sec", p.events_per_s);
      h.field("registrations", p.stats.registrations);
      h.field("wal_appends", p.wal_appends);
      h.field("disk_syncs", p.disk_syncs);
      h.field("acks_deferred", p.acks_deferred);
      h.summary("handoff_s", p.handoff);
      h.counts("counts", p.stats);
    });
    h.rows("crash_fuzz", fuzz, [&](const FuzzPoint& p) {
      const analysis::CrashCheckerResult& r = p.result;
      h.field("policy", p.policy);
      h.field("runs", r.runs);
      h.field("crash_points", r.crash_points);
      h.field("torn_runs", r.torn_runs);
      h.field("acked_before_crash", r.acked_before_crash);
      h.field("acked_lost", r.acked_lost);
      h.field("prefix_violations", r.prefix_violations);
      h.field("ack_violations", r.ack_violations);
      h.field("determinism_violations", r.determinism_violations);
    });
  });
}
