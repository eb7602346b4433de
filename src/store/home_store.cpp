#include "store/home_store.hpp"

#include <cassert>
#include <sstream>

namespace mhrp::store {

HomeStore::HomeStore(sim::Executive& sim, const StoreOptions& options)
    : sim_(sim),
      options_(options),
      disk_(std::make_unique<SimDisk>(options.sector_size,
                                      options.disk_sectors)),
      wal_(std::make_unique<WalStore>(*disk_, options)),
      sync_timer_(sim, options.sync_interval, [this] { interval_fire(); },
                  sim::EventCategory::kStoreSync),
      compaction_timer_(sim, [this] { compaction_fire(); },
                        sim::EventCategory::kStoreSync) {
  wal_->format();
  arm_sync_timer();
}

HomeStore::~HomeStore() = default;

void HomeStore::arm_sync_timer() {
  // Single-ownership check: the sweep timer must never be armed twice —
  // every path that brings the store up stops it first (crash(), or the
  // idempotence guard in recover()).
  assert(!sync_timer_.running());
  if (options_.sync_policy != SyncPolicy::kSync &&
      options_.sync_interval > 0) {
    sync_timer_.start();
  }
}

void HomeStore::note_append() {
  if (pending_since_ < 0) pending_since_ = sim_.now();
}

// Close the current group-commit window: everything appended since
// pending_since_ just became durable.
void HomeStore::note_synced(const char* reason) {
  if (pending_since_ < 0) return;
  if (trace_ != nullptr) {
    trace_->span(telemetry::TraceCategory::kStore, "wal.commit",
                 pending_since_, sim_.now(), "policy",
                 static_cast<double>(static_cast<int>(options_.sync_policy)),
                 reason, 1.0);
  }
  pending_since_ = -1;
}

HomeStore::Ticket HomeStore::log(const WalRecord& record) {
  if (down_) return {};
  // Every policy rides the group-commit batch: kSync's sync below seals
  // a one-record frame, the deferred policies share one frame per window.
  const Lsn lsn = wal_->append_buffered(record);
  if (lsn == 0) {  // a forced compaction crashed under us
    crash();
    return {};
  }
  ++stats_.logged;
  note_append();
  maybe_start_compaction();
  switch (options_.sync_policy) {
    case SyncPolicy::kSync:
      if (!wal_->sync()) {
        crash();
        return {};  // never ack a registration the crash just ate
      }
      note_synced("sync");
      ++stats_.acks_immediate;
      return {lsn, true};
    case SyncPolicy::kInterval:
      ++stats_.acks_deferred;
      return {lsn, false};
    case SyncPolicy::kAsync:
      ++stats_.acks_immediate;
      return {lsn, true};
  }
  return {};
}

bool HomeStore::flush() {
  if (down_) return false;
  if (!wal_->sync()) {
    crash();
    return false;
  }
  note_synced("flush");
  return true;
}

void HomeStore::interval_fire() {
  if (down_) return;
  if (wal_->durable_lsn() == wal_->last_lsn()) return;  // nothing pending
  if (!wal_->sync()) {
    crash();
    return;
  }
  note_synced("interval");
  ++stats_.interval_syncs;
  if (on_durable) on_durable(wal_->durable_lsn());
}

void HomeStore::maybe_start_compaction() {
  if (options_.compaction_slice_rows == 0) return;  // synchronous mode
  if (wal_->compaction_active() || !wal_->wants_compaction()) return;
  if (!wal_->compaction_begin()) return;
  ++stats_.compactions_started;
  compaction_timer_.arm(options_.compaction_slice_interval);
}

void HomeStore::compaction_fire() {
  if (down_ || !wal_->compaction_active()) return;
  if (!wal_->compaction_step(options_.compaction_slice_rows)) {
    crash();
    return;
  }
  if (wal_->compaction_active()) {
    compaction_timer_.arm(options_.compaction_slice_interval);
  } else if (on_durable) {
    // The flip made everything durable through the snapshot LSN; parked
    // acks from the covered window may go out now.
    note_synced("compaction");
    on_durable(wal_->durable_lsn());
  }
}

void HomeStore::crash() {
  if (down_) return;
  down_ = true;
  ++stats_.crashes;
  crashed_at_ = sim_.now();
  pending_since_ = -1;  // the window's appends died with the cache
  sync_timer_.stop();
  compaction_timer_.cancel();
  disk_->crash();
}

RecoveryStats HomeStore::recover() {
  if (!down_) return {};  // already mounted: recovery is a no-op
  auto out = wal_->recover();
  down_ = false;
  ++stats_.recoveries;
  if (trace_ != nullptr && crashed_at_ >= 0) {
    trace_->span(telemetry::TraceCategory::kStore, "crash.recovery",
                 crashed_at_, sim_.now(), "records_replayed",
                 static_cast<double>(out.records_replayed));
  }
  crashed_at_ = -1;
  arm_sync_timer();
  return out;
}

void HomeStore::reset() {
  disk_->crash();  // drop any cached sectors from the previous life
  wal_->format();
  down_ = false;
  pending_since_ = -1;
  crashed_at_ = -1;
  sync_timer_.stop();
  compaction_timer_.cancel();
  arm_sync_timer();
  // The log restarted at LSN 1: anything parked against old LSNs would
  // otherwise be released by unrelated future commits.
  if (on_wiped) on_wiped();
}

std::string HomeStore::digest() const {
  std::ostringstream out;
  out << "store policy=" << to_string(options_.sync_policy)
      << (down_ ? " DOWN " : " ") << wal_->state_digest();
  return out.str();
}

}  // namespace mhrp::store
