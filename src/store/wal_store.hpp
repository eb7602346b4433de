// WalStore: the durable home-agent database — a checksummed append-only
// write-ahead log of registration/deregistration records over a SimDisk,
// with periodic snapshot + log compaction and a recovery path that
// replays the longest valid prefix.
//
// On-disk layout (all integers big-endian, every region checksummed):
//
//   sector 0,1   two superblock copies. Each carries an epoch; recovery
//                takes the valid copy with the larger epoch, so a torn
//                superblock write can only lose the *newest* flip, never
//                both. Superblocks are rewritten alternately.
//   snapshot A/B two fixed regions, double-buffered. A compaction writes
//                the full database into the *inactive* region, syncs it,
//                then flips the superblock; a crash at any intermediate
//                step leaves the old superblock pointing at the old
//                snapshot + old log, which is still a consistent prefix.
//   log          append-only records from the first sector past the
//                snapshot regions to the end of the disk.
//
// Log framing — every frame is one group-commit batch:
//
//   magic 0xB7 u8 | count u16 | first_lsn u64 |
//   count × (kind u8 | mobile u32 | fa u32 | seq u32) |
//   crc32 u32                                (crc over everything before)
//
// Records buffered between syncs are sealed into one frame with one CRC,
// so a frame costs 28 bytes for its first record and 13 for each further
// one. Its LSNs are contiguous from first_lsn. Every sync policy writes
// this shape: under kSync each sync seals a one-record frame. Recovery
// replays frames while magic, CRC, and LSN contiguity all hold and stops
// at the first violation — a torn tail (frames tear whole: the CRC fails
// and the entire frame is discarded, which is exactly the all-or-nothing
// a group commit wants), a corrupt record, or a stale pre-compaction
// leftover all end the valid prefix.
//
// Snapshot format:  base_count u32 | base rows × (mobile u32 | fa u32 |
//                   seq u32) | patch_count u32 | patch × (op u8 |
//                   mobile u32 | fa u32 | seq u32)
//
// The patch section exists for *incremental* compaction: a million-row
// table is serialized in bounded slices (compaction_begin/step) over an
// address list frozen at begin time, while registrations keep appending.
// Rows mutated mid-pass are re-recorded in the patch (op 1 = upsert,
// op 2 = erase), so base ⊕ patch equals the state at flip time. A
// synchronous snapshot() is the same path run to completion at once and
// writes an empty patch.
//
// The WalStore also keeps the materialized state in memory — an
// open-addressed core::BindingTable sized for 10⁶+ rows: appends apply
// to it, snapshots serialize it (ascending-address order), and the
// agent's own table is rebuilt from it on recovery.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/binding_table.hpp"
#include "net/ip_address.hpp"
#include "store/sim_disk.hpp"
#include "store/store_options.hpp"

namespace mhrp::store {

using Lsn = std::uint64_t;

/// One logged home-database mutation (§3 notifications as the home agent
/// records them): provision creates the row, binding moves it (a
/// foreign agent, zero for "at home", the detached sentinel for a
/// graceful disconnect), erase retires it (registration timeout).
struct WalRecord {
  enum class Kind : std::uint8_t {
    kProvision = 1,
    kBinding = 2,
    kErase = 3,
  };
  Kind kind = Kind::kBinding;
  net::IpAddress mobile_host;
  net::IpAddress foreign_agent;
  std::uint32_t sequence = 0;

  [[nodiscard]] bool operator==(const WalRecord&) const = default;
};

struct RecoveredRow {
  net::IpAddress foreign_agent;
  std::uint32_t sequence = 0;

  [[nodiscard]] bool operator==(const RecoveredRow&) const = default;
};

using RecoveredDb = std::map<net::IpAddress, RecoveredRow>;

struct RecoveryStats {
  bool superblock_found = false;   // any valid superblock at all
  bool superblock_fallback = false;  // newest copy invalid, older used
  bool snapshot_used = false;
  bool snapshot_unreadable = false;  // pointed-to snapshot failed checks
  Lsn snapshot_lsn = 0;            // LSN the snapshot covers through
  std::uint64_t records_replayed = 0;
  Lsn last_lsn = 0;                // highest LSN in the recovered state
  /// Why replay stopped: end-of-log (clean), or a framing/CRC/LSN
  /// violation (the discarded suffix began here).
  bool stopped_at_invalid = false;
};

struct WalStoreStats {
  std::uint64_t appends = 0;
  std::uint64_t bytes_appended = 0;
  std::uint64_t syncs = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t forced_snapshots = 0;  // log region filled up
  std::uint64_t batches = 0;           // group-commit frames sealed
  std::uint64_t batched_appends = 0;   // records that rode in a batch
  std::uint64_t compaction_steps = 0;  // bounded slices executed
  std::uint64_t patched_rows = 0;      // rows re-recorded mid-compaction
};

class WalStore {
 public:
  /// Binds to `disk` (which must outlive the store) without touching
  /// it. Call recover() to load existing state and position the log
  /// tail, or format() to initialize an empty store.
  WalStore(SimDisk& disk, const StoreOptions& options);

  WalStore(const WalStore&) = delete;
  WalStore& operator=(const WalStore&) = delete;

  /// Write empty superblocks and an empty log, then sync. The previous
  /// contents are unrecoverable afterwards (a replica rebuilt from
  /// scratch on a fresh disk).
  void format();

  /// Read superblocks, load the pointed-to snapshot, replay the longest
  /// valid log prefix, and position the tail so appends continue the
  /// sequence. Safe to call repeatedly; recovery mutates nothing on
  /// disk, so calling it twice yields byte-identical results.
  [[nodiscard]] RecoveryStats recover();

  /// Append one record into the open group-commit batch: it gets an LSN
  /// and applies to the in-memory state immediately, but hits the disk
  /// (one frame, one CRC) only when the batch seals — at the next
  /// sync() or append(). Triggers snapshot+compaction when the configured
  /// record budget or the log region is exhausted; the snapshot covers
  /// the open batch. Returns the LSN (0 when the store is down).
  [[nodiscard]] Lsn append_buffered(const WalRecord& record);

  /// append_buffered() with the record sealed into a frame of its own
  /// (volatile until the next sync()); tests use it to lay out one frame
  /// per record.
  [[nodiscard]] Lsn append(const WalRecord& record);

  /// Make everything appended so far durable (sealing the open batch
  /// first). Returns false when the disk's crash hook injected a crash
  /// mid-sync.
  [[nodiscard]] bool sync();

  /// Serialize the current state into the inactive snapshot region,
  /// flip the superblock, and logically truncate the log — all at once
  /// (equivalent to compaction_begin() + steps to completion). Durable
  /// when it returns true (the flip is synced); false = crashed mid-way.
  [[nodiscard]] bool snapshot();

  // ---- Incremental compaction ----
  // A million-row snapshot written in one call stalls every registration
  // behind it; these run the same serialization in bounded slices. The
  // address list is frozen at begin(); step(max_rows) serializes the
  // next slice; mutations landing mid-pass are recorded and written as
  // the patch section by the final step, which also flips the
  // superblock and truncates the log. A crash mid-pass is harmless: the
  // old superblock still points at the old snapshot + log.

  /// Start a pass. False when down or a pass is already active.
  [[nodiscard]] bool compaction_begin();
  /// Serialize up to `max_rows` more rows (the final slice also writes
  /// the patch, flips, and truncates). False = crashed mid-step.
  [[nodiscard]] bool compaction_step(std::size_t max_rows);
  [[nodiscard]] bool compaction_active() const { return comp_active_; }
  /// Has the append volume since the last snapshot crossed the
  /// compaction budget? (The slice driver polls this.)
  [[nodiscard]] bool wants_compaction() const {
    return options_.snapshot_every != 0 &&
           records_since_snapshot_ >= options_.snapshot_every;
  }

  /// True once a disk crash hook fired mid-sync: the "machine" is down
  /// and every append/sync/snapshot is inert until recover() or
  /// format() brings the store back up.
  [[nodiscard]] bool crashed() const { return crashed_; }

  /// The materialized database, as a sorted map (cold paths: replica
  /// bootstrap, checker comparisons). O(n log n) — prefer table() for
  /// lookups.
  [[nodiscard]] RecoveredDb state() const;
  /// Direct read access to the open-addressed state table.
  [[nodiscard]] const core::BindingTable& table() const { return state_; }
  [[nodiscard]] Lsn last_lsn() const { return next_lsn_ - 1; }
  [[nodiscard]] Lsn durable_lsn() const { return durable_lsn_; }
  [[nodiscard]] const WalStoreStats& stats() const { return stats_; }
  [[nodiscard]] SimDisk& disk() { return *disk_; }

  /// Deterministic one-line rendering of the recovered/current state
  /// (tests compare recoveries byte-for-byte through this).
  [[nodiscard]] std::string state_digest() const;

  // Layout coordinates, exposed for the checker and for tests that
  // corrupt specific structures.
  [[nodiscard]] std::size_t log_start() const { return log_start_; }
  [[nodiscard]] std::size_t snapshot_offset(int region) const;
  /// Records buffered in the open batch (not yet on the write path).
  [[nodiscard]] std::size_t pending_batch_size() const {
    return pending_.size();
  }

 private:
  struct Superblock {
    std::uint64_t epoch = 0;
    std::uint8_t snapshot_region = 0;  // 0/1, which region is live
    std::uint32_t snapshot_len = 0;    // 0 = no snapshot yet
    Lsn snapshot_lsn = 0;              // state covers LSNs <= this
    std::uint32_t snapshot_crc = 0;
  };

  void apply(const WalRecord& record);
  /// Write the open batch as one frame at the log tail. No-op when
  /// empty or crashed; does not sync.
  void seal_batch();
  /// Complete any active pass synchronously, or run a full snapshot.
  [[nodiscard]] bool snapshot_now();
  [[nodiscard]] bool compaction_finish();
  void compaction_abort();
  void write_superblock(int slot, const Superblock& sb);
  [[nodiscard]] std::optional<Superblock> read_superblock(int slot) const;
  [[nodiscard]] bool load_snapshot(const Superblock& sb,
                                   core::BindingTable& out) const;

  SimDisk* disk_;
  StoreOptions options_;
  std::size_t snapshot_region_bytes_;
  std::size_t log_start_;
  std::size_t log_tail_;  // next append offset
  Superblock current_sb_;
  core::BindingTable state_;
  Lsn next_lsn_ = 1;
  Lsn durable_lsn_ = 0;
  std::uint32_t records_since_snapshot_ = 0;
  bool in_snapshot_ = false;  // re-entrancy guard (append during compaction)
  bool crashed_ = false;

  // Open group-commit batch: records applied to state_ and assigned
  // LSNs, awaiting one sealed frame. pending_first_lsn_ tracks frame
  // framing; entries are (kind, mobile, fa, seq) in append order.
  std::vector<WalRecord> pending_;
  Lsn pending_first_lsn_ = 0;

  // Incremental compaction pass state.
  bool comp_active_ = false;
  int comp_target_ = 0;                   // region being written
  std::vector<std::uint32_t> comp_keys_;  // frozen, ascending
  std::size_t comp_next_ = 0;             // next index into comp_keys_
  std::size_t comp_len_ = 0;              // bytes written so far
  std::uint32_t comp_crc_ = 0;            // running CRC over the region
  std::vector<std::uint32_t> comp_dirty_;  // addresses mutated mid-pass

  WalStoreStats stats_;
};

}  // namespace mhrp::store
