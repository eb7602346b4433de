// SimDisk: a deterministic simulated block device — the "disk" of the
// paper's §2 requirement that the home agent's location database be
// "recorded on disk to survive any crashes and subsequent reboots".
//
// The model is the one crash-consistency literature assumes of real
// hardware: writes land in a volatile cache and become durable only at
// an explicit sync(), which persists dirty sectors one at a time in
// ascending order. A crash() loses everything still in the cache. Fault
// hooks make the interesting failure modes injectable and enumerable:
//
//  * a crash hook consulted before each sector persist during sync() —
//    the crash-consistency checker walks every such point, and can ask
//    for a *torn* persist (a prefix of the sector reaches the media);
//  * armed read errors, so recovery paths can be driven through
//    unreadable superblocks, snapshots, and log regions.
//
// Everything is synchronous and allocation-cheap; there is no real I/O
// and no wall-clock dependence, so store runs replay byte-identically.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <stdexcept>
#include <vector>

namespace mhrp::store {

class DiskError : public std::runtime_error {
 public:
  explicit DiskError(const std::string& what) : std::runtime_error(what) {}
};

/// What the crash hook tells sync() to do with the next dirty sector.
enum class PersistAction : std::uint8_t {
  kPersist,      // write the sector to the media and continue
  kCrashBefore,  // crash now: this sector and everything after is lost
  kTear,         // persist only a prefix of the sector, then crash
};

struct SimDiskStats {
  std::uint64_t writes = 0;          // write() calls
  std::uint64_t sectors_dirtied = 0; // cache sectors touched by writes
  std::uint64_t reads = 0;
  std::uint64_t syncs = 0;           // completed sync() calls
  std::uint64_t sectors_persisted = 0;
  std::uint64_t crashes = 0;         // crash() calls + hook-induced crashes
  std::uint64_t torn_sectors = 0;
  std::uint64_t read_errors = 0;     // reads refused by an armed error
};

class SimDisk {
 public:
  /// `persist_step` is a monotone counter of sectors persisted over the
  /// disk's lifetime — the coordinate system crash points are named in.
  using CrashHook =
      std::function<PersistAction(std::uint64_t persist_step,
                                  std::size_t sector, std::size_t& tear_at)>;

  SimDisk(std::size_t sector_size, std::size_t sectors)
      : sector_size_(sector_size),
        media_(sector_size * sectors, std::uint8_t{0}) {
    if (sector_size == 0 || sectors == 0) {
      throw DiskError("SimDisk: zero geometry");
    }
  }

  [[nodiscard]] std::size_t sector_size() const { return sector_size_; }
  [[nodiscard]] std::size_t sectors() const {
    return media_.size() / sector_size_;
  }
  [[nodiscard]] std::size_t size_bytes() const { return media_.size(); }
  [[nodiscard]] const SimDiskStats& stats() const { return stats_; }

  /// Buffer `data` at byte offset `at` in the volatile write cache. The
  /// bytes are NOT durable until sync(). Out-of-range writes throw.
  void write(std::size_t at, std::span<const std::uint8_t> data);

  /// Read `out.size()` bytes at `at`, seeing cached writes over the
  /// media (what the firmware's cache would serve). Throws DiskError on
  /// an armed read error covering any touched sector.
  void read(std::size_t at, std::span<std::uint8_t> out) const;
  [[nodiscard]] std::vector<std::uint8_t> read(std::size_t at,
                                               std::size_t len) const;

  /// Read straight from the durable media, bypassing the cache — what a
  /// recovery sees after a crash. Same read-error behavior.
  void read_durable(std::size_t at, std::span<std::uint8_t> out) const;

  /// Persist dirty sectors in ascending sector order, consulting the
  /// crash hook (if any) before each. Returns false when the hook
  /// injected a crash mid-sync (the cache is dropped, as crash() does).
  bool sync();

  /// Power loss: every write still in the volatile cache is gone.
  void crash();

  [[nodiscard]] bool has_unsynced_writes() const { return !cache_.empty(); }
  [[nodiscard]] std::uint64_t persist_steps() const { return persist_step_; }

  // ---- Fault hooks ----

  void set_crash_hook(CrashHook hook) { crash_hook_ = std::move(hook); }
  void clear_crash_hook() { crash_hook_ = nullptr; }

  /// All reads touching sectors [first, first + count) throw DiskError
  /// until cleared. `count` of 0 arms the whole disk.
  void arm_read_errors(std::size_t first = 0, std::size_t count = 0) {
    read_error_first_ = first;
    read_error_count_ = count == 0 ? sectors() - first : count;
  }
  void clear_read_errors() { read_error_count_ = 0; }

  /// Flip one durable media byte (tests model latent sector corruption —
  /// a record that went bad *after* it was written).
  void corrupt_media(std::size_t at, std::uint8_t xor_mask = 0xFF) {
    if (at >= media_.size()) throw DiskError("SimDisk: corrupt out of range");
    media_[at] ^= xor_mask;
  }

  [[nodiscard]] const std::vector<std::uint8_t>& media() const {
    return media_;
  }

 private:
  void check_range(std::size_t at, std::size_t len) const {
    if (at + len > media_.size() || at + len < at) {
      throw DiskError("SimDisk: access out of range");
    }
  }
  void check_readable(std::size_t at, std::size_t len) const;

  std::size_t sector_size_;
  std::vector<std::uint8_t> media_;  // durable content
  /// Dirty sectors: full sector images layered over the media.
  std::map<std::size_t, std::vector<std::uint8_t>> cache_;
  CrashHook crash_hook_;
  std::size_t read_error_first_ = 0;
  std::size_t read_error_count_ = 0;
  std::uint64_t persist_step_ = 0;
  mutable SimDiskStats stats_;
};

}  // namespace mhrp::store
