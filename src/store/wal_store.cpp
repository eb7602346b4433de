#include "store/wal_store.hpp"

#include <algorithm>
#include <sstream>

#include "util/byte_buffer.hpp"
#include "util/checksum.hpp"

namespace mhrp::store {

namespace {

constexpr std::uint32_t kSuperMagic = 0x4D485753;  // "MHWS"
constexpr std::uint8_t kBatchMagic = 0xB7;
// The checksummed payload (magic..snapshot_crc); the trailing crc32 over
// exactly these bytes makes the on-disk superblock 4 bytes longer.
constexpr std::size_t kSuperblockBytes = 4 + 8 + 1 + 4 + 8 + 4;
// Batch frame: magic u8 | count u16 | first_lsn u64 | entries | crc u32.
constexpr std::size_t kBatchHeaderBytes = 1 + 2 + 8;
constexpr std::size_t kBatchEntryBytes = 1 + 4 + 4 + 4;
constexpr std::size_t kBatchOverheadBytes = kBatchHeaderBytes + 4;
constexpr std::size_t kMaxBatchRecords = 0xFFFF;  // count is a u16
// A frame of `records` entries: 28 bytes for one, 13 per further record.
constexpr std::size_t frame_bytes(std::size_t records) {
  return kBatchOverheadBytes + records * kBatchEntryBytes;
}
// Snapshot sections: 12-byte base rows, 13-byte typed patch entries.
constexpr std::size_t kSnapRowBytes = 4 + 4 + 4;
constexpr std::size_t kPatchEntryBytes = 1 + 4 + 4 + 4;
constexpr std::uint8_t kPatchUpsert = 1;
constexpr std::uint8_t kPatchErase = 2;

bool valid_kind(WalRecord::Kind kind) {
  return kind == WalRecord::Kind::kProvision ||
         kind == WalRecord::Kind::kBinding || kind == WalRecord::Kind::kErase;
}

}  // namespace

WalStore::WalStore(SimDisk& disk, const StoreOptions& options)
    : disk_(&disk), options_(options) {
  const std::size_t ss = disk.sector_size();
  snapshot_region_bytes_ = options.snapshot_region_sectors * ss;
  log_start_ = (2 + 2 * options.snapshot_region_sectors) * ss;
  log_tail_ = log_start_;
  if (log_start_ + frame_bytes(1) > disk.size_bytes()) {
    throw DiskError("WalStore: disk too small for the configured layout");
  }
  if (kSuperblockBytes + 4 > ss) {
    throw DiskError("WalStore: sector smaller than a superblock");
  }
}

std::size_t WalStore::snapshot_offset(int region) const {
  return (2 + static_cast<std::size_t>(region) *
                  options_.snapshot_region_sectors) *
         disk_->sector_size();
}

void WalStore::write_superblock(int slot, const Superblock& sb) {
  util::ByteWriter w(kSuperblockBytes + 4);
  w.u32(kSuperMagic);
  w.u64(sb.epoch);
  w.u8(sb.snapshot_region);
  w.u32(sb.snapshot_len);
  w.u64(sb.snapshot_lsn);
  w.u32(sb.snapshot_crc);
  w.u32(util::crc32(w.view()));
  disk_->write(static_cast<std::size_t>(slot) * disk_->sector_size(),
               w.view());
}

std::optional<WalStore::Superblock> WalStore::read_superblock(
    int slot) const {
  std::vector<std::uint8_t> bytes;
  try {
    bytes = disk_->read(
        static_cast<std::size_t>(slot) * disk_->sector_size(),
        kSuperblockBytes + 4);
  } catch (const DiskError&) {
    return std::nullopt;
  }
  try {
    util::ByteReader r(bytes);
    Superblock sb;
    if (r.u32() != kSuperMagic) return std::nullopt;
    sb.epoch = r.u64();
    sb.snapshot_region = r.u8();
    sb.snapshot_len = r.u32();
    sb.snapshot_lsn = r.u64();
    sb.snapshot_crc = r.u32();
    const std::uint32_t crc = r.u32();
    if (crc != util::crc32(std::span(bytes).first(kSuperblockBytes))) {
      return std::nullopt;
    }
    if (sb.snapshot_region > 1 ||
        sb.snapshot_len > snapshot_region_bytes_) {
      return std::nullopt;
    }
    return sb;
  } catch (const util::CodecError&) {
    return std::nullopt;
  }
}

bool WalStore::load_snapshot(const Superblock& sb,
                             core::BindingTable& out) const {
  std::vector<std::uint8_t> bytes;
  try {
    bytes = disk_->read(snapshot_offset(sb.snapshot_region), sb.snapshot_len);
  } catch (const DiskError&) {
    return false;
  }
  if (util::crc32(bytes) != sb.snapshot_crc) return false;
  try {
    util::ByteReader r(bytes);
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      const net::IpAddress mobile(r.u32());
      const net::IpAddress fa(r.u32());
      const std::uint32_t seq = r.u32();
      const auto e = out.try_emplace(mobile);
      if (!e.inserted) continue;  // duplicate base row: keep the first
      out.set_foreign_agent(e.ref, fa);
      out.set_sequence(e.ref, seq);
    }
    const std::uint32_t patches = r.u32();
    for (std::uint32_t i = 0; i < patches; ++i) {
      const std::uint8_t op = r.u8();
      const net::IpAddress mobile(r.u32());
      const net::IpAddress fa(r.u32());
      const std::uint32_t seq = r.u32();
      if (op == kPatchUpsert) {
        const auto e = out.try_emplace(mobile);
        out.set_foreign_agent(e.ref, fa);
        out.set_sequence(e.ref, seq);
      } else if (op == kPatchErase) {
        (void)out.erase(mobile);
      } else {
        return false;
      }
    }
    return true;
  } catch (const util::CodecError&) {
    return false;
  }
}

void WalStore::format() {
  // Blank both superblock slots, then write epoch 1 (slot 1 = 1 % 2).
  const std::vector<std::uint8_t> zero(disk_->sector_size(), 0);
  disk_->write(0, zero);
  disk_->write(disk_->sector_size(), zero);
  Superblock sb;
  sb.epoch = 1;
  write_superblock(1, sb);
  (void)disk_->sync();
  current_sb_ = sb;
  state_.clear();
  next_lsn_ = 1;
  durable_lsn_ = 0;
  log_tail_ = log_start_;
  records_since_snapshot_ = 0;
  crashed_ = false;
  pending_.clear();
  pending_first_lsn_ = 0;
  compaction_abort();
}

RecoveryStats WalStore::recover() {
  RecoveryStats out;
  crashed_ = false;
  pending_.clear();
  pending_first_lsn_ = 0;
  compaction_abort();
  const auto sb0 = read_superblock(0);
  const auto sb1 = read_superblock(1);
  out.superblock_found = sb0.has_value() || sb1.has_value();

  Superblock chosen;  // epoch 0: nothing valid, recover from log alone
  if (sb0.has_value() && sb1.has_value()) {
    chosen = sb0->epoch >= sb1->epoch ? *sb0 : *sb1;
  } else if (sb0.has_value() || sb1.has_value()) {
    chosen = sb0.has_value() ? *sb0 : *sb1;
    // The other slot holds something unparsable (torn flip) rather than
    // the blank a fresh format leaves.
    std::vector<std::uint8_t> other;
    try {
      other = disk_->read(
          (sb0.has_value() ? 1u : 0u) * disk_->sector_size(),
          kSuperblockBytes + 4);
    } catch (const DiskError&) {
    }
    for (std::uint8_t b : other) {
      if (b != 0) {
        out.superblock_fallback = true;
        break;
      }
    }
  }

  state_.clear();
  Lsn base_lsn = 0;
  if (chosen.epoch != 0 && chosen.snapshot_len != 0) {
    core::BindingTable snap;
    if (load_snapshot(chosen, snap)) {
      state_ = std::move(snap);
      out.snapshot_used = true;
      out.snapshot_lsn = chosen.snapshot_lsn;
      base_lsn = chosen.snapshot_lsn;
    } else {
      out.snapshot_unreadable = true;
      // The deltas in the log are meaningless without their base; stop
      // with an empty database rather than replaying onto the wrong one.
      current_sb_ = chosen;
      next_lsn_ = chosen.snapshot_lsn + 1;
      durable_lsn_ = chosen.snapshot_lsn;
      log_tail_ = log_start_;
      records_since_snapshot_ = 0;
      out.last_lsn = chosen.snapshot_lsn;
      return out;
    }
  }

  // Replay the longest valid prefix of the log, one frame at a time. A
  // frame that is torn, corrupt or carries a bad kind ends the prefix and
  // is dropped whole (all-or-nothing); a stale LSN ends it cleanly.
  Lsn expected = base_lsn + 1;
  std::size_t offset = log_start_;
  std::vector<WalRecord> records;
  while (offset < disk_->size_bytes()) {
    std::vector<std::uint8_t> bytes;
    std::uint16_t count = 0;
    Lsn first_lsn = 0;
    try {
      if (disk_->read(offset, 1).front() != kBatchMagic) break;  // clean end
      bytes = disk_->read(offset, kBatchHeaderBytes);
      util::ByteReader head(bytes);
      (void)head.u8();
      count = head.u16();
      first_lsn = head.u64();
      if (count == 0) {
        out.stopped_at_invalid = true;
        break;
      }
      // Throws when the frame would run off the end of the disk.
      bytes = disk_->read(offset, frame_bytes(count));
    } catch (const DiskError&) {
      out.stopped_at_invalid = true;
      break;
    }
    const std::span<const std::uint8_t> frame(bytes);
    util::ByteReader tail(frame.last(4));
    if (tail.u32() != util::crc32(frame.first(frame.size() - 4))) {
      out.stopped_at_invalid = true;  // torn or corrupt frame
      break;
    }
    if (first_lsn != expected) break;  // stale pre-compaction leftover
    util::ByteReader r(frame.subspan(kBatchHeaderBytes));
    records.clear();
    for (std::uint16_t i = 0; i < count; ++i) {
      WalRecord rec;
      rec.kind = static_cast<WalRecord::Kind>(r.u8());
      rec.mobile_host = net::IpAddress(r.u32());
      rec.foreign_agent = net::IpAddress(r.u32());
      rec.sequence = r.u32();
      if (!valid_kind(rec.kind)) break;
      records.push_back(rec);
    }
    if (records.size() != count) {
      out.stopped_at_invalid = true;
      break;
    }
    for (const WalRecord& rec : records) apply(rec);
    expected += count;
    out.records_replayed += count;
    offset += frame.size();
  }

  current_sb_ = chosen;
  next_lsn_ = expected;
  durable_lsn_ = expected - 1;
  log_tail_ = offset;
  records_since_snapshot_ =
      static_cast<std::uint32_t>(out.records_replayed);
  out.last_lsn = expected - 1;
  return out;
}

void WalStore::apply(const WalRecord& record) {
  switch (record.kind) {
    case WalRecord::Kind::kProvision: {
      const auto e = state_.try_emplace(record.mobile_host);
      if (e.inserted) {
        state_.set_foreign_agent(e.ref, record.foreign_agent);
        state_.set_sequence(e.ref, record.sequence);
      }
      break;
    }
    case WalRecord::Kind::kBinding: {
      const auto e = state_.try_emplace(record.mobile_host);
      state_.set_foreign_agent(e.ref, record.foreign_agent);
      state_.set_sequence(e.ref, record.sequence);
      break;
    }
    case WalRecord::Kind::kErase:
      (void)state_.erase(record.mobile_host);
      break;
  }
  // Rows touched while an incremental compaction pass is serializing get
  // re-recorded in the snapshot's patch section at flip time.
  if (comp_active_) comp_dirty_.push_back(record.mobile_host.raw());
}

void WalStore::seal_batch() {
  if (pending_.empty() || crashed_) return;
  util::ByteWriter w(frame_bytes(pending_.size()));
  w.u8(kBatchMagic);
  w.u16(static_cast<std::uint16_t>(pending_.size()));
  w.u64(pending_first_lsn_);
  for (const WalRecord& rec : pending_) {
    w.u8(static_cast<std::uint8_t>(rec.kind));
    w.u32(rec.mobile_host.raw());
    w.u32(rec.foreign_agent.raw());
    w.u32(rec.sequence);
  }
  w.u32(util::crc32(w.view()));
  disk_->write(log_tail_, w.view());
  log_tail_ += w.size();
  stats_.bytes_appended += w.size();
  ++stats_.batches;
  pending_.clear();
  pending_first_lsn_ = 0;
}

Lsn WalStore::append(const WalRecord& record) {
  seal_batch();  // on-disk frame order must match LSN order
  const Lsn lsn = append_buffered(record);
  seal_batch();
  return lsn;
}

Lsn WalStore::append_buffered(const WalRecord& record) {
  if (crashed_) return 0;
  if (pending_.size() >= kMaxBatchRecords) seal_batch();  // u16 count
  if (!in_snapshot_ &&
      log_tail_ + frame_bytes(pending_.size() + 1) > disk_->size_bytes()) {
    ++stats_.forced_snapshots;
    // The forced snapshot covers (and discards) the open batch, then
    // truncates the log, making room for a fresh frame.
    if (!snapshot()) return 0;
  }
  if (pending_.empty()) pending_first_lsn_ = next_lsn_;
  const Lsn lsn = next_lsn_++;
  pending_.push_back(record);
  apply(record);
  ++records_since_snapshot_;
  ++stats_.appends;
  ++stats_.batched_appends;
  if (!in_snapshot_ && options_.compaction_slice_rows == 0 &&
      wants_compaction()) {
    (void)snapshot();
  }
  return lsn;
}

bool WalStore::sync() {
  if (crashed_) return false;
  seal_batch();
  if (!disk_->sync()) {
    crashed_ = true;
    return false;
  }
  durable_lsn_ = next_lsn_ - 1;
  ++stats_.syncs;
  return true;
}

bool WalStore::snapshot_now() {
  if (!comp_active_ && !compaction_begin()) return false;
  while (comp_active_) {
    if (!compaction_step(static_cast<std::size_t>(-1))) return false;
  }
  return true;
}

bool WalStore::snapshot() {
  if (crashed_) return false;
  if (in_snapshot_) return true;
  in_snapshot_ = true;
  bool ok = false;
  try {
    ok = snapshot_now();
  } catch (...) {
    in_snapshot_ = false;
    throw;
  }
  in_snapshot_ = false;
  return ok;
}

bool WalStore::compaction_begin() {
  if (crashed_ || comp_active_) return false;
  comp_keys_.clear();
  comp_keys_.reserve(state_.size());
  for (net::IpAddress addr : state_.ascending_addresses()) {
    comp_keys_.push_back(addr.raw());
  }
  // The base must fit with room for at least the empty patch; mid-pass
  // churn needs patch slack on top (see StoreOptions sizing note).
  if (4 + comp_keys_.size() * kSnapRowBytes + 4 > snapshot_region_bytes_) {
    throw DiskError("WalStore: snapshot exceeds its region; size the "
                    "store for the provisioned host count");
  }
  comp_target_ = current_sb_.snapshot_region == 0 ? 1 : 0;
  comp_next_ = 0;
  comp_len_ = 0;
  comp_crc_ = 0;
  comp_dirty_.clear();
  util::ByteWriter w(4);
  w.u32(static_cast<std::uint32_t>(comp_keys_.size()));
  const auto head = w.take();
  disk_->write(snapshot_offset(comp_target_), head);
  comp_crc_ = util::crc32(head, comp_crc_);
  comp_len_ = head.size();
  comp_active_ = true;
  return true;
}

bool WalStore::compaction_step(std::size_t max_rows) {
  if (crashed_) return false;
  if (!comp_active_) return true;
  const std::size_t end =
      comp_next_ + std::min(max_rows, comp_keys_.size() - comp_next_);
  if (end > comp_next_) {
    util::ByteWriter w((end - comp_next_) * kSnapRowBytes);
    for (std::size_t i = comp_next_; i < end; ++i) {
      const net::IpAddress mobile(comp_keys_[i]);
      const core::BindingTable::Ref row = state_.find(mobile);
      w.u32(comp_keys_[i]);
      if (row) {
        w.u32(state_.foreign_agent(row).raw());
        w.u32(state_.sequence(row));
      } else {
        // Erased since begin(); the patch section carries the erase (the
        // mutation was recorded in comp_dirty_), so this placeholder
        // never survives into the recovered state.
        w.u32(0);
        w.u32(0);
      }
    }
    const auto chunk = w.take();
    disk_->write(snapshot_offset(comp_target_) + comp_len_, chunk);
    comp_crc_ = util::crc32(chunk, comp_crc_);
    comp_len_ += chunk.size();
    comp_next_ = end;
  }
  ++stats_.compaction_steps;
  if (comp_next_ >= comp_keys_.size()) return compaction_finish();
  return true;
}

bool WalStore::compaction_finish() {
  // Patch section: every address mutated since begin(), re-serialized
  // from the *current* state (or erased), so base ⊕ patch is exactly
  // the state as of this moment.
  std::sort(comp_dirty_.begin(), comp_dirty_.end());
  comp_dirty_.erase(std::unique(comp_dirty_.begin(), comp_dirty_.end()),
                    comp_dirty_.end());
  util::ByteWriter w(4 + comp_dirty_.size() * kPatchEntryBytes);
  w.u32(static_cast<std::uint32_t>(comp_dirty_.size()));
  for (std::uint32_t raw : comp_dirty_) {
    const net::IpAddress mobile(raw);
    const core::BindingTable::Ref row = state_.find(mobile);
    if (row) {
      w.u8(kPatchUpsert);
      w.u32(raw);
      w.u32(state_.foreign_agent(row).raw());
      w.u32(state_.sequence(row));
    } else {
      w.u8(kPatchErase);
      w.u32(raw);
      w.u32(0);
      w.u32(0);
    }
  }
  const auto patch = w.take();
  if (comp_len_ + patch.size() > snapshot_region_bytes_) {
    compaction_abort();
    throw DiskError("WalStore: snapshot exceeds its region; size the "
                    "store for the provisioned host count");
  }
  disk_->write(snapshot_offset(comp_target_) + comp_len_, patch);
  comp_crc_ = util::crc32(patch, comp_crc_);
  comp_len_ += patch.size();
  stats_.patched_rows += comp_dirty_.size();

  // The snapshot region must be durable before any superblock points at
  // it; this sync also carries any still-cached log sectors (harmless).
  if (!disk_->sync()) {
    crashed_ = true;
    compaction_abort();
    return false;
  }

  Superblock sb;
  sb.epoch = current_sb_.epoch + 1;
  sb.snapshot_region = static_cast<std::uint8_t>(comp_target_);
  sb.snapshot_len = static_cast<std::uint32_t>(comp_len_);
  sb.snapshot_lsn = next_lsn_ - 1;
  sb.snapshot_crc = comp_crc_;
  // Alternate slots by epoch so the flip overwrites the *older* copy and
  // a torn write can never destroy the only valid superblock.
  write_superblock(static_cast<int>(sb.epoch % 2), sb);
  if (!disk_->sync()) {
    crashed_ = true;
    compaction_abort();
    return false;
  }

  current_sb_ = sb;
  log_tail_ = log_start_;
  records_since_snapshot_ = 0;
  durable_lsn_ = next_lsn_ - 1;
  // Any open batch is covered by the snapshot (its records applied to
  // the state before the base/patch serialized them); drop it rather
  // than writing a frame the next compaction would only truncate.
  pending_.clear();
  pending_first_lsn_ = 0;
  ++stats_.snapshots;
  compaction_abort();
  return true;
}

void WalStore::compaction_abort() {
  comp_active_ = false;
  comp_keys_.clear();
  comp_dirty_.clear();
  comp_next_ = 0;
  comp_len_ = 0;
  comp_crc_ = 0;
}

RecoveredDb WalStore::state() const {
  RecoveredDb out;
  state_.for_each_ascending(
      [this, &out](net::IpAddress mobile, core::BindingTable::Ref row) {
        out.emplace(mobile, RecoveredRow{state_.foreign_agent(row),
                                         state_.sequence(row)});
      });
  return out;
}

std::string WalStore::state_digest() const {
  std::ostringstream out;
  out << "wal lsn=" << last_lsn() << " durable=" << durable_lsn_
      << " rows=" << state_.size();
  state_.for_each_ascending(
      [this, &out](net::IpAddress mobile, core::BindingTable::Ref row) {
        out << " " << mobile << "->" << state_.foreign_agent(row) << "/"
            << state_.sequence(row);
      });
  return out.str();
}

}  // namespace mhrp::store
