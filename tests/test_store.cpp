// The durable store subsystem (§2: the home database is "recorded on
// disk to survive any crashes and subsequent reboots"): SimDisk cache /
// crash semantics, WalStore recovery edge cases (empty log, snapshot-
// only, torn tail, corrupt mid-log record, crash during compaction,
// superblock fallback), HomeStore sync policies, the ALICE-style crash-
// consistency checker, and the home/replica agents recovering their
// databases from disk through reboot().
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/crash_checker.hpp"
#include "core/replication.hpp"
#include "scenario/mhrp_world.hpp"
#include "scenario/scale_world.hpp"
#include "scenario/topology.hpp"
#include "store/home_store.hpp"
#include "store/sim_disk.hpp"
#include "store/wal_store.hpp"

namespace mhrp {
namespace {

using store::HomeStore;
using store::Lsn;
using store::PersistAction;
using store::RecoveryStats;
using store::SimDisk;
using store::StoreOptions;
using store::SyncPolicy;
using store::WalRecord;
using store::WalStore;

net::IpAddress ip(const char* s) { return net::IpAddress::parse(s); }

StoreOptions small_store() {
  StoreOptions o;
  o.enabled = true;
  o.sector_size = 512;
  o.disk_sectors = 1024;
  o.snapshot_region_sectors = 64;
  o.snapshot_every = 1024;  // tests trigger compaction explicitly
  return o;
}

WalRecord binding(const char* mobile, const char* fa, std::uint32_t seq) {
  WalRecord r;
  r.kind = WalRecord::Kind::kBinding;
  r.mobile_host = ip(mobile);
  r.foreign_agent = ip(fa);
  r.sequence = seq;
  return r;
}

WalRecord provision(const char* mobile) {
  WalRecord r;
  r.kind = WalRecord::Kind::kProvision;
  r.mobile_host = ip(mobile);
  return r;
}

// ---- SimDisk ----

TEST(SimDisk, WritesAreVolatileUntilSync) {
  SimDisk disk(512, 8);
  const std::vector<std::uint8_t> data{1, 2, 3, 4};
  disk.write(100, data);
  EXPECT_TRUE(disk.has_unsynced_writes());

  // The cache serves reads; the durable media does not have the bytes.
  EXPECT_EQ(disk.read(100, 4), data);
  std::vector<std::uint8_t> durable(4);
  disk.read_durable(100, durable);
  EXPECT_EQ(durable, std::vector<std::uint8_t>(4, 0));

  // A crash loses the cache entirely.
  disk.crash();
  EXPECT_FALSE(disk.has_unsynced_writes());
  EXPECT_EQ(disk.read(100, 4), std::vector<std::uint8_t>(4, 0));

  // Written again and synced, the bytes reach the media.
  disk.write(100, data);
  ASSERT_TRUE(disk.sync());
  disk.read_durable(100, durable);
  EXPECT_EQ(durable, data);
  EXPECT_FALSE(disk.has_unsynced_writes());
}

TEST(SimDisk, PartialSectorWritePreservesTheRestOfTheSector) {
  SimDisk disk(512, 8);
  std::vector<std::uint8_t> full(512, 0xAA);
  disk.write(512, full);
  ASSERT_TRUE(disk.sync());
  // Overwrite 4 bytes in the middle; the rest of the sector must survive
  // both in the cache image and on the media after sync.
  disk.write(512 + 100, std::vector<std::uint8_t>{1, 2, 3, 4});
  ASSERT_TRUE(disk.sync());
  const auto sector = disk.read(512, 512);
  EXPECT_EQ(sector[99], 0xAA);
  EXPECT_EQ(sector[100], 1);
  EXPECT_EQ(sector[103], 4);
  EXPECT_EQ(sector[104], 0xAA);
}

TEST(SimDisk, CrashHookCutsCleanlyBeforeASector) {
  SimDisk disk(512, 8);
  disk.write(0, std::vector<std::uint8_t>(512, 0x11));    // sector 0
  disk.write(512, std::vector<std::uint8_t>(512, 0x22));  // sector 1
  disk.set_crash_hook([](std::uint64_t step, std::size_t, std::size_t&) {
    return step == 1 ? PersistAction::kCrashBefore : PersistAction::kPersist;
  });
  EXPECT_FALSE(disk.sync());  // sector 0 persisted, crash before sector 1
  disk.clear_crash_hook();
  std::vector<std::uint8_t> s0(512);
  std::vector<std::uint8_t> s1(512);
  disk.read_durable(0, s0);
  disk.read_durable(512, s1);
  EXPECT_EQ(s0, std::vector<std::uint8_t>(512, 0x11));
  EXPECT_EQ(s1, std::vector<std::uint8_t>(512, 0x00));
  EXPECT_EQ(disk.stats().crashes, 1u);
}

TEST(SimDisk, TornWritePersistsExactlyThePrefix) {
  SimDisk disk(512, 8);
  disk.write(0, std::vector<std::uint8_t>(512, 0x77));
  disk.set_crash_hook(
      [](std::uint64_t, std::size_t, std::size_t& tear_at) {
        tear_at = 100;
        return PersistAction::kTear;
      });
  EXPECT_FALSE(disk.sync());
  std::vector<std::uint8_t> s0(512);
  disk.read_durable(0, s0);
  for (std::size_t i = 0; i < 512; ++i) {
    EXPECT_EQ(s0[i], i < 100 ? 0x77 : 0x00) << "byte " << i;
  }
  EXPECT_EQ(disk.stats().torn_sectors, 1u);
}

TEST(SimDisk, ArmedReadErrorsRefuseCoveredSectors) {
  SimDisk disk(512, 8);
  disk.arm_read_errors(/*first=*/2, /*count=*/1);
  EXPECT_NO_THROW(disk.read(0, 16));
  EXPECT_THROW(disk.read(2 * 512 + 4, 8), store::DiskError);
  // A read straddling into the bad sector fails too.
  EXPECT_THROW(disk.read(512 + 500, 64), store::DiskError);
  disk.clear_read_errors();
  EXPECT_NO_THROW(disk.read(2 * 512 + 4, 8));
}

// ---- WalStore recovery edge cases ----

TEST(WalStore, EmptyLogRecoversToEmptyState) {
  SimDisk disk(512, 1024);
  WalStore wal(disk, small_store());
  wal.format();

  WalStore reopened(disk, small_store());
  const RecoveryStats r = reopened.recover();
  EXPECT_TRUE(r.superblock_found);
  EXPECT_FALSE(r.snapshot_used);
  EXPECT_EQ(r.records_replayed, 0u);
  EXPECT_EQ(r.last_lsn, 0u);
  EXPECT_FALSE(r.stopped_at_invalid);
  EXPECT_TRUE(reopened.state().empty());
}

TEST(WalStore, SnapshotOnlyRecoveryReplaysNoRecords) {
  SimDisk disk(512, 1024);
  WalStore wal(disk, small_store());
  wal.format();
  (void)wal.append(provision("10.1.0.77"));
  (void)wal.append(binding("10.1.0.77", "10.3.0.1", 1));
  ASSERT_TRUE(wal.sync());
  ASSERT_TRUE(wal.snapshot());  // compacts: the log is logically empty

  WalStore reopened(disk, small_store());
  const RecoveryStats r = reopened.recover();
  EXPECT_TRUE(r.snapshot_used);
  EXPECT_EQ(r.snapshot_lsn, 2u);
  EXPECT_EQ(r.records_replayed, 0u);
  EXPECT_EQ(r.last_lsn, 2u);
  ASSERT_EQ(reopened.state().size(), 1u);
  EXPECT_EQ(reopened.state().at(ip("10.1.0.77")).foreign_agent,
            ip("10.3.0.1"));
  EXPECT_EQ(reopened.state_digest(), wal.state_digest());
}

TEST(WalStore, TornFinalRecordRecoversTheSyncedPrefix) {
  SimDisk disk(512, 1024);
  WalStore wal(disk, small_store());
  wal.format();
  (void)wal.append(provision("10.1.0.77"));
  for (std::uint32_t s = 1; s <= 5; ++s) {
    (void)wal.append(binding("10.1.0.77", "10.3.0.1", s));
  }
  ASSERT_TRUE(wal.sync());  // LSNs 1..6 durable

  // One more record, torn a few bytes in while persisting.
  (void)wal.append(binding("10.1.0.77", "10.4.0.1", 6));
  disk.set_crash_hook(
      [](std::uint64_t, std::size_t, std::size_t& tear_at) {
        tear_at = 4;
        return PersistAction::kTear;
      });
  EXPECT_FALSE(wal.sync());
  EXPECT_TRUE(wal.crashed());
  disk.clear_crash_hook();

  WalStore reopened(disk, small_store());
  const RecoveryStats r = reopened.recover();
  EXPECT_EQ(r.last_lsn, 6u);  // the torn record is not replayed
  EXPECT_EQ(reopened.state().at(ip("10.1.0.77")).foreign_agent,
            ip("10.3.0.1"));
  EXPECT_EQ(reopened.state().at(ip("10.1.0.77")).sequence, 5u);
}

TEST(WalStore, CorruptMidLogRecordEndsTheValidPrefix) {
  SimDisk disk(512, 1024);
  WalStore wal(disk, small_store());
  wal.format();
  (void)wal.append(provision("10.1.0.77"));  // LSN 1
  for (std::uint32_t s = 1; s <= 9; ++s) {
    (void)wal.append(binding("10.1.0.77", "10.3.0.1", s));  // LSNs 2..10
  }
  ASSERT_TRUE(wal.sync());

  // Latent corruption inside the 4th record's payload: recovery must
  // replay exactly LSNs 1..3 and report the invalid stop.
  const std::size_t record_bytes = 28;
  disk.corrupt_media(wal.log_start() + 3 * record_bytes + 15);

  WalStore reopened(disk, small_store());
  const RecoveryStats r = reopened.recover();
  EXPECT_EQ(r.records_replayed, 3u);
  EXPECT_EQ(r.last_lsn, 3u);
  EXPECT_TRUE(r.stopped_at_invalid);
  EXPECT_EQ(reopened.state().at(ip("10.1.0.77")).sequence, 2u);

  // Appends continue from the recovered prefix, overwriting the suffix.
  EXPECT_EQ(reopened.append(binding("10.1.0.77", "10.5.0.1", 3)), 4u);
}

TEST(WalStore, CrashDuringCompactionKeepsTheOldSnapshotAndLog) {
  SimDisk disk(512, 1024);
  WalStore wal(disk, small_store());
  wal.format();
  for (std::uint32_t s = 1; s <= 8; ++s) {
    (void)wal.append(binding(s % 2 == 0 ? "10.1.0.77" : "10.1.0.78", "10.3.0.1",
                       s));
  }
  ASSERT_TRUE(wal.sync());
  const std::string before = wal.state_digest();
  // LSN 9 waits in the open batch when the compaction crashes.
  (void)wal.append_buffered(binding("10.1.0.78", "10.4.0.1", 9));

  // Crash on the very first sector the compaction tries to persist: the
  // new snapshot never lands and the superblock never flips.
  disk.set_crash_hook([](std::uint64_t, std::size_t, std::size_t&) {
    return PersistAction::kCrashBefore;
  });
  EXPECT_FALSE(wal.snapshot());
  EXPECT_TRUE(wal.crashed());
  EXPECT_EQ(wal.append(binding("10.1.0.77", "10.9.0.1", 99)), 0u)
      << "a crashed store must be inert";
  EXPECT_FALSE(wal.sync()) << "and must not write out its open batch";
  disk.clear_crash_hook();

  WalStore reopened(disk, small_store());
  const RecoveryStats r = reopened.recover();
  EXPECT_FALSE(r.snapshot_used);  // still the pre-compaction superblock
  EXPECT_EQ(r.last_lsn, 8u);
  EXPECT_EQ(reopened.state_digest(), before);
}

TEST(WalStore, CorruptNewestSuperblockFallsBackToTheOlderCopy) {
  SimDisk disk(512, 1024);
  WalStore wal(disk, small_store());
  wal.format();  // epoch 1 lives in slot 1
  for (std::uint32_t s = 1; s <= 4; ++s) {
    (void)wal.append(binding("10.1.0.77", "10.3.0.1", s));
  }
  ASSERT_TRUE(wal.sync());
  ASSERT_TRUE(wal.snapshot());  // epoch 2 flips into slot 0

  // The flip's superblock goes bad on the media. Recovery must fall
  // back to epoch 1 — no snapshot, but the (untouched) log still holds
  // LSNs 1..4, so the recovered state is identical.
  disk.corrupt_media(3);
  WalStore reopened(disk, small_store());
  const RecoveryStats r = reopened.recover();
  EXPECT_TRUE(r.superblock_found);
  EXPECT_TRUE(r.superblock_fallback);
  EXPECT_EQ(r.last_lsn, 4u);
  EXPECT_EQ(reopened.state_digest(), wal.state_digest());
}

TEST(WalStore, ReopenAndContinueKeepsLsnsContiguous) {
  SimDisk disk(512, 1024);
  {
    WalStore wal(disk, small_store());
    wal.format();
    EXPECT_EQ(wal.append(provision("10.1.0.77")), 1u);
    EXPECT_EQ(wal.append(binding("10.1.0.77", "10.3.0.1", 1)), 2u);
    ASSERT_TRUE(wal.sync());
  }
  WalStore wal(disk, small_store());
  ASSERT_EQ(wal.recover().last_lsn, 2u);
  EXPECT_EQ(wal.append(binding("10.1.0.77", "10.4.0.1", 2)), 3u);
  ASSERT_TRUE(wal.sync());

  WalStore again(disk, small_store());
  const RecoveryStats r = again.recover();
  EXPECT_EQ(r.last_lsn, 3u);
  EXPECT_EQ(again.state().at(ip("10.1.0.77")).foreign_agent, ip("10.4.0.1"));
}

TEST(WalStore, RecoveryIsByteIdenticalWhenRepeated) {
  SimDisk disk(512, 1024);
  WalStore wal(disk, small_store());
  wal.format();
  for (std::uint32_t s = 1; s <= 20; ++s) {
    (void)wal.append(binding(s % 3 == 0 ? "10.1.0.78" : "10.1.0.77", "10.3.0.1",
                       s));
  }
  ASSERT_TRUE(wal.sync());

  WalStore first(disk, small_store());
  (void)first.recover();
  WalStore second(disk, small_store());
  (void)second.recover();
  EXPECT_EQ(first.state_digest(), second.state_digest());
}

TEST(WalStore, EraseRecordRetiresTheRow) {
  SimDisk disk(512, 1024);
  WalStore wal(disk, small_store());
  wal.format();
  (void)wal.append(provision("10.1.0.77"));
  (void)wal.append(binding("10.1.0.77", "10.3.0.1", 1));
  WalRecord erase;
  erase.kind = WalRecord::Kind::kErase;
  erase.mobile_host = ip("10.1.0.77");
  (void)wal.append(erase);
  ASSERT_TRUE(wal.sync());

  WalStore reopened(disk, small_store());
  (void)reopened.recover();
  EXPECT_TRUE(reopened.state().empty());
}

TEST(WalStore, LogFullForcesACompaction) {
  StoreOptions o = small_store();
  o.disk_sectors = 96;  // 2 superblocks + 2*32 snapshot + 30 log sectors
  o.snapshot_region_sectors = 32;
  SimDisk disk(o.sector_size, o.disk_sectors);
  WalStore wal(disk, o);
  wal.format();
  // Far more records than the log region holds; forced compactions must
  // keep absorbing them without error.
  for (std::uint32_t s = 1; s <= 2000; ++s) {
    ASSERT_NE(wal.append(binding("10.1.0.77", "10.3.0.1", s)), 0u)
        << "append " << s;
  }
  ASSERT_TRUE(wal.sync());
  EXPECT_GT(wal.stats().forced_snapshots, 0u);

  WalStore reopened(disk, o);
  const RecoveryStats r = reopened.recover();
  EXPECT_EQ(r.last_lsn, 2000u);
  EXPECT_EQ(reopened.state().at(ip("10.1.0.77")).sequence, 2000u);
}

// ---- Group-commit batch framing ----

TEST(WalStore, BufferedAppendsSealIntoOneFrameAndRecover) {
  SimDisk disk(512, 1024);
  WalStore wal(disk, small_store());
  wal.format();
  (void)wal.append_buffered(provision("10.1.0.77"));
  for (std::uint32_t s = 1; s <= 5; ++s) {
    (void)wal.append_buffered(binding("10.1.0.77", "10.3.0.1", s));
  }
  EXPECT_EQ(wal.pending_batch_size(), 6u);
  ASSERT_TRUE(wal.sync());  // seals the window into one multi-record frame
  EXPECT_EQ(wal.pending_batch_size(), 0u);
  EXPECT_EQ(wal.stats().batches, 1u);
  EXPECT_EQ(wal.stats().batched_appends, 6u);

  WalStore reopened(disk, small_store());
  const RecoveryStats r = reopened.recover();
  EXPECT_EQ(r.records_replayed, 6u);
  EXPECT_EQ(r.last_lsn, 6u);
  EXPECT_EQ(reopened.state().at(ip("10.1.0.77")).sequence, 5u);
  EXPECT_EQ(reopened.state_digest(), wal.state_digest());
}

TEST(WalStore, UnsealedBatchDiesWithTheCache) {
  SimDisk disk(512, 1024);
  WalStore wal(disk, small_store());
  wal.format();
  (void)wal.append_buffered(provision("10.1.0.77"));
  (void)wal.append_buffered(binding("10.1.0.77", "10.3.0.1", 1));
  ASSERT_TRUE(wal.sync());  // LSNs 1..2 durable
  (void)wal.append_buffered(binding("10.1.0.77", "10.4.0.1", 2));
  // Never sealed, never synced: the open window lives only in memory, so
  // a reopen from the media sees exactly the sealed prefix.
  WalStore reopened(disk, small_store());
  const RecoveryStats r = reopened.recover();
  EXPECT_EQ(r.last_lsn, 2u);
  EXPECT_EQ(reopened.state().at(ip("10.1.0.77")).foreign_agent,
            ip("10.3.0.1"));
}

TEST(WalStore, TornBatchFrameIsDroppedWhole) {
  SimDisk disk(512, 1024);
  WalStore wal(disk, small_store());
  wal.format();
  (void)wal.append_buffered(provision("10.1.0.77"));
  (void)wal.append_buffered(binding("10.1.0.77", "10.3.0.1", 1));
  ASSERT_TRUE(wal.sync());  // batch 1: LSNs 1..2

  for (std::uint32_t s = 2; s <= 6; ++s) {
    (void)wal.append_buffered(binding("10.1.0.77", "10.4.0.1", s));
  }
  // The first batch occupies log bytes [0, 41); tearing the sector at
  // byte 60 persists the second frame's header but cuts its entries, so
  // its CRC cannot hold while the first frame stays intact.
  disk.set_crash_hook(
      [](std::uint64_t, std::size_t, std::size_t& tear_at) {
        tear_at = 60;
        return PersistAction::kTear;
      });
  EXPECT_FALSE(wal.sync());
  EXPECT_TRUE(wal.crashed());
  disk.clear_crash_hook();

  // All-or-nothing: the torn second batch contributes no records — not
  // even the ones the tear happened to leave intact.
  WalStore reopened(disk, small_store());
  const RecoveryStats r = reopened.recover();
  EXPECT_EQ(r.last_lsn, 2u);
  EXPECT_TRUE(r.stopped_at_invalid);
  EXPECT_EQ(reopened.state().at(ip("10.1.0.77")).foreign_agent,
            ip("10.3.0.1"));
  EXPECT_EQ(reopened.state().at(ip("10.1.0.77")).sequence, 1u);
}

TEST(WalStore, MixedSingleAndBatchedFramesKeepLsnOrder) {
  SimDisk disk(512, 1024);
  WalStore wal(disk, small_store());
  wal.format();
  EXPECT_EQ(wal.append_buffered(provision("10.1.0.77")), 1u);
  EXPECT_EQ(wal.append_buffered(binding("10.1.0.77", "10.3.0.1", 1)), 2u);
  // A self-contained append seals the open batch first so the on-disk
  // frame order matches LSN order.
  EXPECT_EQ(wal.append(binding("10.1.0.77", "10.4.0.1", 2)), 3u);
  EXPECT_EQ(wal.pending_batch_size(), 0u);
  EXPECT_EQ(wal.append_buffered(binding("10.1.0.77", "10.5.0.1", 3)), 4u);
  ASSERT_TRUE(wal.sync());

  WalStore reopened(disk, small_store());
  const RecoveryStats r = reopened.recover();
  EXPECT_EQ(r.records_replayed, 4u);
  EXPECT_EQ(r.last_lsn, 4u);
  EXPECT_EQ(reopened.state().at(ip("10.1.0.77")).foreign_agent,
            ip("10.5.0.1"));
}

// ---- Incremental (sliced) compaction ----

TEST(WalStore, SlicedCompactionPatchesMidPassMutations) {
  StoreOptions o = small_store();
  o.compaction_slice_rows = 4;
  SimDisk disk(512, 1024);
  WalStore wal(disk, o);
  wal.format();
  for (std::uint32_t k = 0; k < 20; ++k) {
    (void)wal.append(binding(("10.1.0." + std::to_string(k + 1)).c_str(),
                             "10.3.0.1", 1));
  }
  ASSERT_TRUE(wal.sync());

  ASSERT_TRUE(wal.compaction_begin());
  ASSERT_TRUE(wal.compaction_active());
  // Registrations keep landing while the pass runs: an update to a row
  // the pass may already have copied, a brand-new row, and an erase of a
  // frozen key — all must survive via the patch section.
  (void)wal.append(binding("10.1.0.3", "10.9.0.1", 2));
  (void)wal.append(binding("10.1.0.99", "10.9.0.2", 1));
  WalRecord erase;
  erase.kind = WalRecord::Kind::kErase;
  erase.mobile_host = ip("10.1.0.7");
  (void)wal.append(erase);
  ASSERT_TRUE(wal.sync());

  std::uint64_t steps = 0;
  while (wal.compaction_active()) {
    ASSERT_TRUE(wal.compaction_step(4));
    ++steps;
  }
  EXPECT_GT(steps, 2u) << "the pass must actually have been sliced";
  EXPECT_GT(wal.stats().patched_rows, 0u);
  EXPECT_EQ(wal.durable_lsn(), wal.last_lsn());

  WalStore reopened(disk, o);
  const RecoveryStats r = reopened.recover();
  EXPECT_TRUE(r.snapshot_used);
  EXPECT_EQ(r.records_replayed, 0u) << "the flip truncated the log";
  EXPECT_EQ(reopened.state().at(ip("10.1.0.3")).foreign_agent, ip("10.9.0.1"));
  EXPECT_EQ(reopened.state().at(ip("10.1.0.99")).foreign_agent,
            ip("10.9.0.2"));
  EXPECT_EQ(reopened.state().count(ip("10.1.0.7")), 0u);
  EXPECT_EQ(reopened.state_digest(), wal.state_digest());
}

TEST(WalStore, SlicedCompactionMatchesSynchronousSnapshotByteForByte) {
  auto drive = [](WalStore& wal) {
    for (std::uint32_t k = 0; k < 12; ++k) {
      (void)wal.append(binding(("10.1.0." + std::to_string(k + 1)).c_str(),
                               "10.3.0.1", k + 1));
    }
    ASSERT_TRUE(wal.sync());
  };
  StoreOptions sliced_opts = small_store();
  sliced_opts.compaction_slice_rows = 3;
  SimDisk sliced_disk(512, 1024);
  WalStore sliced(sliced_disk, sliced_opts);
  sliced.format();
  drive(sliced);
  ASSERT_TRUE(sliced.compaction_begin());
  while (sliced.compaction_active()) ASSERT_TRUE(sliced.compaction_step(3));

  SimDisk serial_disk(512, 1024);
  WalStore serial(serial_disk, small_store());
  serial.format();
  drive(serial);
  ASSERT_TRUE(serial.snapshot());

  EXPECT_EQ(sliced.state_digest(), serial.state_digest());
  WalStore sliced_reopen(sliced_disk, sliced_opts);
  (void)sliced_reopen.recover();
  WalStore serial_reopen(serial_disk, small_store());
  (void)serial_reopen.recover();
  EXPECT_EQ(sliced_reopen.state_digest(), serial_reopen.state_digest());
}

// ---- HomeStore sync policies ----

TEST(HomeStore, SyncPolicyAcksImmediatelyAndDurably) {
  sim::ShardedExecutive sim(1);
  StoreOptions o = small_store();
  o.sync_policy = SyncPolicy::kSync;
  HomeStore hs(sim, o);
  const HomeStore::Ticket t = hs.log(binding("10.1.0.77", "10.3.0.1", 1));
  EXPECT_TRUE(t.ack_now);
  EXPECT_EQ(t.lsn, 1u);
  EXPECT_EQ(hs.durable_lsn(), 1u);  // already synced
  EXPECT_FALSE(hs.disk().has_unsynced_writes());
}

TEST(HomeStore, IntervalPolicyDefersAcksUntilTheGroupCommit) {
  sim::ShardedExecutive sim(1);
  StoreOptions o = small_store();
  o.sync_policy = SyncPolicy::kInterval;
  o.sync_interval = sim::millis(50);
  HomeStore hs(sim, o);
  std::vector<Lsn> durable;
  hs.on_durable = [&durable](Lsn lsn) { durable.push_back(lsn); };

  const HomeStore::Ticket t1 = hs.log(binding("10.1.0.77", "10.3.0.1", 1));
  const HomeStore::Ticket t2 = hs.log(binding("10.1.0.78", "10.3.0.1", 1));
  EXPECT_FALSE(t1.ack_now);
  EXPECT_FALSE(t2.ack_now);
  EXPECT_EQ(hs.durable_lsn(), 0u);

  sim.run_for(sim::millis(60));  // one timer fire
  ASSERT_EQ(durable.size(), 1u);
  EXPECT_EQ(durable[0], t2.lsn);
  EXPECT_EQ(hs.durable_lsn(), 2u);
  EXPECT_GE(hs.stats().interval_syncs, 1u);
}

TEST(HomeStore, AsyncPolicyAcksBeforeDurability) {
  sim::ShardedExecutive sim(1);
  StoreOptions o = small_store();
  o.sync_policy = SyncPolicy::kAsync;
  o.sync_interval = sim::millis(50);
  HomeStore hs(sim, o);
  const HomeStore::Ticket t = hs.log(binding("10.1.0.77", "10.3.0.1", 1));
  EXPECT_TRUE(t.ack_now);
  EXPECT_EQ(hs.durable_lsn(), 0u);  // the ack outran the disk
  sim.run_for(sim::millis(60));
  EXPECT_EQ(hs.durable_lsn(), 1u);  // background sync caught up
}

TEST(HomeStore, CrashAndRecoverRestoresDurableRowsOnly) {
  sim::ShardedExecutive sim(1);
  StoreOptions o = small_store();
  o.sync_policy = SyncPolicy::kInterval;
  o.sync_interval = sim::seconds(300);  // no commit before the crash
  HomeStore hs(sim, o);
  (void)hs.log(binding("10.1.0.77", "10.3.0.1", 1));
  ASSERT_TRUE(hs.flush());
  (void)hs.log(binding("10.1.0.77", "10.4.0.1", 2));  // cached, never synced

  hs.crash();
  EXPECT_TRUE(hs.down());
  EXPECT_EQ(hs.log(binding("10.1.0.78", "10.3.0.1", 1)).lsn, 0u);

  const RecoveryStats r = hs.recover();
  EXPECT_FALSE(hs.down());
  EXPECT_EQ(r.last_lsn, 1u);
  EXPECT_EQ(hs.state().at(ip("10.1.0.77")).foreign_agent, ip("10.3.0.1"));
  EXPECT_EQ(hs.stats().crashes, 1u);
  EXPECT_EQ(hs.stats().recoveries, 1u);
}

TEST(HomeStore, RecoverOnAMountedStoreIsIdempotent) {
  // Regression: recover() on a store that is already up used to re-arm
  // the interval sweep timer on top of its live registration. It must be
  // a no-op — same timer, same stats, no double-fire.
  sim::ShardedExecutive sim(1);
  StoreOptions o = small_store();
  o.sync_policy = SyncPolicy::kInterval;
  o.sync_interval = sim::millis(50);
  HomeStore hs(sim, o);
  (void)hs.log(binding("10.1.0.77", "10.3.0.1", 1));

  const RecoveryStats noop = hs.recover();  // never crashed: no-op
  EXPECT_EQ(noop.records_replayed, 0u);
  EXPECT_EQ(hs.stats().recoveries, 0u);

  hs.crash();
  (void)hs.recover();
  const RecoveryStats again = hs.recover();  // second mount: no-op too
  EXPECT_EQ(again.records_replayed, 0u);
  EXPECT_EQ(hs.stats().recoveries, 1u);

  // The sweep timer still works — and fires once per interval, not
  // twice (a doubled timer would commit empty windows back to back and
  // inflate interval_syncs).
  (void)hs.log(binding("10.1.0.77", "10.4.0.1", 2));
  sim.run_for(sim::millis(60));
  EXPECT_EQ(hs.durable_lsn(), hs.last_lsn());
  EXPECT_EQ(hs.stats().interval_syncs, 1u);
}

TEST(HomeStore, IntervalWindowCommitsAsOneBatchFrame) {
  // The group-commit window coalesces every append since the last sync
  // into one multi-record frame: one CRC, one disk pass per interval.
  sim::ShardedExecutive sim(1);
  StoreOptions o = small_store();
  o.sync_policy = SyncPolicy::kInterval;
  o.sync_interval = sim::millis(50);
  HomeStore hs(sim, o);
  for (std::uint32_t s = 1; s <= 10; ++s) {
    (void)hs.log(binding("10.1.0.77", "10.3.0.1", s));
  }
  EXPECT_EQ(hs.wal().pending_batch_size(), 10u);
  sim.run_for(sim::millis(60));
  EXPECT_EQ(hs.wal().stats().batches, 1u);
  EXPECT_EQ(hs.wal().stats().batched_appends, 10u);
  EXPECT_EQ(hs.durable_lsn(), 10u);
}

TEST(HomeStore, SyncPolicyWritesOneBatchFramePerRecord) {
  // kSync rides the same group-commit batch as the deferred policies: the
  // sync after each append seals a one-record batch frame.
  sim::ShardedExecutive sim(1);
  StoreOptions o = small_store();
  o.sync_policy = SyncPolicy::kSync;
  HomeStore hs(sim, o);
  constexpr std::uint32_t kRecords = 5;
  for (std::uint32_t s = 1; s <= kRecords; ++s) {
    EXPECT_TRUE(hs.log(binding("10.1.0.77", "10.3.0.1", s)).ack_now);
  }
  EXPECT_EQ(hs.wal().stats().batches, kRecords);
  EXPECT_EQ(hs.wal().stats().batched_appends, kRecords);
  EXPECT_EQ(hs.durable_lsn(), kRecords);
  EXPECT_EQ(hs.disk().media().at(hs.wal().log_start()), 0xB7);
}

TEST(HomeStore, SlicedCompactionRunsInTheBackgroundAndReleasesAcks) {
  sim::ShardedExecutive sim(1);
  StoreOptions o = small_store();
  o.sync_policy = SyncPolicy::kInterval;
  o.sync_interval = sim::millis(5);
  o.snapshot_every = 32;
  o.compaction_slice_rows = 4;
  o.compaction_slice_interval = sim::millis(1);
  HomeStore hs(sim, o);
  std::vector<Lsn> durable;
  hs.on_durable = [&durable](Lsn lsn) { durable.push_back(lsn); };
  for (std::uint32_t k = 0; k < 40; ++k) {
    (void)hs.log(binding(("10.1.0." + std::to_string(k + 1)).c_str(),
                         "10.3.0.1", 1));
  }
  sim.run_for(sim::millis(100));
  EXPECT_GE(hs.stats().compactions_started, 1u);
  EXPECT_GE(hs.wal().stats().snapshots, 1u);
  EXPECT_GT(hs.wal().stats().compaction_steps, 1u)
      << "the pass must have run in bounded slices";
  EXPECT_FALSE(hs.wal().compaction_active());
  EXPECT_EQ(hs.durable_lsn(), hs.last_lsn());
  ASSERT_FALSE(durable.empty());
  EXPECT_EQ(durable.back(), hs.last_lsn());

  // The compacted image recovers whole.
  hs.crash();
  const RecoveryStats r = hs.recover();
  EXPECT_EQ(r.last_lsn, 40u);
  EXPECT_EQ(hs.state().size(), 40u);
}

// ---- CrashConsistencyChecker ----

analysis::CrashCheckerOptions checker_options(SyncPolicy policy) {
  analysis::CrashCheckerOptions o;
  o.store = StoreOptions();
  o.store.enabled = true;
  o.store.sync_policy = policy;
  o.store.sector_size = 512;
  o.store.disk_sectors = 512;
  o.store.snapshot_region_sectors = 32;
  o.store.snapshot_every = 64;  // several compactions inside the workload
  o.workload_records = 160;
  o.mobiles = 6;
  o.sync_every = 4;
  o.seed = 0xD15C;
  return o;
}

TEST(CrashChecker, EnumerateIsCleanUnderSyncPolicy) {
  analysis::CrashConsistencyChecker checker(
      checker_options(SyncPolicy::kSync));
  analysis::AuditReport report;
  const analysis::CrashCheckerResult r = checker.enumerate(report);
  EXPECT_TRUE(r.clean()) << r.summary() << report.to_string();
  EXPECT_EQ(r.acked_lost, 0u);
  EXPECT_GT(r.crash_points, 100u);
  EXPECT_GT(r.torn_runs, 0u);
  EXPECT_EQ(report.count(analysis::InvariantId::kWalPrefixConsistent), 0u);
  EXPECT_EQ(report.count(analysis::InvariantId::kDurableAckNotLost), 0u);
}

TEST(CrashChecker, EnumerateIsCleanUnderIntervalPolicy) {
  analysis::CrashConsistencyChecker checker(
      checker_options(SyncPolicy::kInterval));
  analysis::AuditReport report;
  const analysis::CrashCheckerResult r = checker.enumerate(report);
  EXPECT_TRUE(r.clean()) << r.summary() << report.to_string();
  EXPECT_EQ(r.acked_lost, 0u);
}

TEST(CrashChecker, FuzzThousandCrashPointsStaysClean) {
  // The acceptance bar: >= 1000 seeded crash points, every recovery
  // prefix-consistent and no acked registration lost under a durable
  // policy.
  analysis::CrashConsistencyChecker checker(
      checker_options(SyncPolicy::kSync));
  analysis::AuditReport report;
  const analysis::CrashCheckerResult r = checker.fuzz(1000, report);
  EXPECT_GE(r.runs, 1000u);
  EXPECT_TRUE(r.clean()) << r.summary() << report.to_string();
  EXPECT_EQ(r.acked_lost, 0u);
}

TEST(CrashChecker, AsyncPolicyLosesAckedRegistrationsMeasurably) {
  // kAsync acks ahead of the disk; the checker must *count* the acked-
  // then-lost registrations without flagging them as violations — the
  // loss is the policy's documented trade, and the number is the
  // experiment's headline.
  analysis::CrashConsistencyChecker checker(
      checker_options(SyncPolicy::kAsync));
  analysis::AuditReport report;
  const analysis::CrashCheckerResult r = checker.enumerate(report);
  EXPECT_TRUE(r.clean()) << r.summary() << report.to_string();
  EXPECT_GT(r.acked_lost, 0u);
}

TEST(CrashChecker, SeededCrashRoundTripIsCleanUnderIntervalPolicy) {
  // The linear checker against a workload two orders beyond what
  // enumerate() can afford, with one seeded crash mid-stream.
  analysis::CrashCheckerOptions o = checker_options(SyncPolicy::kInterval);
  o.store.sector_size = 4096;
  o.store.disk_sectors = 1024;
  o.store.snapshot_region_sectors = 64;
  o.store.snapshot_every = 0;  // the log holds the whole history
  o.workload_records = 100000;
  o.mobiles = 10000;
  o.sync_every = 256;
  analysis::CrashConsistencyChecker checker(o);
  analysis::AuditReport report;
  const analysis::CrashCheckerResult r = checker.round_trip(true, report);
  EXPECT_TRUE(r.clean()) << r.summary() << report.to_string();
  EXPECT_EQ(r.acked_lost, 0u);
  EXPECT_GT(r.crash_points, 0u);
}

TEST(CrashChecker, MillionBindingRoundTripRecoversEveryRecord) {
  // Satellite acceptance: a million-binding crash-recovery round trip.
  // 10^6 mobiles are provisioned and re-registered through batched
  // group-commit frames, the store reboots, and recovery must land on
  // exactly the full history with nothing acked lost.
  analysis::CrashCheckerOptions o = checker_options(SyncPolicy::kInterval);
  o.store.sector_size = 4096;
  o.store.disk_sectors = 4600;  // ~18 MiB of log for ~13.7 MiB of frames
  o.store.snapshot_region_sectors = 16;
  o.store.snapshot_every = 0;
  o.workload_records = 1050000;  // 10^6 provisions + 5*10^4 churn
  o.mobiles = 1000000;
  o.sync_every = 1024;
  analysis::CrashConsistencyChecker checker(o);
  analysis::AuditReport report;
  const analysis::CrashCheckerResult r = checker.round_trip(false, report);
  EXPECT_TRUE(r.clean()) << r.summary() << report.to_string();
  EXPECT_EQ(r.records_logged, 1050000u);
  EXPECT_EQ(r.records_recovered, 1050000u);
  EXPECT_EQ(r.acked_lost, 0u);
}

TEST(CrashChecker, SameSeedReplaysByteIdentically) {
  analysis::AuditReport r1;
  analysis::AuditReport r2;
  analysis::CrashConsistencyChecker a(checker_options(SyncPolicy::kSync));
  analysis::CrashConsistencyChecker b(checker_options(SyncPolicy::kSync));
  EXPECT_EQ(a.fuzz(200, r1).summary(), b.fuzz(200, r2).summary());
}

// ---- Agent integration (log-before-ack, reboot recovery) ----

scenario::MhrpWorldOptions stored_world(SyncPolicy policy) {
  scenario::MhrpWorldOptions o;
  o.foreign_sites = 2;
  o.mobile_hosts = 2;
  o.correspondents = 1;
  o.protocol.store = small_store();
  o.protocol.store.sync_policy = policy;
  return o;
}

TEST(AgentStore, RegistrationIsLoggedBeforeTheAckUnderSyncPolicy) {
  scenario::MhrpWorld w(stored_world(SyncPolicy::kSync));
  ASSERT_TRUE(w.move_and_register(0, 1));
  EXPECT_GT(w.ha->stats().bindings_logged, 0u);
  // Everything logged is already durable — that is what kSync means.
  EXPECT_EQ(w.ha_store->durable_lsn(), w.ha_store->last_lsn());
  EXPECT_EQ(w.ha_store->state().at(w.mobile_address(0)).foreign_agent,
            w.fa_address(1));
}

TEST(AgentStore, IntervalPolicyReleasesDeferredAcksAtTheCommit) {
  scenario::MhrpWorldOptions o = stored_world(SyncPolicy::kInterval);
  o.protocol.store.sync_interval = sim::millis(50);
  scenario::MhrpWorld w(o);
  ASSERT_TRUE(w.move_and_register(0, 0));
  EXPECT_GT(w.ha->stats().acks_deferred, 0u);
  EXPECT_GT(w.ha->stats().acks_released, 0u);
  EXPECT_EQ(w.ha->pending_ack_count(), 0u);
}

TEST(AgentStore, RebootRebuildsTheDatabaseFromDisk) {
  scenario::MhrpWorld w(stored_world(SyncPolicy::kSync));
  ASSERT_TRUE(w.move_and_register(0, 1));
  ASSERT_TRUE(w.move_and_register(1, 0));
  const auto b0 = w.ha->home_binding(w.mobile_address(0));
  ASSERT_TRUE(b0.has_value());

  // reboot(preserve) with a store attached is a crash + mount: the
  // in-memory map is discarded and rebuilt from the recovered rows.
  w.ha->reboot(/*preserve_home_database=*/true);
  EXPECT_EQ(w.ha_store->stats().crashes, 1u);
  EXPECT_EQ(w.ha_store->stats().recoveries, 1u);
  const auto recovered0 = w.ha->home_binding(w.mobile_address(0));
  const auto recovered1 = w.ha->home_binding(w.mobile_address(1));
  ASSERT_TRUE(recovered0.has_value());
  ASSERT_TRUE(recovered1.has_value());
  EXPECT_EQ(*recovered0, *b0);
  EXPECT_EQ(w.ha->home_database_size(), 2u);
}

TEST(AgentStore, RebootWithoutPreserveWipesTheDisk) {
  scenario::MhrpWorld w(stored_world(SyncPolicy::kSync));
  ASSERT_TRUE(w.move_and_register(0, 1));
  w.ha->reboot(/*preserve_home_database=*/false);
  EXPECT_EQ(w.ha->home_database_size(), 0u);
  EXPECT_TRUE(w.ha_store->state().empty());
  EXPECT_EQ(w.ha_store->last_lsn(), 0u);  // a freshly formatted log
}

TEST(AgentStore, RebootDropsPendingAcks) {
  // A group-commit interval far beyond the test horizon parks every
  // registration ack; the reboot must clear them (the mobile will
  // retransmit — §3's registration protocol assumes lost replies).
  scenario::MhrpWorldOptions o = stored_world(SyncPolicy::kInterval);
  o.protocol.store.sync_interval = sim::seconds(3600);
  scenario::MhrpWorld w(o);
  w.mobiles[0]->attach_to(*w.cells[0]);
  w.topo.sim().run_for(sim::seconds(3));
  ASSERT_GT(w.ha->pending_ack_count(), 0u);

  w.ha->reboot(/*preserve_home_database=*/true);
  EXPECT_EQ(w.ha->pending_ack_count(), 0u);
  EXPECT_GT(w.ha->stats().acks_dropped_on_crash, 0u);
}

TEST(AgentStore, RebootWithoutPreserveDropsParkedAcks) {
  // Regression: reboot(false) formats the store — the log restarts at
  // LSN 1 — but used to leave pending_acks_ parked against the *old*
  // log's LSNs. Any of them could then be released by an unrelated
  // future commit that happened to reach the same number. They must be
  // dropped the moment the WAL is wiped.
  scenario::MhrpWorldOptions o = stored_world(SyncPolicy::kInterval);
  o.protocol.store.sync_interval = sim::seconds(3600);  // park everything
  scenario::MhrpWorld w(o);
  w.mobiles[0]->attach_to(*w.cells[0]);
  w.topo.sim().run_for(sim::seconds(3));
  ASSERT_GT(w.ha->pending_ack_count(), 0u);

  w.ha->reboot(/*preserve_home_database=*/false);
  EXPECT_EQ(w.ha->pending_ack_count(), 0u);
  EXPECT_GT(w.ha->stats().acks_dropped_on_crash, 0u);
  EXPECT_EQ(w.ha_store->last_lsn(), 0u);  // fresh log

  // New registrations on the fresh log park against the *new* LSN 1+;
  // a commit releases exactly those, nothing stale.
  const std::uint64_t released_before = w.ha->stats().acks_released;
  w.mobiles[0]->attach_to(*w.cells[1]);
  w.topo.sim().run_for(sim::seconds(3));
  ASSERT_GT(w.ha->pending_ack_count(), 0u);
  ASSERT_TRUE(w.ha_store->flush());
  w.ha_store->on_durable(w.ha_store->durable_lsn());
  EXPECT_EQ(w.ha->pending_ack_count(), 0u);
  EXPECT_GT(w.ha->stats().acks_released, released_before);
}

TEST(AgentStore, AsyncPolicyCanLoseAnAckedRegistrationAcrossReboot) {
  scenario::MhrpWorldOptions o = stored_world(SyncPolicy::kAsync);
  o.protocol.store.sync_interval = sim::seconds(3600);  // sync never fires
  scenario::MhrpWorld w(o);
  ASSERT_TRUE(w.move_and_register(0, 1));  // acked, but only in the cache
  EXPECT_LT(w.ha_store->durable_lsn(), w.ha_store->last_lsn());

  w.ha->reboot(/*preserve_home_database=*/true);
  // Nothing ever reached the media, so recovery comes back empty: the
  // acked binding is gone — exactly the loss the crash checker counts.
  EXPECT_FALSE(w.ha->home_binding(w.mobile_address(0)).has_value());
}

// ---- Replica recovery from its own disk ----

TEST(ReplicaStore, BackupRecoversReplicatedBindingsFromItsOwnDisk) {
  scenario::Topology topo;
  auto& backbone = topo.add_link("backbone", sim::millis(2));
  auto* home_router = &topo.add_router("HomeRouter");
  auto* fa_router = &topo.add_router("FaRouter");
  topo.connect(*home_router, backbone, ip("10.0.0.1"), 24);
  topo.connect(*fa_router, backbone, ip("10.0.0.2"), 24);
  auto& home_lan = topo.add_link("homeLan", sim::millis(1));
  topo.connect(*home_router, home_lan, ip("10.1.0.1"), 24);
  auto* ha1_host = &topo.add_host("HA1");
  auto* ha2_host = &topo.add_host("HA2");
  net::Interface& ha1_iface =
      topo.connect(*ha1_host, home_lan, ip("10.1.0.2"), 24);
  net::Interface& ha2_iface =
      topo.connect(*ha2_host, home_lan, ip("10.1.0.3"), 24);
  auto& cell = topo.add_link("cell", sim::millis(1));
  net::Interface& cell_iface =
      topo.connect(*fa_router, cell, ip("10.3.0.1"), 24);
  core::MobileHostConfig m_config;
  m_config.home_agent = ip("10.1.0.2");
  auto* m = &topo.add_mobile_host("M", ip("10.1.0.77"), 24, m_config);
  topo.install_static_routes();

  core::AgentConfig ha_config;
  ha_config.home_agent = true;
  auto ha1 = std::make_unique<core::MhrpAgent>(*ha1_host, ha_config);
  ha1->serve_on(ha1_iface);
  ha1->provision_mobile_host(ip("10.1.0.77"));
  ha1->start_advertising();
  auto ha2 = std::make_unique<core::MhrpAgent>(*ha2_host, ha_config);
  ha2->serve_on(ha2_iface);
  ha2->provision_mobile_host(ip("10.1.0.77"));

  // Both replicas persist to their *own* disks.
  StoreOptions so = small_store();
  HomeStore store1(topo.sim(), so);
  HomeStore store2(topo.sim(), so);
  ha1->attach_store(store1);
  ha2->attach_store(store2);

  core::HaReplicator repl1(*ha1,
                           std::vector<net::IpAddress>{ip("10.1.0.3")},
                           /*primary=*/true);
  core::HaReplicator repl2(*ha2,
                           std::vector<net::IpAddress>{ip("10.1.0.2")},
                           /*primary=*/false);
  repl1.start();
  repl2.start();

  core::AgentConfig fa_config;
  fa_config.foreign_agent = true;
  fa_config.cache_agent = false;
  auto fa = std::make_unique<core::MhrpAgent>(*fa_router, fa_config);
  fa->serve_on(cell_iface);
  fa->start_advertising();

  bool registered = false;
  const util::Subscription subscription =
      m->on_registered.add([&registered] { registered = true; });
  m->attach_to(cell);
  const sim::Time deadline = topo.sim().now() + sim::seconds(30);
  while (!registered && topo.sim().now() < deadline) {
    topo.sim().run_for(sim::millis(100));
  }
  ASSERT_TRUE(registered);
  topo.sim().run_for(sim::seconds(2));  // let the replication land

  // The replicated binding reached the backup's WAL...
  ASSERT_TRUE(ha2->home_binding(ip("10.1.0.77")).has_value());
  EXPECT_EQ(store2.state().at(ip("10.1.0.77")).foreign_agent,
            ip("10.3.0.1"));

  // ...and a backup reboot rebuilds it from that disk, not from memory.
  ha2->reboot(/*preserve_home_database=*/true);
  EXPECT_EQ(store2.stats().recoveries, 1u);
  const auto recovered = ha2->home_binding(ip("10.1.0.77"));
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, ip("10.3.0.1"));
}

// ---- ScaleWorld chaos: HA crashes against the durable store ----

TEST(ScaleWorldStore, HaCrashChaosLosesNothingUnderSyncAndReplays) {
  scenario::ScaleWorldOptions opt;
  opt.routers = 9;
  opt.foreign_agents = 3;
  opt.mobile_hosts = 8;
  opt.correspondents = 2;
  opt.mean_dwell = sim::seconds(2);
  opt.protocol.seed = 7;
  opt.protocol.store = small_store();  // kSync: nothing may be lost
  opt.chaos.enabled = true;
  opt.chaos.fault_seed = 0xfa17;
  opt.chaos.horizon = sim::seconds(30);
  opt.chaos.ha_crashes_per_sec = 0.2;
  opt.chaos.mean_downtime = sim::seconds(1);

  auto run = [&opt] {
    scenario::ScaleWorld w(opt);
    w.start();
    w.run_for(sim::seconds(30));
    return std::pair<std::string, std::vector<double>>(
        w.metrics_digest(), w.ha_lost_bindings());
  };
  const auto [digest1, lost1] = run();
  const auto [digest2, lost2] = run();

  ASSERT_FALSE(lost1.empty()) << "the schedule must actually crash the HA";
  for (double lost : lost1) {
    EXPECT_EQ(lost, 0.0) << "kSync recovery dropped an acked binding";
  }
  EXPECT_EQ(digest1, digest2) << "store + HA chaos must replay identically";
}

}  // namespace
}  // namespace mhrp
