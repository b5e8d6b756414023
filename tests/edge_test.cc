// Edge cases and regressions for bugs found during development:
//  - iterator survives compaction deleting its files (deferred reaping)
//  - page-cache semantics (lazy writeback, dirty drop on crash)
//  - concurrent redirection during rollback (snapshot-bounded reset)
//  - tombstones retained by compaction while deeper data exists
#include <gtest/gtest.h>

#include <memory>

#include "core/kvaccel_db.h"
#include "lsm/db.h"
#include "tests/test_util.h"

namespace kvaccel {
namespace {

using lsm::DB;
using lsm::DbOptions;
using test::DevPut;
using test::SimWorld;
using test::TestKey;

// Regression: a long-lived iterator must keep working while compaction
// retires the SSTs it has not yet opened (lazy LevelConcatIterator opens).
TEST(IteratorLifetimeTest, ScanSurvivesConcurrentCompaction) {
  SimWorld world;
  DbOptions opts = test::SmallDbOptions();
  opts.compaction_threads = 2;
  std::unique_ptr<DB> db;
  uint64_t scanned = 0;
  bool scan_ok = true;

  world.env.Spawn("writer", [&] {
    ASSERT_TRUE(DB::Open(opts, world.MakeDbEnv(), &db).ok());
    for (int i = 0; i < 1500; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(i), Value::Synthetic(i, 4096)).ok());
    }
    ASSERT_TRUE(db->FlushAll().ok());
    // Open an iterator over the current state, then churn hard so
    // compaction rewrites everything underneath it.
    auto it = db->NewIterator({});
    it->SeekToFirst();
    for (int i = 0; i < 2500; i++) {
      ASSERT_TRUE(
          db->Put({}, TestKey(i % 1500), Value::Synthetic(9999, 4096)).ok());
    }
    ASSERT_TRUE(db->FlushAll().ok());
    ASSERT_TRUE(db->WaitForCompactionIdle().ok());
    // Drain the old iterator: it must see its snapshot, in order, intact.
    std::string prev;
    for (; it->Valid(); it->Next()) {
      std::string k = it->key().ToString();
      if (!prev.empty() && prev >= k) scan_ok = false;
      prev = k;
      scanned++;
    }
    if (!it->status().ok()) scan_ok = false;
    ASSERT_TRUE(db->Close().ok());
  });
  world.env.Run();
  EXPECT_TRUE(scan_ok);
  EXPECT_EQ(scanned, 1500u);
}

TEST(PageCacheTest, LazyFileNeverTouchesDeviceUntilSync) {
  SimWorld world;
  world.Run([&] {
    fs::SimFs& fs = *world.fs;
    std::unique_ptr<fs::WritableFile> w;
    ASSERT_TRUE(fs.NewWritableFile("lazy.log", &w).ok());
    w->set_writeback_chunk(fs::kLazyWriteback);
    uint64_t nand0 = world.ssd->nand().bytes_written();
    for (int i = 0; i < 1000; i++) {
      ASSERT_TRUE(w->Append(std::string(100, 'x'), 4096).ok());
    }
    ASSERT_TRUE(w->Close().ok());
    EXPECT_EQ(world.ssd->nand().bytes_written(), nand0);  // all in page cache
    // Deleting the file drops ~4 MB of dirty data with zero device I/O —
    // the short-lived-WAL behaviour the write-burst dynamics rely on.
    ASSERT_TRUE(fs.DeleteFile("lazy.log").ok());
    EXPECT_EQ(world.ssd->nand().bytes_written(), nand0);
  });
}

TEST(PageCacheTest, DropAllDirtyModelsPowerCut) {
  SimWorld world;
  world.Run([&] {
    fs::SimFs& fs = *world.fs;
    std::unique_ptr<fs::WritableFile> w;
    ASSERT_TRUE(fs.NewWritableFile("f", &w).ok());
    w->set_writeback_chunk(fs::kLazyWriteback);
    ASSERT_TRUE(w->Append("durable-part").ok());
    ASSERT_TRUE(w->Sync().ok());  // on device
    ASSERT_TRUE(w->Append("dirty-tail").ok());
    ASSERT_TRUE(w->Close().ok());

    fs.DropAllDirty();  // power cut

    std::unique_ptr<fs::RandomAccessFile> r;
    ASSERT_TRUE(fs.NewRandomAccessFile("f", &r).ok());
    std::string out;
    ASSERT_TRUE(r->Read(0, 100, &out).ok());
    EXPECT_EQ(out, "durable-part");  // dirty tail lost, synced prefix kept
  });
}

TEST(WalSyncTest, SyncedWalSurvivesPowerCut) {
  SimWorld world;
  world.Run([&] {
    DbOptions opts = test::SmallDbOptions();
    {
      std::unique_ptr<DB> db;
      ASSERT_TRUE(DB::Open(opts, world.MakeDbEnv(), &db).ok());
      // Synced write: must survive; unsynced tail: legitimately lost.
      ASSERT_TRUE(db->Put(lsm::WriteOptions{.sync = true}, "durable",
                          Value::Inline("yes")).ok());
      ASSERT_TRUE(db->Put({}, "maybe-lost", Value::Inline("tail")).ok());
      ASSERT_TRUE(db->Close().ok());
    }
    world.fs->DropAllDirty();  // power cut after close
    {
      std::unique_ptr<DB> db;
      ASSERT_TRUE(DB::Open(opts, world.MakeDbEnv(), &db).ok());
      Value v;
      ASSERT_TRUE(db->Get({}, "durable", &v).ok());
      EXPECT_EQ(v.Materialize(), "yes");
      // "maybe-lost" may or may not survive (it shared a sector with the
      // synced record); what matters is no corruption either way.
      Status s = db->Get({}, "maybe-lost", &v);
      EXPECT_TRUE(s.ok() || s.IsNotFound());
      ASSERT_TRUE(db->Close().ok());
    }
  });
}

// Regression: redirection stays live DURING rollback; pairs redirected
// mid-drain survive the snapshot-bounded reset and remain readable.
TEST(RollbackConcurrencyTest, RedirectDuringRollbackSurvives) {
  SimWorld world;
  world.Run([&] {
    DbOptions main_opts = test::SmallDbOptions();
    main_opts.compaction_threads = 2;
    core::KvaccelOptions kv_opts;
    kv_opts.dev.memtable_bytes = 128 << 10;
    kv_opts.dev.dma_chunk = 16 << 10;  // many chunks -> long scan
    kv_opts.rollback = core::RollbackScheme::kDisabled;
    std::unique_ptr<core::KvaccelDB> db;
    ASSERT_TRUE(
        core::KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db)
            .ok());
    // Plant pre-rollback device pairs.
    for (int i = 0; i < 400; i++) {
      lsm::SequenceNumber seq = db->main()->AllocateSequence(1);
      ASSERT_TRUE(
          DevPut(db->dev(), TestKey(i), Value::Synthetic(i, 4096), seq).ok());
      db->metadata()->Insert(TestKey(i), seq);
    }
    // Start the rollback in one thread; redirect new pairs from another
    // while the scan is in flight.
    bool rollback_done = false;
    auto* roller = world.env.Spawn("roller", [&] {
      ASSERT_TRUE(db->RollbackNow().ok());
      rollback_done = true;
    });
    auto* injector = world.env.Spawn("injector", [&] {
      world.env.SleepFor(FromMicros(500));  // land mid-scan
      for (int i = 1000; i < 1050; i++) {
        lsm::SequenceNumber seq = db->main()->AllocateSequence(1);
        ASSERT_TRUE(
            DevPut(db->dev(), TestKey(i), Value::Synthetic(i, 4096), seq).ok());
        db->metadata()->Insert(TestKey(i), seq);
      }
    });
    world.env.Join(roller);
    world.env.Join(injector);
    ASSERT_TRUE(rollback_done);

    // Mid-drain pairs survive in the device, readable through the facade.
    Value v;
    for (int i = 1000; i < 1050; i++) {
      ASSERT_TRUE(db->Get({}, TestKey(i), &v).ok()) << i;
      EXPECT_EQ(v.seed(), static_cast<uint64_t>(i));
    }
    EXPECT_FALSE(db->dev()->Empty());  // they were not reset
    // Pre-rollback pairs moved to Main-LSM.
    for (int i = 0; i < 400; i += 37) {
      ASSERT_TRUE(db->Get({}, TestKey(i), &v).ok()) << i;
      EXPECT_EQ(v.seed(), static_cast<uint64_t>(i));
    }
    // A second rollback drains the survivors too.
    ASSERT_TRUE(db->WaitForCompactionIdle().ok());
    ASSERT_TRUE(db->RollbackNow().ok());
    EXPECT_TRUE(db->dev()->Empty());
    for (int i = 1000; i < 1050; i++) {
      ASSERT_TRUE(db->Get({}, TestKey(i), &v).ok()) << i;
    }
    ASSERT_TRUE(db->Close().ok());
  });
}

// Compaction must NOT drop a tombstone while deeper levels still hold older
// versions of the key.
TEST(CompactionSemanticsTest, TombstoneRetainedWhileDeeperDataExists) {
  SimWorld world;
  world.Run([&] {
    DbOptions opts = test::SmallDbOptions();
    opts.compaction_threads = 1;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, world.MakeDbEnv(), &db).ok());
    // Push a first generation deep (several flush/compaction rounds).
    for (int round = 0; round < 4; round++) {
      for (int i = 0; i < 300; i++) {
        ASSERT_TRUE(db->Put({}, TestKey(i),
                            Value::Synthetic(round * 1000 + i, 4096)).ok());
      }
      ASSERT_TRUE(db->FlushAll().ok());
    }
    ASSERT_TRUE(db->WaitForCompactionIdle().ok());
    // Delete half the keys; force the tombstones through compactions.
    for (int i = 0; i < 300; i += 2) {
      ASSERT_TRUE(db->Delete({}, TestKey(i)).ok());
    }
    ASSERT_TRUE(db->FlushAll().ok());
    ASSERT_TRUE(db->WaitForCompactionIdle().ok());
    Value v;
    for (int i = 0; i < 300; i++) {
      Status s = db->Get({}, TestKey(i), &v);
      if (i % 2 == 0) {
        EXPECT_TRUE(s.IsNotFound()) << i;
      } else {
        ASSERT_TRUE(s.ok()) << i;
        EXPECT_EQ(v.seed(), static_cast<uint64_t>(3000 + i)) << i;
      }
    }
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(FineTrafficTest, FineSeriesTracksCoarseSeries) {
  SimWorld world;
  world.Run([&] {
    world.ssd->PcieToDevice(10 << 20);  // 10 MiB burst
    const auto& coarse = world.ssd->pcie().traffic();
    const auto& fine = world.ssd->pcie().traffic_fine();
    EXPECT_NEAR(coarse.total(), fine.total(), 1.0);
    EXPECT_EQ(fine.bucket_width(), kNanosPerSec / 8);
  });
}

TEST(DetectorEdgeTest, RedirectsOnlyNearStopTriggers) {
  SimWorld world;
  world.Run([&] {
    DbOptions opts = test::SmallDbOptions();
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, world.MakeDbEnv(), &db).ok());
    core::KvaccelOptions kv_opts;
    core::KvaccelStats stats;
    core::Detector detector(db.get(), &world.env, world.host_cpu.get(),
                            kv_opts, &stats);
    detector.PollNow();
    EXPECT_FALSE(detector.stall_detected());  // empty DB: calm
    EXPECT_GT(detector.calm_streak(), 0);
    EXPECT_EQ(stats.detector_checks, 1u);
    lsm::StallSignals sig = db->GetStallSignals();
    EXPECT_EQ(sig.l0_stop_trigger, opts.l0_stop_writes_trigger);
    ASSERT_TRUE(db->Close().ok());
  });
}

}  // namespace
}  // namespace kvaccel
