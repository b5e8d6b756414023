#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>

#include "common/random.h"
#include "lsm/db.h"
#include "tests/test_util.h"

namespace kvaccel::lsm {
namespace {

using test::SimWorld;
using test::TestKey;

TEST(DbTest, PutGetDelete) {
  SimWorld world;
  world.Run([&] {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(test::SmallDbOptions(), world.MakeDbEnv(), &db).ok());
    ASSERT_TRUE(db->Put({}, "k1", Value::Inline("v1")).ok());
    ASSERT_TRUE(db->Put({}, "k2", Value::Inline("v2")).ok());
    Value v;
    ASSERT_TRUE(db->Get({}, "k1", &v).ok());
    EXPECT_EQ(v.Materialize(), "v1");
    EXPECT_TRUE(db->Get({}, "missing", &v).IsNotFound());
    ASSERT_TRUE(db->Delete({}, "k1").ok());
    EXPECT_TRUE(db->Get({}, "k1", &v).IsNotFound());
    ASSERT_TRUE(db->Get({}, "k2", &v).ok());
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(DbTest, OverwriteReturnsLatest) {
  SimWorld world;
  world.Run([&] {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(test::SmallDbOptions(), world.MakeDbEnv(), &db).ok());
    for (int i = 0; i < 10; i++) {
      ASSERT_TRUE(
          db->Put({}, "key", Value::Inline("v" + std::to_string(i))).ok());
    }
    Value v;
    ASSERT_TRUE(db->Get({}, "key", &v).ok());
    EXPECT_EQ(v.Materialize(), "v9");
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(DbTest, GetAfterFlushReadsSst) {
  SimWorld world;
  world.Run([&] {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(test::SmallDbOptions(), world.MakeDbEnv(), &db).ok());
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(i), Value::Inline("v" + std::to_string(i)))
                      .ok());
    }
    ASSERT_TRUE(db->FlushAll().ok());
    EXPECT_GE(db->stats().flush_count, 1u);
    EXPECT_GT(db->TotalSstBytes(), 0u);
    Value v;
    for (int i = 0; i < 100; i += 7) {
      ASSERT_TRUE(db->Get({}, TestKey(i), &v).ok()) << i;
      EXPECT_EQ(v.Materialize(), "v" + std::to_string(i));
    }
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(DbTest, CompactionPreservesData) {
  SimWorld world;
  world.Run([&] {
    DbOptions opts = test::SmallDbOptions();
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, world.MakeDbEnv(), &db).ok());
    // Write enough synthetic 4 KB values to force several flushes and
    // L0->L1 compactions (write buffer is 256 KiB).
    const int n = 2000;
    Random64 rng(7);
    std::map<std::string, uint64_t> expected;
    for (int i = 0; i < n; i++) {
      uint64_t k = rng.Uniform(500);  // heavy overwrite
      std::string key = TestKey(k);
      uint64_t seed = static_cast<uint64_t>(i) << 20;
      ASSERT_TRUE(db->Put({}, key, Value::Synthetic(seed, 4096)).ok());
      expected[key] = seed;
    }
    ASSERT_TRUE(db->FlushAll().ok());
    ASSERT_TRUE(db->WaitForCompactionIdle().ok());
    EXPECT_GT(db->stats().compaction_count, 0u);

    for (const auto& [key, seed] : expected) {
      Value v;
      ASSERT_TRUE(db->Get({}, key, &v).ok()) << key;
      EXPECT_EQ(v.seed(), seed) << key;
      EXPECT_EQ(v.logical_size(), 4096u);
    }
    // Compaction should have dropped shadowed versions: total SST bytes on
    // the order of live data (500 * 4 KB = 2 MB), far below written (8 MB).
    EXPECT_LT(db->TotalSstBytes(), 5ull << 20);
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(DbTest, DeletesSurviveCompaction) {
  SimWorld world;
  world.Run([&] {
    DbOptions opts = test::SmallDbOptions();
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, world.MakeDbEnv(), &db).ok());
    for (int i = 0; i < 200; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(i), Value::Synthetic(i, 4096)).ok());
    }
    ASSERT_TRUE(db->FlushAll().ok());
    for (int i = 0; i < 200; i += 2) {
      ASSERT_TRUE(db->Delete({}, TestKey(i)).ok());
    }
    ASSERT_TRUE(db->FlushAll().ok());
    ASSERT_TRUE(db->WaitForCompactionIdle().ok());
    Value v;
    for (int i = 0; i < 200; i++) {
      Status s = db->Get({}, TestKey(i), &v);
      if (i % 2 == 0) {
        EXPECT_TRUE(s.IsNotFound()) << i;
      } else {
        EXPECT_TRUE(s.ok()) << i;
      }
    }
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(DbTest, IteratorSeesLiveKeysInOrder) {
  SimWorld world;
  world.Run([&] {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(test::SmallDbOptions(), world.MakeDbEnv(), &db).ok());
    for (int i = 0; i < 300; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(i), Value::Synthetic(i, 2048)).ok());
    }
    ASSERT_TRUE(db->FlushAll().ok());
    // Some keys deleted, some overwritten post-flush (live in memtable).
    for (int i = 0; i < 300; i += 3) ASSERT_TRUE(db->Delete({}, TestKey(i)).ok());
    for (int i = 1; i < 300; i += 3) {
      ASSERT_TRUE(db->Put({}, TestKey(i), Value::Synthetic(1000 + i, 100)).ok());
    }

    auto it = db->NewIterator({});
    int count = 0;
    std::string prev;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      std::string key = it->key().ToString();
      if (!prev.empty()) {
        EXPECT_LT(prev, key);
      }
      prev = key;
      count++;
      // Deleted keys must not appear.
      uint64_t n = strtoull(key.c_str() + 3, nullptr, 10);
      EXPECT_NE(n % 3, 0u) << key;
    }
    EXPECT_TRUE(it->status().ok());
    EXPECT_EQ(count, 200);

    // Seek semantics.
    it->Seek(TestKey(150) /* deleted (150 % 3 == 0) */);
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key().ToString(), TestKey(151));
    Value v = Value::DecodeOrDie(it->value());
    EXPECT_EQ(v.seed(), 1151u);
    ASSERT_TRUE(db->Close().ok());
  });
}

// A short user scan pays for what it returns: 64 entries over N sorted runs
// read far fewer blocks than the N x readahead_blocks a fixed window fetches
// at the Seek. Each Seek is counted and timed.
TEST(DbTest, ShortScanFetchesFewBlocksPerSortedRun) {
  SimWorld world;
  world.Run([&] {
    DbOptions opts = test::SmallDbOptions();
    opts.l0_compaction_trigger = 8;
    opts.l0_slowdown_writes_trigger = 16;
    opts.l0_stop_writes_trigger = 20;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, world.MakeDbEnv(), &db).ok());
    // Five interleaved sorted runs: run r holds the keys k with k % 5 == r.
    for (int r = 0; r < 5; r++) {
      for (int k = r; k < 4000; k += 5) {
        ASSERT_TRUE(db->Put({}, TestKey(k), Value::Synthetic(k, 256)).ok());
      }
      ASSERT_TRUE(db->FlushAll().ok());
    }
    ASSERT_TRUE(db->WaitForCompactionIdle().ok());
    size_t runs = 0;
    std::set<int> levels;
    for (const SstFileInfo& f : db->ListSstFiles()) {
      if (f.level == 0) {
        runs++;
      } else {
        levels.insert(f.level);
      }
    }
    runs += levels.size();
    ASSERT_GE(runs, 4u);

    ReadOptions ropts;
    ropts.readahead_blocks = 16;
    auto scan = [&](int from) {
      auto it = db->NewIterator(ropts);
      it->Seek(TestKey(from));
      for (int n = 0; n < 64 && it->Valid(); n++) it->Next();
      EXPECT_TRUE(it->status().ok());
    };
    scan(0);  // opens every table
    const uint64_t seeks = db->stats().seeks_total;
    EXPECT_EQ(seeks, 1u);
    const uint64_t nand = world.ssd->nand().bytes_read();
    scan(2000);
    const uint64_t fetched = world.ssd->nand().bytes_read() - nand;
    EXPECT_LT(fetched, runs * 16 * opts.block_size / 3) << runs << " runs";
    EXPECT_EQ(db->stats().seeks_total, seeks + 1);
    EXPECT_EQ(db->stats().seek_latency.Count(), seeks + 1);
    EXPECT_GT(db->stats().seek_latency.Min(), 0u);
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(DbTest, WalRecoveryAfterCrash) {
  SimWorld world;
  world.Run([&] {
    DbOptions opts = test::SmallDbOptions();
    {
      std::unique_ptr<DB> db;
      ASSERT_TRUE(DB::Open(opts, world.MakeDbEnv(), &db).ok());
      for (int i = 0; i < 50; i++) {
        ASSERT_TRUE(db->Put({}, TestKey(i), Value::Inline("v" + std::to_string(i)))
                        .ok());
      }
      // Force WAL to device (unsynced tail would be legitimately lost).
      ASSERT_TRUE(db->Put(WriteOptions{.sync = true}, TestKey(50),
                          Value::Inline("v50"))
                      .ok());
      // "Crash": close background threads without flushing the memtable.
      ASSERT_TRUE(db->Close().ok());
    }
    {
      std::unique_ptr<DB> db;
      ASSERT_TRUE(DB::Open(opts, world.MakeDbEnv(), &db).ok());
      Value v;
      for (int i = 0; i <= 50; i++) {
        ASSERT_TRUE(db->Get({}, TestKey(i), &v).ok()) << i;
        EXPECT_EQ(v.Materialize(), "v" + std::to_string(i));
      }
      ASSERT_TRUE(db->Close().ok());
    }
  });
}

TEST(DbTest, RecoveryAfterFlushAndCompaction) {
  SimWorld world;
  world.Run([&] {
    DbOptions opts = test::SmallDbOptions();
    {
      std::unique_ptr<DB> db;
      ASSERT_TRUE(DB::Open(opts, world.MakeDbEnv(), &db).ok());
      for (int i = 0; i < 500; i++) {
        ASSERT_TRUE(db->Put({}, TestKey(i % 200), Value::Synthetic(i, 4096)).ok());
      }
      ASSERT_TRUE(db->FlushAll().ok());
      ASSERT_TRUE(db->WaitForCompactionIdle().ok());
      ASSERT_TRUE(db->Close().ok());
    }
    {
      std::unique_ptr<DB> db;
      ASSERT_TRUE(DB::Open(opts, world.MakeDbEnv(), &db).ok());
      Value v;
      // Last writer of key k was iteration i where i % 200 == k, i maximal.
      for (int k = 0; k < 200; k++) {
        ASSERT_TRUE(db->Get({}, TestKey(k), &v).ok()) << k;
        uint64_t expect = (k < 100) ? (400 + k) : (200 + k);
        EXPECT_EQ(v.seed(), expect) << k;
      }
      ASSERT_TRUE(db->Close().ok());
    }
  });
}

TEST(DbTest, StallsOccurWithoutSlowdownUnderWritePressure) {
  SimWorld world;
  world.Run([&] {
    DbOptions opts = test::SmallDbOptions();
    opts.enable_slowdown = false;
    opts.compaction_threads = 1;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, world.MakeDbEnv(), &db).ok());
    for (int i = 0; i < 3000; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(i), Value::Synthetic(i, 4096)).ok());
    }
    EXPECT_GT(db->stats().stall_events, 0u);
    EXPECT_GT(db->stats().stall_regions.TotalDuration(), 0u);
    EXPECT_EQ(db->stats().slowdown_events, 0u);
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(DbTest, SlowdownReplacesHardStalls) {
  SimWorld world;
  world.Run([&] {
    DbOptions opts = test::SmallDbOptions();
    opts.enable_slowdown = true;
    opts.compaction_threads = 1;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, world.MakeDbEnv(), &db).ok());
    for (int i = 0; i < 3000; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(i), Value::Synthetic(i, 4096)).ok());
    }
    EXPECT_GT(db->stats().slowdown_events, 0u);
    // The delayed-write mechanism should absorb most pressure; hard stalls
    // may still occur but far less than slowdowns.
    EXPECT_LT(db->stats().stall_events, db->stats().slowdown_events);
    ASSERT_TRUE(db->Close().ok());
  });
}

// Logical bytes in the DB's WAL files.
uint64_t WalBytes(const fs::SimFs& fs) {
  uint64_t total = 0;
  for (const std::string& name : fs.GetChildren()) {
    uint64_t size = 0;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".log") == 0 &&
        fs.GetFileSize(name, &size).ok()) {
      total += size;
    }
  }
  return total;
}

// Opens a DB with two flushed L0 files, the L0->L1 compaction they trigger
// still running, and l0_slowdown_writes_trigger = 2. Its L0 sits at the stop
// trigger (l0_stop_writes_trigger = 2, slowdown off) or, with `slowdown`, at
// the slowdown trigger below a stop trigger of 4.
void OpenWithTwoL0Files(SimWorld* world, bool slowdown,
                        std::unique_ptr<DB>* db) {
  DbOptions opts = test::SmallDbOptions();
  opts.enable_slowdown = slowdown;
  opts.compaction_threads = 1;
  opts.l0_compaction_trigger = 2;
  opts.l0_slowdown_writes_trigger = 2;
  opts.l0_stop_writes_trigger = slowdown ? 4 : 2;
  ASSERT_TRUE(DB::Open(opts, world->MakeDbEnv(), db).ok());
  for (int i = 0; i < 2; i++) {
    ASSERT_TRUE((*db)->Put({}, TestKey(i), Value::Synthetic(i, 4096)).ok());
    ASSERT_TRUE((*db)->FlushAll().ok());
  }
  StallSignals sig = (*db)->GetStallSignals();
  ASSERT_EQ(sig.l0_files, 2);
  ASSERT_EQ(sig.l0_files >= sig.l0_stop_trigger, !slowdown);
}

void OpenAtL0StopTrigger(SimWorld* world, std::unique_ptr<DB>* db) {
  OpenWithTwoL0Files(world, /*slowdown=*/false, db);
}

// A no_slowdown write the Main-LSM would stall is refused before it touches
// anything: no sequence, no WAL byte, no virtual time beyond its put CPU.
void ExpectRefusedUntouched(SimWorld* world, DB* db, uint64_t key) {
  WriteOptions no_wait;
  no_wait.no_slowdown = true;
  WriteBatch batch;
  batch.Put(TestKey(key), Value::Synthetic(key, 4096));
  batch.Put(TestKey(key + 1), Value::Synthetic(key + 1, 4096));
  const SequenceNumber seq = db->LastSequence();
  const uint64_t wal = WalBytes(*world->fs);
  const uint64_t writes = db->stats().writes_total;
  const Nanos t0 = world->env.Now();
  Status s = db->Write(no_wait, &batch);
  EXPECT_TRUE(s.IsIncomplete()) << s.ToString();
  EXPECT_FALSE(s.IsTransient());
  EXPECT_EQ(db->LastSequence(), seq);
  EXPECT_EQ(WalBytes(*world->fs), wal);
  EXPECT_EQ(db->stats().writes_total, writes);
  EXPECT_EQ(db->stats().stall_events, 0u);
  const double put_cpu = DbOptions{}.put_cpu_ns * batch.Count();
  EXPECT_LE(world->env.Now() - t0, static_cast<Nanos>(put_cpu) + 1);
}

TEST(DbTest, NoSlowdownWriteAtL0StopTriggerReturnsIncomplete) {
  SimWorld world;
  world.Run([&] {
    std::unique_ptr<DB> db;
    OpenAtL0StopTrigger(&world, &db);
    ExpectRefusedUntouched(&world, db.get(), 100);
    // A plain write in the same state waits for the compaction.
    const Nanos t0 = world.env.Now();
    ASSERT_TRUE(db->Put({}, TestKey(200), Value::Synthetic(200, 4096)).ok());
    EXPECT_EQ(db->stats().stall_events, 1u);
    EXPECT_GT(world.env.Now() - t0, FromMicros(100));
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(DbTest, NoSlowdownWriteAtSlowdownTriggerReturnsIncomplete) {
  SimWorld world;
  world.Run([&] {
    std::unique_ptr<DB> db;
    OpenWithTwoL0Files(&world, /*slowdown=*/true, &db);
    ExpectRefusedUntouched(&world, db.get(), 100);
    EXPECT_EQ(db->stats().slowdown_events, 0u);
    // A plain write in the same state is delayed.
    const Nanos t0 = world.env.Now();
    ASSERT_TRUE(db->Put({}, TestKey(200), Value::Synthetic(200, 4096)).ok());
    EXPECT_EQ(db->stats().slowdown_events, 1u);
    EXPECT_EQ(db->stats().stall_events, 0u);
    EXPECT_GT(world.env.Now() - t0, FromMicros(10));
    ASSERT_TRUE(db->Close().ok());
  });
}

// The memtable backlog is not one of no_slowdown's waits: such a write
// waits for the flush like a plain one (DESIGN.md §29).
TEST(DbTest, NoSlowdownWriteAtMemtableBacklogWaitsForTheFlush) {
  SimWorld world;
  world.Run([&] {
    DbOptions opts = test::SmallDbOptions();
    opts.enable_slowdown = false;
    opts.write_buffer_size = 32 << 10;
    opts.max_write_buffer_number = 2;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, world.MakeDbEnv(), &db).ok());
    // Fill memtables faster than one flush drains: puts go in until the
    // active memtable is full behind an unflushed one.
    WriteOptions no_wait;
    no_wait.no_slowdown = true;
    int i = 0;
    for (; i < 1000; i++) {
      StallSignals sig = db->GetStallSignals();
      if (sig.immutable_memtables >= 1 &&
          sig.active_memtable_bytes + 4096 > opts.write_buffer_size) {
        break;
      }
      ASSERT_TRUE(db->Put(no_wait, TestKey(i), Value::Synthetic(i, 4096)).ok())
          << i;
    }
    ASSERT_LT(i, 1000) << "the flush kept up with every put";
    ASSERT_LT(db->GetStallSignals().l0_files, opts.l0_stop_writes_trigger);
    EXPECT_EQ(db->stats().stall_events, 0u);
    const SequenceNumber seq = db->LastSequence();
    const Nanos t0 = world.env.Now();
    ASSERT_TRUE(
        db->Put(no_wait, TestKey(5000), Value::Synthetic(5000, 4096)).ok());
    EXPECT_EQ(db->stats().stall_events, 1u);
    EXPECT_EQ(db->LastSequence(), seq + 1);
    EXPECT_GT(world.env.Now() - t0, FromMicros(10));
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(DbTest, NoSlowdownWriterIsNotFoldedIntoAWaitingLeadersGroup) {
  SimWorld world;
  std::unique_ptr<DB> db;
  bool opened = false;
  Status plain, no_wait_status = Status::Aborted("not run");
  world.env.Spawn("leader", [&] {
    OpenAtL0StopTrigger(&world, &db);
    opened = true;
    // Leads a group and waits in the stall until the compaction installs.
    plain = db->Put({}, TestKey(100), Value::Synthetic(100, 4096));
  });
  world.env.Spawn("follower", [&] {
    while (!opened || !db->GetStallSignals().stalled) {
      world.env.SleepFor(FromMicros(1));
    }
    const uint64_t groups = db->stats().write_groups;
    WriteOptions no_wait;
    no_wait.no_slowdown = true;
    no_wait_status = db->Put(no_wait, TestKey(101),
                             Value::Synthetic(101, 4096));
    // Queued behind the waiting leader, it committed in a group of its own.
    EXPECT_EQ(db->stats().write_groups, groups + 2);
    EXPECT_EQ(db->stats().group_commit_size.Max(), 1u);
    EXPECT_EQ(db->stats().stall_events, 1u);
    ASSERT_TRUE(db->Close().ok());
  });
  world.env.Run();
  EXPECT_TRUE(plain.ok()) << plain.ToString();
  EXPECT_TRUE(no_wait_status.ok()) << no_wait_status.ToString();
}

TEST(DbTest, StallSignalsReflectState) {
  SimWorld world;
  world.Run([&] {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(test::SmallDbOptions(), world.MakeDbEnv(), &db).ok());
    StallSignals sig = db->GetStallSignals();
    EXPECT_EQ(sig.l0_files, 0);
    EXPECT_FALSE(sig.stalled);
    ASSERT_TRUE(db->Put({}, "k", Value::Synthetic(1, 4096)).ok());
    sig = db->GetStallSignals();
    EXPECT_GT(sig.active_memtable_bytes, 4000u);
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(DbTest, DynamicTuningHooks) {
  SimWorld world;
  world.Run([&] {
    DbOptions opts = test::SmallDbOptions();
    opts.compaction_threads = 1;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, world.MakeDbEnv(), &db).ok());
    EXPECT_EQ(db->compaction_threads(), 1);
    db->SetCompactionThreads(4);
    EXPECT_EQ(db->compaction_threads(), 4);
    db->SetWriteBufferSize(512 << 10);
    EXPECT_EQ(db->write_buffer_size(), 512u << 10);
    // Tuning up mid-load must not break anything.
    for (int i = 0; i < 500; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(i), Value::Synthetic(i, 4096)).ok());
    }
    ASSERT_TRUE(db->FlushAll().ok());
    ASSERT_TRUE(db->WaitForCompactionIdle().ok());
    Value v;
    ASSERT_TRUE(db->Get({}, TestKey(123), &v).ok());
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(DbTest, ConcurrentReadersAndWriter) {
  SimWorld world;
  DbOptions opts = test::SmallDbOptions();
  std::unique_ptr<DB> db;
  int read_hits = 0;
  world.env.Spawn("writer", [&] {
    ASSERT_TRUE(DB::Open(opts, world.MakeDbEnv(), &db).ok());
    for (int i = 0; i < 1000; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(i % 100), Value::Synthetic(i, 4096)).ok());
    }
  });
  world.env.Spawn("reader", [&] {
    world.env.SleepFor(FromMillis(50));
    for (int i = 0; i < 200; i++) {
      if (db == nullptr) break;
      Value v;
      Status s = db->Get({}, TestKey(i % 100), &v);
      if (s.ok()) read_hits++;
      world.env.SleepFor(FromMicros(500));
    }
  });
  world.env.Spawn("closer", [&] {
    world.env.SleepFor(FromSecs(30));
    if (db != nullptr) {
      ASSERT_TRUE(db->Close().ok());
    }
  });
  world.env.Run();
  EXPECT_GT(read_hits, 0);
}

TEST(DbTest, PerSecondThroughputRecorded) {
  SimWorld world;
  world.Run([&] {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(test::SmallDbOptions(), world.MakeDbEnv(), &db).ok());
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(i), Value::Inline("x")).ok());
    }
    EXPECT_EQ(db->stats().writes_total, 100u);
    EXPECT_NEAR(db->stats().writes_completed.total(), 100.0, 0.01);
    EXPECT_GT(db->stats().put_latency.Count(), 0u);
    ASSERT_TRUE(db->Close().ok());
  });
}

}  // namespace
}  // namespace kvaccel::lsm
