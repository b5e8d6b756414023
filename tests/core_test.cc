#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "core/kvaccel_db.h"
#include "tests/test_util.h"

namespace kvaccel::core {
namespace {

using test::SimWorld;
using test::TestKey;

KvaccelOptions SmallKvOptions() {
  KvaccelOptions o;
  o.dev.memtable_bytes = 128 << 10;
  o.dev.dma_chunk = 64 << 10;
  o.rollback = RollbackScheme::kDisabled;  // tests trigger rollback manually
  return o;
}

TEST(KvaccelDbTest, NormalPathPutGet) {
  SimWorld world;
  world.Run([&] {
    std::unique_ptr<KvaccelDB> db;
    ASSERT_TRUE(KvaccelDB::Open(test::SmallDbOptions(), SmallKvOptions(),
                                world.MakeDbEnv(), &db)
                    .ok());
    ASSERT_TRUE(db->Put({}, "k", Value::Inline("v")).ok());
    Value v;
    ASSERT_TRUE(db->Get({}, "k", &v).ok());
    EXPECT_EQ(v.Materialize(), "v");
    EXPECT_EQ(db->kv_stats().direct_writes, 1u);
    EXPECT_EQ(db->kv_stats().redirected_writes, 0u);
    ASSERT_TRUE(db->Close().ok());
  });
}

// Forces the redirection path by stuffing Main-LSM until the Detector sees
// an imminent stall, then checks read-your-writes across both paths.
TEST(KvaccelDbTest, RedirectionDuringStallPreservesReads) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions main_opts = test::SmallDbOptions();
    main_opts.compaction_threads = 1;
    KvaccelOptions kv_opts = SmallKvOptions();
    kv_opts.detector_period = FromMillis(1);  // react fast at test scale
    std::unique_ptr<KvaccelDB> db;
    ASSERT_TRUE(
        KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db).ok());

    for (int i = 0; i < 3000; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(i % 500),
                          Value::Synthetic(static_cast<uint64_t>(i), 4096))
                      .ok());
    }
    // Sustained pressure must have redirected part of the stream.
    EXPECT_GT(db->kv_stats().redirected_writes, 0u);
    EXPECT_GT(db->kv_stats().direct_writes, 0u);
    EXPECT_GT(db->kv_stats().detector_checks, 0u);

    // Read-your-writes: the newest version of every key, wherever it lives.
    Value v;
    for (int k = 0; k < 500; k++) {
      ASSERT_TRUE(db->Get({}, TestKey(k), &v).ok()) << k;
      EXPECT_EQ(v.seed(), static_cast<uint64_t>(2500 + k)) << k;
    }
    EXPECT_GT(db->kv_stats().dev_reads + db->kv_stats().main_reads, 0u);
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(KvaccelDbTest, RollbackDrainsDeviceAndPreservesData) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions main_opts = test::SmallDbOptions();
    main_opts.compaction_threads = 1;
    KvaccelOptions kv_opts = SmallKvOptions();
    kv_opts.detector_period = FromMillis(1);
    std::unique_ptr<KvaccelDB> db;
    ASSERT_TRUE(
        KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db).ok());
    for (int i = 0; i < 3000; i++) {
      ASSERT_TRUE(
          db->Put({}, TestKey(i % 500), Value::Synthetic(i, 4096)).ok());
    }
    ASSERT_GT(db->kv_stats().redirected_writes, 0u);
    ASSERT_FALSE(db->dev()->Empty());

    ASSERT_TRUE(db->WaitForCompactionIdle().ok());
    ASSERT_TRUE(db->RollbackNow().ok());
    EXPECT_TRUE(db->dev()->Empty());
    EXPECT_EQ(db->metadata()->Size(), 0u);
    EXPECT_EQ(db->kv_stats().rollbacks, 1u);
    EXPECT_GT(db->kv_stats().rollback_entries, 0u);

    // All newest versions now come from Main-LSM.
    Value v;
    for (int k = 0; k < 500; k++) {
      ASSERT_TRUE(db->Get({}, TestKey(k), &v).ok()) << k;
      EXPECT_EQ(v.seed(), static_cast<uint64_t>(2500 + k)) << k;
    }
    EXPECT_EQ(db->kv_stats().dev_reads, 0u);  // reads after rollback: main
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(KvaccelDbTest, DeleteRedirectedAsTombstone) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions main_opts = test::SmallDbOptions();
    main_opts.compaction_threads = 1;
    KvaccelOptions kv_opts = SmallKvOptions();
    kv_opts.detector_period = FromMillis(1);
    std::unique_ptr<KvaccelDB> db;
    ASSERT_TRUE(
        KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db).ok());
    // Seed some stable data.
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(i), Value::Synthetic(i, 4096)).ok());
    }
    // Build stall pressure, then delete seeded keys mid-pressure.
    for (int i = 0; i < 2000; i++) {
      ASSERT_TRUE(
          db->Put({}, TestKey(1000 + i), Value::Synthetic(i, 4096)).ok());
      if (i % 40 == 0 && i / 40 < 100) {
        ASSERT_TRUE(db->Delete({}, TestKey(i / 40)).ok());
      }
    }
    // Deleted keys are gone regardless of which path served the delete.
    Value v;
    for (int k = 0; k < 50; k++) {
      EXPECT_TRUE(db->Get({}, TestKey(k), &v).IsNotFound()) << k;
    }
    // And stay gone after rollback.
    ASSERT_TRUE(db->WaitForCompactionIdle().ok());
    ASSERT_TRUE(db->RollbackNow().ok());
    for (int k = 0; k < 50; k++) {
      EXPECT_TRUE(db->Get({}, TestKey(k), &v).IsNotFound()) << k;
    }
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(KvaccelDbTest, OverwriteOnMainPathInvalidatesDevCopy) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions main_opts = test::SmallDbOptions();
    main_opts.compaction_threads = 1;
    KvaccelOptions kv_opts = SmallKvOptions();
    kv_opts.detector_period = FromMillis(1);
    std::unique_ptr<KvaccelDB> db;
    ASSERT_TRUE(
        KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db).ok());
    // Build pressure so some "hot" keys get redirected.
    for (int i = 0; i < 2500; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(i % 300), Value::Synthetic(i, 4096)).ok());
    }
    ASSERT_GT(db->metadata()->Size(), 0u);
    // Let pressure subside, then overwrite everything on the normal path.
    ASSERT_TRUE(db->WaitForCompactionIdle().ok());
    db->detector()->PollNow();
    for (int k = 0; k < 300; k++) {
      ASSERT_TRUE(
          db->Put({}, TestKey(k), Value::Synthetic(100000 + k, 64)).ok());
    }
    // Paper write path (3-1): records now point at Main-LSM.
    Value v;
    for (int k = 0; k < 300; k++) {
      ASSERT_TRUE(db->Get({}, TestKey(k), &v).ok()) << k;
      EXPECT_EQ(v.seed(), static_cast<uint64_t>(100000 + k)) << k;
    }
    // Rollback must NOT resurrect the stale device copies.
    ASSERT_TRUE(db->RollbackNow().ok());
    for (int k = 0; k < 300; k++) {
      ASSERT_TRUE(db->Get({}, TestKey(k), &v).ok()) << k;
      EXPECT_EQ(v.seed(), static_cast<uint64_t>(100000 + k)) << k;
    }
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(KvaccelDbTest, HybridIteratorMergesBothSides) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions main_opts = test::SmallDbOptions();
    KvaccelOptions kv_opts = SmallKvOptions();
    std::unique_ptr<KvaccelDB> db;
    ASSERT_TRUE(
        KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db).ok());
    // Even keys via the normal path.
    for (int i = 0; i < 100; i += 2) {
      ASSERT_TRUE(db->Put({}, TestKey(i), Value::Synthetic(i, 256)).ok());
    }
    // Odd keys planted directly in the Dev-LSM (as a redirection would).
    for (int i = 1; i < 100; i += 2) {
      ASSERT_TRUE(db->dev()->Put(TestKey(i), Value::Synthetic(i, 256)).ok());
      db->metadata()->Insert(TestKey(i), 1000000 + i);
    }
    // Overlap: key 10 newest in dev, key 12 newest in main.
    ASSERT_TRUE(db->dev()->Put(TestKey(10), Value::Synthetic(777, 256)).ok());
    db->metadata()->Insert(TestKey(10), 2000000);
    ASSERT_TRUE(db->dev()->Put(TestKey(12), Value::Synthetic(888, 256)).ok());
    // (12 not in metadata: main is newest)
    // Dev tombstone hides key 14 entirely.
    ASSERT_TRUE(db->dev()->Delete(TestKey(14)).ok());
    db->metadata()->Insert(TestKey(14), 2000001);
    // A redirected put of key 100 deleted on the host path: path 3-1 drops
    // the metadata record, so the device copy is stale for scans as for Get.
    ASSERT_TRUE(db->dev()->Put(TestKey(100), Value::Synthetic(100, 256)).ok());
    db->metadata()->Insert(TestKey(100), 2000002);
    ASSERT_TRUE(db->Delete({}, TestKey(100)).ok());
    Value gone;
    EXPECT_TRUE(db->Get({}, TestKey(100), &gone).IsNotFound());

    auto it = db->NewIterator({});
    std::vector<std::string> keys;
    uint64_t seed10 = 0, seed12 = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      keys.push_back(it->key().ToString());
      Value v = Value::DecodeOrDie(it->value());
      if (it->key().ToString() == TestKey(10)) seed10 = v.seed();
      if (it->key().ToString() == TestKey(12)) seed12 = v.seed();
    }
    // 100 keys minus tombstoned 14; deleted 100 stays gone.
    EXPECT_EQ(keys.size(), 99u);
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    EXPECT_EQ(seed10, 777u);  // metadata says dev is newest
    EXPECT_EQ(seed12, 12u);   // metadata says main is newest
    for (const auto& k : keys) {
      EXPECT_NE(k, TestKey(14));
      EXPECT_NE(k, TestKey(100));
    }

    // Seek into the middle.
    it->Seek(TestKey(50));
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key().ToString(), TestKey(50));
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(KvaccelDbTest, HybridIteratorSurvivesRollbackMidScan) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions main_opts = test::SmallDbOptions();
    KvaccelOptions kv_opts = SmallKvOptions();
    kv_opts.rollback = RollbackScheme::kDisabled;
    std::unique_ptr<KvaccelDB> db;
    ASSERT_TRUE(
        KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db).ok());
    // Even keys host-side; odd keys device-side with proper host sequence
    // numbers and metadata records, exactly as redirection leaves them.
    for (int i = 0; i < 100; i += 2) {
      ASSERT_TRUE(db->Put({}, TestKey(i), Value::Synthetic(i, 256)).ok());
    }
    for (int i = 1; i < 100; i += 2) {
      uint64_t seq = db->main()->AllocateSequence(1);
      ASSERT_TRUE(
          db->dev()->Put(TestKey(i), Value::Synthetic(i, 256), seq).ok());
      db->metadata()->Insert(TestKey(i), seq);
    }

    // Open the iterator, scan a quarter, then let a full rollback drain and
    // reset the Dev-LSM underneath it. Both the device's merged view and the
    // metadata key set were pinned at open, so the scan must keep producing
    // every key in order — nothing may vanish or flip sides mid-scan.
    auto it = db->NewIterator({});
    it->SeekToFirst();
    std::vector<std::string> keys;
    for (int i = 0; i < 25; i++) {
      ASSERT_TRUE(it->Valid());
      keys.push_back(it->key().ToString());
      it->Next();
    }
    ASSERT_TRUE(db->RollbackNow().ok());
    EXPECT_TRUE(db->dev()->Empty());  // rollback really did reset the device
    for (; it->Valid(); it->Next()) {
      keys.push_back(it->key().ToString());
      Value v = Value::DecodeOrDie(it->value());
      uint64_t n = strtoull(it->key().ToString().c_str() + 3, nullptr, 10);
      EXPECT_EQ(v.seed(), n) << it->key().ToString();
    }
    ASSERT_EQ(keys.size(), 100u) << "keys vanished across the rollback";
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    for (int i = 0; i < 100; i++) EXPECT_EQ(keys[i], TestKey(i));

    // A fresh iterator sees the post-rollback world: same 100 keys, now all
    // host-side.
    auto it2 = db->NewIterator({});
    int count = 0;
    for (it2->SeekToFirst(); it2->Valid(); it2->Next()) count++;
    EXPECT_EQ(count, 100);
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(KvaccelDbTest, CrashRecoveryRebuildsConsistency) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions main_opts = test::SmallDbOptions();
    main_opts.compaction_threads = 1;
    KvaccelOptions kv_opts = SmallKvOptions();
    kv_opts.detector_period = FromMillis(1);
    std::unique_ptr<KvaccelDB> db;
    ASSERT_TRUE(
        KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db).ok());
    for (int i = 0; i < 2500; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(i % 400), Value::Synthetic(i, 4096)).ok());
    }
    ASSERT_GT(db->metadata()->Size(), 0u);
    ASSERT_TRUE(db->WaitForCompactionIdle().ok());

    // Lose the volatile hash table; recover by full rollback (paper §VI-D).
    Nanos recovery = 0;
    ASSERT_TRUE(db->CrashMetadataAndRecover(&recovery).ok());
    EXPECT_GT(recovery, 0u);
    EXPECT_TRUE(db->dev()->Empty());
    EXPECT_EQ(db->metadata()->Size(), 0u);
    Value v;
    for (int k = 0; k < 400; k++) {
      ASSERT_TRUE(db->Get({}, TestKey(k), &v).ok()) << k;
      // Last write of key k among i = 0..2499 with i % 400 == k.
      uint64_t expect = (k < 100) ? (2400 + k) : (2000 + k);
      EXPECT_EQ(v.seed(), expect) << k;
    }
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(KvaccelDbTest, EagerRollbackRunsAutomatically) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions main_opts = test::SmallDbOptions();
    main_opts.compaction_threads = 2;
    KvaccelOptions kv_opts = SmallKvOptions();
    kv_opts.detector_period = FromMillis(1);
    kv_opts.rollback = RollbackScheme::kEager;
    kv_opts.eager_calm_periods = 2;
    std::unique_ptr<KvaccelDB> db;
    ASSERT_TRUE(
        KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db).ok());
    for (int i = 0; i < 3000; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(i % 500), Value::Synthetic(i, 4096)).ok());
    }
    // Give the background managers idle time to drain the device.
    ASSERT_TRUE(db->WaitForCompactionIdle().ok());
    world.env.SleepFor(FromSecs(2));
    EXPECT_TRUE(db->dev()->Empty());
    EXPECT_GT(db->kv_stats().rollbacks, 0u);
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(KvaccelDbTest, MetadataCostsMatchTableVI) {
  SimWorld world;
  world.Run([&] {
    KvaccelOptions opts = SmallKvOptions();
    KvaccelStats stats;
    MetadataManager md(&world.env, world.host_cpu.get(), opts, &stats);
    Nanos t0 = world.env.Now();
    md.Insert("key1", 7);
    EXPECT_EQ(world.env.Now() - t0, 450u);  // 0.45 us
    t0 = world.env.Now();
    EXPECT_TRUE(md.Check("key1"));
    EXPECT_EQ(world.env.Now() - t0, 200u);  // 0.20 us
    t0 = world.env.Now();
    md.Delete("key1");
    EXPECT_EQ(world.env.Now() - t0, 280u);  // 0.28 us
    EXPECT_FALSE(md.Check("key1"));
    EXPECT_EQ(stats.md_inserts, 1u);
    EXPECT_EQ(stats.md_checks, 2u);
    EXPECT_EQ(stats.md_deletes, 1u);
  });
}

// A seeded mix of every table operation against an std::unordered_map
// reference, through phases that grow the table to thousands of keys, drain
// it, and refill it: results, sorted Entries(), the md_* counters and the
// virtual time each call charges all match.
TEST(MetadataManagerTest, SeededOpsMatchHashMapReference) {
  SimWorld world;
  world.Run([&] {
    KvaccelOptions opts = SmallKvOptions();
    KvaccelStats stats;
    MetadataManager md(&world.env, world.host_cpu.get(), opts, &stats);
    std::unordered_map<std::string, uint64_t> ref;
    KvaccelStats want;
    Random64 rnd(0x6d645f7461626c65ull);
    uint64_t next_seq = 1;
    auto key = [](uint64_t i) { return "user" + TestKey(i); };
    auto check_entries = [&] {
      std::vector<std::pair<std::string, uint64_t>> sorted(ref.begin(),
                                                           ref.end());
      std::sort(sorted.begin(), sorted.end());
      auto got = md.Entries();
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, sorted);
      EXPECT_EQ(md.Size(), ref.size());
      EXPECT_EQ(md.Empty(), ref.empty());
    };
    // Phases: {ops, key space, percent of ops that delete}. The 60%-delete
    // phase drains the table down through several shrinks.
    struct Phase {
      int ops;
      uint64_t keys;
      uint64_t delete_pct;
    };
    const Phase kPhases[] = {{6000, 4000, 5},  {8000, 4000, 60},
                             {3000, 64, 30},   {5000, 9000, 10},
                             {9000, 9000, 70}, {2000, 500, 20}};
    int phase_no = 0;
    for (const Phase& ph : kPhases) {
      for (int op = 0; op < ph.ops; op++) {
        uint64_t r = rnd.Uniform(100);
        std::string k = key(rnd.Uniform(ph.keys));
        Nanos t0 = world.env.Now();
        if (r < ph.delete_pct) {
          md.Delete(k);
          ref.erase(k);
          want.md_deletes++;
          EXPECT_EQ(world.env.Now() - t0, 280u);
        } else if (r < ph.delete_pct + (100 - ph.delete_pct) / 4) {
          uint64_t seq = next_seq++;
          md.Insert(k, seq);
          ref[k] = seq;
          want.md_inserts++;
          EXPECT_EQ(world.env.Now() - t0, 450u);
        } else if (r < ph.delete_pct + (100 - ph.delete_pct) / 2) {
          std::vector<std::pair<std::string, uint64_t>> recs;
          const uint64_t n = 1 + rnd.Uniform(16);
          for (uint64_t i = 0; i < n; i++) {
            // Repeats inside one batch: the later record wins.
            recs.emplace_back(key(rnd.Uniform(ph.keys)), next_seq++);
          }
          md.InsertBatch(recs);
          for (const auto& [rk, seq] : recs) ref[rk] = seq;
          want.md_inserts += n;
          EXPECT_EQ(world.env.Now() - t0, 450 * n);
        } else if (r % 2 == 0) {
          EXPECT_EQ(md.Check(k), ref.count(k) > 0) << k;
          want.md_checks++;
          EXPECT_EQ(world.env.Now() - t0, 200u);
        } else {
          auto it = ref.find(k);
          EXPECT_EQ(md.GetSeq(k), it == ref.end() ? 0 : it->second) << k;
          want.md_checks++;
          EXPECT_EQ(world.env.Now() - t0, 200u);
        }
        if (op % 1000 == 999) check_entries();
      }
      check_entries();
      auto snap = md.SnapshotKeySet();
      want.md_checks++;
      EXPECT_EQ(snap.size(), ref.size());
      for (const auto& [rk, seq] : ref) EXPECT_EQ(snap.count(rk), 1u) << rk;
      EXPECT_EQ(snap.count("absent"), 0u);
      if (++phase_no == 3) {
        Nanos t0 = world.env.Now();
        md.LoseAll();  // crash: uncharged
        ref.clear();
        EXPECT_EQ(world.env.Now(), t0);
        check_entries();
      }
    }
    EXPECT_EQ(stats.md_inserts, want.md_inserts);
    EXPECT_EQ(stats.md_checks, want.md_checks);
    EXPECT_EQ(stats.md_deletes, want.md_deletes);
    EXPECT_NEAR(world.host_cpu->busy_seconds() * 1e9,
                450.0 * want.md_inserts + 200.0 * want.md_checks +
                    280.0 * want.md_deletes,
                1.0);
  });
}

// Concurrent writers coalesce through the Main-LSM writer queue: the total
// op count and the sequence space stay exact, while the number of commit
// groups drops below the number of writes.
TEST(KvaccelDbTest, MultiWriterGroupCommit) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions main_opts = test::SmallDbOptions();
    main_opts.compaction_threads = 1;
    KvaccelOptions kv_opts = SmallKvOptions();
    kv_opts.redirection_enabled = false;  // every write takes the writer queue
    std::unique_ptr<KvaccelDB> db;
    ASSERT_TRUE(
        KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db).ok());

    constexpr int kWriters = 4;
    constexpr int kWritesPerWriter = 400;
    std::vector<sim::SimEnv::Thread*> writers;
    for (int t = 0; t < kWriters; t++) {
      writers.push_back(world.env.Spawn("writer" + std::to_string(t), [&, t] {
        for (int i = 0; i < kWritesPerWriter; i++) {
          uint64_t k = static_cast<uint64_t>(t) * kWritesPerWriter + i;
          ASSERT_TRUE(db->Put({}, TestKey(k), Value::Synthetic(k, 4096)).ok());
        }
      }));
    }
    for (auto* w : writers) world.env.Join(w);

    const uint64_t total = uint64_t{kWriters} * kWritesPerWriter;
    EXPECT_EQ(db->stats().writes_total, total);
    const lsm::DbStats& ms = db->main()->stats();
    EXPECT_EQ(ms.writes_total, total);
    // Coalescing happened: fewer groups than writes, groups cover every entry.
    EXPECT_GT(ms.write_groups, 0u);
    EXPECT_LT(ms.write_groups, total);
    EXPECT_EQ(ms.group_commit_size.Count(), ms.write_groups);
    EXPECT_GT(ms.group_commit_size.Max(), 1u);
    uint64_t grouped_entries = static_cast<uint64_t>(
        ms.group_commit_size.Average() *
            static_cast<double>(ms.group_commit_size.Count()) +
        0.5);
    EXPECT_EQ(grouped_entries, total);
    // Sequence space is gapless: exactly `total` numbers were consumed.
    EXPECT_EQ(db->main()->AllocateSequence(1), total + 1);

    // Every writer's data survived the shared commits.
    Value v;
    for (uint64_t k = 0; k < total; k++) {
      ASSERT_TRUE(db->Get({}, TestKey(k), &v).ok()) << k;
      EXPECT_EQ(v.seed(), k) << k;
    }
    ASSERT_TRUE(db->Close().ok());
  });
}

// A rollback racing concurrent batched writes must neither lose writes nor
// resurrect stale device copies: the newest version of every key wins,
// whichever path served it and whenever the drain happened.
TEST(KvaccelDbTest, RollbackDuringConcurrentBatchWrites) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions main_opts = test::SmallDbOptions();
    main_opts.compaction_threads = 1;
    KvaccelOptions kv_opts = SmallKvOptions();
    kv_opts.detector_period = FromMillis(1);
    std::unique_ptr<KvaccelDB> db;
    ASSERT_TRUE(
        KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db).ok());

    // Build stall pressure so the device holds data worth rolling back.
    std::vector<uint64_t> latest(250);
    for (int i = 0; i < 2000; i++) {
      ASSERT_TRUE(
          db->Put({}, TestKey(i % 250), Value::Synthetic(i, 4096)).ok());
      latest[i % 250] = static_cast<uint64_t>(i);
    }
    ASSERT_GT(db->kv_stats().redirected_writes, 0u);
    ASSERT_FALSE(db->dev()->Empty());

    // One actor streams 8-entry batches while the rollback drains the device.
    constexpr int kBatches = 60;
    constexpr int kBatchSize = 8;
    auto* writer = world.env.Spawn("batch-writer", [&] {
      uint64_t seed = 100000;
      for (int b = 0; b < kBatches; b++) {
        lsm::WriteBatch batch;
        for (int j = 0; j < kBatchSize; j++) {
          int k = (b * kBatchSize + j) % 250;
          batch.Put(TestKey(k), Value::Synthetic(seed, 64));
          latest[k] = seed++;
        }
        ASSERT_TRUE(db->Write({}, &batch).ok());
      }
    });
    ASSERT_TRUE(db->RollbackNow().ok());
    world.env.Join(writer);

    EXPECT_GE(db->kv_stats().rollbacks, 1u);
    Value v;
    for (int k = 0; k < 250; k++) {
      ASSERT_TRUE(db->Get({}, TestKey(k), &v).ok()) << k;
      EXPECT_EQ(v.seed(), latest[k]) << k;
    }
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(KvaccelDbTest, NoRedirectionWhenDisabled) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions main_opts = test::SmallDbOptions();
    main_opts.compaction_threads = 1;
    KvaccelOptions kv_opts = SmallKvOptions();
    kv_opts.redirection_enabled = false;
    kv_opts.detector_period = FromMillis(1);
    std::unique_ptr<KvaccelDB> db;
    ASSERT_TRUE(
        KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db).ok());
    for (int i = 0; i < 1500; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(i), Value::Synthetic(i, 4096)).ok());
    }
    EXPECT_EQ(db->kv_stats().redirected_writes, 0u);
    EXPECT_TRUE(db->dev()->Empty());
    ASSERT_TRUE(db->Close().ok());
  });
}

}  // namespace
}  // namespace kvaccel::core
