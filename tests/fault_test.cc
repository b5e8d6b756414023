// Fault-injection coverage: injector semantics, transient-error retries,
// background-error latching, checksum verification, power-cut reopen, named
// crash points with recovery verification, and KVACCEL's Dev-LSM degradation
// (retry -> circuit breaker -> host-path fallback) plus external-device crash
// recovery. All runs are deterministic from the injector seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/db_checker.h"
#include "common/random.h"
#include "core/kvaccel_db.h"
#include "lsm/db.h"
#include "lsm/wal.h"
#include "sim/fault.h"
#include "tests/test_util.h"

namespace kvaccel {
namespace {

using test::DevPut;
using test::SimWorld;
using test::TestKey;

core::KvaccelOptions SmallKvOptions() {
  core::KvaccelOptions o;
  o.dev.memtable_bytes = 128 << 10;
  o.dev.dma_chunk = 64 << 10;
  o.rollback = core::RollbackScheme::kDisabled;
  return o;
}

// ---------------------------------------------------------------------------
// FaultInjector semantics
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, NthHitFiresExactlyOnce) {
  SimWorld world;
  world.Run([&] {
    sim::FaultInjector inj(&world.env, 1);
    sim::FaultRule rule;
    rule.nth_hit = 3;
    rule.max_fires = 1;
    inj.Arm("x", rule);
    EXPECT_FALSE(inj.ShouldFail("x"));
    EXPECT_FALSE(inj.ShouldFail("x"));
    EXPECT_TRUE(inj.ShouldFail("x"));
    EXPECT_FALSE(inj.ShouldFail("x"));
    EXPECT_EQ(inj.hits("x"), 4u);
    EXPECT_EQ(inj.fires("x"), 1u);
    EXPECT_EQ(inj.total_fires(), 1u);
    EXPECT_FALSE(inj.ShouldFail("unarmed"));
  });
}

TEST(FaultInjectorTest, ProbabilityStreamIsDeterministic) {
  SimWorld world;
  world.Run([&] {
    sim::FaultRule rule;
    rule.probability = 0.3;
    std::vector<bool> a, b;
    for (int run = 0; run < 2; run++) {
      sim::FaultInjector inj(&world.env, 77);
      inj.Arm("x", rule);
      for (int i = 0; i < 200; i++) {
        (run == 0 ? a : b).push_back(inj.ShouldFail("x"));
      }
    }
    EXPECT_EQ(a, b);
    EXPECT_GT(std::count(a.begin(), a.end(), true), 0);
    EXPECT_GT(std::count(a.begin(), a.end(), false), 0);
  });
}

TEST(FaultInjectorTest, WindowAndDisarmAndCrashLatch) {
  SimWorld world;
  world.Run([&] {
    sim::FaultInjector inj(&world.env, 5);
    sim::FaultRule rule;
    rule.probability = 1.0;
    rule.window_start = world.env.Now() + FromMillis(10);
    rule.window_end = world.env.Now() + FromMillis(20);
    inj.Arm("x", rule);
    EXPECT_FALSE(inj.ShouldFail("x"));  // before the window
    world.env.SleepFor(FromMillis(15));
    EXPECT_TRUE(inj.ShouldFail("x"));  // inside
    world.env.SleepFor(FromMillis(10));
    EXPECT_FALSE(inj.ShouldFail("x"));  // after

    inj.Disarm("x");
    world.env.SleepFor(FromMillis(1));
    EXPECT_FALSE(inj.ShouldFail("x"));

    sim::FaultRule crash;
    crash.nth_hit = 1;
    inj.Arm("crash.test", crash);
    EXPECT_FALSE(inj.crashed());
    EXPECT_TRUE(inj.ShouldFail("crash.test"));
    EXPECT_TRUE(inj.crashed());
    EXPECT_TRUE(sim::SimCrashed(&world.env) == false);  // not registered yet
    world.env.set_fault_injector(&inj);
    EXPECT_TRUE(sim::SimCrashed(&world.env));
    inj.ClearCrash();
    EXPECT_FALSE(sim::SimCrashed(&world.env));
  });
}

// ---------------------------------------------------------------------------
// LogReader: torn tail vs mid-log corruption (regression)
// ---------------------------------------------------------------------------

TEST(WalReaderTest, TornTailToleratedCorruptionReported) {
  SimWorld world;
  world.Run([&] {
    fs::SimFs& fs = *world.fs;
    {
      std::unique_ptr<fs::WritableFile> f;
      ASSERT_TRUE(fs.NewWritableFile("wal", &f).ok());
      lsm::LogWriter w(std::move(f));
      ASSERT_TRUE(w.AddRecord("one", 3).ok());
      ASSERT_TRUE(w.AddRecord("two", 3).ok());
      ASSERT_TRUE(w.AddRecord("three", 5).ok());
      ASSERT_TRUE(w.Close().ok());
    }
    std::string raw;
    {
      std::unique_ptr<fs::RandomAccessFile> r;
      ASSERT_TRUE(fs.NewRandomAccessFile("wal", &r).ok());
      ASSERT_TRUE(r->Read(0, 1 << 20, &raw).ok());
    }
    ASSERT_EQ(raw.size(), 3u * 8 + 3 + 3 + 5);  // [crc32|len] framing

    auto write_file = [&](const std::string& name, const std::string& bytes) {
      std::unique_ptr<fs::WritableFile> f;
      ASSERT_TRUE(fs.NewWritableFile(name, &f).ok());
      ASSERT_TRUE(f->Append(Slice(bytes)).ok());
      ASSERT_TRUE(f->Close().ok());
    };

    // Shape 1: torn tail. The last record loses its final 3 bytes — the two
    // whole records read back and iteration ends cleanly (the normal
    // crash-recovery posture).
    write_file("wal-torn", raw.substr(0, raw.size() - 3));
    {
      std::unique_ptr<fs::RandomAccessFile> r;
      ASSERT_TRUE(fs.NewRandomAccessFile("wal-torn", &r).ok());
      lsm::LogReader reader(std::move(r));
      std::string payload;
      Status s;
      ASSERT_TRUE(reader.ReadRecord(&payload, &s));
      EXPECT_EQ(payload, "one");
      ASSERT_TRUE(reader.ReadRecord(&payload, &s));
      EXPECT_EQ(payload, "two");
      EXPECT_FALSE(reader.ReadRecord(&payload, &s));
      EXPECT_TRUE(s.ok()) << s.ToString();
    }

    // Shape 2: a CRC-failing record with a valid record after it cannot be a
    // torn tail — that is data corruption and must be reported, not silently
    // treated as end-of-log (which would drop record three).
    std::string corrupt = raw;
    corrupt[11 + 8] ^= 0x40;  // flip a bit inside record two's payload
    write_file("wal-corrupt", corrupt);
    {
      std::unique_ptr<fs::RandomAccessFile> r;
      ASSERT_TRUE(fs.NewRandomAccessFile("wal-corrupt", &r).ok());
      lsm::LogReader reader(std::move(r));
      std::string payload;
      Status s;
      ASSERT_TRUE(reader.ReadRecord(&payload, &s));
      EXPECT_EQ(payload, "one");
      EXPECT_FALSE(reader.ReadRecord(&payload, &s));
      EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    }
  });
}

// ---------------------------------------------------------------------------
// Transient-error retries and the background-error latch
// ---------------------------------------------------------------------------

TEST(RetryTest, TransientFlushErrorRetriesAndSucceeds) {
  SimWorld world;
  world.Run([&] {
    sim::FaultInjector inj(&world.env, 11);
    world.env.set_fault_injector(&inj);
    std::unique_ptr<lsm::DB> db;
    ASSERT_TRUE(lsm::DB::Open(test::SmallDbOptions(), world.MakeDbEnv(), &db)
                    .ok());
    for (int i = 0; i < 50; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(i), Value::Synthetic(i, 4096)).ok());
    }
    // One transient device-write failure: the flush must retry and succeed.
    sim::FaultRule rule;
    rule.probability = 1.0;
    rule.max_fires = 1;
    inj.Arm("ssd.block.write.transient", rule);
    ASSERT_TRUE(db->FlushAll().ok());
    EXPECT_EQ(inj.fires("ssd.block.write.transient"), 1u);
    EXPECT_GE(db->stats().io_retries, 1u);
    EXPECT_EQ(db->stats().background_errors, 0u);
    EXPECT_TRUE(db->GetBackgroundError().ok());
    Value v;
    for (int i = 0; i < 50; i++) {
      ASSERT_TRUE(db->Get({}, TestKey(i), &v).ok()) << i;
      EXPECT_EQ(v.seed(), static_cast<uint64_t>(i));
    }
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(RetryTest, ExhaustedRetriesLatchBackgroundErrorAndGoReadOnly) {
  SimWorld world;
  world.Run([&] {
    sim::FaultInjector inj(&world.env, 12);
    world.env.set_fault_injector(&inj);
    std::unique_ptr<lsm::DB> db;
    ASSERT_TRUE(lsm::DB::Open(test::SmallDbOptions(), world.MakeDbEnv(), &db)
                    .ok());
    for (int i = 0; i < 50; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(i), Value::Synthetic(i, 4096)).ok());
    }
    // Hard device-write failure: the retry budget runs out, the background
    // error latches (RocksDB-style) and the DB refuses further writes.
    sim::FaultRule rule;
    rule.probability = 1.0;
    inj.Arm("ssd.block.write.transient", rule);
    Status s = db->FlushAll();
    EXPECT_FALSE(s.ok());
    EXPECT_FALSE(db->GetBackgroundError().ok());
    EXPECT_EQ(db->stats().background_errors, 1u);
    EXPECT_GE(db->stats().io_retries,
              static_cast<uint64_t>(lsm::kIoRetry.limit));
    EXPECT_FALSE(db->Put({}, "new-key", Value::Inline("v")).ok());
    // Reads keep working (data is still host-side in the retained memtable).
    Value v;
    ASSERT_TRUE(db->Get({}, TestKey(7), &v).ok());
    EXPECT_EQ(v.seed(), 7u);
    inj.Disarm("ssd.block.write.transient");
    ASSERT_TRUE(db->Close().ok());
  });
}

// ---------------------------------------------------------------------------
// Checksum verification end to end
// ---------------------------------------------------------------------------

TEST(ChecksumTest, BitFlipSurfacesCorruptionOnGet) {
  SimWorld world;
  world.Run([&] {
    sim::FaultInjector inj(&world.env, 13);
    world.env.set_fault_injector(&inj);
    std::unique_ptr<lsm::DB> db;
    ASSERT_TRUE(lsm::DB::Open(test::SmallDbOptions(), world.MakeDbEnv(), &db)
                    .ok());
    for (int i = 0; i < 60; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(i), Value::Synthetic(i, 4096)).ok());
    }
    ASSERT_TRUE(db->FlushAll().ok());
    sim::FaultRule rot;
    rot.probability = 1.0;
    inj.Arm("simfs.read.bitflip", rot);
    Value v;
    Status s = db->Get({}, TestKey(5), &v);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    inj.Disarm("simfs.read.bitflip");
    ASSERT_TRUE(db->Get({}, TestKey(5), &v).ok());
    EXPECT_EQ(v.seed(), 5u);
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(ChecksumTest, CompactionReadSurfacesCorruption) {
  SimWorld world;
  world.Run([&] {
    sim::FaultInjector inj(&world.env, 14);
    world.env.set_fault_injector(&inj);
    lsm::DbOptions opts = test::SmallDbOptions();
    std::unique_ptr<lsm::DB> db;
    ASSERT_TRUE(lsm::DB::Open(opts, world.MakeDbEnv(), &db).ok());
    // Three quiet L0 files (trigger is 4), then arm bitrot and add the
    // fourth: the compaction's verified reads must surface Corruption as a
    // latched background error instead of writing garbage downhill.
    for (int f = 0; f < 3; f++) {
      for (int i = 0; i < 60; i++) {
        ASSERT_TRUE(
            db->Put({}, TestKey(f * 1000 + i), Value::Synthetic(i, 4096))
                .ok());
      }
      ASSERT_TRUE(db->FlushAll().ok());
    }
    ASSERT_TRUE(db->WaitForCompactionIdle().ok());
    sim::FaultRule rot;
    rot.probability = 1.0;
    inj.Arm("simfs.read.bitflip", rot);
    for (int i = 0; i < 60; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(3000 + i), Value::Synthetic(i, 4096))
                      .ok());
    }
    ASSERT_TRUE(db->FlushAll().ok());
    for (int i = 0; i < 5000 && db->GetBackgroundError().ok(); i++) {
      world.env.SleepFor(FromMillis(1));
    }
    Status bg = db->GetBackgroundError();
    EXPECT_TRUE(bg.IsCorruption()) << bg.ToString();
    EXPECT_GE(db->stats().background_errors, 1u);
    inj.Disarm("simfs.read.bitflip");
    ASSERT_TRUE(db->Close().ok());
  });
}

// ---------------------------------------------------------------------------
// Full power-cut reopen (SimFs::DropAllDirty + DB reopen)
// ---------------------------------------------------------------------------

TEST(PowerCutTest, SyncedWalSurvivesUnsyncedTailIsPrefix) {
  SimWorld world;
  world.Run([&] {
    sim::FaultInjector inj(&world.env, 15);
    world.env.set_fault_injector(&inj);
    lsm::DbOptions opts = test::SmallDbOptions();
    opts.write_buffer_size = 4 << 20;  // no flush: pure WAL recovery
    {
      std::unique_ptr<lsm::DB> db;
      ASSERT_TRUE(lsm::DB::Open(opts, world.MakeDbEnv(), &db).ok());
      for (int i = 0; i < 10; i++) {
        ASSERT_TRUE(db->Put(lsm::WriteOptions{.sync = true}, TestKey(i),
                            Value::Synthetic(i, 4096))
                        .ok());
      }
      // Unsynced tail, big enough that part of the WAL was written back to
      // the device (256 KiB chunks) but never covered by a cache flush.
      for (int i = 100; i < 180; i++) {
        ASSERT_TRUE(db->Put({}, TestKey(i), Value::Synthetic(i, 4096)).ok());
      }
      ASSERT_TRUE(db->Close().ok());
    }
    // Power cut that additionally tears the device write cache.
    sim::FaultRule torn;
    torn.probability = 1.0;
    inj.Arm("simfs.powercut.torn", torn);
    world.fs->DropAllDirty();
    inj.Disarm("simfs.powercut.torn");

    std::unique_ptr<lsm::DB> db;
    ASSERT_TRUE(lsm::DB::Open(opts, world.MakeDbEnv(), &db).ok());
    Value v;
    for (int i = 0; i < 10; i++) {
      ASSERT_TRUE(db->Get({}, TestKey(i), &v).ok()) << i;  // synced: durable
      EXPECT_EQ(v.seed(), static_cast<uint64_t>(i));
    }
    // The unsynced tail may survive partially, but only as a prefix of the
    // write order — a gap would mean recovery replayed past a torn record.
    bool missing_seen = false;
    for (int i = 100; i < 180; i++) {
      Status s = db->Get({}, TestKey(i), &v);
      if (s.IsNotFound()) {
        missing_seen = true;
      } else {
        ASSERT_TRUE(s.ok()) << s.ToString();
        EXPECT_FALSE(missing_seen) << "hole in recovered WAL tail at " << i;
        EXPECT_EQ(v.seed(), static_cast<uint64_t>(i));
      }
    }
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(PowerCutTest, SstAndManifestSurviveTornPowerCut) {
  SimWorld world;
  world.Run([&] {
    sim::FaultInjector inj(&world.env, 16);
    world.env.set_fault_injector(&inj);
    lsm::DbOptions opts = test::SmallDbOptions();
    opts.wal_sync = true;
    {
      std::unique_ptr<lsm::DB> db;
      ASSERT_TRUE(lsm::DB::Open(opts, world.MakeDbEnv(), &db).ok());
      // Several flushes + manifest edits, then more synced WAL-only writes.
      for (int i = 0; i < 200; i++) {
        ASSERT_TRUE(db->Put({}, TestKey(i), Value::Synthetic(i, 4096)).ok());
      }
      ASSERT_TRUE(db->FlushAll().ok());
      ASSERT_TRUE(db->WaitForCompactionIdle().ok());
      for (int i = 200; i < 250; i++) {
        ASSERT_TRUE(db->Put({}, TestKey(i), Value::Synthetic(i, 4096)).ok());
      }
      ASSERT_TRUE(db->Close().ok());
    }
    sim::FaultRule torn;
    torn.probability = 1.0;
    inj.Arm("simfs.powercut.torn", torn);
    world.fs->DropAllDirty();
    inj.Disarm("simfs.powercut.torn");

    std::unique_ptr<lsm::DB> db;
    ASSERT_TRUE(lsm::DB::Open(opts, world.MakeDbEnv(), &db).ok());
    // Everything was acknowledged with a synced WAL (or sits in synced
    // SSTs + manifest): the recovered key set matches exactly.
    Value v;
    for (int i = 0; i < 250; i++) {
      ASSERT_TRUE(db->Get({}, TestKey(i), &v).ok()) << i;
      EXPECT_EQ(v.seed(), static_cast<uint64_t>(i));
    }
    ASSERT_TRUE(db->Close().ok());
  });
}

// Regression: the manifest's next-file counter is durable only as of the
// last LogAndApply, but WAL numbers are allocated without one. A reopen
// after a crash that outran every manifest write used to recycle the
// just-replayed WAL's number for its fresh log, truncating the only durable
// copy of the replayed records; a second crash before the next flush then
// lost acknowledged writes (nemesis seed 1317456661, cycle 17).
TEST(PowerCutTest, ReplayedWalSurvivesSecondCrashBeforeFlush) {
  SimWorld world;
  world.Run([&] {
    sim::FaultInjector inj(&world.env, 0xBADC0DE);
    world.env.set_fault_injector(&inj);
    lsm::DbOptions opts = test::SmallDbOptions();
    opts.wal_sync = true;
    sim::FaultRule rule;
    rule.nth_hit = 1;
    rule.max_fires = 1;
    std::map<std::string, uint64_t> acked;

    // Session 1: fill the memtable until the first flush starts and crash
    // inside it, so neither the flush nor any manifest edit lands.
    std::unique_ptr<lsm::DB> db;
    ASSERT_TRUE(lsm::DB::Open(opts, world.MakeDbEnv(), &db).ok());
    inj.Arm("crash.flush.mid", rule);
    for (int i = 0; i < 400; i++) {
      uint64_t seed = 1000 + i;
      Status s = db->Put({}, TestKey(i), Value::Synthetic(seed, 4096));
      if (!s.ok()) break;
      acked[TestKey(i)] = seed;
      if (!db->GetBackgroundError().ok()) break;
    }
    EXPECT_EQ(inj.fires("crash.flush.mid"), 1u) << "first flush never ran";
    (void)db->Close();
    db.reset();
    world.fs->DropAllDirty();
    inj.ClearCrash();

    // Session 2: recovery replays the old WAL into the memtable and opens a
    // fresh log, whose number must not collide with the replayed one. Crash
    // the first flush again so nothing advances the manifest.
    ASSERT_TRUE(lsm::DB::Open(opts, world.MakeDbEnv(), &db).ok());
    inj.Arm("crash.flush.mid", rule);
    for (int i = 0; i < 400; i++) {
      Status s = db->Put({}, TestKey(500 + i), Value::Synthetic(i, 4096));
      if (!s.ok() || !db->GetBackgroundError().ok()) break;
    }
    EXPECT_EQ(inj.fires("crash.flush.mid"), 1u) << "second flush never ran";
    (void)db->Close();
    db.reset();
    world.fs->DropAllDirty();
    inj.ClearCrash();

    // Session 3: every write acknowledged in session 1 must still be there.
    ASSERT_TRUE(lsm::DB::Open(opts, world.MakeDbEnv(), &db).ok());
    for (const auto& [key, seed] : acked) {
      Value v;
      ASSERT_TRUE(db->Get({}, key, &v).ok()) << key;
      EXPECT_EQ(v.seed(), seed) << key;
    }
    ASSERT_TRUE(db->Close().ok());
  });
}

// ---------------------------------------------------------------------------
// Named crash points: kill, recover, verify
// ---------------------------------------------------------------------------

// Arms `site` to fire on its nth hit while a write workload runs, then
// executes the crash protocol (close, drop page cache, clear latch, reopen)
// and verifies every acknowledged write survived. `max_subcompactions`
// pins the split width: 1 forces every job down the single-range path
// (site crash.compaction.mid), >1 exercises crash.subcompaction.mid.
void RunCrashSiteTest(const std::string& site, uint64_t nth_hit,
                      int max_subcompactions = 0) {
  SCOPED_TRACE(site);
  SimWorld world;
  world.Run([&] {
    sim::FaultInjector inj(&world.env, 0x5eed ^ nth_hit);
    world.env.set_fault_injector(&inj);
    lsm::DbOptions opts = test::SmallDbOptions();
    opts.wal_sync = true;  // every acknowledged write is durable
    if (max_subcompactions > 0) opts.max_subcompactions = max_subcompactions;
    std::unique_ptr<lsm::DB> db;
    ASSERT_TRUE(lsm::DB::Open(opts, world.MakeDbEnv(), &db).ok());

    sim::FaultRule rule;
    rule.nth_hit = nth_hit;
    rule.max_fires = 1;
    inj.Arm(site, rule);

    std::map<std::string, uint64_t> acked;
    bool crashed = false;
    for (int i = 0; i < 400 && !crashed; i++) {
      std::string key = TestKey(i % 100);
      uint64_t seed = 1000 + i;
      Status s = db->Put({}, key, Value::Synthetic(seed, 4096));
      if (s.ok()) {
        acked[key] = seed;
      } else {
        crashed = true;
      }
      if (!db->GetBackgroundError().ok()) crashed = true;
    }
    EXPECT_EQ(inj.fires(site), 1u) << "crash site never reached";
    inj.Disarm(site);

    (void)db->Close();  // the machine is "dead": tolerate errors
    db.reset();
    world.fs->DropAllDirty();
    inj.ClearCrash();

    ASSERT_TRUE(lsm::DB::Open(opts, world.MakeDbEnv(), &db).ok());
    for (const auto& [key, seed] : acked) {
      Value v;
      ASSERT_TRUE(db->Get({}, key, &v).ok()) << key;
      // A durable-but-unacknowledged overwrite may legally be newer.
      EXPECT_GE(v.seed(), seed) << key;
      EXPECT_EQ(v.logical_size(), 4096u) << key;
    }
    ASSERT_TRUE(db->Close().ok());
    db.reset();

    // Recovery returning the right values is necessary, not sufficient: the
    // on-disk state itself must also pass the full consistency check
    // (MANIFEST vs SSTs, level non-overlap, sequence monotonicity, WAL tail).
    check::DbChecker checker(opts, world.MakeDbEnv());
    check::CheckReport report = checker.Check();
    EXPECT_TRUE(report.ok()) << report.ToString();
    EXPECT_GT(report.manifest_edits, 0) << "checker examined nothing";
  });
}

TEST(CrashPointTest, WalPostAppend) { RunCrashSiteTest("crash.wal.post_append", 37); }
TEST(CrashPointTest, WalPostSync) { RunCrashSiteTest("crash.wal.post_sync", 53); }
TEST(CrashPointTest, FlushMid) { RunCrashSiteTest("crash.flush.mid", 20); }
TEST(CrashPointTest, ManifestPreSync) { RunCrashSiteTest("crash.manifest.pre_sync", 2); }
TEST(CrashPointTest, ManifestPostSync) { RunCrashSiteTest("crash.manifest.post_sync", 2); }
TEST(CrashPointTest, CompactionMid) {
  RunCrashSiteTest("crash.compaction.mid", 100, /*max_subcompactions=*/1);
}
TEST(CrashPointTest, SubcompactionMid) {
  RunCrashSiteTest("crash.subcompaction.mid", 100, /*max_subcompactions=*/4);
}

// ---------------------------------------------------------------------------
// KVACCEL: Dev-LSM degradation and crash recovery
// ---------------------------------------------------------------------------

TEST(KvaccelFaultTest, DevLsmHardFailureFallsBackToHostPath) {
  SimWorld world;
  world.Run([&] {
    sim::FaultInjector inj(&world.env, 17);
    world.env.set_fault_injector(&inj);
    lsm::DbOptions main_opts = test::SmallDbOptions();
    main_opts.compaction_threads = 1;
    core::KvaccelOptions kv_opts = SmallKvOptions();
    kv_opts.detector_period = FromMillis(1);
    kv_opts.device_unhealthy_cooldown = FromMillis(50);
    std::unique_ptr<core::KvaccelDB> db;
    ASSERT_TRUE(
        core::KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db)
            .ok());

    std::map<std::string, uint64_t> expected;
    auto put = [&](int i) {
      std::string key = TestKey(i % 400);
      uint64_t seed = static_cast<uint64_t>(i) << 16;
      ASSERT_TRUE(db->Put({}, key, Value::Synthetic(seed, 4096)).ok());
      expected[key] = seed;
    };
    // Build stall pressure so redirection engages, then kill the device.
    for (int i = 0; i < 1000; i++) put(i);
    sim::FaultRule dead;
    dead.probability = 1.0;
    inj.Arm("devlsm.put.transient", dead);
    // Every write still succeeds — past the retry budget the circuit breaker
    // opens and the batch reroutes to the (stalling) host path.
    for (int i = 1000; i < 3000; i++) put(i);

    const core::KvaccelStats& ks = db->kv_stats();
    EXPECT_GT(ks.fallback_writes, 0u);
    EXPECT_GT(ks.dev_retries, 0u);
    EXPECT_GE(ks.device_unhealthy_events, 1u);

    inj.Disarm("devlsm.put.transient");
    Value v;
    for (const auto& [key, seed] : expected) {
      ASSERT_TRUE(db->Get({}, key, &v).ok()) << key;
      EXPECT_EQ(v.seed(), seed) << key;
    }
    ASSERT_TRUE(db->Close().ok());
  });
}

// One redirected batch under a dead device costs exactly kDevRetry's budget,
// then opens the breaker and lands on the host path.
TEST(KvaccelFaultTest, PersistentDevTransientCostsExactlyTheRetryBudget) {
  SimWorld world;
  world.Run([&] {
    sim::FaultInjector inj(&world.env, 17);
    world.env.set_fault_injector(&inj);
    lsm::DbOptions main_opts = test::SmallDbOptions();
    // Stop trigger of 1 puts the Detector's L0 edge check at "always": every
    // write takes the redirect path.
    main_opts.l0_stop_writes_trigger = 1;
    core::KvaccelOptions kv_opts = SmallKvOptions();
    kv_opts.detector_period = FromMillis(1);
    std::unique_ptr<core::KvaccelDB> db;
    ASSERT_TRUE(
        core::KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db)
            .ok());
    world.env.SleepFor(FromMillis(5));  // let the detector poll
    ASSERT_TRUE(db->detector()->stall_detected());

    sim::FaultRule dead;
    dead.probability = 1.0;
    inj.Arm("devlsm.put.transient", dead);
    lsm::WriteBatch batch;
    for (int i = 0; i < 4; i++) {
      batch.Put(TestKey(i), Value::Synthetic(i, 256));
    }
    ASSERT_TRUE(db->Write({}, &batch).ok());
    const core::KvaccelStats& ks = db->kv_stats();
    EXPECT_EQ(ks.dev_retries, static_cast<uint64_t>(core::kDevRetry.limit));
    EXPECT_EQ(inj.fires("devlsm.put.transient"),
              static_cast<uint64_t>(core::kDevRetry.limit) + 1);
    EXPECT_EQ(ks.device_unhealthy_events, 1u);
    EXPECT_FALSE(db->detector()->device_healthy(0));
    EXPECT_EQ(ks.fallback_writes, 4u);
    EXPECT_EQ(ks.redirected_writes, 0u);
    inj.Disarm("devlsm.put.transient");
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(KvaccelFaultTest, ExternalDevDrainedOnReopenAfterHostCrash) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions main_opts = test::SmallDbOptions();
    main_opts.compaction_threads = 1;
    main_opts.wal_sync = true;  // host-path writes are durable when acked
    core::KvaccelOptions kv_opts = SmallKvOptions();
    kv_opts.detector_period = FromMillis(1);
    // The Dev-LSM lives on the device and outlives the host process.
    devlsm::DevLsm dev(world.ssd.get(), 0, kv_opts.dev);
    kv_opts.external_dev = &dev;

    std::map<std::string, uint64_t> expected;
    {
      std::unique_ptr<core::KvaccelDB> db;
      ASSERT_TRUE(
          core::KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db)
              .ok());
      for (int i = 0; i < 2500; i++) {
        std::string key = TestKey(i % 400);
        uint64_t seed = static_cast<uint64_t>(i) << 16;
        ASSERT_TRUE(db->Put({}, key, Value::Synthetic(seed, 4096)).ok());
        expected[key] = seed;
      }
      EXPECT_GT(db->kv_stats().redirected_writes, 0u);
      ASSERT_TRUE(db->Close().ok());
    }
    ASSERT_FALSE(dev.Empty());  // redirected pairs still cached device-side
    world.fs->DropAllDirty();   // host reboot: page cache gone, metadata gone

    {
      std::unique_ptr<core::KvaccelDB> db;
      ASSERT_TRUE(
          core::KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db)
              .ok());
      // Recovery-on-open drained the device; the rebuilt metadata table
      // (empty) agrees with a full Dev-LSM scan (also empty).
      EXPECT_TRUE(dev.Empty());
      EXPECT_EQ(dev.NumLiveEntries(), 0u);
      EXPECT_GE(db->kv_stats().rollbacks, 1u);
      Value v;
      for (const auto& [key, seed] : expected) {
        ASSERT_TRUE(db->Get({}, key, &v).ok()) << key;
        EXPECT_EQ(v.seed(), seed) << key;
      }
      ASSERT_TRUE(db->Close().ok());
    }
  });
}

TEST(KvaccelFaultTest, CrashMidRollbackDrainKeepsDevicePairs) {
  SimWorld world;
  world.Run([&] {
    sim::FaultInjector inj(&world.env, 18);
    world.env.set_fault_injector(&inj);
    lsm::DbOptions main_opts = test::SmallDbOptions();
    core::KvaccelOptions kv_opts = SmallKvOptions();
    devlsm::DevLsm dev(world.ssd.get(), 0, kv_opts.dev);
    kv_opts.external_dev = &dev;
    for (uint64_t i = 0; i < 50; i++) {
      ASSERT_TRUE(DevPut(&dev, TestKey(i), Value::Synthetic(i, 1024),
                         /*seq=*/i + 1)
                      .ok());
    }

    // First open dies mid-drain: the recovery rollback crashes before its
    // final ResetUpTo, so every pair must still be on the device.
    sim::FaultRule rule;
    rule.nth_hit = 20;
    rule.max_fires = 1;
    inj.Arm("crash.rollback.mid", rule);
    {
      std::unique_ptr<core::KvaccelDB> db;
      Status s =
          core::KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db);
      EXPECT_FALSE(s.ok());
    }
    EXPECT_EQ(inj.fires("crash.rollback.mid"), 1u);
    EXPECT_FALSE(dev.Empty());
    inj.Disarm("crash.rollback.mid");
    world.fs->DropAllDirty();
    inj.ClearCrash();

    // Second open completes the drain.
    std::unique_ptr<core::KvaccelDB> db;
    ASSERT_TRUE(
        core::KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db)
            .ok());
    EXPECT_TRUE(dev.Empty());
    Value v;
    for (uint64_t i = 0; i < 50; i++) {
      ASSERT_TRUE(db->Get({}, TestKey(i), &v).ok()) << i;
      EXPECT_EQ(v.seed(), i);
    }
    ASSERT_TRUE(db->Close().ok());
  });
}

}  // namespace
}  // namespace kvaccel
