// Two-node HA pair (DESIGN.md §12): interconnect timing and fault sites,
// replicated-sequence writes, sync/async replication through
// ReplicatedKvaccelDB, backup promotion (check::PromoteNode), the backup-side
// Dev-LSM circuit breaker, and pinned-seed two-node nemesis schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "check/failover.h"
#include "check/nemesis.h"
#include "core/replicated_kvaccel_db.h"
#include "devlsm/dev_lsm.h"
#include "fs/simfs.h"
#include "harness/sut.h"
#include "harness/workload.h"
#include "lsm/db.h"
#include "sim/fault.h"
#include "sim/net_link.h"
#include "sim/sim_env.h"
#include "ssd/hybrid_ssd.h"
#include "tests/test_util.h"

namespace kvaccel {
namespace {

using test::TestKey;

core::KvaccelOptions PairKvOptions() {
  core::KvaccelOptions o;
  o.detector_period = FromMillis(1);
  o.dev.memtable_bytes = 128 << 10;
  o.dev.dma_chunk = 64 << 10;
  o.rollback = core::RollbackScheme::kDisabled;
  return o;
}

// Two full node worlds sharing one clock and one fault injector, mirroring
// the nemesis harness' HA world.
struct PairWorld {
  sim::SimEnv env;
  sim::FaultInjector inj{&env, 0xFA17};
  std::unique_ptr<ssd::HybridSsd> ssd_a, ssd_b;
  std::unique_ptr<sim::CpuPool> cpu_a, cpu_b;
  std::unique_ptr<fs::SimFs> fs_a, fs_b;
  std::unique_ptr<devlsm::DevLsm> dev_a, dev_b;

  PairWorld() {
    ssd::SsdConfig c;
    c.capacity_bytes = 2ull << 30;
    ssd_a = std::make_unique<ssd::HybridSsd>(&env, c);
    ssd_b = std::make_unique<ssd::HybridSsd>(&env, c);
    cpu_a = std::make_unique<sim::CpuPool>(&env, "host-a", 8);
    cpu_b = std::make_unique<sim::CpuPool>(&env, "host-b", 8);
    fs_a = std::make_unique<fs::SimFs>(ssd_a.get(), 0);
    fs_b = std::make_unique<fs::SimFs>(ssd_b.get(), 0);
    dev_a = std::make_unique<devlsm::DevLsm>(ssd_a.get(), 0,
                                             PairKvOptions().dev);
    dev_b = std::make_unique<devlsm::DevLsm>(ssd_b.get(), 0,
                                             PairKvOptions().dev);
    env.set_fault_injector(&inj);
  }

  core::ReplNode NodeA() {
    return core::ReplNode{ssd_a.get(), fs_a.get(), cpu_a.get(), dev_a.get()};
  }
  core::ReplNode NodeB() {
    return core::ReplNode{ssd_b.get(), fs_b.get(), cpu_b.get(), dev_b.get()};
  }

  void Run(std::function<void()> body) {
    env.Spawn("test-main", std::move(body));
    env.Run();
  }
};

// ---- sim::NetLink ----

TEST(NetLinkTest, ChargesWireTimeAndLatency) {
  sim::SimEnv env;
  env.Spawn("t", [&] {
    sim::NetLink link(&env, "nl", /*bytes_per_sec=*/1e9, FromMicros(30));
    Nanos t0 = env.Now();
    ASSERT_TRUE(link.Send(1'000'000).ok());  // 1 MB over 1 GB/s = 1 ms wire
    EXPECT_EQ(env.Now() - t0, FromMillis(1) + FromMicros(30));
    EXPECT_EQ(link.messages(), 1u);
    EXPECT_EQ(link.drops(), 0u);
  });
  env.Run();
}

TEST(NetLinkTest, MessagesAreFifoBehindEarlierSenders) {
  sim::SimEnv env;
  std::vector<Nanos> done;
  sim::NetLink link(&env, "nl", 1e9, 0);
  env.Spawn("a", [&] {
    ASSERT_TRUE(link.Send(1'000'000).ok());
    done.push_back(env.Now());
  });
  env.Spawn("b", [&] {
    ASSERT_TRUE(link.Send(1'000'000).ok());
    done.push_back(env.Now());
  });
  env.Run();
  ASSERT_EQ(done.size(), 2u);
  // The second message serializes behind the first on the shared pipe.
  EXPECT_EQ(done[0], FromMillis(1));
  EXPECT_EQ(done[1], FromMillis(2));
}

TEST(NetLinkTest, TransientFaultDropsTheMessage) {
  sim::SimEnv env;
  sim::FaultInjector inj(&env, 7);
  env.set_fault_injector(&inj);
  sim::FaultRule always;
  always.probability = 1.0;
  inj.Arm("net.send.transient", always);
  env.Spawn("t", [&] {
    sim::NetLink link(&env, "nl", 1e9, FromMicros(30));
    Status s = link.Send(4096);
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
    EXPECT_EQ(link.drops(), 1u);
    EXPECT_EQ(link.messages(), 0u);
  });
  env.Run();
}

// ---- lsm::WriteOptions::replicated_seq ----

TEST(ReplicatedSeqTest, WriteAppliesAtExactSequenceAndAdvancesClock) {
  test::SimWorld world;
  world.Run([&] {
    std::unique_ptr<lsm::DB> db;
    ASSERT_TRUE(lsm::DB::Open(test::SmallDbOptions(), world.MakeDbEnv(), &db)
                    .ok());
    ASSERT_TRUE(db->Put({}, "a", Value::Synthetic(1, 64)).ok());

    lsm::WriteBatch batch;
    batch.Put("b", Value::Synthetic(2, 64));
    batch.Put("c", Value::Synthetic(3, 64));
    lsm::WriteOptions wo;
    wo.sync = true;
    wo.replicated_seq = 100;  // a follower applying the leader's sequences
    ASSERT_TRUE(db->Write(wo, &batch).ok());

    Value v;
    lsm::SequenceNumber seq = 0;
    ASSERT_TRUE(db->GetWithSequence({}, "b", &v, &seq).ok());
    EXPECT_EQ(seq, 100u);
    ASSERT_TRUE(db->GetWithSequence({}, "c", &v, &seq).ok());
    EXPECT_EQ(seq, 101u);
    // The local sequence clock must have jumped past the applied batch so
    // later local writes cannot collide with replicated ones.
    EXPECT_GT(db->AllocateSequence(1), 101u);
    ASSERT_TRUE(db->Close().ok());
  });
}

// ---- ReplicatedKvaccelDB, sync acks ----

TEST(HaPairTest, SyncWritesSurviveFailover) {
  PairWorld w;
  w.Run([&] {
    lsm::DbOptions db_opts = test::SmallDbOptions();
    db_opts.wal_sync = true;
    core::KvaccelOptions kv_opts = PairKvOptions();
    core::ReplOptions ro;  // sync
    std::unique_ptr<core::ReplicatedKvaccelDB> pair;
    ASSERT_TRUE(core::ReplicatedKvaccelDB::Open(db_opts, kv_opts, ro,
                                                w.NodeA(), w.NodeB(), &w.env,
                                                &pair)
                    .ok());

    for (uint64_t i = 0; i < 60; i++) {
      ASSERT_TRUE(pair->Put({}, TestKey(i), Value::Synthetic(i, 512)).ok());
    }
    for (uint64_t i = 0; i < 60; i += 5) {
      ASSERT_TRUE(pair->Delete({}, TestKey(i)).ok());
    }
    for (uint64_t i = 1; i < 10; i++) {  // overwrites
      ASSERT_TRUE(pair->Put({}, TestKey(i), Value::Synthetic(1000 + i, 512))
                      .ok());
    }
    Value v;
    ASSERT_TRUE(pair->Get({}, TestKey(1), &v).ok());
    // Key 10 is deleted and outside the overwrite range, key 5 was
    // resurrected by the overwrite loop above.
    EXPECT_TRUE(pair->Get({}, TestKey(10), &v).IsNotFound());
    ASSERT_TRUE(pair->Get({}, TestKey(5), &v).ok());

    ASSERT_TRUE(pair->Close().ok());
    const core::ReplStats st = pair->repl_stats();
    EXPECT_GT(st.wal_records, 0u);
    EXPECT_EQ(st.lost_entries, 0u);  // sync acks never lose
    pair.reset();

    // The primary node is lost; only the backup's durable state survives.
    w.fs_a->DropAllDirty();
    w.fs_b->DropAllDirty();
    check::FailoverReport rep;
    std::unique_ptr<core::KvaccelDB> promoted;
    Status ps = check::PromoteNode(db_opts, kv_opts, w.NodeB(), &w.env, &rep,
                                   &promoted);
    ASSERT_TRUE(ps.ok()) << ps.ToString() << " " << rep.first_error;
    EXPECT_EQ(rep.checker_errors, 0);
    EXPECT_GT(rep.promote_ns, 0u);

    for (uint64_t i = 0; i < 60; i++) {
      const bool deleted = (i % 5 == 0) && !(i >= 1 && i < 10);
      Status gs = promoted->Get({}, TestKey(i), &v);
      if (deleted) {
        EXPECT_TRUE(gs.IsNotFound()) << "key " << i << " should be deleted";
      } else {
        const uint64_t seed = (i >= 1 && i < 10) ? 1000 + i : i;
        ASSERT_TRUE(gs.ok()) << "key " << i << ": " << gs.ToString();
        EXPECT_EQ(v, Value::Synthetic(seed, 512)) << "key " << i;
      }
    }
    // Promoted iterator walks the surviving keys in order.
    auto it = promoted->NewIterator({});
    std::string prev;
    int seen = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      std::string k = it->key().ToString();
      EXPECT_LT(prev, k);
      prev = k;
      seen++;
    }
    EXPECT_EQ(seen, 49);  // 60 keys - 12 deleted + key 5 resurrected
    it.reset();
    ASSERT_TRUE(promoted->Close().ok());
  });
}

// A sync ship under a dead link costs exactly kNetRetry's budget, and the
// write it carried fails.
TEST(HaPairTest, PersistentNetTransientCostsExactlyTheSyncRetryBudget) {
  PairWorld w;
  w.Run([&] {
    lsm::DbOptions db_opts = test::SmallDbOptions();
    db_opts.wal_sync = true;
    core::KvaccelOptions kv_opts = PairKvOptions();
    core::ReplOptions ro;  // sync
    ro.heartbeat_period = 0;  // no heartbeat shares the link
    std::unique_ptr<core::ReplicatedKvaccelDB> pair;
    ASSERT_TRUE(core::ReplicatedKvaccelDB::Open(db_opts, kv_opts, ro,
                                                w.NodeA(), w.NodeB(), &w.env,
                                                &pair)
                    .ok());
    ASSERT_EQ(pair->repl_stats().net_retries, 0u);

    sim::FaultRule dead;
    dead.probability = 1.0;
    w.inj.Arm("net.send.transient", dead);
    EXPECT_FALSE(pair->Put({}, TestKey(1), Value::Synthetic(1, 256)).ok());
    w.inj.Disarm("net.send.transient");
    const core::ReplStats st = pair->repl_stats();
    EXPECT_EQ(st.net_retries, static_cast<uint64_t>(core::kNetRetry.limit));
    EXPECT_EQ(st.ship_failures, 1u);
    ASSERT_TRUE(pair->Close().ok());
  });
}

// ---- ReplicatedKvaccelDB, async acks ----
// ---- ReplicatedKvaccelDB, async acks ----

TEST(HaPairTest, AsyncBacklogDrainsToBackup) {
  PairWorld w;
  w.Run([&] {
    lsm::DbOptions db_opts = test::SmallDbOptions();
    db_opts.wal_sync = true;
    core::KvaccelOptions kv_opts = PairKvOptions();
    core::ReplOptions ro;
    ro.ack = core::ReplAck::kAsync;
    ro.async_queue_cap = 32;
    std::unique_ptr<core::ReplicatedKvaccelDB> pair;
    ASSERT_TRUE(core::ReplicatedKvaccelDB::Open(db_opts, kv_opts, ro,
                                                w.NodeA(), w.NodeB(), &w.env,
                                                &pair)
                    .ok());

    // Hold the shipper: acks return immediately, records pile up.
    pair->PauseShipping(true);
    for (uint64_t i = 0; i < 8; i++) {
      ASSERT_TRUE(pair->Put({}, TestKey(i), Value::Synthetic(i, 256)).ok());
    }
    EXPECT_EQ(pair->repl_stats().records_applied, 0u);

    pair->PauseShipping(false);
    pair->DrainShipping();
    const core::ReplStats st = pair->repl_stats();
    EXPECT_GE(st.records_applied, 8u);
    EXPECT_GE(st.async_queue_peak, 8u);
    EXPECT_EQ(st.lost_entries, 0u);

    // Every drained write is now readable on the backup itself.
    Value v;
    for (uint64_t i = 0; i < 8; i++) {
      ASSERT_TRUE(pair->backup()->Get({}, TestKey(i), &v).ok()) << i;
      EXPECT_EQ(v, Value::Synthetic(i, 256));
    }
    ASSERT_TRUE(pair->Close().ok());
  });
}

// Satellite: the backup-side Dev-LSM circuit breaker. A transient device
// fault during catch-up exhausts the backup's retry budget, latches its
// Detector unhealthy and degrades intents to the host path (WAL-bypassing
// ingest); after the cooldown the next intent is the half-open probe and its
// success closes the circuit — intents flow to the device again.
TEST(HaPairTest, BackupDevTransientOpensBreakerThenHalfOpenProbeRecovers) {
  PairWorld w;
  w.Run([&] {
    lsm::DbOptions db_opts = test::SmallDbOptions();
    db_opts.wal_sync = true;
    // Stop trigger of 1 puts the Detector's L0 edge check at "always": every
    // pair write takes the redirect path and ships a kRedirectIntent.
    db_opts.l0_stop_writes_trigger = 1;
    core::KvaccelOptions kv_opts = PairKvOptions();
    core::ReplOptions ro;
    ro.ack = core::ReplAck::kAsync;
    std::unique_ptr<core::ReplicatedKvaccelDB> pair;
    ASSERT_TRUE(core::ReplicatedKvaccelDB::Open(db_opts, kv_opts, ro,
                                                w.NodeA(), w.NodeB(), &w.env,
                                                &pair)
                    .ok());
    w.env.SleepFor(FromMillis(5));  // let the primary's detector poll
    ASSERT_TRUE(pair->primary()->detector()->stall_detected());

    // Build a catch-up backlog of redirect intents, then make the backup's
    // device fail every command while they apply.
    pair->PauseShipping(true);
    for (uint64_t i = 0; i < 8; i++) {
      ASSERT_TRUE(pair->Put({}, TestKey(i), Value::Synthetic(i, 256)).ok());
    }
    ASSERT_GT(pair->primary()->kv_stats().redirected_writes, 0u);
    sim::FaultRule dead;
    dead.probability = 1.0;
    w.inj.Arm("devlsm.put.transient", dead);
    pair->PauseShipping(false);
    pair->DrainShipping();

    const core::ReplStats mid = pair->repl_stats();
    EXPECT_GE(mid.backup_dev_fallbacks, 8u);  // every intent degraded
    // No network fault is armed: the backup's device retries are not link
    // retries.
    EXPECT_EQ(mid.net_retries, 0u);
    // Breaker open: device_healthy(0) reads the latch, not the cooldown.
    EXPECT_FALSE(pair->backup()->detector()->device_healthy(0));
    // Degraded intents are still served by the backup (host path).
    Value v;
    for (uint64_t i = 0; i < 8; i++) {
      ASSERT_TRUE(pair->backup()->Get({}, TestKey(i), &v).ok()) << i;
    }

    // Fault clears; after the cooldown the next intent is the half-open
    // probe and its success closes the circuit.
    w.inj.Disarm("devlsm.put.transient");
    w.env.SleepFor(kv_opts.device_unhealthy_cooldown + FromMillis(1));
    for (uint64_t i = 100; i < 104; i++) {
      ASSERT_TRUE(pair->Put({}, TestKey(i), Value::Synthetic(i, 256)).ok());
    }
    pair->DrainShipping();
    EXPECT_TRUE(pair->backup()->detector()->device_healthy(0));
    EXPECT_EQ(pair->repl_stats().backup_dev_fallbacks,
              mid.backup_dev_fallbacks);  // recovery batch used the device
    ASSERT_TRUE(pair->Close().ok());
  });
}

// Sync acks ship in two lanes. The rollback signal and the backup's mirror
// drain ride the device lane, so a direct write's WAL batch, on the WAL lane,
// completes while the drain still runs.
TEST(HaPairTest, DirectWriteDoesNotWaitForTheBackupMirrorDrain) {
  PairWorld w;
  w.Run([&] {
    lsm::DbOptions db_opts = test::SmallDbOptions();
    db_opts.wal_sync = true;
    // The Detector always reports a stall; a large memtable keeps both
    // Main-LSMs free of L0 files, so no write meets the stop trigger.
    db_opts.l0_stop_writes_trigger = 1;
    db_opts.write_buffer_size = 8 << 20;
    bool redirect = true;
    core::KvaccelOptions kv_opts = PairKvOptions();
    kv_opts.redirect_admission = [&redirect](uint64_t) { return redirect; };
    core::ReplOptions ro;  // sync
    std::unique_ptr<core::ReplicatedKvaccelDB> pair;
    ASSERT_TRUE(core::ReplicatedKvaccelDB::Open(db_opts, kv_opts, ro,
                                                w.NodeA(), w.NodeB(), &w.env,
                                                &pair)
                    .ok());
    w.env.SleepFor(FromMillis(5));  // let the primary's detector poll
    ASSERT_TRUE(pair->primary()->detector()->stall_detected());

    // Mirror 2000 redirected versions; the backup's metadata names each.
    constexpr uint64_t kKeys = 2000;
    for (uint64_t i = 0; i < kKeys; i++) {
      ASSERT_TRUE(pair->Put({}, TestKey(i), Value::Synthetic(i, 512)).ok());
    }
    ASSERT_EQ(pair->primary()->kv_stats().redirected_writes, kKeys);
    EXPECT_EQ(pair->backup()->metadata()->Size(), kKeys);
    // Direct writes supersede every mirrored version on both nodes.
    redirect = false;
    for (uint64_t i = 0; i < kKeys; i++) {
      ASSERT_TRUE(
          pair->Put({}, TestKey(i), Value::Synthetic(10000 + i, 512)).ok());
    }
    EXPECT_EQ(pair->backup()->metadata()->Size(), 0u);

    Nanos drain_done = 0;
    sim::SimEnv::Thread* rollback = w.env.Spawn("rollback", [&] {
      EXPECT_TRUE(pair->RollbackNow().ok());
      drain_done = w.env.Now();
    });
    // The primary has drained its own device once it ships the signal.
    while (pair->repl_stats().rollback_records == 0) {
      w.env.SleepFor(FromMicros(10));
    }
    ASSERT_TRUE(pair->Put({}, TestKey(kKeys), Value::Synthetic(kKeys, 512))
                    .ok());
    Nanos put_done = w.env.Now();
    w.env.Join(rollback);
    EXPECT_LT(put_done, drain_done);

    EXPECT_TRUE(pair->backup()->dev()->Empty());
    Value v;
    for (uint64_t i = 0; i <= kKeys; i++) {
      ASSERT_TRUE(pair->backup()->Get({}, TestKey(i), &v).ok()) << i;
      EXPECT_EQ(v, Value::Synthetic(i < kKeys ? 10000 + i : i, 512)) << i;
    }
    ASSERT_TRUE(pair->Close().ok());
  });
}

// A direct write and a newer redirected write of the same key overlap. Both
// nodes must keep the redirected version's metadata record: the backup's
// WAL-batch apply drops the key's older mirrored record while the device
// lane applies the newer intent, and the primary drops records only after
// its WAL round trip, by which time the redirected write has flipped its
// own. Both nodes then serve the redirected version, before and after a
// rollback.
TEST(HaPairTest, OverlappingDirectWriteKeepsTheNewerRedirectedRecord) {
  PairWorld w;
  w.Run([&] {
    lsm::DbOptions db_opts = test::SmallDbOptions();
    db_opts.wal_sync = true;
    db_opts.l0_stop_writes_trigger = 1;  // the Detector reports a stall
    db_opts.write_buffer_size = 8 << 20;
    core::KvaccelOptions kv_opts = PairKvOptions();
    // 256-byte values are redirected; 2 KiB values take the host path.
    kv_opts.redirect_admission = [](uint64_t bytes) { return bytes < 1024; };
    core::ReplOptions ro;  // sync
    std::unique_ptr<core::ReplicatedKvaccelDB> pair;
    ASSERT_TRUE(core::ReplicatedKvaccelDB::Open(db_opts, kv_opts, ro,
                                                w.NodeA(), w.NodeB(), &w.env,
                                                &pair)
                    .ok());
    w.env.SleepFor(FromMillis(5));
    ASSERT_TRUE(pair->primary()->detector()->stall_detected());

    const Value older = Value::Synthetic(1, 256);
    const Value direct = Value::Synthetic(2, 2048);
    const Value newer = Value::Synthetic(3, 256);
    // One key per trial: mirror `older`, then write `direct` and, `delay`
    // later, `newer`. Returns whether the backup's apply of the direct WAL
    // batch found a record to drop, i.e. the newer intent had not yet
    // recorded its key when the drop checked.
    std::vector<std::string> keys;
    auto trial = [&](Nanos delay) {
      const std::string key = TestKey(keys.size());
      keys.push_back(key);
      EXPECT_TRUE(pair->Put({}, key, older).ok());
      const uint64_t drops = pair->backup()->kv_stats().md_deletes;
      sim::SimEnv::Thread* redirect = w.env.Spawn("redirect", [&, key] {
        w.env.SleepFor(delay);
        EXPECT_TRUE(pair->Put({}, key, newer).ok());
      });
      EXPECT_TRUE(pair->Put({}, key, direct).ok());
      w.env.Join(redirect);
      return pair->backup()->kv_stats().md_deletes > drops;
    };
    // The direct batch reaches the backup after two WAL syncs. Bisect for
    // the first delay whose intent records its key after the drop's check.
    Nanos early = FromMicros(50);
    Nanos late = FromMillis(1);
    ASSERT_FALSE(trial(early));
    ASSERT_TRUE(trial(late));
    while (late - early > 1) {
      const Nanos mid = early + (late - early) / 2;
      if (trial(mid)) {
        late = mid;
      } else {
        early = mid;
      }
    }
    // From `late` on, the intent's insert lands while the drop sleeps in
    // its 0.28 us delete charge, between its check and its erase.
    for (Nanos offset : {0, 70, 140, 210}) EXPECT_TRUE(trial(late + offset));

    auto expect_newer_everywhere = [&](const char* when) {
      Value v;
      for (const std::string& key : keys) {
        ASSERT_TRUE(pair->Get({}, key, &v).ok()) << key;
        EXPECT_EQ(v, newer) << "primary, " << when << ": " << key;
        ASSERT_TRUE(pair->backup()->Get({}, key, &v).ok()) << key;
        EXPECT_EQ(v, newer) << "backup, " << when << ": " << key;
      }
    };
    expect_newer_everywhere("before the rollback");
    ASSERT_TRUE(pair->RollbackNow().ok());
    EXPECT_TRUE(pair->backup()->dev()->Empty());
    expect_newer_everywhere("after the rollback");
    ASSERT_TRUE(pair->Close().ok());
  });
}

// A redirected write waits on the device lane behind the backup's mirror
// drain while a direct write of the same key, newer and on the WAL lane,
// completes. When the redirected write then flips its metadata, its record
// must stay out: it would route the primary's reads to the older device
// version until the next rollback.
TEST(HaPairTest, LateRedirectDoesNotShadowANewerDirectWrite) {
  PairWorld w;
  w.Run([&] {
    lsm::DbOptions db_opts = test::SmallDbOptions();
    db_opts.wal_sync = true;
    db_opts.l0_stop_writes_trigger = 1;  // the Detector reports a stall
    db_opts.write_buffer_size = 8 << 20;
    core::KvaccelOptions kv_opts = PairKvOptions();
    // 512-byte values are redirected; 2 KiB values take the host path.
    kv_opts.redirect_admission = [](uint64_t bytes) { return bytes < 1024; };
    core::ReplOptions ro;  // sync
    std::unique_ptr<core::ReplicatedKvaccelDB> pair;
    ASSERT_TRUE(core::ReplicatedKvaccelDB::Open(db_opts, kv_opts, ro,
                                                w.NodeA(), w.NodeB(), &w.env,
                                                &pair)
                    .ok());
    w.env.SleepFor(FromMillis(5));
    ASSERT_TRUE(pair->primary()->detector()->stall_detected());

    // A mirror of 2000 superseded versions: the primary's drain ingests
    // nothing, the backup's takes milliseconds to scan and reset them.
    constexpr uint64_t kKeys = 2000;
    for (uint64_t i = 0; i < kKeys; i++) {
      ASSERT_TRUE(pair->Put({}, TestKey(i), Value::Synthetic(i, 512)).ok());
    }
    for (uint64_t i = 0; i < kKeys; i++) {
      ASSERT_TRUE(
          pair->Put({}, TestKey(i), Value::Synthetic(10000 + i, 2048)).ok());
    }
    sim::SimEnv::Thread* rollback = w.env.Spawn("rollback", [&] {
      EXPECT_TRUE(pair->RollbackNow().ok());
    });
    while (pair->repl_stats().rollback_records == 0) {
      w.env.SleepFor(FromMicros(10));
    }

    const std::string key = TestKey(kKeys);
    const Value direct = Value::Synthetic(2, 2048);
    bool redirect_done = false;
    sim::SimEnv::Thread* redirect = w.env.Spawn("redirect", [&] {
      EXPECT_TRUE(pair->Put({}, key, Value::Synthetic(1, 512)).ok());
      redirect_done = true;
    });
    w.env.SleepFor(FromMicros(10));
    ASSERT_TRUE(pair->Put({}, key, direct).ok());
    ASSERT_FALSE(redirect_done) << "the redirect no longer waits for the drain";
    w.env.Join(redirect);
    EXPECT_EQ(pair->primary()->metadata()->GetSeq(key), 0u);
    Value v;
    ASSERT_TRUE(pair->Get({}, key, &v).ok());
    EXPECT_EQ(v, direct);
    w.env.Join(rollback);
    ASSERT_TRUE(pair->RollbackNow().ok());
    ASSERT_TRUE(pair->Get({}, key, &v).ok());
    EXPECT_EQ(v, direct);
    ASSERT_TRUE(pair->backup()->Get({}, key, &v).ok());
    EXPECT_EQ(v, direct);
    ASSERT_TRUE(pair->Close().ok());
  });
}

// A redirected write whose intent fails to ship is not acknowledged, so no
// version of it may stay on the primary's device: Get would serve it at once
// (the key's older metadata record routes reads to the device), and a
// trusted rollback would ingest it. The primary ships before the device put.
TEST(HaPairTest, FailedIntentShipLeavesNoVersionOnThePrimary) {
  PairWorld w;
  w.Run([&] {
    lsm::DbOptions db_opts = test::SmallDbOptions();
    db_opts.wal_sync = true;
    db_opts.l0_stop_writes_trigger = 1;  // every write is redirected
    core::KvaccelOptions kv_opts = PairKvOptions();
    core::ReplOptions ro;  // sync
    std::unique_ptr<core::ReplicatedKvaccelDB> pair;
    ASSERT_TRUE(core::ReplicatedKvaccelDB::Open(db_opts, kv_opts, ro,
                                                w.NodeA(), w.NodeB(), &w.env,
                                                &pair)
                    .ok());
    w.env.SleepFor(FromMillis(5));
    ASSERT_TRUE(pair->primary()->detector()->stall_detected());
    const std::string key = TestKey(7);
    const Value v1 = Value::Synthetic(1, 256);
    ASSERT_TRUE(pair->Put({}, key, v1).ok());
    ASSERT_EQ(pair->primary()->kv_stats().redirected_writes, 1u);

    sim::FaultRule cut;
    cut.probability = 1.0;
    w.inj.Arm("net.partition.sym", cut);
    EXPECT_FALSE(pair->Put({}, key, Value::Synthetic(2, 256)).ok());
    w.inj.Disarm("net.partition.sym");
    w.env.SleepFor(3 * ro.heartbeat_period);  // heartbeats renew the lease

    Value v;
    ASSERT_TRUE(pair->Get({}, key, &v).ok());
    EXPECT_EQ(v, v1);
    ASSERT_TRUE(pair->RollbackNow().ok());
    ASSERT_TRUE(pair->Get({}, key, &v).ok());
    EXPECT_EQ(v, v1);
    ASSERT_TRUE(pair->Close().ok());
  });
}

// A re-formed pair's primary can trail its backup's clock. Open starts it
// past every sequence the backup holds, so Bootstrap's catch-up and every
// later write shadow the backup's versions.
TEST(HaPairTest, ReformedPairPrimaryClockStartsPastItsBackup) {
  PairWorld w;
  w.Run([&] {
    lsm::DbOptions db_opts = test::SmallDbOptions();
    db_opts.wal_sync = true;
    core::KvaccelOptions kv_opts = PairKvOptions();
    // Each node alone first: `rounds` versions of keys [0, keys).
    auto fill = [&](const core::ReplNode& node, uint64_t rounds,
                    uint64_t keys, uint64_t seed) {
      core::KvaccelOptions ko = kv_opts;
      ko.external_dev = node.dev;
      std::unique_ptr<core::KvaccelDB> db;
      ASSERT_TRUE(core::KvaccelDB::Open(
                      db_opts, ko,
                      lsm::DbEnv{&w.env, node.ssd, node.fs, node.host_cpu},
                      &db)
                      .ok());
      for (uint64_t r = 0; r < rounds; r++) {
        for (uint64_t k = 0; k < keys; k++) {
          ASSERT_TRUE(db->Put({}, TestKey(k),
                              Value::Synthetic(seed + r * 100 + k, 256))
                          .ok());
        }
      }
      ASSERT_EQ(db->main()->LastSequence(), rounds * keys);
      ASSERT_TRUE(db->Close().ok());
    };
    fill(w.NodeB(), 5, 30, 10000);  // the backup node: 150 sequences
    fill(w.NodeA(), 1, 20, 0);      // the primary node: 20

    core::ReplOptions ro;
    std::unique_ptr<core::ReplicatedKvaccelDB> pair;
    ASSERT_TRUE(core::ReplicatedKvaccelDB::Open(db_opts, kv_opts, ro,
                                                w.NodeA(), w.NodeB(), &w.env,
                                                &pair)
                    .ok());
    EXPECT_EQ(pair->primary()->main()->LastSequence(),
              pair->backup()->main()->LastSequence());
    Value pv, bv;
    for (uint64_t k = 0; k < 30; k++) {
      Status ps = pair->Get({}, TestKey(k), &pv);
      Status bs = pair->backup()->Get({}, TestKey(k), &bv);
      EXPECT_EQ(ps.ok(), k < 20) << k;
      EXPECT_EQ(bs.ok(), ps.ok()) << k;
      if (ps.ok() && bs.ok()) {
        EXPECT_EQ(bv, pv) << k;
      }
    }
    const Value fresh = Value::Synthetic(777, 256);
    ASSERT_TRUE(pair->Put({}, TestKey(25), fresh).ok());
    ASSERT_TRUE(pair->backup()->Get({}, TestKey(25), &bv).ok());
    EXPECT_EQ(bv, fresh);
    ASSERT_TRUE(pair->Close().ok());
  });
}

// ---- The harness's HA link flags ----

// --net_latency_us reaches the pair's link as given: 0 runs a zero-latency
// link, and a fraction of a microsecond is kept.
TEST(HaSutTest, LinkLatencyFlagReachesThePair) {
  harness::SutConfig cfg;
  cfg.net_latency_us = 2.7;
  EXPECT_EQ(harness::SystemUnderTest::BuildReplOptions(cfg).net_latency,
            2700u);
  PairWorld w;
  w.Run([&] {
    cfg.kind = harness::SystemKind::kKvaccel;
    cfg.scale = 0.03125;
    cfg.ha = true;
    cfg.net_latency_us = 0;
    cfg.ha_primary = w.NodeA();
    cfg.ha_backup = w.NodeB();
    lsm::DbEnv env;
    env.env = &w.env;
    env.ssd = w.ssd_a.get();
    env.fs = w.fs_a.get();
    env.host_cpu = w.cpu_a.get();
    std::unique_ptr<harness::SystemUnderTest> sut;
    ASSERT_TRUE(harness::SystemUnderTest::Open(cfg, env, &sut).ok());
    EXPECT_EQ(sut->pair()->link()->latency(), 0u);
    ASSERT_TRUE(sut->Close().ok());
  });
}

// The partition drill's rejoin resyncs over the pair's own link, so it
// takes at least the resync bytes' wire time at --net_mbps.
TEST(HaSutTest, PartitionDrillRejoinRunsAtTheLinkRate) {
  harness::BenchConfig c;
  c.scale = 0.03125;
  c.sut.kind = harness::SystemKind::kKvaccel;
  c.sut.ha = true;
  c.sut.net_mbps = 0.005;  // 5 KB/s
  c.sut.net_partition_start_s = 2;
  c.sut.net_partition_dur_s = 1;
  c.workload.duration = FromSecs(4);
  harness::RunResult r = harness::RunBenchmark(c);
  ASSERT_TRUE(r.ha.has_value());
  ASSERT_TRUE(r.ha->rejoin.has_value());
  const check::RejoinReport& rj = *r.ha->rejoin;
  EXPECT_EQ(rj.checker_errors, 0);
  ASSERT_GT(rj.resync_bytes, 0u);
  const double wire_ns = static_cast<double>(rj.resync_bytes) * 1e9 /
                         (c.sut.net_mbps * 1e6);
  EXPECT_GE(static_cast<double>(rj.rejoin_ns), wire_ns);
}

// Only the primary's Detector polls, so only it opens `stall.redirect`
// windows on the `kvaccel` trace track: a traced pair run that stalls holds
// them one after another, never one nested inside another.
TEST(HaPairTest, OnlyThePrimaryOpensRedirectWindows) {
  harness::BenchConfig c;
  c.scale = 0.03125;
  c.sut.kind = harness::SystemKind::kKvaccel;
  c.sut.ha = true;
  c.workload.writer_threads = 4;
  c.workload.batch_size = 4;
  c.workload.duration = FromSecs(4);
  c.trace_out = ::testing::TempDir() + "ha_redirect_windows.json";
  harness::RunResult r = harness::RunBenchmark(c);
  EXPECT_GT(r.write_kops, 0.0);
  std::ifstream trace(c.trace_out);
  ASSERT_TRUE(trace.good());
  int windows = 0;
  int depth = 0;
  int max_depth = 0;
  for (std::string line; std::getline(trace, line);) {
    if (line.find("\"name\":\"stall.redirect\"") == std::string::npos) {
      continue;
    }
    if (line.find("\"ph\":\"B\"") != std::string::npos) {
      windows++;
      max_depth = std::max(max_depth, ++depth);
    } else if (line.find("\"ph\":\"E\"") != std::string::npos) {
      depth--;
    }
  }
  EXPECT_GT(windows, 0) << "the run never stalled";
  EXPECT_EQ(max_depth, 1);
  EXPECT_EQ(depth, 0);
  std::remove(c.trace_out.c_str());
}

// The backup never redirects, rolls back on its own or scrubs, so nothing
// reads its stall state: its Detector serves only as the device breaker of
// ApplyIntentOnBackup and never polls.
TEST(HaPairTest, OnlyThePrimaryPollsItsDetector) {
  PairWorld w;
  w.Run([&] {
    core::KvaccelOptions kv_opts = PairKvOptions();
    std::unique_ptr<core::ReplicatedKvaccelDB> pair;
    ASSERT_TRUE(core::ReplicatedKvaccelDB::Open(test::SmallDbOptions(),
                                                kv_opts, core::ReplOptions{},
                                                w.NodeA(), w.NodeB(), &w.env,
                                                &pair)
                    .ok());
    w.env.SleepFor(20 * kv_opts.detector_period);
    EXPECT_GT(pair->primary()->kv_stats().detector_checks, 0u);
    EXPECT_EQ(pair->backup()->kv_stats().detector_checks, 0u);
    ASSERT_TRUE(pair->Close().ok());
  });
}

// Every record the pair ships is one the backup applies: a WAL batch, a
// redirect intent or a rollback signal. The primary's flushes and
// compactions ship nothing, since the backup builds its own versions from
// the WAL batches it replays.
TEST(HaPairTest, VersionInstallsShipNoRecord) {
  PairWorld w;
  w.Run([&] {
    lsm::DbOptions db_opts = test::SmallDbOptions();
    db_opts.wal_sync = true;
    std::unique_ptr<core::ReplicatedKvaccelDB> pair;
    ASSERT_TRUE(core::ReplicatedKvaccelDB::Open(db_opts, PairKvOptions(),
                                                core::ReplOptions{},
                                                w.NodeA(), w.NodeB(), &w.env,
                                                &pair)
                    .ok());
    for (uint64_t i = 0; i < 300; i++) {
      ASSERT_TRUE(pair->Put({}, TestKey(i), Value::Synthetic(i, 4096)).ok());
    }
    ASSERT_TRUE(pair->FlushAll().ok());
    ASSERT_TRUE(pair->WaitForCompactionIdle().ok());
    EXPECT_GT(pair->primary()->main()->stats().flush_count, 0u);
    const core::ReplStats& st = pair->repl_stats();
    EXPECT_GT(st.wal_records, 0u);
    EXPECT_EQ(st.records_applied,
              st.wal_records + st.intent_records + st.rollback_records);
    ASSERT_TRUE(pair->Close().ok());
  });
}

// ---- Two-node nemesis schedules (DESIGN.md §9 + §12) ----

// The HA kill sites: the single-node sites plus crash.net.send.mid.
const std::set<std::string>& HaKillSites() {
  static const std::set<std::string> sites = {
      "crash.wal.post_append",    "crash.wal.post_sync",
      "crash.flush.mid",          "crash.manifest.pre_sync",
      "crash.manifest.post_sync", "crash.compaction.mid",
      "crash.subcompaction.mid",  "crash.rollback.mid",
      "crash.redirect.mid",       "crash.net.send.mid"};
  return sites;
}

// The sites a schedule armed and those that killed the pair, read from its
// trace: "cycle=N site=NAME ..." arms a site and "crash cycle=N" ends a
// cycle it killed.
void ArmedAndFired(const std::string& trace, std::set<std::string>* armed,
                   std::set<std::string>* fired) {
  std::string site;
  std::istringstream lines(trace);
  for (std::string line; std::getline(lines, line);) {
    const size_t at = line.find(" site=");
    if (line.rfind("cycle=", 0) == 0 && at != std::string::npos) {
      site = line.substr(at + 6, line.find(' ', at + 6) - at - 6);
      armed->insert(site);
    }
    if (line.rfind("crash cycle=", 0) == 0) fired->insert(site);
  }
}

// The schedule first arms each HA kill site in a per-seed order, moving a
// site that did not kill the pair to the back of the queue, so 12 cycles
// crash the pair at all ten on most seeds (193 of seeds 1-200; the rest
// miss crash.compaction.mid, which needs a cycle that compacts); seeds 1
// and 2 were not searched for. Every cycle ends in a verified failover.
TEST(HaNemesisTest, SyncFailoversServeEveryAckedWrite) {
  for (uint64_t seed : {1, 2}) {
    check::NemesisOptions opt;
    opt.seed = seed;
    opt.cycles = 12;
    opt.ha = true;
    opt.repl_ack = 0;
    check::NemesisResult r = check::RunNemesis(opt);
    EXPECT_TRUE(r.ok) << "seed=" << opt.seed << " cycle=" << r.cycles_run
                      << ": " << r.error;
    EXPECT_EQ(r.failovers, 12) << "seed=" << seed;
    EXPECT_EQ(r.ha_lost_entries, 0u) << "sync acks must never lose";
    std::set<std::string> armed, fired;
    ArmedAndFired(r.trace, &armed, &fired);
    EXPECT_EQ(fired, HaKillSites())
        << "seed=" << seed
        << ": the schedule no longer kills the pair at every HA site";
  }
}

// Async schedules run six cycles, fewer than the ten sites: each seed arms
// its first six in its own order, so across the sweep's seeds every site
// is armed, the interconnect site among them.
TEST(HaNemesisTest, AsyncSchedulesArmEveryHaSiteAcrossSeeds) {
  std::set<std::string> armed, fired, first;
  for (uint64_t seed = 1; seed <= 20; seed++) {
    check::NemesisOptions opt;
    opt.seed = seed;
    opt.cycles = 6;
    opt.ha = true;
    opt.repl_ack = 1;
    check::NemesisResult r = check::RunNemesis(opt);
    ASSERT_TRUE(r.ok) << "seed=" << seed << ": " << r.error;
    std::set<std::string> seed_armed;
    ArmedAndFired(r.trace, &seed_armed, &fired);
    const size_t at = r.trace.find(" site=");
    ASSERT_NE(at, std::string::npos);
    first.insert(r.trace.substr(at + 6, r.trace.find(' ', at + 6) - at - 6));
    armed.insert(seed_armed.begin(), seed_armed.end());
  }
  EXPECT_EQ(armed, HaKillSites());
  EXPECT_TRUE(fired.count("crash.net.send.mid"))
      << "no async schedule lost the pair mid-send";
  EXPECT_GT(first.size(), 1u) << "every seed arms the same site first";
}

TEST(HaNemesisTest, AsyncLossIsBoundedAndScheduleDeterministic) {
  check::NemesisOptions opt;
  opt.seed = 99;
  opt.cycles = 6;
  opt.ha = true;
  opt.repl_ack = 1;
  check::NemesisResult a = check::RunNemesis(opt);
  check::NemesisResult b = check::RunNemesis(opt);
  ASSERT_TRUE(a.ok) << "seed=" << opt.seed << ": " << a.error;
  ASSERT_TRUE(b.ok) << "seed=" << opt.seed << ": " << b.error;
  EXPECT_EQ(a.trace, b.trace) << "nondeterministic HA schedule";
  EXPECT_EQ(a.failovers, 6);
  // The harness itself diverges when the loss bound is exceeded; this pins
  // the reported number so a quiet regression in accounting is visible too.
  EXPECT_LE(a.ha_lost_entries, 6u * (8 + 2) * 8);
}

// ---- Partition, fencing, reconciliation (DESIGN.md §12) ----

TEST(FaultSiteTest, PartitionSitesAreRegistered) {
  const std::vector<sim::FaultSiteInfo>& sites = sim::KnownFaultSites();
  for (const char* want :
       {"net.partition.sym", "net.partition.ack", "net.delay", "net.dup",
        "net.reorder"}) {
    bool found = false;
    for (const sim::FaultSiteInfo& s : sites) {
      if (std::string(s.site) == want) found = true;
    }
    EXPECT_TRUE(found) << want << " missing from KnownFaultSites()";
  }
}

TEST(NetLinkTest, PartitionCutsTheWireAndDelayAddsJitter) {
  sim::SimEnv env;
  sim::FaultInjector inj(&env, 11);
  env.set_fault_injector(&inj);
  env.Spawn("t", [&] {
    sim::NetLink link(&env, "nl", 1e9, FromMicros(30));
    sim::FaultRule cut;
    cut.probability = 1.0;

    inj.Arm("net.partition.sym", cut);
    Status s = link.Send(4096);
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
    EXPECT_EQ(link.partition_drops(), 1u);
    EXPECT_EQ(link.messages(), 0u);
    inj.Disarm("net.partition.sym");

    // A delay spike rides on top of serialization + latency; the message is
    // still delivered.
    inj.Arm("net.delay", cut);
    Nanos t0 = env.Now();
    ASSERT_TRUE(link.Send(1'000'000).ok());
    EXPECT_GT(env.Now() - t0, FromMillis(1) + FromMicros(30));
    EXPECT_EQ(link.delay_spikes(), 1u);
    EXPECT_EQ(link.messages(), 1u);
  });
  env.Run();
}

// A symmetric partition starves the lease: writes fail while the wire is
// cut, the primary self-fences once the lease lapses (Busy, counted), and a
// heal lets heartbeats renew the lease — the pair resumes with nothing lost.
TEST(HaPairTest, LeaseLapseFencesThePrimaryUntilHeal) {
  PairWorld w;
  w.Run([&] {
    lsm::DbOptions db_opts = test::SmallDbOptions();
    db_opts.wal_sync = true;
    core::KvaccelOptions kv_opts = PairKvOptions();
    core::ReplOptions ro;  // sync, 50ms lease / 10ms heartbeat
    std::unique_ptr<core::ReplicatedKvaccelDB> pair;
    ASSERT_TRUE(core::ReplicatedKvaccelDB::Open(db_opts, kv_opts, ro,
                                                w.NodeA(), w.NodeB(), &w.env,
                                                &pair)
                    .ok());
    for (uint64_t i = 0; i < 10; i++) {
      ASSERT_TRUE(pair->Put({}, TestKey(i), Value::Synthetic(i, 256)).ok());
    }
    EXPECT_FALSE(pair->fenced());

    sim::FaultRule cut;
    cut.probability = 1.0;
    w.inj.Arm("net.partition.sym", cut);
    // The lease is still live: a write passes the fence but fails to ship.
    Status doomed = pair->Put({}, TestKey(100), Value::Synthetic(100, 256));
    EXPECT_FALSE(doomed.ok());
    EXPECT_FALSE(doomed.IsBusy()) << "not yet fenced: " << doomed.ToString();

    w.env.SleepFor(2 * ro.lease_duration + core::kPromoteSafetyMargin);
    EXPECT_TRUE(pair->fenced());
    Status fenced = pair->Put({}, TestKey(101), Value::Synthetic(101, 256));
    EXPECT_TRUE(fenced.IsBusy()) << fenced.ToString();

    // Heal: heartbeats renew the lease; the primary was never deposed.
    w.inj.Disarm("net.partition.sym");
    w.env.SleepFor(3 * ro.heartbeat_period);
    EXPECT_FALSE(pair->fenced());
    EXPECT_FALSE(pair->deposed());
    ASSERT_TRUE(
        pair->Put({}, TestKey(102), Value::Synthetic(102, 256)).ok());

    ASSERT_TRUE(pair->Close().ok());
    const core::ReplStats st = pair->repl_stats();
    EXPECT_GT(st.heartbeat_records, 0u);
    EXPECT_GE(st.fenced_write_rejects, 1u);
    EXPECT_GE(st.lease_expirations, 1u);
    EXPECT_EQ(st.lost_entries, 0u);  // sync acks: doomed writes not acked
  });
}

// Split-brain prevention, detach half: the backup may not be detached for
// promotion while the primary's lease could still be live.
TEST(HaPairTest, DetachBackupRefusesWhileLeaseMayBeLive) {
  PairWorld w;
  w.Run([&] {
    lsm::DbOptions db_opts = test::SmallDbOptions();
    db_opts.wal_sync = true;
    core::KvaccelOptions kv_opts = PairKvOptions();
    core::ReplOptions ro;
    std::unique_ptr<core::ReplicatedKvaccelDB> pair;
    ASSERT_TRUE(core::ReplicatedKvaccelDB::Open(db_opts, kv_opts, ro,
                                                w.NodeA(), w.NodeB(), &w.env,
                                                &pair)
                    .ok());
    for (uint64_t i = 0; i < 5; i++) {
      ASSERT_TRUE(pair->Put({}, TestKey(i), Value::Synthetic(i, 256)).ok());
    }

    sim::FaultRule cut;
    cut.probability = 1.0;
    w.inj.Arm("net.partition.sym", cut);
    // Immediately after the cut the primary's lease is still live on the
    // backup's clock — promotion here would be split-brain.
    Status early = pair->DetachBackup();
    EXPECT_TRUE(early.IsBusy()) << early.ToString();

    // Once last-applied + lease + margin has verifiably passed, detach is
    // safe.
    w.env.SleepFor(2 * ro.lease_duration + 2 * core::kPromoteSafetyMargin);
    ASSERT_TRUE(pair->DetachBackup().ok());
    ASSERT_TRUE(pair->Close().ok());
  });
}

// Split-brain prevention, fencing half: after the partition the backup is
// promoted under a bumped durable epoch. When the partition heals, the old
// primary's first heartbeat finds the newer epoch and deposes it
// permanently — no write is ever acked on both sides of the split.
TEST(HaPairTest, StaleEpochDeposesHealedPrimary) {
  PairWorld w;
  w.Run([&] {
    lsm::DbOptions db_opts = test::SmallDbOptions();
    db_opts.wal_sync = true;
    core::KvaccelOptions kv_opts = PairKvOptions();
    core::ReplOptions ro;
    std::unique_ptr<core::ReplicatedKvaccelDB> pair;
    ASSERT_TRUE(core::ReplicatedKvaccelDB::Open(db_opts, kv_opts, ro,
                                                w.NodeA(), w.NodeB(), &w.env,
                                                &pair)
                    .ok());
    EXPECT_EQ(pair->epoch(), 1u);
    for (uint64_t i = 0; i < 20; i++) {
      ASSERT_TRUE(pair->Put({}, TestKey(i), Value::Synthetic(i, 256)).ok());
    }

    sim::FaultRule cut;
    cut.probability = 1.0;
    w.inj.Arm("net.partition.sym", cut);
    // Doomed writes: past the fence (lease still live), ship fails, never
    // acked anywhere.
    for (uint64_t i = 200; i < 204; i++) {
      EXPECT_FALSE(pair->Put({}, TestKey(i), Value::Synthetic(i, 256)).ok());
    }
    w.env.SleepFor(2 * ro.lease_duration + 2 * core::kPromoteSafetyMargin);
    ASSERT_TRUE(pair->fenced());
    const uint64_t next_epoch = pair->epoch() + 1;
    ASSERT_TRUE(pair->DetachBackup().ok());

    check::FailoverReport rep;
    std::unique_ptr<core::KvaccelDB> promoted;
    Status ps = check::PromoteNode(db_opts, kv_opts, w.NodeB(), &w.env, &rep,
                                   &promoted, next_epoch);
    ASSERT_TRUE(ps.ok()) << ps.ToString() << " " << rep.first_error;
    EXPECT_EQ(rep.fence_epoch, next_epoch);
    // The promoted node serves fresh writes under the new epoch.
    for (uint64_t i = 300; i < 305; i++) {
      ASSERT_TRUE(
          promoted->Put({}, TestKey(i), Value::Synthetic(i, 256)).ok());
    }

    // Heal the partition. The old primary's heartbeats reach node B again,
    // find the bumped durable epoch, and depose it for good.
    w.inj.Disarm("net.partition.sym");
    w.env.SleepFor(5 * ro.heartbeat_period);
    EXPECT_TRUE(pair->deposed());
    EXPECT_TRUE(pair->fenced());
    Status dead = pair->Put({}, TestKey(400), Value::Synthetic(400, 256));
    EXPECT_TRUE(dead.IsBusy()) << dead.ToString();
    // Deposed is permanent: more time does not resurrect the old primary.
    w.env.SleepFor(5 * ro.heartbeat_period);
    EXPECT_TRUE(
        pair->Put({}, TestKey(401), Value::Synthetic(401, 256)).IsBusy());

    ASSERT_TRUE(pair->Close().ok());
    const core::ReplStats st = pair->repl_stats();
    EXPECT_GT(st.fenced_records, 0u) << "stale-epoch rejection not seen";
    EXPECT_EQ(st.lost_entries, 0u);
    ASSERT_TRUE(promoted->Close().ok());
  });
}

// Full reconciliation round trip in delta mode: partition → promote under a
// bumped epoch → diverge both sides → RejoinNode quarantines the old
// primary's unacked tail and ships the delta via the WAL-bypassing ingest
// path (zero write-path bytes) → the healed node re-pairs as backup under
// the new epoch, byte-identical to the serving node.
TEST(HaRejoinTest, DeltaResyncConvergesWithZeroWritePathBytes) {
  PairWorld w;
  w.Run([&] {
    lsm::DbOptions db_opts = test::SmallDbOptions();
    db_opts.wal_sync = true;
    core::KvaccelOptions kv_opts = PairKvOptions();
    core::ReplOptions ro;
    std::unique_ptr<core::ReplicatedKvaccelDB> pair;
    ASSERT_TRUE(core::ReplicatedKvaccelDB::Open(db_opts, kv_opts, ro,
                                                w.NodeA(), w.NodeB(), &w.env,
                                                &pair)
                    .ok());
    for (uint64_t i = 0; i < 40; i++) {
      ASSERT_TRUE(pair->Put({}, TestKey(i), Value::Synthetic(i, 512)).ok());
    }

    sim::FaultRule cut;
    cut.probability = 1.0;
    w.inj.Arm("net.partition.sym", cut);
    // Unacked divergence on the old primary: these reach its WAL (the lease
    // is still live) but never ship — they must NOT survive reconciliation.
    for (uint64_t i = 0; i < 6; i++) {
      EXPECT_FALSE(
          pair->Put({}, TestKey(i), Value::Synthetic(9000 + i, 512)).ok());
    }
    w.env.SleepFor(2 * ro.lease_duration + 2 * core::kPromoteSafetyMargin);
    ASSERT_TRUE(pair->fenced());
    const uint64_t frontier = pair->applied_seq();
    const uint64_t next_epoch = pair->epoch() + 1;
    ASSERT_TRUE(pair->DetachBackup().ok());

    check::FailoverReport rep;
    std::unique_ptr<core::KvaccelDB> promoted;
    ASSERT_TRUE(check::PromoteNode(db_opts, kv_opts, w.NodeB(), &w.env, &rep,
                                   &promoted, next_epoch)
                    .ok())
        << rep.first_error;
    // The serving side moves on: new keys, overwrites, deletes.
    for (uint64_t i = 100; i < 130; i++) {
      ASSERT_TRUE(
          promoted->Put({}, TestKey(i), Value::Synthetic(i, 512)).ok());
    }
    for (uint64_t i = 0; i < 10; i += 2) {
      ASSERT_TRUE(promoted->Put({}, TestKey(i),
                                Value::Synthetic(5000 + i, 512))
                      .ok());
    }
    ASSERT_TRUE(promoted->Delete({}, TestKey(11)).ok());
    ASSERT_TRUE(promoted->Delete({}, TestKey(13)).ok());

    // Heal: depose the old primary, then close it (healed, not crashed —
    // its durable state including the unacked WAL tail is intact).
    w.inj.Disarm("net.partition.sym");
    w.env.SleepFor(5 * ro.heartbeat_period);
    ASSERT_TRUE(pair->deposed());
    ASSERT_TRUE(pair->Close().ok());
    pair.reset();

    check::RejoinOptions rj;
    rj.frontier = frontier;
    rj.new_epoch = next_epoch;
    check::RejoinReport rrep;
    Status rs = check::RejoinNode(db_opts, kv_opts, w.NodeA(),
                                  promoted.get(), rj, &w.env, &rrep);
    ASSERT_TRUE(rs.ok()) << rs.ToString() << " " << rrep.first_error;
    EXPECT_EQ(rrep.checker_errors, 0);
    EXPECT_EQ(rrep.fence_epoch, next_epoch);
    EXPECT_GT(rrep.resync_entries, 0u);
    EXPECT_GT(rrep.resync_bytes, 0u);

    // Re-pair with roles swapped: B serves, A is the rebuilt backup. Open
    // adopts the bumped durable epoch from both FENCE files.
    ASSERT_TRUE(promoted->Close().ok());
    promoted.reset();
    std::unique_ptr<core::ReplicatedKvaccelDB> pair2;
    ASSERT_TRUE(core::ReplicatedKvaccelDB::Open(db_opts, kv_opts, ro,
                                                w.NodeB(), w.NodeA(), &w.env,
                                                &pair2)
                    .ok());
    EXPECT_EQ(pair2->epoch(), next_epoch);
    Value v;
    for (uint64_t i = 100; i < 130; i++) {  // post-failover writes
      ASSERT_TRUE(pair2->backup()->Get({}, TestKey(i), &v).ok()) << i;
      EXPECT_EQ(v, Value::Synthetic(i, 512));
    }
    for (uint64_t i = 0; i < 6; i++) {  // doomed overwrites must be gone
      if (i == 11 || i == 13) continue;
      ASSERT_TRUE(pair2->backup()->Get({}, TestKey(i), &v).ok()) << i;
      const uint64_t seed = (i % 2 == 0) ? 5000 + i : i;
      EXPECT_EQ(v, Value::Synthetic(seed, 512)) << "key " << i;
    }
    EXPECT_TRUE(pair2->backup()->Get({}, TestKey(11), &v).IsNotFound());
    ASSERT_TRUE(pair2->Put({}, TestKey(500), Value::Synthetic(500, 512))
                    .ok());  // the rebuilt pair replicates again
    ASSERT_TRUE(pair2->Close().ok());
  });
}

// Pure catch-up: no frontier and nothing diverged, the rejoining node only
// missed the serving node's newer writes, and the delta resync ships them.
// (The name is kept from the WAL-replay transport this test once measured.)
TEST(HaRejoinTest, WalReplayResyncMovesEveryByteThroughTheWritePath) {
  PairWorld w;
  w.Run([&] {
    lsm::DbOptions db_opts = test::SmallDbOptions();
    db_opts.wal_sync = true;
    core::KvaccelOptions kv_opts = PairKvOptions();
    core::ReplOptions ro;
    std::unique_ptr<core::ReplicatedKvaccelDB> pair;
    ASSERT_TRUE(core::ReplicatedKvaccelDB::Open(db_opts, kv_opts, ro,
                                                w.NodeA(), w.NodeB(), &w.env,
                                                &pair)
                    .ok());
    for (uint64_t i = 0; i < 25; i++) {
      ASSERT_TRUE(pair->Put({}, TestKey(i), Value::Synthetic(i, 512)).ok());
    }
    ASSERT_TRUE(pair->Close().ok());  // clean shutdown, nothing diverged
    pair.reset();

    // B serves alone and accumulates catch-up work for A.
    check::FailoverReport rep;
    std::unique_ptr<core::KvaccelDB> promoted;
    ASSERT_TRUE(check::PromoteNode(db_opts, kv_opts, w.NodeB(), &w.env, &rep,
                                   &promoted)
                    .ok())
        << rep.first_error;
    for (uint64_t i = 25; i < 35; i++) {
      ASSERT_TRUE(
          promoted->Put({}, TestKey(i), Value::Synthetic(i, 512)).ok());
    }

    check::RejoinOptions rj;  // no frontier: pure catch-up
    check::RejoinReport rrep;
    Status rs = check::RejoinNode(db_opts, kv_opts, w.NodeA(),
                                  promoted.get(), rj, &w.env, &rrep);
    ASSERT_TRUE(rs.ok()) << rs.ToString() << " " << rrep.first_error;
    EXPECT_EQ(rrep.checker_errors, 0);
    EXPECT_GE(rrep.resync_entries, 10u);
    EXPECT_GT(rrep.resync_bytes, 0u);
    ASSERT_TRUE(promoted->Close().ok());
  });
}

// While a resync is in flight the serving node's scrubber defers its
// wake-ups (reconciliation reads should not compete with serving traffic).
TEST(HaRejoinTest, ServingScrubberDefersDuringResync) {
  PairWorld w;
  w.Run([&] {
    lsm::DbOptions db_opts = test::SmallDbOptions();
    db_opts.wal_sync = true;
    core::KvaccelOptions kv_opts = PairKvOptions();
    kv_opts.scrub.enabled = true;
    kv_opts.scrub.period = FromMillis(1);
    core::ReplOptions ro;
    std::unique_ptr<core::ReplicatedKvaccelDB> pair;
    ASSERT_TRUE(core::ReplicatedKvaccelDB::Open(db_opts, kv_opts, ro,
                                                w.NodeA(), w.NodeB(), &w.env,
                                                &pair)
                    .ok());
    for (uint64_t i = 0; i < 10; i++) {
      ASSERT_TRUE(pair->Put({}, TestKey(i), Value::Synthetic(i, 512)).ok());
    }
    ASSERT_TRUE(pair->Close().ok());
    pair.reset();

    check::FailoverReport rep;
    std::unique_ptr<core::KvaccelDB> promoted;
    ASSERT_TRUE(check::PromoteNode(db_opts, kv_opts, w.NodeB(), &w.env, &rep,
                                   &promoted)
                    .ok())
        << rep.first_error;
    // Enough catch-up payload that the resync link stays busy for many
    // scrub periods at the throttled rate below.
    for (uint64_t i = 100; i < 300; i++) {
      ASSERT_TRUE(
          promoted->Put({}, TestKey(i), Value::Synthetic(i, 4096)).ok());
    }

    check::RejoinOptions rj;
    rj.net_bytes_per_sec = 1e6;  // slow link: resync spans ~100s of periods
    check::RejoinReport rrep;
    Status rs = check::RejoinNode(db_opts, kv_opts, w.NodeA(),
                                  promoted.get(), rj, &w.env, &rrep);
    ASSERT_TRUE(rs.ok()) << rs.ToString() << " " << rrep.first_error;
    EXPECT_GT(rrep.scrub_deferred, 0u);
    ASSERT_NE(promoted->scrubber(), nullptr);
    EXPECT_GE(promoted->scrubber()->stats().deferred_for_resync,
              rrep.scrub_deferred);
    // The deferral is lifted once the rejoin completes.
    EXPECT_FALSE(promoted->scrubber()->resync_deferred());
    ASSERT_TRUE(promoted->Close().ok());
  });
}

// Satellite: the async shipper queue is bounded in bytes as well as entries.
// A saturated (slow) link blocks the shipper; producers feel backpressure,
// the byte bound holds at every sample, the backup's applied frontier only
// moves forward, and nothing is lost once the queue drains.
TEST(HaPairTest, AsyncQueueByteBoundHoldsUnderSaturatedLink) {
  PairWorld w;
  w.Run([&] {
    lsm::DbOptions db_opts = test::SmallDbOptions();
    db_opts.wal_sync = true;
    core::KvaccelOptions kv_opts = PairKvOptions();
    // A live (unpromoted) backup serves reads from its main tree only —
    // redirect intents land in its Dev-LSM mirror until promotion drains
    // them. Keep every write on the WAL stream so the direct backup reads
    // below see all of them.
    kv_opts.redirection_enabled = false;
    core::ReplOptions ro;
    ro.ack = core::ReplAck::kAsync;
    ro.async_queue_cap = 1000;        // entry bound out of the way:
    ro.async_queue_max_bytes = 1024;  // the byte bound is what binds
    ro.net_bytes_per_sec = 2e4;       // saturated: slower than the producer
    std::unique_ptr<core::ReplicatedKvaccelDB> pair;
    ASSERT_TRUE(core::ReplicatedKvaccelDB::Open(db_opts, kv_opts, ro,
                                                w.NodeA(), w.NodeB(), &w.env,
                                                &pair)
                    .ok());

    // One record can land when the queue already holds max_bytes - 1.
    const uint64_t record_slack = 512;
    Nanos write_start = w.env.Now();
    sim::SimEnv::Thread* writer = w.env.Spawn("writer", [&] {
      for (uint64_t i = 0; i < 100; i++) {
        ASSERT_TRUE(
            pair->Put({}, TestKey(i), Value::Synthetic(i, 512)).ok());
      }
    });
    uint64_t last_frontier = 0;
    for (int k = 0; k < 60; k++) {
      w.env.SleepFor(FromMillis(2));
      EXPECT_LE(pair->queue_bytes(),
                ro.async_queue_max_bytes + record_slack);
      const uint64_t f = pair->applied_frontier();
      EXPECT_GE(f, last_frontier) << "applied frontier moved backwards";
      last_frontier = f;
    }
    w.env.Join(writer);
    // Backpressure is visible in the producer's clock: 100 unthrottled puts
    // take a few ms; behind a saturated link they pace at the wire rate.
    EXPECT_GT(w.env.Now() - write_start, FromMillis(100));
    pair->DrainShipping();
    EXPECT_GE(pair->applied_frontier(), last_frontier);

    const core::ReplStats st = pair->repl_stats();
    EXPECT_GE(st.async_queue_bytes_peak, ro.async_queue_max_bytes)
        << "the byte bound never engaged";
    EXPECT_LE(st.async_queue_bytes_peak,
              ro.async_queue_max_bytes + record_slack);
    EXPECT_EQ(st.lost_entries, 0u);
    EXPECT_GE(st.records_applied, 100u);
    Value v;
    for (uint64_t i = 0; i < 100; i += 17) {
      ASSERT_TRUE(pair->backup()->Get({}, TestKey(i), &v).ok()) << i;
      EXPECT_EQ(v, Value::Synthetic(i, 512));
    }
    ASSERT_TRUE(pair->Close().ok());
  });
}

// Duplicate delivery (net.dup) applies every record twice; exact-sequence
// application makes the second apply idempotent.
TEST(HaPairTest, DuplicateDeliveryIsIdempotent) {
  PairWorld w;
  w.Run([&] {
    lsm::DbOptions db_opts = test::SmallDbOptions();
    db_opts.wal_sync = true;
    core::KvaccelOptions kv_opts = PairKvOptions();
    core::ReplOptions ro;  // sync
    std::unique_ptr<core::ReplicatedKvaccelDB> pair;
    ASSERT_TRUE(core::ReplicatedKvaccelDB::Open(db_opts, kv_opts, ro,
                                                w.NodeA(), w.NodeB(), &w.env,
                                                &pair)
                    .ok());
    sim::FaultRule always;
    always.probability = 1.0;
    w.inj.Arm("net.dup", always);
    for (uint64_t i = 0; i < 10; i++) {
      ASSERT_TRUE(pair->Put({}, TestKey(i), Value::Synthetic(i, 256)).ok());
    }
    w.inj.Disarm("net.dup");
    Value v;
    for (uint64_t i = 0; i < 10; i++) {
      ASSERT_TRUE(pair->backup()->Get({}, TestKey(i), &v).ok()) << i;
      EXPECT_EQ(v, Value::Synthetic(i, 256));
    }
    ASSERT_TRUE(pair->Close().ok());
    const core::ReplStats st = pair->repl_stats();
    EXPECT_GE(st.dup_records, 10u);
    EXPECT_EQ(st.lost_entries, 0u);
  });
}

// Reordered async records (net.reorder) still apply at their exact leader
// sequences, so the backup converges to the same state.
TEST(HaPairTest, ReorderedAsyncRecordsConverge) {
  PairWorld w;
  w.Run([&] {
    lsm::DbOptions db_opts = test::SmallDbOptions();
    db_opts.wal_sync = true;
    core::KvaccelOptions kv_opts = PairKvOptions();
    core::ReplOptions ro;
    ro.ack = core::ReplAck::kAsync;
    std::unique_ptr<core::ReplicatedKvaccelDB> pair;
    ASSERT_TRUE(core::ReplicatedKvaccelDB::Open(db_opts, kv_opts, ro,
                                                w.NodeA(), w.NodeB(), &w.env,
                                                &pair)
                    .ok());
    sim::FaultRule always;
    always.probability = 1.0;
    w.inj.Arm("net.reorder", always);
    pair->PauseShipping(true);  // queue a batch so there is room to swap
    for (uint64_t i = 0; i < 12; i++) {
      ASSERT_TRUE(pair->Put({}, TestKey(i), Value::Synthetic(i, 256)).ok());
      // Overwrites of the same key are order-sensitive if sequences leak.
      ASSERT_TRUE(
          pair->Put({}, TestKey(i), Value::Synthetic(1000 + i, 256)).ok());
    }
    pair->PauseShipping(false);
    pair->DrainShipping();
    w.inj.Disarm("net.reorder");

    Value v;
    for (uint64_t i = 0; i < 12; i++) {
      ASSERT_TRUE(pair->backup()->Get({}, TestKey(i), &v).ok()) << i;
      EXPECT_EQ(v, Value::Synthetic(1000 + i, 256)) << "key " << i;
    }
    ASSERT_TRUE(pair->Close().ok());
    const core::ReplStats st = pair->repl_stats();
    EXPECT_GT(st.reorder_swaps, 0u);
    EXPECT_EQ(st.lost_entries, 0u);
  });
}

// ---- Partition nemesis schedules ----

// Pinned seed: cycles rotate partition kinds (sym cut with failover, ack-
// loss cut with failover, transient blip, flapping link). Every failover
// rejoins the old primary by delta resync; the harness itself asserts the
// three acceptance properties (no sync-acked write lost, no write acked by
// a fenced primary, byte-identical convergence after reconciliation).
TEST(HaNemesisTest, PartitionScheduleConvergesAndIsDeterministic) {
  check::NemesisOptions opt;
  opt.seed = 24301;
  opt.cycles = 8;
  opt.ops_per_cycle = 60;
  opt.key_space = 200;
  opt.ha = true;
  opt.net_partition = true;
  opt.repl_ack = 0;
  check::NemesisResult a = check::RunNemesis(opt);
  ASSERT_TRUE(a.ok) << "seed=" << opt.seed << " cycle=" << a.cycles_run
                    << ": " << a.error;
  EXPECT_EQ(a.failovers, 4);  // kinds 0 and 1, two rounds each
  EXPECT_EQ(a.rejoins, 4);
  EXPECT_GE(a.partitions, 6);
  EXPECT_GT(a.ha_fenced_rejects, 0u);
  EXPECT_EQ(a.ha_lost_entries, 0u) << "sync acks must never lose";

  check::NemesisResult b = check::RunNemesis(opt);
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(a.trace, b.trace) << "nondeterministic partition schedule";
}

TEST(HaNemesisTest, PartitionTraceHeaderRoundTrips) {
  check::NemesisOptions opt;
  opt.seed = 7;
  opt.cycles = 2;
  opt.ops_per_cycle = 40;
  opt.key_space = 100;
  opt.ha = true;
  opt.net_partition = true;
  opt.repl_ack = 0;
  opt.trace_dump_dir = ::testing::TempDir() + "ha_partition_trace_dump";
  opt.corrupt_model_at_cycle = 1;  // force a divergence so the trace dumps
  check::NemesisResult r = check::RunNemesis(opt);
  ASSERT_FALSE(r.ok);
  ASSERT_FALSE(r.trace_path.empty());
  check::NemesisOptions parsed;
  ASSERT_TRUE(check::ParseNemesisTrace(r.trace_path, &parsed).ok());
  EXPECT_TRUE(parsed.ha);
  EXPECT_TRUE(parsed.net_partition);
  EXPECT_EQ(parsed.seed, 7u);
  EXPECT_EQ(parsed.cycles, 2);
  EXPECT_EQ(parsed.ops_per_cycle, 40);
  EXPECT_EQ(parsed.key_space, 100u);
  EXPECT_EQ(parsed.repl_ack, 0);
  EXPECT_EQ(parsed.corrupt_model_at_cycle, 1);
}

TEST(HaNemesisTest, TraceHeaderRoundTripsHaFields) {
  check::NemesisOptions opt;
  opt.seed = 7;
  opt.cycles = 2;
  opt.ha = true;
  opt.repl_ack = 1;
  opt.trace_dump_dir = ::testing::TempDir() + "ha_trace_dump";
  opt.corrupt_model_at_cycle = 1;  // force a divergence so the trace dumps
  check::NemesisResult r = check::RunNemesis(opt);
  ASSERT_FALSE(r.ok);
  ASSERT_FALSE(r.trace_path.empty());
  check::NemesisOptions parsed;
  ASSERT_TRUE(check::ParseNemesisTrace(r.trace_path, &parsed).ok());
  EXPECT_TRUE(parsed.ha);
  EXPECT_EQ(parsed.repl_ack, 1);
  EXPECT_EQ(parsed.seed, 7u);
}
}  // namespace
}  // namespace kvaccel
