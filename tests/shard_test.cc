// Shard router invariants (DESIGN.md §11): key routing, cross-shard iterator
// order, per-shard crash recovery, the fleet stats roll-up, fair-share
// arbiter behavior, and the determinism + fairness acceptance gates for the
// sharded engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "check/nemesis.h"
#include "core/sharded_kvaccel_db.h"
#include "harness/report_json.h"
#include "harness/workload.h"
#include "ndp/ndp_device.h"
#include "obs/metrics.h"
#include "sim/arbiter.h"
#include "tests/test_util.h"

namespace kvaccel {
namespace {

using test::TestKey;

// Like test::SimWorld but with one SSD namespace per shard and no world-level
// file system (each shard's SimFs owns its namespace's LBA space).
struct ShardWorld {
  sim::SimEnv env;
  std::unique_ptr<ssd::HybridSsd> ssd;
  std::unique_ptr<sim::CpuPool> host_cpu;

  explicit ShardWorld(int shards) {
    ssd::SsdConfig c;
    c.capacity_bytes = 2ull << 30;
    c.num_namespaces = shards;
    ssd = std::make_unique<ssd::HybridSsd>(&env, c);
    host_cpu = std::make_unique<sim::CpuPool>(&env, "host", 8);
  }

  core::ShardEnv MakeShardEnv() {
    return core::ShardEnv{&env, ssd.get(), host_cpu.get()};
  }

  void Run(std::function<void()> body) {
    env.Spawn("test-main", std::move(body));
    env.Run();
  }
};

core::KvaccelOptions SmallKvOptions() {
  core::KvaccelOptions o;
  o.dev.memtable_bytes = 128 << 10;
  o.dev.dma_chunk = 64 << 10;
  o.rollback = core::RollbackScheme::kDisabled;
  return o;
}

Status OpenSharded(ShardWorld* world, int n, core::ShardPartition partition,
                   std::unique_ptr<core::ShardedKvaccelDB>* db) {
  core::ShardingOptions sharding;
  sharding.num_shards = n;
  sharding.partition = partition;
  return core::ShardedKvaccelDB::Open(test::SmallDbOptions(), SmallKvOptions(),
                                      sharding, world->MakeShardEnv(), db);
}

// Smallest 64-bit range point owned by shard i under the multiply-shift
// split: the first v with (v * n) >> 64 == i.
uint64_t ShardLowerBound(int i, int n) {
  unsigned __int128 num =
      (static_cast<unsigned __int128>(i) << 64) + static_cast<unsigned>(n) - 1;
  return static_cast<uint64_t>(num / static_cast<unsigned>(n));
}

// 8-byte big-endian key encoding exactly the range point v.
std::string RangeKey(uint64_t v) {
  std::string k(8, '\0');
  for (int b = 0; b < 8; b++) {
    k[b] = static_cast<char>((v >> (56 - 8 * b)) & 0xff);
  }
  return k;
}

// Every key routed through the hash partition lands in exactly one shard:
// readable from the shard ShardOf names, NotFound in every other shard.
TEST(ShardRoutingTest, HashKeyLandsInExactlyOneShard) {
  ShardWorld world(4);
  world.Run([&] {
    std::unique_ptr<core::ShardedKvaccelDB> db;
    ASSERT_TRUE(OpenSharded(&world, 4, core::ShardPartition::kHash, &db).ok());
    for (int i = 0; i < 200; i++) {
      ASSERT_TRUE(
          db->Put({}, TestKey(i), Value::Synthetic(i, 512)).ok());
    }
    bool all_shards_hit[4] = {false, false, false, false};
    for (int i = 0; i < 200; i++) {
      std::string key = TestKey(i);
      int owner = db->ShardOf(key);
      ASSERT_GE(owner, 0);
      ASSERT_LT(owner, 4);
      all_shards_hit[owner] = true;
      for (int s = 0; s < 4; s++) {
        Value v;
        Status gs = db->shard(s)->Get({}, key, &v);
        if (s == owner) {
          ASSERT_TRUE(gs.ok()) << "key " << i << " missing from its shard";
          EXPECT_EQ(v.seed(), static_cast<uint64_t>(i));
        } else {
          EXPECT_TRUE(gs.IsNotFound())
              << "key " << i << " leaked into shard " << s;
        }
      }
    }
    for (int s = 0; s < 4; s++) {
      EXPECT_TRUE(all_shards_hit[s]) << "hash left shard " << s << " empty";
    }
    ASSERT_TRUE(db->Close().ok());
  });
}

// Range partition: ShardOf is monotone in key order, and the exact boundary
// keys of each slice belong to exactly one shard (the upper one).
TEST(ShardRoutingTest, RangeBoundaryKeysBelongToExactlyOneShard) {
  const int n = 4;
  ShardWorld world(n);
  world.Run([&] {
    std::unique_ptr<core::ShardedKvaccelDB> db;
    ASSERT_TRUE(
        OpenSharded(&world, n, core::ShardPartition::kRange, &db).ok());

    for (int i = 1; i < n; i++) {
      uint64_t lo = ShardLowerBound(i, n);
      EXPECT_EQ(db->ShardOf(RangeKey(lo)), i) << "boundary of shard " << i;
      EXPECT_EQ(db->ShardOf(RangeKey(lo - 1)), i - 1)
          << "predecessor of shard " << i << "'s boundary";
    }
    EXPECT_EQ(db->ShardOf(RangeKey(0)), 0);
    EXPECT_EQ(db->ShardOf(RangeKey(~0ull)), n - 1);

    // Physically store boundary±1 keys; each must be readable from its own
    // shard only.
    std::vector<std::string> keys;
    keys.push_back(RangeKey(0));
    for (int i = 1; i < n; i++) {
      uint64_t lo = ShardLowerBound(i, n);
      keys.push_back(RangeKey(lo - 1));
      keys.push_back(RangeKey(lo));
    }
    keys.push_back(RangeKey(~0ull));
    int prev_owner = 0;
    for (size_t k = 0; k < keys.size(); k++) {
      ASSERT_TRUE(db->Put({}, keys[k], Value::Synthetic(k, 256)).ok());
      int owner = db->ShardOf(keys[k]);
      EXPECT_GE(owner, prev_owner) << "range routing not monotone";
      prev_owner = owner;
      int holders = 0;
      for (int s = 0; s < n; s++) {
        Value v;
        if (db->shard(s)->Get({}, keys[k], &v).ok()) {
          holders++;
          EXPECT_EQ(s, owner);
        }
      }
      EXPECT_EQ(holders, 1) << "boundary key held by " << holders << " shards";
    }
    ASSERT_TRUE(db->Close().ok());
  });
}

// Cross-shard NewIterator: the K-way merge walks the union of all shards in
// strict global key order, with deletes honored — checked against a model
// map (hash partition, so adjacent keys interleave across shards).
TEST(ShardRoutingTest, CrossShardIteratorMatchesGlobalKeyOrder) {
  ShardWorld world(4);
  world.Run([&] {
    std::unique_ptr<core::ShardedKvaccelDB> db;
    ASSERT_TRUE(OpenSharded(&world, 4, core::ShardPartition::kHash, &db).ok());
    std::map<std::string, uint64_t> model;
    for (int i = 0; i < 300; i++) {
      std::string key = TestKey(i);
      ASSERT_TRUE(db->Put({}, key, Value::Synthetic(i, 512)).ok());
      model[key] = static_cast<uint64_t>(i);
    }
    for (int i = 0; i < 300; i += 7) {
      std::string key = TestKey(i);
      ASSERT_TRUE(db->Delete({}, key).ok());
      model.erase(key);
    }

    auto it = db->NewIterator({});
    it->SeekToFirst();
    auto mit = model.begin();
    while (mit != model.end()) {
      ASSERT_TRUE(it->Valid()) << "iterator ended before " << mit->first;
      EXPECT_EQ(it->key().ToString(), mit->first);
      EXPECT_EQ(Value::DecodeOrDie(it->value()).seed(), mit->second);
      it->Next();
      ++mit;
    }
    EXPECT_FALSE(it->Valid()) << "iterator has keys past the model";
    ASSERT_TRUE(it->status().ok());

    // Seek lands on the global lower bound regardless of owning shard.
    std::string mid = TestKey(151);
    it->Seek(mid);
    auto lb = model.lower_bound(mid);
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key().ToString(), lb->first);
    ASSERT_TRUE(db->Close().ok());
  });
}

// §VI-D recovery across the fleet: after sustained redirect pressure, losing
// every shard's volatile metadata and recovering drains every shard's device
// namespace and preserves every acked write.
TEST(ShardRecoveryTest, CrashMetadataAndRecoverRecoversEveryShard) {
  const int n = 4;
  ShardWorld world(n);
  world.Run([&] {
    // Aggressive Main-LSM shape so every shard sees stall pressure (and
    // therefore redirects) within a few thousand writes.
    lsm::DbOptions main_opts = test::SmallDbOptions();
    main_opts.write_buffer_size = 64 << 10;
    main_opts.l0_compaction_trigger = 4;
    main_opts.l0_slowdown_writes_trigger = 4;
    main_opts.l0_stop_writes_trigger = 5;
    main_opts.compaction_threads = 1;
    core::KvaccelOptions kv_opts = SmallKvOptions();
    kv_opts.detector_period = FromMillis(1);
    core::ShardingOptions sharding;
    sharding.num_shards = n;
    std::unique_ptr<core::ShardedKvaccelDB> db;
    ASSERT_TRUE(core::ShardedKvaccelDB::Open(main_opts, kv_opts, sharding,
                                             world.MakeShardEnv(), &db)
                    .ok());

    for (int i = 0; i < 4000; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(i % 500),
                          Value::Synthetic(static_cast<uint64_t>(i), 4096))
                      .ok());
    }
    ASSERT_GT(db->AggregateKvStats().redirected_writes, 0u)
        << "pressure never redirected; recovery would be vacuous";

    ASSERT_TRUE(db->WaitForCompactionIdle().ok());
    Nanos recovery = 0;
    ASSERT_TRUE(db->CrashMetadataAndRecover(&recovery).ok());
    EXPECT_GT(recovery, 0);

    for (int s = 0; s < n; s++) {
      EXPECT_TRUE(db->shard(s)->dev()->Empty())
          << "shard " << s << " device not drained";
      EXPECT_EQ(db->shard(s)->metadata()->Size(), 0u)
          << "shard " << s << " metadata survived the crash";
    }
    // Every acked write readable at its newest version, wherever it lived.
    Value v;
    for (int k = 0; k < 500; k++) {
      ASSERT_TRUE(db->Get({}, TestKey(k), &v).ok()) << k;
      EXPECT_EQ(v.seed(), static_cast<uint64_t>(3500 + k)) << k;
    }
    ASSERT_TRUE(db->Close().ok());
  });
}

// The fleet roll-up walks each layer's metric table: for every row of the
// five tables (the Dev-LSM read-cache rows, which are summed but not
// reported, and the NDP rows included) the fleet value is the sum of the
// shards' own stats, and each fleet histogram holds every shard's samples.
TEST(ShardStatsTest, FleetRollupSumsEveryTableRow) {
  const int n = 4;
  ShardWorld world(n);
  ndp::NdpDevice ndp_dev(world.ssd.get());
  world.Run([&] {
    lsm::DbOptions main_opts = test::SmallDbOptions();
    main_opts.write_buffer_size = 64 << 10;
    main_opts.l0_slowdown_writes_trigger = 4;
    main_opts.l0_stop_writes_trigger = 5;
    main_opts.compaction_threads = 1;
    core::KvaccelOptions kv_opts = SmallKvOptions();
    kv_opts.detector_period = FromMillis(1);
    kv_opts.dev.read_cache_bytes = 1 << 20;
    kv_opts.ndp_device = &ndp_dev;
    kv_opts.ndp_mode = ndp::OffloadMode::kForce;
    core::ShardingOptions sharding;
    sharding.num_shards = n;
    std::unique_ptr<core::ShardedKvaccelDB> db;
    ASSERT_TRUE(core::ShardedKvaccelDB::Open(main_opts, kv_opts, sharding,
                                             world.MakeShardEnv(), &db)
                    .ok());
    for (int i = 0; i < 4000; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(i % 500),
                          Value::Synthetic(static_cast<uint64_t>(i), 4096))
                      .ok());
    }
    Value v;
    for (int round = 0; round < 2; round++) {
      for (int k = 0; k < 500; k++) {
        ASSERT_TRUE(db->Get({}, TestKey(k), &v).ok()) << k;
      }
    }

    const lsm::DbStats& main_stats = db->AggregateMainStats();
    EXPECT_GT(db->AggregateKvStats().redirected_writes, 0u);
    EXPECT_GT(main_stats.flush_count, 0u);
    EXPECT_GT(main_stats.compaction_count, 0u);
    EXPECT_GT(db->AggregateStats().reads_total, 0u);
    EXPECT_GT(db->AggregateBlockCacheStats().hits, 0u);
    EXPECT_GT(db->AggregateDevStats().read_cache_hits, 0u);
    EXPECT_GT(db->AggregatePlannerStats().device_jobs, 0u);

    // A counter row's value, or a histogram row's sample count. A struct
    // with no histogram row never dereferences one: its dead branch would
    // read a Histogram past the end of the struct.
    auto value = [](const auto& f, const auto& s) -> uint64_t {
      using S = std::decay_t<decltype(s)>;
      if constexpr (std::ranges::any_of(S::kMetrics, [](const auto& row) {
                      return row.histogram != nullptr;
                    })) {
        if (f.histogram != nullptr) return (s.*f.histogram).Count();
      }
      return s.*f.counter;
    };
    auto expect_rows_sum = [&](const auto& fleet, auto shard_stats) {
      using S = std::decay_t<decltype(fleet)>;
      for (const obs::StatField<S>& f : S::kMetrics) {
        SCOPED_TRACE(f.name != nullptr ? f.name : "unreported row");
        uint64_t sum = 0;
        for (int i = 0; i < n; i++) sum += value(f, shard_stats(db->shard(i)));
        EXPECT_EQ(value(f, fleet), sum);
      }
    };
    using core::KvaccelDB;
    expect_rows_sum(main_stats, [](KvaccelDB* kv) -> const lsm::DbStats& {
      return kv->main()->stats();
    });
    expect_rows_sum(db->AggregateStats(),
                    [](KvaccelDB* kv) -> const lsm::DbStats& {
                      return kv->stats();
                    });
    expect_rows_sum(db->AggregateKvStats(),
                    [](KvaccelDB* kv) { return kv->kv_stats(); });
    expect_rows_sum(db->AggregateBlockCacheStats(), [](KvaccelDB* kv) {
      return kv->main()->GetBlockCacheStats();
    });
    expect_rows_sum(db->AggregateDevStats(),
                    [](KvaccelDB* kv) { return kv->dev()->stats(); });
    expect_rows_sum(db->AggregatePlannerStats(), [](KvaccelDB* kv) {
      return kv->offload_planner()->stats();
    });
    ASSERT_TRUE(db->Close().ok());
  });
}

// SFQ fairness: a heavy client and a light client hammer one arbiter; the
// light client's total queueing must not exceed the heavy one's, and both
// are fully served at the configured rate.
TEST(FairShareArbiterTest, LightClientIsNotStarvedByHeavyClient) {
  sim::SimEnv env;
  sim::FairShareArbiter arb(&env, "test", /*bytes_per_sec=*/100.0 * 1e6,
                            /*burst_bytes=*/64 << 10);
  int heavy = -1;
  int light = -1;
  env.Spawn("setup", [&] {
    // Registration takes the sim mutex, so it runs as a simulated thread too.
    heavy = arb.RegisterClient("heavy");
    light = arb.RegisterClient("light");
    env.Spawn("heavy", [&] {
      for (int i = 0; i < 20; i++) arb.Acquire(heavy, 1 << 20);
    });
    env.Spawn("light", [&] {
      for (int i = 0; i < 20; i++) arb.Acquire(light, 64 << 10);
    });
  });
  env.Run();

  const auto& h = arb.client_stats(heavy);
  const auto& l = arb.client_stats(light);
  EXPECT_EQ(h.grants, 20u);
  EXPECT_EQ(h.granted_bytes, 20ull << 20);
  EXPECT_EQ(l.grants, 20u);
  EXPECT_EQ(l.granted_bytes, 20ull * (64 << 10));
  EXPECT_GT(h.throttles, 0u) << "heavy client never queued";
  EXPECT_LE(l.throttle_ns, h.throttle_ns)
      << "light client queued longer than the 16x heavier one";
}

TEST(FairShareArbiterTest, ZeroRateArbiterIsANoOp) {
  sim::SimEnv env;
  sim::FairShareArbiter arb(&env, "off", /*bytes_per_sec=*/0);
  int c = -1;
  env.Spawn("t", [&] {
    c = arb.RegisterClient("only");
    Nanos start = env.Now();
    EXPECT_EQ(arb.Acquire(c, 1 << 30), 0);
    EXPECT_EQ(env.Now(), start);
  });
  env.Run();
  EXPECT_EQ(arb.client_stats(c).grants, 0u);
}

// Acceptance gate: two identical-seed shards=4 bench runs produce
// byte-identical kvaccel-run-v1 reports, with per-shard rollups populated
// and the fairness ratio within the 2x gate on a uniform workload.
TEST(ShardedBenchTest, SameSeedRunsProduceByteIdenticalReports) {
  harness::BenchConfig c;
  c.scale = 0.03125;
  c.sut.kind = harness::SystemKind::kKvaccel;
  c.sut.shards = 4;
  c.workload.type = harness::WorkloadConfig::Type::kFillRandom;
  c.workload.duration = FromSecs(3);
  c.workload.writer_threads = 4;
  c.workload.batch_size = 4;

  harness::RunResult r1 = harness::RunBenchmark(c);
  harness::RunResult r2 = harness::RunBenchmark(c);
  ASSERT_EQ(r1.shards.size(), 4u);
  for (const harness::ShardSummary& s : r1.shards) {
    EXPECT_GT(s.writes, 0u) << "shard " << s.shard << " saw no writes";
  }
  EXPECT_GE(r1.shard_fairness_ratio, 1.0);
  EXPECT_LE(r1.shard_fairness_ratio, 2.0)
      << "uniform fillrandom should spread within the 2x fairness gate";

  std::string report1 = harness::JsonReportString(c, {r1});
  std::string report2 = harness::JsonReportString(c, {r2});
  EXPECT_EQ(report1, report2);
  EXPECT_NE(report1.find("\"shards\""), std::string::npos);
  EXPECT_NE(report1.find("\"shard_fairness_ratio\""), std::string::npos);
}

// Sharded nemesis: crash-recovery cycles against the router (dual kill
// sites, per-shard rollback draws) keep matching the model oracle.
TEST(ShardedNemesisTest, CrashCyclesMatchOracleAcrossShards) {
  check::NemesisOptions opts;
  opts.seed = 0xC0FFEE;
  opts.cycles = 6;
  opts.ops_per_cycle = 120;
  opts.shards = 3;
  check::NemesisResult r = check::RunNemesis(opts);
  EXPECT_TRUE(r.ok) << r.error << "\n" << r.trace;
  EXPECT_EQ(r.cycles_run, 6);
  EXPECT_NE(r.trace.find("shards=3"), std::string::npos);
}

// Satellite: DeregisterClient releases a slot on shard/node close and the
// next registration reuses it with a clean start tag and fresh stats, so a
// departed client can't distort fairness for its successor.
TEST(FairShareArbiterTest, DeregisterRecyclesSlotWithFreshState) {
  sim::SimEnv env;
  sim::FairShareArbiter arb(&env, "dev-bw", /*bytes_per_sec=*/100e6);
  // The arbiter's mutex is a SimMutex, so every call runs on a sim thread
  // (exactly how ShardedKvaccelDB registers/deregisters its shards).
  env.Spawn("test-main", [&] {
    int a = arb.RegisterClient("shard-a");
    int b = arb.RegisterClient("shard-b");
    ASSERT_EQ(a, 0);
    ASSERT_EQ(b, 1);
    for (int i = 0; i < 4; i++) arb.Acquire(a, 4 << 20);
    EXPECT_EQ(arb.client_stats(a).grants, 4u);
    EXPECT_GT(arb.client_stats(a).granted_bytes, 0u);

    arb.DeregisterClient(a);
    arb.DeregisterClient(a);  // double-release is a no-op
    int c = arb.RegisterClient("promoted-node");
    EXPECT_EQ(c, a) << "freed slot must be recycled";
    EXPECT_EQ(arb.client_stats(c).name, "promoted-node");
    EXPECT_EQ(arb.client_stats(c).grants, 0u) << "stats must reset on reuse";
    EXPECT_EQ(arb.client_stats(c).granted_bytes, 0u);
    // With the free list drained, registration grows a brand-new slot.
    EXPECT_EQ(arb.RegisterClient("shard-d"), 2);
    // Slot b was untouched throughout.
    EXPECT_EQ(arb.client_stats(b).name, "shard-b");
  });
  env.Run();
}

}  // namespace
}  // namespace kvaccel
