// Property-based sweeps (parameterized gtest): each suite checks an
// invariant across a grid of configurations, with randomized-but-seeded
// operation streams.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"
#include "devlsm/dev_lsm.h"
#include "lsm/db.h"
#include "lsm/skiplist.h"
#include "ssd/ftl.h"
#include "tests/test_util.h"

namespace kvaccel {
namespace {

using lsm::DB;
using lsm::DbOptions;
using test::DevPut;
using test::SimWorld;
using test::TestKey;

// ---------- DB vs std::map model check ----------
// Grid: (value_size, compaction_threads, slowdown on/off)
using DbModelParam = std::tuple<int, int, bool>;

class DbModelCheck : public ::testing::TestWithParam<DbModelParam> {};

TEST_P(DbModelCheck, RandomOpsMatchReferenceModel) {
  auto [value_size, threads, slowdown] = GetParam();
  SimWorld world;
  world.Run([&, value_size = value_size, threads = threads,
             slowdown = slowdown] {
    DbOptions opts = test::SmallDbOptions();
    opts.compaction_threads = threads;
    opts.enable_slowdown = slowdown;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, world.MakeDbEnv(), &db).ok());

    std::map<std::string, uint64_t> model;  // key -> seed (absent = deleted)
    Random64 rng(1000 + value_size + threads * 7 + (slowdown ? 1 : 0));
    uint64_t seed_counter = 1;
    const uint64_t kKeys = 300;

    for (int op = 0; op < 2500; op++) {
      std::string key = TestKey(rng.Uniform(kKeys));
      uint64_t dice = rng.Uniform(10);
      if (dice < 7) {  // put
        uint64_t seed = seed_counter++;
        ASSERT_TRUE(db->Put({}, key,
                            Value::Synthetic(seed, value_size)).ok());
        model[key] = seed;
      } else if (dice < 9) {  // delete
        ASSERT_TRUE(db->Delete({}, key).ok());
        model.erase(key);
      } else {  // point read, checked against the model
        Value v;
        Status s = db->Get({}, key, &v);
        auto it = model.find(key);
        if (it == model.end()) {
          EXPECT_TRUE(s.IsNotFound()) << key << " op " << op;
        } else {
          ASSERT_TRUE(s.ok()) << key << " op " << op;
          EXPECT_EQ(v.seed(), it->second) << key << " op " << op;
        }
      }
    }
    ASSERT_TRUE(db->FlushAll().ok());
    ASSERT_TRUE(db->WaitForCompactionIdle().ok());

    // Full-scan equivalence: the iterator shows exactly the model's state.
    auto it = db->NewIterator({});
    auto mit = model.begin();
    for (it->SeekToFirst(); it->Valid(); it->Next(), ++mit) {
      ASSERT_NE(mit, model.end());
      EXPECT_EQ(it->key().ToString(), mit->first);
      EXPECT_EQ(Value::DecodeOrDie(it->value()).seed(), mit->second);
    }
    EXPECT_EQ(mit, model.end());
    ASSERT_TRUE(db->Close().ok());
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DbModelCheck,
    ::testing::Combine(::testing::Values(16, 1024, 4096),
                       ::testing::Values(1, 4),
                       ::testing::Values(false, true)));

// ---------- FTL invariants under random traffic ----------
using FtlParam = std::tuple<int, double>;  // pages_per_block, overprovision

class FtlProperty : public ::testing::TestWithParam<FtlParam> {};

TEST_P(FtlProperty, InvariantsHoldUnderRandomWriteTrim) {
  auto [ppb, op] = GetParam();
  ssd::Ftl::Options options;
  options.logical_pages = 2048;
  options.pages_per_block = ppb;
  options.overprovision = op;
  ssd::Ftl ftl(options, nullptr);

  Random64 rng(42 + ppb);
  std::set<uint64_t> mapped;
  for (int i = 0; i < 4000; i++) {
    uint64_t lpn = rng.Uniform(options.logical_pages - 8);
    uint64_t count = 1 + rng.Uniform(8);
    if (rng.OneIn(4)) {
      ASSERT_TRUE(ftl.Trim(lpn, count).ok());
      for (uint64_t p = lpn; p < lpn + count; p++) mapped.erase(p);
    } else {
      ASSERT_TRUE(ftl.Write(lpn, count).ok());
      for (uint64_t p = lpn; p < lpn + count; p++) mapped.insert(p);
    }
    ASSERT_EQ(ftl.valid_pages(), mapped.size()) << "op " << i;
  }
  for (uint64_t p = 0; p < options.logical_pages; p++) {
    EXPECT_EQ(ftl.IsMapped(p), mapped.count(p) > 0) << p;
  }
  EXPECT_GE(ftl.write_amplification(), 1.0);
  // GC must have run under this churn unless overprovisioning is huge.
  if (op < 0.3) EXPECT_GT(ftl.gc_runs(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FtlProperty,
    ::testing::Combine(::testing::Values(8, 32, 128),
                       ::testing::Values(0.07, 0.25)));

// ---------- SkipList vs std::set ----------
class SkipListProperty : public ::testing::TestWithParam<uint64_t> {};

struct U64Cmp {
  int operator()(const uint64_t& a, const uint64_t& b) const {
    return a < b ? -1 : (a > b ? 1 : 0);
  }
};

TEST_P(SkipListProperty, MatchesStdSet) {
  Arena arena;
  lsm::SkipList<uint64_t, U64Cmp> list(U64Cmp(), &arena);
  std::set<uint64_t> model;
  Random64 rng(GetParam());
  for (int i = 0; i < 3000; i++) {
    uint64_t k = rng.Uniform(10000);
    if (model.insert(k).second) list.Insert(k);
  }
  // Containment.
  for (int i = 0; i < 1000; i++) {
    uint64_t k = rng.Uniform(10000);
    EXPECT_EQ(list.Contains(k), model.count(k) > 0);
  }
  // Seek == lower_bound.
  for (int i = 0; i < 500; i++) {
    uint64_t k = rng.Uniform(10000);
    lsm::SkipList<uint64_t, U64Cmp>::Iterator it(&list);
    it.Seek(k);
    auto mit = model.lower_bound(k);
    if (mit == model.end()) {
      EXPECT_FALSE(it.Valid());
    } else {
      ASSERT_TRUE(it.Valid());
      EXPECT_EQ(it.key(), *mit);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkipListProperty,
                         ::testing::Values(1, 7, 1234, 999983));

// ---------- Simulation determinism ----------
class SimDeterminism : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimDeterminism, IdenticalRunsProduceIdenticalTraces) {
  auto run_once = [seed = GetParam()] {
    sim::SimEnv env;
    sim::CpuPool cpu(&env, "cpu", 2);
    sim::RateResource link(&env, "link", MBps(100));
    sim::SimMutex mu;
    std::vector<std::pair<int, Nanos>> trace;
    for (int t = 0; t < 4; t++) {
      env.Spawn("actor" + std::to_string(t), [&, t] {
        Random64 rng(seed * 17 + t);
        for (int i = 0; i < 50; i++) {
          switch (rng.Uniform(3)) {
            case 0:
              cpu.Consume(static_cast<double>(1000 + rng.Uniform(50000)));
              break;
            case 1:
              link.Transfer(512 + rng.Uniform(65536));
              break;
            case 2: {
              sim::SimLockGuard g(mu);
              env.SleepFor(rng.Uniform(20000));
              break;
            }
          }
          trace.emplace_back(t, env.Now());
        }
      });
    }
    env.Run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimDeterminism, ::testing::Values(3, 11, 29));

// ---------- Histogram percentile monotonicity ----------
class HistogramProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistogramProperty, PercentilesMonotoneAndBounded) {
  Histogram h;
  Random64 rng(GetParam());
  for (int i = 0; i < 5000; i++) h.Add(rng.Skewed(30));
  double prev = 0;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0}) {
    double v = h.Percentile(p);
    EXPECT_GE(v, prev) << "p=" << p;
    EXPECT_LE(v, static_cast<double>(h.Max()) + 1) << "p=" << p;
    prev = v;
  }
  EXPECT_GE(h.Percentile(1), static_cast<double>(h.Min()) * 0.5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramProperty,
                         ::testing::Values(5, 77, 424242));

// ---------- Dev-LSM snapshot-bounded reset ----------
TEST(DevLsmResetUpToTest, SurvivorsOutliveBoundedReset) {
  SimWorld world;
  world.Run([&] {
    devlsm::DevLsmOptions opts;
    opts.memtable_bytes = 64 << 10;  // force flushes into runs
    devlsm::DevLsm dev(world.ssd.get(), 0, opts);
    for (int i = 0; i < 50; i++) {
      ASSERT_TRUE(
          DevPut(&dev, TestKey(i), Value::Synthetic(i, 4096), 100 + i).ok());
    }
    uint64_t snapshot = dev.LastSeq();
    // Writes after the snapshot must survive the bounded reset.
    for (int i = 50; i < 60; i++) {
      ASSERT_TRUE(
          DevPut(&dev, TestKey(i), Value::Synthetic(i, 4096), 100 + i).ok());
    }
    ASSERT_TRUE(dev.ResetUpTo(snapshot).ok());
    Value v;
    for (int i = 0; i < 50; i++) {
      EXPECT_TRUE(dev.Get(TestKey(i), &v).IsNotFound()) << i;
    }
    for (int i = 50; i < 60; i++) {
      ASSERT_TRUE(dev.Get(TestKey(i), &v).ok()) << i;
      EXPECT_EQ(v.seed(), static_cast<uint64_t>(i));
    }
    // Full reset clears the survivors too.
    ASSERT_TRUE(dev.Reset().ok());
    EXPECT_TRUE(dev.Empty());
  });
}

TEST(DevLsmResetUpToTest, OverwrittenSurvivorKeepsNewestOnly) {
  SimWorld world;
  world.Run([&] {
    devlsm::DevLsmOptions opts;
    opts.memtable_bytes = 32 << 10;
    devlsm::DevLsm dev(world.ssd.get(), 0, opts);
    ASSERT_TRUE(DevPut(&dev, "k", Value::Synthetic(1, 4096), 10).ok());
    uint64_t snapshot = dev.LastSeq();
    ASSERT_TRUE(DevPut(&dev, "k", Value::Synthetic(2, 4096), 20).ok());
    ASSERT_TRUE(dev.ResetUpTo(snapshot).ok());
    Value v;
    ASSERT_TRUE(dev.Get("k", &v).ok());
    EXPECT_EQ(v.seed(), 2u);
  });
}

}  // namespace
}  // namespace kvaccel
