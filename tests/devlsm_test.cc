#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "devlsm/dev_lsm.h"
#include "sim/fault.h"
#include "tests/test_util.h"

namespace kvaccel::devlsm {

// Reads the runs behind DevLsm's interface.
class DevLsmTestPeer {
 public:
  // Keys that their own run's filter excludes, plus runs whose filter is
  // degenerate (it could exclude nothing): 0 when every run carries a
  // filter over its keys.
  static uint64_t FilterFaults(const DevLsm& dev) {
    const BloomFilter bloom(kBloomBitsPerKey);
    uint64_t faults = 0;
    for (const DevLsm::Run& run : dev.runs_) {
      if (run.filter.size() < 2) faults++;
      for (size_t i = 0; i < run.size(); i++) {
        if (!bloom.KeyMayMatch(BloomFilter::HashKey(run.key(i)), run.filter)) {
          faults++;
        }
      }
    }
    return faults;
  }

  // Runs whose filter lets `key` through although they do not hold it.
  static uint64_t FalseMatches(const DevLsm& dev, const std::string& key) {
    const BloomFilter bloom(kBloomBitsPerKey);
    uint64_t n = 0;
    for (const DevLsm::Run& run : dev.runs_) {
      const size_t i = run.LowerBound(key);
      const bool holds = i < run.size() && run.key(i) == key;
      if (!holds && bloom.KeyMayMatch(BloomFilter::HashKey(key), run.filter)) {
        n++;
      }
    }
    return n;
  }
};

namespace {

using test::DevPut;
using test::DevDelete;
using test::SimWorld;
using test::TestKey;

DevLsmOptions SmallDevOptions() {
  DevLsmOptions o;
  o.memtable_bytes = 128 << 10;  // flush quickly in tests
  o.dma_chunk = 64 << 10;
  return o;
}

// Sleeps until the background merge has installed or been discarded. The
// first sleep lets a task that a flush just woke pick its group.
void AwaitMerge(SimWorld* world, const DevLsm& dev) {
  do {
    world->env.SleepFor(FromMicros(100));
  } while (dev.merge_in_flight());
}

TEST(DevLsmTest, PutGetDelete) {
  SimWorld world;
  world.Run([&] {
    DevLsm dev(world.ssd.get(), 0, SmallDevOptions());
    ASSERT_TRUE(DevPut(&dev, "k1", Value::Inline("v1")).ok());
    ASSERT_TRUE(DevPut(&dev, "k2", Value::Synthetic(7, 4096)).ok());
    Value v;
    ASSERT_TRUE(dev.Get("k1", &v).ok());
    EXPECT_EQ(v.Materialize(), "v1");
    ASSERT_TRUE(dev.Get("k2", &v).ok());
    EXPECT_EQ(v.logical_size(), 4096u);
    EXPECT_TRUE(dev.Get("absent", &v).IsNotFound());
    ASSERT_TRUE(DevDelete(&dev, "k1").ok());
    EXPECT_TRUE(dev.Get("k1", &v).IsNotFound());
    EXPECT_TRUE(dev.Get("k2", &v).ok());
  });
}

TEST(DevLsmTest, OverwriteKeepsNewest) {
  SimWorld world;
  world.Run([&] {
    DevLsm dev(world.ssd.get(), 0, SmallDevOptions());
    for (int i = 0; i < 5; i++) {
      ASSERT_TRUE(DevPut(&dev, "k", Value::Synthetic(i, 100)).ok());
    }
    Value v;
    ASSERT_TRUE(dev.Get("k", &v).ok());
    EXPECT_EQ(v.seed(), 4u);
  });
}

TEST(DevLsmTest, FlushSpillsToNandAndSurvivesInRuns) {
  SimWorld world;
  world.Run([&] {
    DevLsm dev(world.ssd.get(), 0, SmallDevOptions());
    uint64_t nand_before = world.ssd->nand().bytes_written();
    // 128 KiB threshold: 40 x 4 KiB values forces at least one flush.
    for (int i = 0; i < 40; i++) {
      ASSERT_TRUE(DevPut(&dev, TestKey(i), Value::Synthetic(i, 4096)).ok());
    }
    EXPECT_GE(dev.stats().flushes, 1u);
    EXPECT_GT(world.ssd->nand().bytes_written(), nand_before);
    EXPECT_GT(dev.used_pages(), 0u);
    // Keys in flushed runs are still readable (with a device page read).
    Value v;
    ASSERT_TRUE(dev.Get(TestKey(0), &v).ok());
    EXPECT_EQ(v.seed(), 0u);
  });
}

TEST(DevLsmTest, RunCompactionMergesAndReclaims) {
  SimWorld world;
  world.Run([&] {
    DevLsmOptions opts = SmallDevOptions();
    opts.compaction_enabled = true;
    opts.l0_run_trigger = 3;
    DevLsm dev(world.ssd.get(), 0, opts);
    // Overwrite the same small key set across many flush generations.
    for (int round = 0; round < 8; round++) {
      for (int i = 0; i < 40; i++) {
        ASSERT_TRUE(DevPut(&dev, TestKey(i),
                           Value::Synthetic(round * 100 + i, 4096))
                        .ok());
      }
    }
    EXPECT_GT(dev.stats().compactions, 0u);
    Value v;
    ASSERT_TRUE(dev.Get(TestKey(5), &v).ok());
    EXPECT_EQ(v.seed(), 705u);  // round 7
  });
}

// Distinct keys and no reset, with compaction on and a merge fan-in of
// four. A size-tiered merge reads each pair back once per class it climbs,
// and after every flush each class holds at most l0_run_trigger runs, so
// merge reads stay within the flushed bytes times the classes merges
// reached, and live runs within (l0_run_trigger + 1) per class, class 0
// included. A policy that merges every run into one rereads the whole
// store on each merge and breaks the first bound. The runs' filters let a
// Get of a key only the oldest run holds read that run's page and the page
// of each newer run whose filter falsely matches, and about 1% of the runs'
// pages for absent keys.
TEST(DevLsmTest, TieredMergesRewriteEachPairOncePerClass) {
  SimWorld world;
  world.Run([&] {
    DevLsmOptions opts = SmallDevOptions();
    opts.compaction_enabled = true;
    opts.l0_run_trigger = 3;
    DevLsm dev(world.ssd.get(), 0, opts);
    for (int i = 0; i < 3000; i++) {
      ASSERT_TRUE(DevPut(&dev, TestKey(i), Value::Synthetic(i, 4096)).ok());
    }
    // The NAND counters below must see the Gets alone.
    AwaitMerge(&world, dev);
    // Every byte written is still live, so this is the flushed bytes plus
    // the memtable's, which only loosens the bound.
    const uint64_t flushed = dev.LogicalBytes();
    const uint64_t fan_in = opts.l0_run_trigger + 1;
    // Class k first forms on flush fan_in^k.
    uint64_t merged_classes = 0;
    for (uint64_t f = fan_in; f <= dev.stats().flushes; f *= fan_in) {
      merged_classes++;
    }
    ASSERT_GE(merged_classes, 2u) << "too few flushes to climb two classes";
    EXPECT_GT(dev.stats().compaction_bytes_read, 0u);
    EXPECT_LE(dev.stats().compaction_bytes_read, flushed * merged_classes);
    EXPECT_LE(dev.stats().compaction_bytes_written,
              dev.stats().compaction_bytes_read);

    const uint64_t runs = dev.num_runs();
    EXPECT_GT(runs, 1u);
    EXPECT_LE(runs, fan_in * (merged_classes + 1));

    // The first key is held only by the oldest run: the Get reads its page
    // and one more for each newer run whose filter falsely lets it through.
    const uint64_t page = world.ssd->config().page_size;
    uint64_t read_before = world.ssd->nand().bytes_read();
    Value v;
    ASSERT_TRUE(dev.Get(TestKey(0), &v).ok());
    EXPECT_EQ(v.seed(), 0u);
    EXPECT_EQ(world.ssd->nand().bytes_read() - read_before,
              (1 + DevLsmTestPeer::FalseMatches(dev, TestKey(0))) * page);

    // Every absent key visits each run: skipped by its filter or read.
    const DevLsmStats before = dev.stats();
    read_before = world.ssd->nand().bytes_read();
    const uint64_t kAbsent = 1000;
    for (uint64_t i = 0; i < kAbsent; i++) {
      EXPECT_TRUE(dev.Get("absent" + std::to_string(i), &v).IsNotFound());
    }
    const uint64_t probes =
        dev.stats().get_nand_probes - before.get_nand_probes;
    EXPECT_EQ(probes + dev.stats().get_filter_skips - before.get_filter_skips,
              runs * kAbsent);
    EXPECT_EQ(world.ssd->nand().bytes_read() - read_before, probes * page);
    EXPECT_LE(probes, runs * kAbsent * 3 / 100);
  });
}

TEST(DevLsmTest, BulkScanStreamsSortedNewestOnly) {
  SimWorld world;
  world.Run([&] {
    DevLsm dev(world.ssd.get(), 0, SmallDevOptions());
    for (int i = 50; i > 0; i--) {
      ASSERT_TRUE(DevPut(&dev, TestKey(i), Value::Synthetic(i, 4096)).ok());
    }
    ASSERT_TRUE(DevPut(&dev, TestKey(25), Value::Synthetic(999, 4096)).ok());
    ASSERT_TRUE(DevDelete(&dev, TestKey(10)).ok());

    std::vector<std::string> keys;
    int tombstones = 0;
    uint64_t seed25 = 0;
    ASSERT_TRUE(dev.BulkScan([&](const VersionedEntry& e) {
                    keys.push_back(e.key);
                    if (e.tombstone) tombstones++;
                    if (e.key == TestKey(25)) seed25 = e.value.seed();
                  })
                    .ok());
    EXPECT_EQ(keys.size(), 50u);
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    EXPECT_EQ(tombstones, 1);  // the deleted key streams as a tombstone
    EXPECT_EQ(seed25, 999u);   // newest version only
    EXPECT_GT(dev.stats().scan_chunks, 1u);  // multiple 64 KiB DMA chunks
  });
}

TEST(DevLsmTest, ResetFreesEverything) {
  SimWorld world;
  world.Run([&] {
    DevLsm dev(world.ssd.get(), 0, SmallDevOptions());
    for (int i = 0; i < 60; i++) {
      ASSERT_TRUE(DevPut(&dev, TestKey(i), Value::Synthetic(i, 4096)).ok());
    }
    EXPECT_FALSE(dev.Empty());
    EXPECT_GT(dev.used_pages(), 0u);
    ASSERT_TRUE(dev.Reset().ok());
    EXPECT_TRUE(dev.Empty());
    EXPECT_EQ(dev.used_pages(), 0u);
    Value v;
    EXPECT_TRUE(dev.Get(TestKey(1), &v).IsNotFound());
    // Usable again after reset.
    ASSERT_TRUE(DevPut(&dev, "fresh", Value::Inline("x")).ok());
    ASSERT_TRUE(dev.Get("fresh", &v).ok());
  });
}

// Each 4 KiB pair is one NAND page. The first batch after a Seek holds two
// pages' worth of pairs, each refill twice the last, up to the 64 KiB
// dma_chunk (16 pairs), and a new Seek starts the ramp again.
TEST(DevLsmTest, IteratorBatchedSeekNext) {
  SimWorld world;
  world.Run([&] {
    DevLsm dev(world.ssd.get(), 0, SmallDevOptions());
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(DevPut(&dev, TestKey(i), Value::Synthetic(i, 4096)).ok());
    }
    auto it = dev.NewIterator();
    // The pages each batch read, taken off iter_pages as the cursor moves.
    std::vector<uint64_t> batches;
    uint64_t seen = dev.stats().iter_pages;
    auto note = [&] {
      if (dev.stats().iter_pages == seen) return;
      batches.push_back(dev.stats().iter_pages - seen);
      seen = dev.stats().iter_pages;
    };

    const uint64_t before = seen;
    it->Seek(TestKey(30));
    note();
    uint64_t count = 0;
    for (; it->Valid(); it->Next(), note()) {
      EXPECT_EQ(it->key(), TestKey(30 + count));
      // The Seek and `count` Nexts so far read at most 2 * count + 2 pages.
      EXPECT_LE(seen - before, 2 * count + 2) << it->key();
      count++;
    }
    EXPECT_EQ(count, 70u);
    EXPECT_EQ(batches, (std::vector<uint64_t>{2, 4, 8, 16, 16, 16, 8}));
    EXPECT_EQ(dev.stats().iter_batches, batches.size());

    batches.clear();
    it->SeekToFirst();
    note();
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key(), TestKey(0));
    for (int i = 0; i < 6; i++) {
      it->Next();
      note();
    }
    it->Seek(TestKey(90));
    note();
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key(), TestKey(90));
    EXPECT_EQ(batches, (std::vector<uint64_t>{2, 4, 8, 2}));
  });
}

TEST(DevLsmTest, IteratorPaysDevicePerBatch) {
  SimWorld world;
  world.Run([&] {
    DevLsm dev(world.ssd.get(), 0, SmallDevOptions());
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(DevPut(&dev, TestKey(i), Value::Synthetic(i, 4096)).ok());
    }
    uint64_t reads_before = world.ssd->nand().bytes_read();
    auto it = dev.NewIterator();
    it->SeekToFirst();
    while (it->Valid()) it->Next();
    // 100 * ~4 KiB entries at 64 KiB batches -> several uncached NAND reads.
    EXPECT_GT(world.ssd->nand().bytes_read(), reads_before + 300'000);
  });
}

TEST(DevLsmTest, QuotaExhaustionSurfacesNoSpace) {
  ssd::SsdConfig cfg = SimWorld::DefaultSsdConfig();
  cfg.capacity_bytes = 16ull << 20;  // tiny device: 4 MiB KV region
  SimWorld world(cfg);
  world.Run([&] {
    DevLsmOptions opts = SmallDevOptions();
    opts.compaction_enabled = false;
    DevLsm dev(world.ssd.get(), 0, opts);
    Status s;
    for (int i = 0; i < 4000 && s.ok(); i++) {
      s = DevPut(&dev, TestKey(i), Value::Synthetic(i, 4096));
    }
    EXPECT_TRUE(s.IsNoSpace());
  });
}

TEST(DevLsmTest, CommandsRideTheSharedPcieLink) {
  SimWorld world;
  world.Run([&] {
    DevLsm dev(world.ssd.get(), 0, SmallDevOptions());
    uint64_t pcie_before = world.ssd->pcie().total_bytes();
    ASSERT_TRUE(DevPut(&dev, "k", Value::Synthetic(1, 4096)).ok());
    // The put moved ~4 KiB + command overhead over PCIe.
    EXPECT_GE(world.ssd->pcie().total_bytes(), pcie_before + 4096);
    EXPECT_EQ(dev.stats().compound_cmds, 1u);
  });
}

// Runs are made by flushes, size-tiered merges, the NoSpace reclaim and
// ResetUpTo's survivors. On a 4 MiB KV region, distinct keys fill the
// device until a flush fails even after the reclaim merged every run into
// one; a reset then keeps the newer half, and overwrites of the survivors
// flush and merge again. After each phase every key of every run passes its
// own run's filter, and a Get of each live key returns its newest version.
TEST(DevLsmTest, EveryRunCarriesAFilterOverItsKeys) {
  ssd::SsdConfig cfg = SimWorld::DefaultSsdConfig();
  cfg.capacity_bytes = 16ull << 20;
  SimWorld world(cfg);
  world.Run([&] {
    DevLsmOptions opts = SmallDevOptions();
    opts.l0_run_trigger = 3;
    DevLsm dev(world.ssd.get(), 0, opts);
    std::map<std::string, uint64_t> model;  // key -> newest value's seed
    std::map<std::string, uint64_t> dev_seq;
    auto check = [&] {
      EXPECT_GT(dev.num_runs(), 0u);
      EXPECT_EQ(DevLsmTestPeer::FilterFaults(dev), 0u);
      Value v;
      for (const auto& [key, seed] : model) {
        ASSERT_TRUE(dev.Get(key, &v).ok()) << key;
        EXPECT_EQ(v.seed(), seed) << key;
      }
    };

    Status s;
    uint64_t merges = 0;
    for (uint64_t i = 0; s.ok(); i++) {
      ASSERT_LT(i, 2000u) << "the KV region never filled";
      merges = dev.stats().compactions;
      s = DevPut(&dev, TestKey(i), Value::Synthetic(i, 4096));
      // The pair stays in the memtable when its flush fails.
      model[TestKey(i)] = i;
      dev_seq[TestKey(i)] = dev.LastSeq();
    }
    ASSERT_TRUE(s.IsNoSpace()) << s.ToString();
    EXPECT_GE(merges, 2u);                           // tiered merges
    EXPECT_EQ(dev.stats().compactions, merges + 1);  // the reclaim's merge
    EXPECT_EQ(dev.num_runs(), 1u);
    check();

    const uint64_t snap = dev.LastSeq() / 2;
    ASSERT_TRUE(dev.ResetUpTo(snap).ok());
    std::erase_if(model, [&](const auto& kv) {
      return dev_seq[kv.first] <= snap;
    });
    ASSERT_EQ(dev.num_runs(), 1u);  // the survivors of the merged run
    check();

    // Five flushes: four class-0 runs merge, two flushed runs stay.
    merges = dev.stats().compactions;
    uint64_t n = 0;
    for (auto& [key, seed] : model) {
      if (n++ == 150) break;
      seed += 100000;
      ASSERT_TRUE(DevPut(&dev, key, Value::Synthetic(seed, 4096)).ok());
    }
    AwaitMerge(&world, dev);
    EXPECT_GT(dev.stats().compactions, merges);
    EXPECT_EQ(dev.num_runs(), 3u);
    check();
  });
}

// ---- The command queue (DESIGN.md §27) ----

// A Get looks its key up under the command queue and reads its page after
// releasing it. A put issued while the Get waits on that page, queued behind
// 64 MiB of NAND reads, finishes first, and the Get returns the version its
// lookup saw. A Get that holds the queue across its page read makes the put
// wait for it.
TEST(DevLsmTest, PutIssuedDuringAGetsPageReadFinishesFirst) {
  SimWorld world;
  world.Run([&] {
    DevLsm dev(world.ssd.get(), 0, SmallDevOptions());
    for (int i = 0; i < 40; i++) {
      ASSERT_TRUE(DevPut(&dev, TestKey(i), Value::Synthetic(i, 4096)).ok());
    }
    ASSERT_GE(dev.stats().flushes, 1u);  // TestKey(0) sits in a run
    sim::SimEnv::Thread* load = world.env.Spawn(
        "nand-load", [&] { world.ssd->NandRead(64ull << 20); });
    world.env.SleepFor(1);  // the load books every channel first

    const uint64_t probes = dev.stats().get_nand_probes;
    Status get_status;
    Value got;
    Nanos get_done = 0;
    sim::SimEnv::Thread* get = world.env.Spawn("get", [&] {
      get_status = dev.Get(TestKey(0), &got);
      get_done = world.env.Now();
    });
    while (dev.stats().get_nand_probes == probes) world.env.SleepFor(1);
    ASSERT_TRUE(DevPut(&dev, TestKey(0), Value::Synthetic(999, 4096)).ok());
    const Nanos put_done = world.env.Now();
    world.env.Join(get);
    world.env.Join(load);

    EXPECT_LT(put_done, get_done);
    ASSERT_TRUE(get_status.ok()) << get_status.ToString();
    EXPECT_EQ(got.seed(), 0u);  // the version current at the lookup
    Value v;
    ASSERT_TRUE(dev.Get(TestKey(0), &v).ok());
    EXPECT_EQ(v.seed(), 999u);
  });
}

// A merge streams its inputs outside the command queue, one dma_chunk step
// at a time, so a put issued while it runs shares the firmware core for at
// most one step. A merge that holds the queue makes the put wait for all of
// it.
TEST(DevLsmTest, PutIssuedDuringAMergeWaitsAtMostOneStep) {
  SimWorld world;
  world.Run([&] {
    DevLsmOptions opts = SmallDevOptions();
    opts.l0_run_trigger = 3;
    DevLsm dev(world.ssd.get(), 0, opts);
    Nanos t = world.env.Now();
    ASSERT_TRUE(DevPut(&dev, "lone", Value::Synthetic(1, 4096)).ok());
    const Nanos lone = world.env.Now() - t;

    // The writer's fourth flush completes a group of four class-0 runs.
    sim::SimEnv::Thread* writer = world.env.Spawn("writer", [&] {
      for (int i = 0; dev.stats().flushes < 4; i++) {
        ASSERT_TRUE(DevPut(&dev, TestKey(i), Value::Synthetic(i, 4096)).ok());
      }
    });
    while (dev.stats().flushes < 4) world.env.SleepFor(1);
    const Nanos merge_start = world.env.Now();
    ASSERT_TRUE(DevPut(&dev, "probe", Value::Synthetic(2, 4096)).ok());
    const Nanos probe = world.env.Now() - merge_start;
    while (dev.stats().compactions == 0) world.env.SleepFor(FromMicros(10));
    const Nanos merge = world.env.Now() - merge_start;
    world.env.Join(writer);

    // A read step (NAND read, then firmware work) is the merge's longest;
    // the whole merge outlasts its read steps together.
    const uint64_t read_steps =
        (dev.stats().compaction_bytes_read + opts.dma_chunk - 1) /
        opts.dma_chunk;
    ASSERT_GE(read_steps, 8u);
    EXPECT_LE(probe - lone, merge / static_cast<Nanos>(read_steps))
        << "probe " << probe << " ns, lone put " << lone << " ns, merge "
        << merge << " ns";
  });
}

// Writes distinct 4 KiB keys to `dev` and to `twin` alike, recording each
// pair's device sequence, until `dev` has a merge in flight.
void FillUntilMerging(DevLsm* dev, DevLsm* twin,
                      std::map<std::string, uint64_t>* seq_of) {
  for (uint64_t i = 0; !dev->merge_in_flight(); i++) {
    ASSERT_LT(i, 2000u) << "no merge started";
    ASSERT_TRUE(DevPut(dev, TestKey(i), Value::Synthetic(i, 4096)).ok());
    if (twin != nullptr) {
      ASSERT_TRUE(DevPut(twin, TestKey(i), Value::Synthetic(i, 4096)).ok());
    }
    (*seq_of)[TestKey(i)] = dev->LastSeq();
  }
}

// A reset landing mid-merge discards the merge's output: the merge never
// installs, every pair matches the model, and the survivors take exactly
// the pages they take on a twin device that never merges. Installing the
// output after the reset would replace runs that are no longer its inputs.
TEST(DevLsmTest, ResetMidMergeDiscardsTheOutput) {
  ssd::SsdConfig cfg = SimWorld::DefaultSsdConfig();
  cfg.num_namespaces = 2;
  SimWorld world(cfg);
  world.Run([&] {
    DevLsmOptions opts = SmallDevOptions();
    opts.l0_run_trigger = 3;
    DevLsm dev(world.ssd.get(), 0, opts);
    opts.compaction_enabled = false;
    DevLsm twin(world.ssd.get(), 1, opts);
    std::map<std::string, uint64_t> seq_of;
    FillUntilMerging(&dev, &twin, &seq_of);

    const uint64_t snap = dev.LastSeq() / 2;
    ASSERT_TRUE(dev.ResetUpTo(snap).ok());
    ASSERT_TRUE(twin.ResetUpTo(snap).ok());
    AwaitMerge(&world, dev);
    EXPECT_EQ(dev.stats().merge_discarded, 1u);
    EXPECT_EQ(dev.stats().compactions, 0u);
    EXPECT_EQ(dev.num_runs(), 1u);
    EXPECT_GT(dev.used_pages(), 0u);
    EXPECT_EQ(dev.used_pages(), twin.used_pages());
    Value v;
    for (const auto& [key, seq] : seq_of) {
      Status s = dev.Get(key, &v);
      if (seq <= snap) {
        EXPECT_TRUE(s.IsNotFound()) << key;
      } else {
        ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
        EXPECT_EQ(TestKey(v.seed()), key);
      }
    }
  });
}

// A crash landing mid-merge discards the merge's output: the inputs keep
// their pages and every pair stays readable. After recovery the next flush
// merges the group again.
TEST(DevLsmTest, CrashMidMergeDiscardsTheOutput) {
  SimWorld world;
  sim::FaultInjector faults(&world.env, 1);
  world.env.set_fault_injector(&faults);
  world.Run([&] {
    DevLsmOptions opts = SmallDevOptions();
    opts.l0_run_trigger = 3;
    DevLsm dev(world.ssd.get(), 0, opts);
    std::map<std::string, uint64_t> seq_of;
    FillUntilMerging(&dev, nullptr, &seq_of);
    const uint64_t pages = dev.used_pages();
    const size_t runs = dev.num_runs();

    sim::FaultRule now;
    now.nth_hit = 1;
    faults.Arm("crash.flush.mid", now);
    ASSERT_TRUE(faults.ShouldFail("crash.flush.mid"));
    AwaitMerge(&world, dev);
    faults.ClearCrash();
    EXPECT_EQ(dev.stats().merge_discarded, 1u);
    EXPECT_EQ(dev.stats().compactions, 0u);
    EXPECT_EQ(dev.num_runs(), runs);
    EXPECT_EQ(dev.used_pages(), pages);
    Value v;
    for (const auto& [key, seq] : seq_of) {
      ASSERT_TRUE(dev.Get(key, &v).ok()) << key;
      EXPECT_EQ(TestKey(v.seed()), key);
    }

    const uint64_t flushes = dev.stats().flushes;
    for (uint64_t i = seq_of.size(); dev.stats().flushes == flushes; i++) {
      ASSERT_TRUE(DevPut(&dev, TestKey(i), Value::Synthetic(i, 4096)).ok());
    }
    AwaitMerge(&world, dev);
    EXPECT_EQ(dev.stats().compactions, 1u);
    for (const auto& [key, seq] : seq_of) {
      ASSERT_TRUE(dev.Get(key, &v).ok()) << key;
      EXPECT_EQ(TestKey(v.seed()), key);
    }
  });
}

// Two writers of distinct keys fill a 4 MiB KV region while merges run. A
// flush that finds the region full discards the merge in flight and merges
// every run synchronously; no put waits forever on a merge that will never
// install, and every acknowledged pair stays readable.
TEST(DevLsmTest, FullRegionReclaimsWithAMergeInFlight) {
  ssd::SsdConfig cfg = SimWorld::DefaultSsdConfig();
  cfg.capacity_bytes = 16ull << 20;
  SimWorld world(cfg);
  world.Run([&] {
    DevLsmOptions opts = SmallDevOptions();
    opts.l0_run_trigger = 2;
    DevLsm dev(world.ssd.get(), 0, opts);
    std::map<std::string, uint64_t> acked;  // key -> value seed
    auto writer = [&](uint64_t base) {
      for (uint64_t i = 0;; i += 8) {
        ASSERT_LT(i, 4000u) << "the KV region never filled";
        std::vector<VersionedEntry> batch(8);
        for (uint64_t j = 0; j < batch.size(); j++) {
          batch[j].key = TestKey(base + i + j);
          batch[j].value = Value::Synthetic(base + i + j, 4096);
        }
        Status s = dev.PutCompound(batch);
        if (!s.ok()) {
          EXPECT_TRUE(s.IsNoSpace()) << s.ToString();
          return;
        }
        for (const VersionedEntry& e : batch) acked[e.key] = e.value.seed();
      }
    };
    sim::SimEnv::Thread* a = world.env.Spawn("writer-a", [&] { writer(0); });
    sim::SimEnv::Thread* b =
        world.env.Spawn("writer-b", [&] { writer(100000); });
    world.env.Join(a);
    world.env.Join(b);
    AwaitMerge(&world, dev);
    EXPECT_GE(dev.stats().merge_discarded, 1u);
    EXPECT_EQ(DevLsmTestPeer::FilterFaults(dev), 0u);
    Value v;
    for (const auto& [key, seed] : acked) {
      ASSERT_TRUE(dev.Get(key, &v).ok()) << key;
      EXPECT_EQ(v.seed(), seed) << key;
    }
  });
}

// A rollback's snapshot bound (LastSeq) is taken while a put waits on
// backpressure; the put lands during the rollback's scan, which therefore
// misses it, and the reset must then keep it. The put waits before it takes
// device sequences, so its pairs sort above the bound. Sequences taken
// before the wait fall under the bound, and the reset drops acknowledged
// pairs that no scan returned.
TEST(DevLsmTest, ResetDuringABackpressureWaitKeepsAckedPairs) {
  SimWorld world;
  world.Run([&] {
    DevLsmOptions opts = SmallDevOptions();
    opts.l0_run_trigger = 2;
    DevLsm dev(world.ssd.get(), 0, opts);
    std::map<std::string, uint64_t> acked;  // key -> value seed
    uint64_t puts_done = 0;
    bool stop = false;
    sim::SimEnv::Thread* writer = world.env.Spawn("writer", [&] {
      for (uint64_t i = 0; !stop; i += 16) {
        ASSERT_LT(i, 100000u) << "never backpressured";
        std::vector<VersionedEntry> batch(16);
        for (uint64_t j = 0; j < batch.size(); j++) {
          batch[j].key = TestKey(i + j);
          batch[j].value = Value::Synthetic(i + j, 4096);
        }
        ASSERT_TRUE(dev.PutCompound(batch).ok());
        for (const VersionedEntry& e : batch) acked[e.key] = e.value.seed();
        puts_done++;
      }
    });
    const Nanos deadline = world.env.Now() + FromSecs(5);
    while (dev.stats().merge_waits == 0 && world.env.Now() < deadline) {
      world.env.SleepFor(FromMicros(10));
    }
    const uint64_t waiting = puts_done;  // the writer's put is waiting now
    const bool backpressured = dev.stats().merge_waits > 0;

    const uint64_t snap = dev.LastSeq();
    std::map<std::string, uint64_t> scanned;
    Status scan = dev.BulkScan([&](const VersionedEntry& e) {
      // Host-side work outlasts the merge: the waiting put lands before the
      // scan ends.
      while (backpressured && puts_done == waiting &&
             world.env.Now() < deadline) {
        world.env.SleepFor(FromMicros(10));
      }
      scanned[e.key] = e.value.seed();
    });
    Status reset = dev.ResetUpTo(snap);
    stop = true;
    world.env.Join(writer);
    ASSERT_TRUE(backpressured) << "no put waited for the merge";
    ASSERT_GT(puts_done, waiting);
    ASSERT_TRUE(scan.ok()) << scan.ToString();
    ASSERT_TRUE(reset.ok()) << reset.ToString();

    Value v;
    for (const auto& [key, seed] : acked) {
      if (scanned.count(key) != 0) continue;
      ASSERT_TRUE(dev.Get(key, &v).ok()) << key << " was neither scanned nor kept";
      EXPECT_EQ(v.seed(), seed) << key;
    }
  });
}

// A seeded schedule of multi-entry compound puts and one-entry puts and
// deletes over a small key space (repeated keys, tombstones), with a small
// memtable and a low run trigger so runs flush and merge, and ResetUpTo at
// random snapshots. Every Get, the whole BulkScan and the iterator output
// match a std::map model in which the newest device sequence wins. The
// KV-region pages, NAND byte counters and virtual clock are pinned: a merge
// that changes which runs exist, or what they hold, moves them. The inline
// row's values are real bytes, so they cross flush, merge, ResetUpTo,
// BulkScan and the iterator through the runs' value arenas.
TEST(DevLsmTest, SeededScheduleMatchesNewestSequenceModel) {
  struct Pinned {
    const char* name;
    bool compaction;
    bool inline_values;
    uint64_t seed;
    uint64_t used_pages, nand_written, nand_read, flushes, compactions;
    Nanos now;
  };
  const Pinned kPinned[] = {
      {"compaction on", true, false, 0x5eed0001, 71, 31006557, 58686739, 235,
       20, 1601666547},
      {"compaction off", false, false, 0x5eed0002, 93, 21939512, 45176874,
       220, 0, 1393036425},
      {"inline values", true, true, 0x5eed0003, 98, 26301393, 56831910, 220,
       23, 1506892027},
  };
  for (const Pinned& pin : kPinned) {
    SCOPED_TRACE(pin.name);
    SimWorld world;
    world.Run([&] {
      DevLsmOptions opts = SmallDevOptions();
      opts.memtable_bytes = 24 << 10;
      opts.dma_chunk = 16 << 10;
      opts.compaction_enabled = pin.compaction;
      opts.l0_run_trigger = 3;
      DevLsm dev(world.ssd.get(), 0, opts);

      struct Version {
        uint64_t seq = 0;  // device sequence
        Value value;
        bool tombstone = false;
        uint64_t host_seq = 0;
      };
      std::map<std::string, Version> model;
      uint64_t dev_seq = 0;
      uint64_t host_seq = 0;
      Random64 rnd(pin.seed);
      auto apply = [&](const std::string& key, const Value& value, bool tomb,
                       uint64_t hs) {
        model[key] = Version{++dev_seq, tomb ? Value() : value, tomb, hs};
      };
      auto value_for = [&](uint64_t id) {
        Value v = Value::Synthetic(
            id, 64 + static_cast<uint32_t>(rnd.Uniform(2048)));
        return pin.inline_values ? Value::Inline(v.Materialize()) : v;
      };
      auto check_all = [&] {
        Value v;
        for (const auto& [key, ver] : model) {
          Status s = dev.Get(key, &v);
          if (ver.tombstone) {
            EXPECT_TRUE(s.IsNotFound()) << key;
          } else {
            ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
            EXPECT_EQ(v, ver.value) << key;
            EXPECT_EQ(v.is_inline(), pin.inline_values) << key;
          }
        }
        EXPECT_TRUE(dev.Get("absent", &v).IsNotFound());

        std::vector<VersionedEntry> scanned;
        ASSERT_TRUE(dev.BulkScan([&](const VersionedEntry& e) {
                         scanned.push_back(e);
                       }).ok());
        ASSERT_EQ(scanned.size(), model.size());
        auto mit = model.begin();
        for (const VersionedEntry& e : scanned) {
          EXPECT_EQ(e.key, mit->first);
          EXPECT_EQ(e.tombstone, mit->second.tombstone) << e.key;
          EXPECT_EQ(e.seq, mit->second.host_seq) << e.key;
          if (!e.tombstone) {
            EXPECT_EQ(e.value, mit->second.value) << e.key;
            EXPECT_EQ(e.value.is_inline(), pin.inline_values) << e.key;
          }
          ++mit;
        }

        auto it = dev.NewIterator();
        mit = model.begin();
        for (it->SeekToFirst(); it->Valid(); it->Next(), ++mit) {
          ASSERT_NE(mit, model.end());
          EXPECT_EQ(it->key(), mit->first);
          EXPECT_EQ(it->tombstone(), mit->second.tombstone) << it->key();
          if (!it->tombstone()) {
            EXPECT_EQ(it->value(), mit->second.value) << it->key();
            EXPECT_EQ(it->value().is_inline(), pin.inline_values) << it->key();
          }
        }
        EXPECT_EQ(mit, model.end());
        it->Seek(TestKey(200));
        auto lb = model.lower_bound(TestKey(200));
        if (lb == model.end()) {
          EXPECT_FALSE(it->Valid());
        } else {
          ASSERT_TRUE(it->Valid());
          EXPECT_EQ(it->key(), lb->first);
        }
      };

      for (uint64_t step = 0; step < 1500; step++) {
        const uint64_t r = rnd.Uniform(100);
        if (r < 40) {
          std::vector<VersionedEntry> batch(1 + rnd.Uniform(24));
          for (VersionedEntry& bp : batch) {
            bp.key = TestKey(rnd.Uniform(400));  // may repeat in the batch
            bp.tombstone = rnd.OneIn(6);
            if (!bp.tombstone) bp.value = value_for(step);
            bp.seq = ++host_seq;
          }
          ASSERT_TRUE(dev.PutCompound(batch).ok());
          for (const VersionedEntry& bp : batch) {
            apply(bp.key, bp.value, bp.tombstone, bp.seq);
          }
        } else if (r < 70) {
          std::string key = TestKey(rnd.Uniform(400));
          Value v = value_for(step);
          ASSERT_TRUE(DevPut(&dev, key, v, ++host_seq).ok());
          apply(key, v, false, host_seq);
        } else if (r < 85) {
          std::string key = TestKey(rnd.Uniform(400));
          ASSERT_TRUE(DevDelete(&dev, key, ++host_seq).ok());
          apply(key, Value(), true, host_seq);
        } else if (r < 89) {
          ASSERT_EQ(dev.LastSeq(), dev_seq);
          const uint64_t snap = rnd.Uniform(dev_seq + 1);
          ASSERT_TRUE(dev.ResetUpTo(snap).ok());
          for (auto it = model.begin(); it != model.end();) {
            it = it->second.seq <= snap ? model.erase(it) : std::next(it);
          }
        } else {
          Value v;
          std::string key = TestKey(rnd.Uniform(400));
          auto mit = model.find(key);
          Status s = dev.Get(key, &v);
          if (mit == model.end() || mit->second.tombstone) {
            EXPECT_TRUE(s.IsNotFound()) << key;
          } else {
            ASSERT_TRUE(s.ok()) << key;
            EXPECT_EQ(v, mit->second.value) << key;
            EXPECT_EQ(v.is_inline(), pin.inline_values) << key;
          }
        }
        if (step % 100 == 99) check_all();
      }
      check_all();
      EXPECT_GT(dev.stats().resets, 0u);
      EXPECT_EQ(dev.used_pages(), pin.used_pages);
      EXPECT_EQ(world.ssd->nand().bytes_written(), pin.nand_written);
      EXPECT_EQ(world.ssd->nand().bytes_read(), pin.nand_read);
      EXPECT_EQ(dev.stats().flushes, pin.flushes);
      EXPECT_EQ(dev.stats().compactions, pin.compactions);
      EXPECT_EQ(world.env.Now(), pin.now);
    });
  }
}

}  // namespace
}  // namespace kvaccel::devlsm
