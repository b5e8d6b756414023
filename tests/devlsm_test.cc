#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "devlsm/dev_lsm.h"
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
// Get read one page for a key only the oldest run holds, and about 1% of
// the runs' pages for absent keys.
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

    // The first key is held only by the oldest run.
    const uint64_t page = world.ssd->config().page_size;
    uint64_t read_before = world.ssd->nand().bytes_read();
    Value v;
    ASSERT_TRUE(dev.Get(TestKey(0), &v).ok());
    EXPECT_EQ(v.seed(), 0u);
    EXPECT_EQ(world.ssd->nand().bytes_read() - read_before, page);

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
    EXPECT_GT(dev.stats().compactions, merges);
    EXPECT_EQ(dev.num_runs(), 3u);
    check();
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
      {"compaction on", true, false, 0x5eed0001, 71, 38521187, 65201210, 235,
       49, 1754712888},
      {"compaction off", false, false, 0x5eed0002, 93, 21939512, 45176874,
       220, 0, 1393036425},
      {"inline values", true, true, 0x5eed0003, 98, 32879653, 62847517, 220,
       51, 1662252648},
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
