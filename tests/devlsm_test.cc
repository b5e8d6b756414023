#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "devlsm/dev_lsm.h"
#include "tests/test_util.h"

namespace kvaccel::devlsm {
namespace {

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
    ASSERT_TRUE(dev.Put("k1", Value::Inline("v1")).ok());
    ASSERT_TRUE(dev.Put("k2", Value::Synthetic(7, 4096)).ok());
    Value v;
    ASSERT_TRUE(dev.Get("k1", &v).ok());
    EXPECT_EQ(v.Materialize(), "v1");
    ASSERT_TRUE(dev.Get("k2", &v).ok());
    EXPECT_EQ(v.logical_size(), 4096u);
    EXPECT_TRUE(dev.Get("absent", &v).IsNotFound());
    ASSERT_TRUE(dev.Delete("k1").ok());
    EXPECT_TRUE(dev.Get("k1", &v).IsNotFound());
    EXPECT_TRUE(dev.Exist("k2"));
    EXPECT_FALSE(dev.Exist("k1"));
  });
}

TEST(DevLsmTest, OverwriteKeepsNewest) {
  SimWorld world;
  world.Run([&] {
    DevLsm dev(world.ssd.get(), 0, SmallDevOptions());
    for (int i = 0; i < 5; i++) {
      ASSERT_TRUE(dev.Put("k", Value::Synthetic(i, 100)).ok());
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
      ASSERT_TRUE(dev.Put(TestKey(i), Value::Synthetic(i, 4096)).ok());
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
        ASSERT_TRUE(
            dev.Put(TestKey(i), Value::Synthetic(round * 100 + i, 4096)).ok());
      }
    }
    EXPECT_GT(dev.stats().compactions, 0u);
    Value v;
    ASSERT_TRUE(dev.Get(TestKey(5), &v).ok());
    EXPECT_EQ(v.seed(), 705u);  // round 7
  });
}

TEST(DevLsmTest, BulkScanStreamsSortedNewestOnly) {
  SimWorld world;
  world.Run([&] {
    DevLsm dev(world.ssd.get(), 0, SmallDevOptions());
    for (int i = 50; i > 0; i--) {
      ASSERT_TRUE(dev.Put(TestKey(i), Value::Synthetic(i, 4096)).ok());
    }
    ASSERT_TRUE(dev.Put(TestKey(25), Value::Synthetic(999, 4096)).ok());
    ASSERT_TRUE(dev.Delete(TestKey(10)).ok());

    std::vector<std::string> keys;
    int tombstones = 0;
    uint64_t seed25 = 0;
    ASSERT_TRUE(dev.BulkScan([&](const DevLsm::ScanEntry& e) {
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
      ASSERT_TRUE(dev.Put(TestKey(i), Value::Synthetic(i, 4096)).ok());
    }
    EXPECT_FALSE(dev.Empty());
    EXPECT_GT(dev.used_pages(), 0u);
    ASSERT_TRUE(dev.Reset().ok());
    EXPECT_TRUE(dev.Empty());
    EXPECT_EQ(dev.used_pages(), 0u);
    Value v;
    EXPECT_TRUE(dev.Get(TestKey(1), &v).IsNotFound());
    // Usable again after reset.
    ASSERT_TRUE(dev.Put("fresh", Value::Inline("x")).ok());
    ASSERT_TRUE(dev.Get("fresh", &v).ok());
  });
}

TEST(DevLsmTest, IteratorBatchedSeekNext) {
  SimWorld world;
  world.Run([&] {
    DevLsm dev(world.ssd.get(), 0, SmallDevOptions());
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(dev.Put(TestKey(i), Value::Synthetic(i, 4096)).ok());
    }
    auto it = dev.NewIterator();
    it->Seek(TestKey(30));
    int count = 0;
    for (; it->Valid(); it->Next()) {
      EXPECT_EQ(it->key(), TestKey(30 + count));
      count++;
    }
    EXPECT_EQ(count, 70);
    it->SeekToFirst();
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key(), TestKey(0));
  });
}

TEST(DevLsmTest, IteratorPaysDevicePerBatch) {
  SimWorld world;
  world.Run([&] {
    DevLsm dev(world.ssd.get(), 0, SmallDevOptions());
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(dev.Put(TestKey(i), Value::Synthetic(i, 4096)).ok());
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
      s = dev.Put(TestKey(i), Value::Synthetic(i, 4096));
    }
    EXPECT_TRUE(s.IsNoSpace());
  });
}

TEST(DevLsmTest, CommandsRideTheSharedPcieLink) {
  SimWorld world;
  world.Run([&] {
    DevLsm dev(world.ssd.get(), 0, SmallDevOptions());
    uint64_t pcie_before = world.ssd->pcie().total_bytes();
    ASSERT_TRUE(dev.Put("k", Value::Synthetic(1, 4096)).ok());
    // PUT moved ~4 KiB + command overhead over PCIe.
    EXPECT_GE(world.ssd->pcie().total_bytes(), pcie_before + 4096);
    EXPECT_EQ(world.ssd->trace().CountOf(ssd::nvme::Opcode::kKvStore), 1u);
  });
}

// A seeded schedule of PutCompound, Put and Delete over a small key space
// (repeated keys, tombstones), with a small memtable and a low run trigger so
// runs flush and merge, and ResetUpTo at random snapshots. Every Get, the
// whole BulkScan and the iterator output match a std::map model in which the
// newest device sequence wins. The KV-region pages, NAND byte counters and
// virtual clock are pinned: a merge that changes which runs exist, or what
// they hold, moves them.
TEST(DevLsmTest, SeededScheduleMatchesNewestSequenceModel) {
  struct Pinned {
    bool compaction;
    uint64_t used_pages, nand_written, nand_read, flushes, compactions;
    Nanos now;
  };
  const Pinned kPinned[] = {
      {true, 71, 44134692, 95944416, 235, 60, 2243929587},
      {false, 93, 21939512, 91940906, 220, 0, 2203935413},
  };
  for (const Pinned& pin : kPinned) {
    SCOPED_TRACE(pin.compaction ? "compaction on" : "compaction off");
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
      Random64 rnd(pin.compaction ? 0x5eed0001 : 0x5eed0002);
      auto apply = [&](const std::string& key, const Value& value, bool tomb,
                       uint64_t hs) {
        model[key] = Version{++dev_seq, tomb ? Value() : value, tomb, hs};
      };
      auto value_for = [&](uint64_t id) {
        return Value::Synthetic(id, 64 + static_cast<uint32_t>(
                                             rnd.Uniform(2048)));
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
          }
        }
        EXPECT_TRUE(dev.Get("absent", &v).IsNotFound());

        std::vector<DevLsm::ScanEntry> scanned;
        ASSERT_TRUE(dev.BulkScan([&](const DevLsm::ScanEntry& e) {
                         scanned.push_back(e);
                       }).ok());
        ASSERT_EQ(scanned.size(), model.size());
        auto mit = model.begin();
        for (const DevLsm::ScanEntry& e : scanned) {
          EXPECT_EQ(e.key, mit->first);
          EXPECT_EQ(e.tombstone, mit->second.tombstone) << e.key;
          EXPECT_EQ(e.host_seq, mit->second.host_seq) << e.key;
          if (!e.tombstone) {
            EXPECT_EQ(e.value, mit->second.value) << e.key;
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
          std::vector<DevLsm::BatchPut> batch(1 + rnd.Uniform(24));
          for (DevLsm::BatchPut& bp : batch) {
            bp.key = TestKey(rnd.Uniform(400));  // may repeat in the batch
            bp.tombstone = rnd.OneIn(6);
            if (!bp.tombstone) bp.value = value_for(step);
            bp.host_seq = ++host_seq;
          }
          ASSERT_TRUE(dev.PutCompound(batch).ok());
          for (const DevLsm::BatchPut& bp : batch) {
            apply(bp.key, bp.value, bp.tombstone, bp.host_seq);
          }
        } else if (r < 70) {
          std::string key = TestKey(rnd.Uniform(400));
          Value v = value_for(step);
          ASSERT_TRUE(dev.Put(key, v, ++host_seq).ok());
          apply(key, v, false, host_seq);
        } else if (r < 85) {
          std::string key = TestKey(rnd.Uniform(400));
          ASSERT_TRUE(dev.Delete(key, ++host_seq).ok());
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
