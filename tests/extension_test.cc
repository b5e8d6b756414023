// Tests for the engineering extensions beyond the paper's letter:
// device read cache, compound KV commands, multi-device deployment,
// and decode robustness (fuzz-style) for the on-disk formats.
#include <gtest/gtest.h>

#include <memory>

#include "common/random.h"
#include "core/kvaccel_db.h"
#include "devlsm/dev_lsm.h"
#include "lsm/version.h"
#include "lsm/wal.h"
#include "lsm/write_batch.h"
#include "tests/test_util.h"

namespace kvaccel {
namespace {

using test::DevPut;
using test::SimWorld;
using test::TestKey;

TEST(DevReadCacheTest, HitsSkipNandReads) {
  SimWorld world;
  world.Run([&] {
    devlsm::DevLsmOptions opts;
    opts.memtable_bytes = 64 << 10;
    opts.read_cache_bytes = 8 << 20;
    devlsm::DevLsm dev(world.ssd.get(), 0, opts);
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(DevPut(&dev, TestKey(i), Value::Synthetic(i, 4096)).ok());
    }
    // First pass: cold cache.
    auto it = dev.NewIterator();
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
    }
    uint64_t nand_cold = world.ssd->nand().bytes_read();
    uint64_t misses = dev.stats().read_cache_misses;
    EXPECT_GT(misses, 0u);
    // Second pass: warm cache, no new NAND reads.
    auto it2 = dev.NewIterator();
    for (it2->SeekToFirst(); it2->Valid(); it2->Next()) {
    }
    EXPECT_EQ(world.ssd->nand().bytes_read(), nand_cold);
    EXPECT_GT(dev.stats().read_cache_hits, 0u);
  });
}

TEST(DevReadCacheTest, MutationInvalidatesCache) {
  SimWorld world;
  world.Run([&] {
    devlsm::DevLsmOptions opts;
    opts.memtable_bytes = 1 << 20;
    opts.read_cache_bytes = 8 << 20;
    devlsm::DevLsm dev(world.ssd.get(), 0, opts);
    for (int i = 0; i < 50; i++) {
      ASSERT_TRUE(DevPut(&dev, TestKey(i), Value::Synthetic(i, 4096)).ok());
    }
    auto it = dev.NewIterator();
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
    }
    uint64_t hits_before = dev.stats().read_cache_hits;
    // A write invalidates the firmware cache: next scan misses again.
    ASSERT_TRUE(DevPut(&dev, "zzz", Value::Inline("fresh")).ok());
    auto it2 = dev.NewIterator();
    it2->SeekToFirst();
    EXPECT_EQ(dev.stats().read_cache_hits, hits_before);
    EXPECT_GT(dev.stats().read_cache_misses, 0u);
  });
}

// The read cache evicts in insertion order: with room for two pages, Gets of
// c, b, a evict c, the oldest, so a repeated Get(a) hits. Evicting the
// smallest key instead made a evict itself on insertion.
TEST(DevReadCacheTest, EvictsOldestPageNotSmallestKey) {
  SimWorld world;
  world.Run([&] {
    devlsm::DevLsmOptions opts;
    opts.read_cache_bytes = 2 * world.ssd_config.page_size;
    opts.memtable_bytes = 3 * (1 + 8 + 4096);  // the third Put flushes a run
    devlsm::DevLsm dev(world.ssd.get(), 0, opts);
    for (const char* k : {"a", "b", "c"}) {
      ASSERT_TRUE(DevPut(&dev, k, Value::Synthetic(1, 4096)).ok());
    }
    ASSERT_EQ(dev.stats().flushes, 1u);
    Value v;
    for (const char* k : {"c", "b", "a"}) ASSERT_TRUE(dev.Get(k, &v).ok());
    EXPECT_EQ(dev.stats().read_cache_misses, 3u);
    ASSERT_TRUE(dev.Get("a", &v).ok());
    EXPECT_EQ(dev.stats().read_cache_hits, 1u);
    ASSERT_TRUE(dev.Get("b", &v).ok());
    EXPECT_EQ(dev.stats().read_cache_hits, 2u);
    ASSERT_TRUE(dev.Get("c", &v).ok());  // evicted first
    EXPECT_EQ(dev.stats().read_cache_hits, 2u);
    EXPECT_EQ(dev.stats().read_cache_misses, 4u);
  });
}

TEST(DevReadCacheTest, DisabledByDefault) {
  SimWorld world;
  world.Run([&] {
    devlsm::DevLsmOptions opts;  // read_cache_bytes = 0: paper configuration
    devlsm::DevLsm dev(world.ssd.get(), 0, opts);
    ASSERT_TRUE(DevPut(&dev, "k", Value::Inline("v")).ok());
    auto it = dev.NewIterator();
    it->SeekToFirst();
    it->SeekToFirst();
    EXPECT_EQ(dev.stats().read_cache_hits, 0u);
  });
}

TEST(CompoundCommandTest, BatchedPutsApplyAtomically) {
  SimWorld world;
  world.Run([&] {
    devlsm::DevLsmOptions opts;
    devlsm::DevLsm dev(world.ssd.get(), 0, opts);
    std::vector<VersionedEntry> batch;
    for (int i = 0; i < 64; i++) {
      batch.push_back({TestKey(i), Value::Synthetic(i, 4096), false,
                       static_cast<uint64_t>(100 + i)});
    }
    ASSERT_TRUE(dev.PutCompound(batch).ok());
    EXPECT_EQ(dev.stats().puts, 64u);
    EXPECT_EQ(dev.stats().compound_cmds, 1u);
    EXPECT_EQ(dev.stats().compound_entries, 64u);
    Value v;
    for (int i = 0; i < 64; i += 7) {
      ASSERT_TRUE(dev.Get(TestKey(i), &v).ok());
      EXPECT_EQ(v.seed(), static_cast<uint64_t>(i));
    }
  });
}

TEST(CompoundCommandTest, CompoundIsCheaperThanSingles) {
  SimWorld world;
  Nanos singles = 0, compound = 0;
  world.Run([&] {
    {
      devlsm::DevLsm dev(world.ssd.get(), 0, {});
      Nanos t0 = world.env.Now();
      for (int i = 0; i < 32; i++) {
        ASSERT_TRUE(DevPut(&dev, TestKey(i), Value::Synthetic(i, 4096)).ok());
      }
      singles = world.env.Now() - t0;
    }
    {
      devlsm::DevLsm dev(world.ssd.get(), 0, {});
      std::vector<VersionedEntry> batch;
      for (int i = 0; i < 32; i++) {
        batch.push_back({TestKey(i), Value::Synthetic(i, 4096), false, 0});
      }
      Nanos t0 = world.env.Now();
      ASSERT_TRUE(dev.PutCompound(batch).ok());
      compound = world.env.Now() - t0;
    }
  });
  EXPECT_LT(compound, singles / 2);
}

TEST(MultiDeviceTest, KvInterfaceOnSecondSsd) {
  SimWorld world;
  auto kv_ssd = std::make_unique<ssd::HybridSsd>(&world.env,
                                                 SimWorld::DefaultSsdConfig());
  world.Run([&] {
    lsm::DbOptions main_opts = test::SmallDbOptions();
    main_opts.compaction_threads = 1;
    core::KvaccelOptions kv_opts;
    kv_opts.dev.memtable_bytes = 128 << 10;
    kv_opts.rollback = core::RollbackScheme::kDisabled;
    kv_opts.detector_period = FromMillis(1);
    kv_opts.kv_device = kv_ssd.get();  // paper §V-D multi-device setup
    std::unique_ptr<core::KvaccelDB> db;
    ASSERT_TRUE(
        core::KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db)
            .ok());
    for (int i = 0; i < 2500; i++) {
      ASSERT_TRUE(
          db->Put({}, TestKey(i % 400), Value::Synthetic(i, 4096)).ok());
    }
    ASSERT_GT(db->kv_stats().redirected_writes, 0u);
    // Redirected traffic landed on the SECOND device, not the main one.
    EXPECT_GT(kv_ssd->pcie().total_bytes(), 0u);
    EXPECT_GT(kv_ssd->KvUsedPages(0) + (db->dev()->Empty() ? 1 : 0), 0u);
    EXPECT_EQ(world.ssd->KvUsedPages(0), 0u);
    // Reads still see everything.
    Value v;
    for (int k = 0; k < 400; k += 31) {
      ASSERT_TRUE(db->Get({}, TestKey(k), &v).ok()) << k;
    }
    // Rollback drains across devices.
    ASSERT_TRUE(db->WaitForCompactionIdle().ok());
    ASSERT_TRUE(db->RollbackNow().ok());
    EXPECT_TRUE(db->dev()->Empty());
    ASSERT_TRUE(db->Close().ok());
  });
}

// Decode robustness: random bytes must never crash the parsers (they may
// reject or, for syntactically valid prefixes, succeed — both fine).
class FuzzDecode : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzDecode, ParsersSurviveGarbage) {
  Random64 rng(GetParam());
  for (int round = 0; round < 200; round++) {
    size_t len = rng.Uniform(200);
    std::string bytes;
    for (size_t i = 0; i < len; i++) {
      bytes.push_back(static_cast<char>(rng.Next() & 0xff));
    }
    // Value decode.
    Slice in1(bytes);
    Value v;
    (void)Value::DecodeFrom(&in1, &v);
    // WriteBatch parse (validates structure internally).
    lsm::WriteBatch batch;
    (void)lsm::WriteBatch::ParseFrom(bytes, &batch);
    // VersionEdit decode.
    lsm::VersionEdit edit;
    (void)lsm::VersionEdit::DecodeFrom(bytes, &edit);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDecode, ::testing::Values(1, 17, 23, 99));

// WAL reader over corrupted logs: flip bytes; recovery must stop at the
// corruption (no crash, no garbage records accepted past it) and — because
// valid records follow the flipped byte — report Corruption rather than
// treating the damage as a benign torn tail.
class WalCorruption : public ::testing::TestWithParam<int> {};

TEST_P(WalCorruption, TornOrFlippedBytesStopRecoveryCleanly) {
  SimWorld world;
  world.Run([&] {
    std::unique_ptr<fs::WritableFile> w;
    ASSERT_TRUE(world.fs->NewWritableFile("log", &w).ok());
    lsm::LogWriter writer(std::move(w));
    std::vector<std::string> payloads;
    for (int i = 0; i < 10; i++) {
      payloads.push_back("record-" + std::to_string(i) +
                         std::string(20, static_cast<char>('a' + i)));
      ASSERT_TRUE(writer.AddRecord(payloads.back(),
                                   payloads.back().size()).ok());
    }
    ASSERT_TRUE(writer.Sync().ok());
    ASSERT_TRUE(writer.Close().ok());

    // Corrupt one byte somewhere in the middle of the file.
    std::unique_ptr<fs::RandomAccessFile> probe;
    ASSERT_TRUE(world.fs->NewRandomAccessFile("log", &probe).ok());
    size_t file_len = probe->physical_size();
    size_t corrupt_at = file_len / 10 * GetParam();
    // Rewrite the file with the flipped byte (SimFs files are append-only,
    // so rebuild).
    std::string contents;
    ASSERT_TRUE(probe->Read(0, file_len, &contents).ok());
    contents[corrupt_at] = static_cast<char>(contents[corrupt_at] ^ 0xff);
    std::unique_ptr<fs::WritableFile> rw;
    ASSERT_TRUE(world.fs->NewWritableFile("log", &rw).ok());
    ASSERT_TRUE(rw->Append(contents).ok());
    ASSERT_TRUE(rw->Sync().ok());
    ASSERT_TRUE(rw->Close().ok());

    std::unique_ptr<fs::RandomAccessFile> r;
    ASSERT_TRUE(world.fs->NewRandomAccessFile("log", &r).ok());
    lsm::LogReader reader(std::move(r));
    std::string payload;
    Status s;
    size_t recovered = 0;
    while (reader.ReadRecord(&payload, &s)) {
      // Every record accepted before the stop must be byte-exact.
      ASSERT_LT(recovered, payloads.size());
      EXPECT_EQ(payload, payloads[recovered]);
      recovered++;
    }
    // Mid-log damage with valid data after it is real corruption, not a
    // torn tail from a crash, and must be reported as such.
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_LT(recovered, 10u);  // corruption truncated recovery
  });
}

INSTANTIATE_TEST_SUITE_P(Offsets, WalCorruption,
                         ::testing::Values(1, 3, 5, 8));

}  // namespace
}  // namespace kvaccel
