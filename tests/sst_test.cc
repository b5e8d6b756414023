#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "lsm/sst.h"
#include "lsm/wal.h"
#include "tests/test_util.h"

namespace kvaccel::lsm {
namespace {

using test::SimWorld;

std::string IKey(const std::string& ukey, SequenceNumber seq,
                 ValueType type = ValueType::kValue) {
  std::string out;
  AppendInternalKey(&out, ukey, seq, type);
  return out;
}

std::string EncValue(const Value& v) {
  std::string out;
  v.EncodeTo(&out);
  return out;
}

std::string UserKey(int i) {
  char key[32];
  snprintf(key, sizeof(key), "key%06d", i);
  return key;
}

// Builds an SST with `n` keys key000000..key(n-1), value "val<i>", or a
// synthetic value of `value_bytes` when that is not 0.
void BuildTable(SimWorld& world, const DbOptions& opts,
                const std::string& name, int n, uint32_t value_bytes = 0) {
  std::unique_ptr<fs::WritableFile> file;
  ASSERT_TRUE(world.fs->NewWritableFile(name, &file).ok());
  SstBuilder builder(opts, std::move(file));
  for (int i = 0; i < n; i++) {
    Value v = value_bytes == 0 ? Value::Inline("val" + std::to_string(i))
                               : Value::Synthetic(i, value_bytes);
    std::string ik = IKey(UserKey(i), 100);
    ASSERT_TRUE(builder.Add(ik, EncValue(v), 8 + 8 + v.logical_size()).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
}

TEST(SstTest, BuildAndGet) {
  SimWorld world;
  DbOptions opts = test::SmallDbOptions();
  world.Run([&] {
    BuildTable(world, opts, "000010.sst", 500);
    BlockCache cache(1 << 20);
    std::shared_ptr<SstReader> reader;
    ASSERT_TRUE(SstReader::Open(opts, world.fs.get(), "000010.sst", 10,
                                &cache, &reader)
                    .ok());
    EXPECT_EQ(reader->num_entries(), 500u);
    EXPECT_EQ(ExtractUserKey(reader->smallest()).ToString(), "key000000");
    EXPECT_EQ(ExtractUserKey(reader->largest()).ToString(), "key000499");

    ReadOptions ropts;
    for (int i : {0, 1, 250, 498, 499}) {
      char key[32];
      snprintf(key, sizeof(key), "key%06d", i);
      bool found = false;
      ValueType type;
      Value v;
      ASSERT_TRUE(reader
                      ->Get(ropts, IKey(key, 200), &found, &type, &v)
                      .ok());
      ASSERT_TRUE(found) << key;
      EXPECT_EQ(type, ValueType::kValue);
      EXPECT_EQ(v.Materialize(), "val" + std::to_string(i));
    }
    bool found = true;
    ValueType type;
    Value v;
    ASSERT_TRUE(
        reader->Get(ropts, IKey("nokey", 200), &found, &type, &v).ok());
    EXPECT_FALSE(found);
  });
}

TEST(SstTest, SnapshotVisibility) {
  SimWorld world;
  DbOptions opts = test::SmallDbOptions();
  world.Run([&] {
    std::unique_ptr<fs::WritableFile> file;
    ASSERT_TRUE(world.fs->NewWritableFile("000011.sst", &file).ok());
    SstBuilder builder(opts, std::move(file));
    // Same user key, two versions (internal order: newest first).
    Value v2 = Value::Inline("new"), v1 = Value::Inline("old");
    ASSERT_TRUE(builder.Add(IKey("k", 20), EncValue(v2), 12).ok());
    ASSERT_TRUE(builder.Add(IKey("k", 10), EncValue(v1), 12).ok());
    ASSERT_TRUE(builder.Finish().ok());

    BlockCache cache(1 << 20);
    std::shared_ptr<SstReader> reader;
    ASSERT_TRUE(SstReader::Open(opts, world.fs.get(), "000011.sst", 11,
                                &cache, &reader)
                    .ok());
    bool found;
    ValueType type;
    Value v;
    // Snapshot at 100 sees the newest.
    ASSERT_TRUE(reader->Get({}, IKey("k", 100), &found, &type, &v).ok());
    ASSERT_TRUE(found);
    EXPECT_EQ(v.Materialize(), "new");
    // Snapshot at 15 sees the old version.
    ASSERT_TRUE(reader->Get({}, IKey("k", 15), &found, &type, &v).ok());
    ASSERT_TRUE(found);
    EXPECT_EQ(v.Materialize(), "old");
  });
}

TEST(SstTest, TombstonesSurface) {
  SimWorld world;
  DbOptions opts = test::SmallDbOptions();
  world.Run([&] {
    std::unique_ptr<fs::WritableFile> file;
    ASSERT_TRUE(world.fs->NewWritableFile("000012.sst", &file).ok());
    SstBuilder builder(opts, std::move(file));
    ASSERT_TRUE(
        builder.Add(IKey("gone", 5, ValueType::kDeletion), "", 12).ok());
    ASSERT_TRUE(builder.Finish().ok());

    BlockCache cache(1 << 20);
    std::shared_ptr<SstReader> reader;
    ASSERT_TRUE(SstReader::Open(opts, world.fs.get(), "000012.sst", 12,
                                &cache, &reader)
                    .ok());
    bool found;
    ValueType type;
    Value v;
    ASSERT_TRUE(reader->Get({}, IKey("gone", 100), &found, &type, &v).ok());
    ASSERT_TRUE(found);
    EXPECT_EQ(type, ValueType::kDeletion);
  });
}

TEST(SstTest, IteratorFullScanAndSeek) {
  SimWorld world;
  DbOptions opts = test::SmallDbOptions();
  world.Run([&] {
    BuildTable(world, opts, "000013.sst", 300);
    BlockCache cache(1 << 20);
    std::shared_ptr<SstReader> reader;
    ASSERT_TRUE(SstReader::Open(opts, world.fs.get(), "000013.sst", 13,
                                &cache, &reader)
                    .ok());
    auto it = reader->NewIterator({});
    int count = 0;
    std::string prev;
    InternalKeyComparator cmp;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      if (!prev.empty()) {
        EXPECT_LT(cmp.Compare(Slice(prev), it->key()), 0);
      }
      prev = it->key().ToString();
      count++;
    }
    EXPECT_TRUE(it->status().ok());
    EXPECT_EQ(count, 300);

    it->Seek(IKey("key000150", kMaxSequenceNumber));
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(ExtractUserKey(it->key()).ToString(), "key000150");
    it->Seek(IKey("key000299zzz", kMaxSequenceNumber));
    EXPECT_FALSE(it->Valid());
  });
}

TEST(SstTest, BlockCacheAvoidsSecondRead) {
  SimWorld world;
  DbOptions opts = test::SmallDbOptions();
  world.Run([&] {
    BuildTable(world, opts, "000014.sst", 100);
    BlockCache cache(4 << 20);
    std::shared_ptr<SstReader> reader;
    ASSERT_TRUE(SstReader::Open(opts, world.fs.get(), "000014.sst", 14,
                                &cache, &reader)
                    .ok());
    bool found;
    ValueType type;
    Value v;
    ASSERT_TRUE(
        reader->Get({}, IKey("key000050", 200), &found, &type, &v).ok());
    uint64_t nand_after_first = world.ssd->nand().bytes_read();
    ASSERT_TRUE(
        reader->Get({}, IKey("key000050", 200), &found, &type, &v).ok());
    // Second read of the same block comes from cache: no new device reads.
    EXPECT_EQ(world.ssd->nand().bytes_read(), nand_after_first);
  });
}

TEST(SstTest, BloomSkipsDeviceForAbsentKeys) {
  SimWorld world;
  DbOptions opts = test::SmallDbOptions();
  world.Run([&] {
    BuildTable(world, opts, "000015.sst", 1000);
    BlockCache cache(1 << 20);
    std::shared_ptr<SstReader> reader;
    ASSERT_TRUE(SstReader::Open(opts, world.fs.get(), "000015.sst", 15,
                                &cache, &reader)
                    .ok());
    uint64_t base = world.ssd->nand().bytes_read();
    int device_touches = 0;
    for (int i = 0; i < 200; i++) {
      bool found;
      ValueType type;
      Value v;
      std::string absent = "zzz" + std::to_string(i);
      ASSERT_TRUE(
          reader->Get({}, IKey(absent, 200), &found, &type, &v).ok());
      EXPECT_FALSE(found);
      if (world.ssd->nand().bytes_read() != base) {
        device_touches++;
        base = world.ssd->nand().bytes_read();
      }
    }
    // Bloom filters should keep almost every absent-key probe off the device.
    EXPECT_LT(device_touches, 20);
  });
}

TEST(SstTest, CorruptMagicRejected) {
  SimWorld world;
  DbOptions opts = test::SmallDbOptions();
  world.Run([&] {
    std::unique_ptr<fs::WritableFile> file;
    ASSERT_TRUE(world.fs->NewWritableFile("bad.sst", &file).ok());
    ASSERT_TRUE(file->Append(std::string(64, 'g')).ok());
    ASSERT_TRUE(file->Close().ok());
    BlockCache cache(1 << 20);
    std::shared_ptr<SstReader> reader;
    Status s = SstReader::Open(opts, world.fs.get(), "bad.sst", 16, &cache,
                               &reader);
    EXPECT_TRUE(s.IsCorruption());
  });
}

// Opens `name` without a block cache: every block read reaches the device.
std::shared_ptr<SstReader> OpenTable(SimWorld& world, const DbOptions& opts,
                                     const std::string& name,
                                     uint64_t number) {
  std::shared_ptr<SstReader> reader;
  EXPECT_TRUE(
      SstReader::Open(opts, world.fs.get(), name, number, nullptr, &reader)
          .ok());
  return reader;
}

size_t NumBlocks(const SstReader& reader) {
  std::vector<std::string> last_keys;
  reader.AppendBlockBoundaries(&last_keys);
  return last_keys.size();
}

// A block that is not in the cache costs one device command: the block and
// its CRC trailer come back in one read, for Gets and for iterators without
// readahead alike.
TEST(SstTest, CacheMissCostsOneDeviceRead) {
  SimWorld world;
  test::ReadCommandCounter reads(&world);
  DbOptions opts = test::SmallDbOptions();
  world.Run([&] {
    BuildTable(world, opts, "000017.sst", 500);
    auto reader = OpenTable(world, opts, "000017.sst", 17);
    ASSERT_NE(reader, nullptr);
    ASSERT_GE(NumBlocks(*reader), 3u);
    for (int i : {0, 250, 499}) {
      const uint64_t before = reads.count();
      bool found = false;
      ValueType type;
      Value v;
      ASSERT_TRUE(
          reader->Get({}, IKey(UserKey(i), 200), &found, &type, &v).ok());
      ASSERT_TRUE(found) << i;
      EXPECT_EQ(reads.count() - before, 1u) << "get of key " << i;
    }
    const uint64_t before = reads.count();
    auto it = reader->NewIterator({});
    int n = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) n++;
    EXPECT_TRUE(it->status().ok());
    EXPECT_EQ(n, 500);
    EXPECT_EQ(reads.count() - before, NumBlocks(*reader));
  });
}

// Cache-filling iterators ramp their readahead: two blocks after a Seek,
// then each sequential refill doubles up to readahead_blocks, which a long
// scan reaches and keeps.
TEST(SstTest, ScanReadaheadRampsToTheFullWindow) {
  SimWorld world;
  test::ReadCommandCounter reads(&world);
  DbOptions opts = test::SmallDbOptions();
  world.Run([&] {
    BuildTable(world, opts, "000018.sst", 200, /*value_bytes=*/4000);
    auto reader = OpenTable(world, opts, "000018.sst", 18);
    ASSERT_NE(reader, nullptr);
    const size_t blocks = NumBlocks(*reader);
    std::vector<size_t> ramp;  // 2, 4, 8, 16, 16, ... until every block
    for (size_t covered = 0, w = 2; covered < blocks;
         w = std::min<size_t>(16, 2 * w)) {
      ramp.push_back(w);
      covered += w;
    }
    ASSERT_GE(ramp.size(), 6u) << blocks << " blocks";

    ReadOptions ropts;
    ropts.readahead_blocks = 16;
    auto it = reader->NewIterator(ropts);
    // NAND bytes of each device read the scan issues.
    std::vector<uint64_t> refills;
    uint64_t seen = reads.count();
    uint64_t nand = world.ssd->nand().bytes_read();
    auto note_refill = [&] {
      if (reads.count() == seen) return;
      EXPECT_EQ(reads.count(), seen + 1) << "one command per refill";
      refills.push_back(world.ssd->nand().bytes_read() - nand);
      seen = reads.count();
      nand = world.ssd->nand().bytes_read();
    };
    int n = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      note_refill();
      n++;
    }
    EXPECT_TRUE(it->status().ok());
    EXPECT_EQ(n, 200);
    ASSERT_EQ(refills.size(), ramp.size());
    // A refill's bytes follow its window, up to page rounding.
    EXPECT_EQ(refills[1], 2 * refills[0]);
    EXPECT_EQ(refills[2], 2 * refills[1]);
    EXPECT_GE(refills[3], 7 * refills[0]);
    EXPECT_EQ(refills[4], refills[3]) << "the window stops at the cap";

    // A Seek restarts the ramp.
    it->Seek(IKey(UserKey(100), kMaxSequenceNumber));
    note_refill();
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(ExtractUserKey(it->key()).ToString(), UserKey(100));
    EXPECT_EQ(refills.back(), refills[0]);
  });
}

// Bulk readers (compaction inputs, ScanTable) keep the fixed 2 MB window:
// one device command per window of blocks, as many as before the ramp.
TEST(SstTest, BulkReadersKeepTheFixedTwoMegabyteWindow) {
  SimWorld world;
  test::ReadCommandCounter reads(&world);
  DbOptions opts = test::SmallDbOptions();
  opts.block_size = 256 << 10;
  world.Run([&] {
    const ReadOptions bulk = BulkReadOptions(opts);
    EXPECT_FALSE(bulk.fill_cache);
    ASSERT_EQ(bulk.readahead_blocks, 8u);  // 8 x 256 KiB = 2 MiB

    BuildTable(world, opts, "000019.sst", 2000, /*value_bytes=*/4000);
    auto reader = OpenTable(world, opts, "000019.sst", 19);
    ASSERT_NE(reader, nullptr);
    const size_t blocks = NumBlocks(*reader);
    ASSERT_GT(blocks, 16u);
    const uint64_t windows = (blocks + 7) / 8;

    uint64_t before = reads.count();
    auto it = reader->NewIterator(bulk);
    int n = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) n++;
    EXPECT_TRUE(it->status().ok());
    EXPECT_EQ(n, 2000);
    EXPECT_EQ(reads.count() - before, windows);

    before = reads.count();
    FileMetaData observed;
    ASSERT_TRUE(ScanTable(reader.get(), &observed).ok());
    EXPECT_EQ(observed.num_entries, 2000u);
    EXPECT_EQ(reads.count() - before, windows);
  });
}

// The combined block-and-trailer read still reports damage as Corruption:
// a flipped bit in a CRC trailer, and a short device read.
TEST(SstTest, CombinedBlockReadSurfacesCorruption) {
  SimWorld world;
  test::ReadCommandCounter reads(&world);
  DbOptions opts = test::SmallDbOptions();
  world.Run([&] {
    BuildTable(world, opts, "000020.sst", 500);
    // Copy the table with one bit of block 0's trailer flipped. The trailer
    // is the first fixed32 that holds the masked CRC of every byte before it.
    std::unique_ptr<fs::RandomAccessFile> src;
    ASSERT_TRUE(world.fs->NewRandomAccessFile("000020.sst", &src).ok());
    std::string bytes;
    ASSERT_TRUE(src->Read(0, src->physical_size(), &bytes).ok());
    size_t trailer = 0;
    uint32_t crc = 0;
    for (size_t p = 1; trailer == 0 && p + 4 <= bytes.size(); p++) {
      crc = crc32c::Extend(crc, bytes.data() + p - 1, 1);
      if (crc32c::Unmask(DecodeFixed32(bytes.data() + p)) == crc) trailer = p;
    }
    ASSERT_GT(trailer, 0u);
    bytes[trailer] ^= 1;
    std::unique_ptr<fs::WritableFile> dst;
    ASSERT_TRUE(world.fs->NewWritableFile("000021.sst", &dst).ok());
    ASSERT_TRUE(dst->Append(bytes, src->logical_size()).ok());
    ASSERT_TRUE(dst->Close().ok());

    bool found = false;
    ValueType type;
    Value v;
    auto damaged = OpenTable(world, opts, "000021.sst", 21);
    ASSERT_NE(damaged, nullptr);
    EXPECT_TRUE(damaged->Get({}, IKey(UserKey(0), 200), &found, &type, &v)
                    .IsCorruption());
    auto it = damaged->NewIterator({});
    it->SeekToFirst();
    EXPECT_FALSE(it->Valid());
    EXPECT_TRUE(it->status().IsCorruption());

    auto sound = OpenTable(world, opts, "000020.sst", 20);
    ASSERT_NE(sound, nullptr);
    sim::FaultRule once;
    once.nth_hit = 1;
    reads.injector()->Arm("simfs.read.short", once);
    EXPECT_TRUE(sound->Get({}, IKey(UserKey(0), 200), &found, &type, &v)
                    .IsCorruption());
    reads.injector()->Disarm("simfs.read.short");
    ASSERT_TRUE(sound->Get({}, IKey(UserKey(0), 200), &found, &type, &v).ok());
    EXPECT_TRUE(found);
  });
}

TEST(WalTest, RoundTripRecords) {
  SimWorld world;
  world.Run([&] {
    std::unique_ptr<fs::WritableFile> file;
    ASSERT_TRUE(world.fs->NewWritableFile("000001.log", &file).ok());
    LogWriter writer(std::move(file));
    ASSERT_TRUE(writer.AddRecord("first", 5).ok());
    ASSERT_TRUE(writer.AddRecord("second record", 13).ok());
    ASSERT_TRUE(writer.AddRecord("", 0).ok());
    ASSERT_TRUE(writer.Close().ok());

    std::unique_ptr<fs::RandomAccessFile> rfile;
    ASSERT_TRUE(world.fs->NewRandomAccessFile("000001.log", &rfile).ok());
    LogReader reader(std::move(rfile));
    std::string payload;
    Status s;
    ASSERT_TRUE(reader.ReadRecord(&payload, &s));
    EXPECT_EQ(payload, "first");
    ASSERT_TRUE(reader.ReadRecord(&payload, &s));
    EXPECT_EQ(payload, "second record");
    ASSERT_TRUE(reader.ReadRecord(&payload, &s));
    EXPECT_EQ(payload, "");
    EXPECT_FALSE(reader.ReadRecord(&payload, &s));
    EXPECT_TRUE(s.ok());
  });
}

TEST(WalTest, TornTailStopsCleanly) {
  SimWorld world;
  world.Run([&] {
    std::unique_ptr<fs::WritableFile> file;
    ASSERT_TRUE(world.fs->NewWritableFile("000002.log", &file).ok());
    LogWriter writer(std::move(file));
    ASSERT_TRUE(writer.AddRecord("complete", 8).ok());
    // Simulate a torn write: raw garbage tail shorter than its header claims.
    ASSERT_TRUE(file == nullptr);  // moved
    std::unique_ptr<fs::WritableFile> dummy;
    ASSERT_TRUE(writer.Close().ok());

    // Append a truncated header by writing a fresh "torn" file.
    std::unique_ptr<fs::RandomAccessFile> rfile;
    ASSERT_TRUE(world.fs->NewRandomAccessFile("000002.log", &rfile).ok());
    LogReader reader(std::move(rfile));
    std::string payload;
    Status s;
    ASSERT_TRUE(reader.ReadRecord(&payload, &s));
    EXPECT_EQ(payload, "complete");
    EXPECT_FALSE(reader.ReadRecord(&payload, &s));
    EXPECT_TRUE(s.ok());
  });
}

}  // namespace
}  // namespace kvaccel::lsm
