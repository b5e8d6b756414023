#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "lsm/db.h"
#include "tests/test_util.h"

namespace kvaccel::lsm {
namespace {

using test::SimWorld;
using test::TestKey;

TEST(IngestTest, BatchVisibleAfterIngestion) {
  SimWorld world;
  world.Run([&] {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(test::SmallDbOptions(), world.MakeDbEnv(), &db).ok());
    std::vector<VersionedEntry> batch;
    for (int i = 0; i < 100; i++) {
      batch.push_back({TestKey(i), Value::Synthetic(i, 512), false,
                       db->AllocateSequence(1)});
    }
    ASSERT_TRUE(db->IngestSortedBatch(batch).ok());
    Value v;
    for (int i = 0; i < 100; i += 9) {
      ASSERT_TRUE(db->Get({}, TestKey(i), &v).ok()) << i;
      EXPECT_EQ(v.seed(), static_cast<uint64_t>(i));
    }
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(IngestTest, SequenceOrderingAgainstLiveWrites) {
  SimWorld world;
  world.Run([&] {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(test::SmallDbOptions(), world.MakeDbEnv(), &db).ok());
    // Old version written normally, newer version ingested, then an even
    // newer normal write: the global sequence order must decide.
    ASSERT_TRUE(db->Put({}, "k", Value::Inline("v1")).ok());
    SequenceNumber ingest_seq = db->AllocateSequence(1);
    ASSERT_TRUE(db->Put({}, "k2", Value::Inline("x")).ok());  // later seq
    std::vector<VersionedEntry> batch{
        {"k", Value::Inline("v2"), false, ingest_seq}};
    ASSERT_TRUE(db->IngestSortedBatch(batch).ok());
    Value v;
    ASSERT_TRUE(db->Get({}, "k", &v).ok());
    EXPECT_EQ(v.Materialize(), "v2");  // ingested seq > v1's seq
    // A normal write after ingestion wins over the ingested version.
    ASSERT_TRUE(db->Put({}, "k", Value::Inline("v3")).ok());
    ASSERT_TRUE(db->Get({}, "k", &v).ok());
    EXPECT_EQ(v.Materialize(), "v3");
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(IngestTest, StaleIngestDoesNotClobberNewerData) {
  SimWorld world;
  world.Run([&] {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(test::SmallDbOptions(), world.MakeDbEnv(), &db).ok());
    SequenceNumber old_seq = db->AllocateSequence(1);
    ASSERT_TRUE(db->Put({}, "k", Value::Inline("new")).ok());
    std::vector<VersionedEntry> batch{
        {"k", Value::Inline("old"), false, old_seq}};
    ASSERT_TRUE(db->IngestSortedBatch(batch).ok());
    Value v;
    ASSERT_TRUE(db->Get({}, "k", &v).ok());
    EXPECT_EQ(v.Materialize(), "new");  // ingested version is older
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(IngestTest, TombstonesIngest) {
  SimWorld world;
  world.Run([&] {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(test::SmallDbOptions(), world.MakeDbEnv(), &db).ok());
    ASSERT_TRUE(db->Put({}, TestKey(1), Value::Inline("x")).ok());
    ASSERT_TRUE(db->Put({}, TestKey(2), Value::Inline("y")).ok());
    std::vector<VersionedEntry> batch{
        {TestKey(1), Value(), true, db->AllocateSequence(1)}};
    ASSERT_TRUE(db->IngestSortedBatch(batch).ok());
    Value v;
    EXPECT_TRUE(db->Get({}, TestKey(1), &v).IsNotFound());
    EXPECT_TRUE(db->Get({}, TestKey(2), &v).ok());
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(IngestTest, RejectsUnsortedBatch) {
  SimWorld world;
  world.Run([&] {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(test::SmallDbOptions(), world.MakeDbEnv(), &db).ok());
    std::vector<VersionedEntry> batch{
        {"b", Value::Inline("1"), false, db->AllocateSequence(1)},
        {"a", Value::Inline("2"), false, db->AllocateSequence(1)}};
    EXPECT_TRUE(db->IngestSortedBatch(batch).IsInvalidArgument());
    std::vector<VersionedEntry> dup{
        {"a", Value::Inline("1"), false, db->AllocateSequence(1)},
        {"a", Value::Inline("2"), false, db->AllocateSequence(1)}};
    EXPECT_TRUE(db->IngestSortedBatch(dup).IsInvalidArgument());
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(IngestTest, EmptyBatchIsNoop) {
  SimWorld world;
  world.Run([&] {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(test::SmallDbOptions(), world.MakeDbEnv(), &db).ok());
    EXPECT_TRUE(db->IngestSortedBatch({}).ok());
    ASSERT_TRUE(db->Close().ok());
  });
}

// Regression test for a sequence-inversion read bug caught by the nemesis
// harness (seed 1317456661): rollback ingests device pairs at historical
// sequences, so an ingested file can hold a NEWER version of a key than a
// WAL-replayed memtable entry. Once compaction carries that file below L0,
// a level-ordered point lookup that stops at its first hit returns the
// stale version — first from the memtable, and after a flush from a
// newer-numbered L0 file with a LOWER sequence. Get must always surface the
// highest sequence regardless of which level holds it.
TEST(IngestTest, NewerIngestShadowsStaleVersionAcrossLevels) {
  SimWorld world;
  world.Run([&] {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(test::SmallDbOptions(), world.MakeDbEnv(), &db).ok());
    // Stale version sits in the memtable; nothing below flushes it.
    ASSERT_TRUE(db->Put({}, "k", Value::Inline("stale")).ok());
    std::vector<VersionedEntry> batch{
        {"k", Value::Inline("fresh"), false, db->AllocateSequence(1)}};
    ASSERT_TRUE(db->IngestSortedBatch(batch).ok());

    auto covering_level = [&]() {
      int level = -1;
      for (const auto& f : db->ListSstFiles()) {
        if (Slice("k").compare(ExtractUserKey(f.smallest)) >= 0 &&
            Slice("k").compare(ExtractUserKey(f.largest)) <= 0) {
          level = std::max(level, f.level);
        }
      }
      return level;
    };

    // Sibling ingests (disjoint keys) push L0 past its compaction trigger
    // until the file carrying "fresh" has been compacted below L0.
    int next = 1000;
    for (int round = 0; round < 20 && covering_level() < 1; round++) {
      std::vector<VersionedEntry> filler;
      for (int i = 0; i < 32; i++, next++) {
        filler.push_back({TestKey(next), Value::Synthetic(next, 4096), false,
                          db->AllocateSequence(1)});
      }
      ASSERT_TRUE(db->IngestSortedBatch(filler).ok());
      ASSERT_TRUE(db->WaitForCompactionIdle().ok());
    }
    ASSERT_GE(covering_level(), 1);

    // Memtable "stale" vs L1+ "fresh": the ingested sequence must win.
    Value v;
    ASSERT_TRUE(db->Get({}, "k", &v).ok());
    EXPECT_EQ(v.Materialize(), "fresh");

    // Flush the stale version into a brand-new L0 file: lower sequence in a
    // newer file above "fresh" in the tree. The ingested version still wins.
    ASSERT_TRUE(db->FlushAll().ok());
    ASSERT_TRUE(db->Get({}, "k", &v).ok());
    EXPECT_EQ(v.Materialize(), "fresh");

    ASSERT_TRUE(db->Close().ok());
  });
}

// Regression: compaction dropped a tombstone once no SST below or above the
// job held its key, without looking at the memtables. Rollback, the HA
// backup and a resync ingest at historical sequences, so a memtable can hold
// a version OLDER than an ingested tombstone (a redirected delete rolled
// back while the key's earlier put is unflushed). With the tombstone gone,
// Get served the deleted put again.
TEST(IngestTest, CompactionKeepsTombstoneOverOlderMemtableVersion) {
  SimWorld world;
  world.Run([&] {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(test::SmallDbOptions(), world.MakeDbEnv(), &db).ok());
    ASSERT_TRUE(db->Put({}, "k", Value::Inline("put")).ok());
    std::vector<VersionedEntry> tombstone{
        {"k", Value(), true, db->AllocateSequence(1)}};
    ASSERT_TRUE(db->IngestSortedBatch(tombstone).ok());
    Value v;
    ASSERT_TRUE(db->Get({}, "k", &v).IsNotFound());

    // Four more L0 files take L0 past its trigger of four: the file holding
    // the tombstone compacts into an empty L1 while the put stays unflushed.
    for (int f = 0; f < 4; f++) {
      std::vector<VersionedEntry> filler;
      for (int i = 0; i < 8; i++) {
        filler.push_back({TestKey(f * 8 + i), Value::Synthetic(i, 4096),
                          false, db->AllocateSequence(1)});
      }
      ASSERT_TRUE(db->IngestSortedBatch(filler).ok());
    }
    ASSERT_TRUE(db->WaitForCompactionIdle().ok());
    ASSERT_GE(db->stats().compaction_count, 1u);

    Status s = db->Get({}, "k", &v);
    EXPECT_TRUE(s.IsNotFound()) << s.ToString() << " " << v.Materialize();
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(IngestTest, IngestedDataSurvivesCompactionAndRestart) {
  SimWorld world;
  world.Run([&] {
    DbOptions opts = test::SmallDbOptions();
    {
      std::unique_ptr<DB> db;
      ASSERT_TRUE(DB::Open(opts, world.MakeDbEnv(), &db).ok());
      std::vector<VersionedEntry> batch;
      for (int i = 0; i < 200; i++) {
        batch.push_back({TestKey(i), Value::Synthetic(i, 4096), false,
                         db->AllocateSequence(1)});
      }
      ASSERT_TRUE(db->IngestSortedBatch(batch).ok());
      // More churn to force compaction over the ingested file.
      for (int i = 0; i < 500; i++) {
        ASSERT_TRUE(db->Put({}, TestKey(i % 200),
                            Value::Synthetic(1000 + i, 4096)).ok());
      }
      ASSERT_TRUE(db->FlushAll().ok());
      ASSERT_TRUE(db->WaitForCompactionIdle().ok());
      ASSERT_TRUE(db->Close().ok());
    }
    {
      std::unique_ptr<DB> db;
      ASSERT_TRUE(DB::Open(opts, world.MakeDbEnv(), &db).ok());
      Value v;
      // Last churn write of key k (k in 150..199) was i = 300 + k,
      // seed 1000 + i.
      for (int k = 150; k < 200; k++) {
        ASSERT_TRUE(db->Get({}, TestKey(k), &v).ok()) << k;
        EXPECT_EQ(v.seed(), static_cast<uint64_t>(1300 + k - 100)) << k;
      }
      ASSERT_TRUE(db->Close().ok());
    }
  });
}

}  // namespace
}  // namespace kvaccel::lsm
