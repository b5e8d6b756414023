#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "lsm/version.h"
#include "lsm/wal.h"
#include "tests/test_util.h"

namespace kvaccel::lsm {
namespace {

using test::SimWorld;

std::string IKey(const std::string& ukey, SequenceNumber seq) {
  std::string out;
  AppendInternalKey(&out, ukey, seq, ValueType::kValue);
  return out;
}

FileMetaPtr File(uint64_t number, const std::string& smallest,
                 const std::string& largest, uint64_t size = 1 << 20) {
  auto f = std::make_shared<FileMetaData>();
  f->number = number;
  f->smallest = IKey(smallest, 100);
  f->largest = IKey(largest, 1);
  f->logical_size = size;
  f->num_entries = 10;
  return f;
}

TEST(VersionEditTest, EncodeDecodeRoundTrip) {
  VersionEdit edit;
  edit.SetLogNumber(7);
  edit.SetNextFileNumber(42);
  edit.SetLastSequence(99999);
  edit.AddFile(0, File(10, "aaa", "mmm"));
  edit.AddFile(3, File(11, "nnn", "zzz", 123456));
  edit.DeleteFile(1, 5);

  std::string encoded;
  edit.EncodeTo(&encoded);
  VersionEdit decoded;
  ASSERT_TRUE(VersionEdit::DecodeFrom(encoded, &decoded).ok());
  ASSERT_EQ(decoded.added().size(), 2u);
  EXPECT_EQ(decoded.added()[0].first, 0);
  EXPECT_EQ(decoded.added()[0].second->number, 10u);
  EXPECT_EQ(decoded.added()[1].second->logical_size, 123456u);
  ASSERT_EQ(decoded.deleted().size(), 1u);
  EXPECT_EQ(decoded.deleted()[0], (std::pair<int, uint64_t>{1, 5}));
}

TEST(VersionEditTest, DecodeRejectsGarbage) {
  // Well-formed edits whose level is past the level table.
  VersionEdit add_at_9, delete_at_9;
  add_at_9.AddFile(9, File(10, "aaa", "mmm"));
  delete_at_9.DeleteFile(kNumLevels, 5);
  std::string add_encoded, delete_encoded;
  add_at_9.EncodeTo(&add_encoded);
  delete_at_9.EncodeTo(&delete_encoded);
  for (const std::string& input :
       {std::string("\xff\xff junk"), add_encoded, delete_encoded}) {
    VersionEdit edit;
    EXPECT_TRUE(VersionEdit::DecodeFrom(input, &edit).IsCorruption());
  }
}

class VersionSetTest : public ::testing::Test {
 protected:
  VersionSetTest() : world_(), options_(test::SmallDbOptions()) {}

  // Runs `body` inside the sim with a fresh VersionSet.
  void Run(std::function<void(VersionSet&)> body) {
    world_.Run([&] {
      VersionSet vs(options_, world_.fs.get());
      ASSERT_TRUE(vs.Create().ok());
      body(vs);
      vs.CloseManifest();
    });
  }

  test::SimWorld world_;
  DbOptions options_;
};

TEST_F(VersionSetTest, ApplyAddsAndSortsFiles) {
  Run([&](VersionSet& vs) {
    VersionEdit e1;
    e1.AddFile(1, File(3, "ccc", "ddd"));
    e1.AddFile(1, File(2, "aaa", "bbb"));
    e1.AddFile(0, File(4, "aaa", "zzz"));
    e1.AddFile(0, File(5, "aaa", "zzz"));
    ASSERT_TRUE(vs.LogAndApply(&e1).ok());
    auto v = vs.current();
    // L0 newest (highest number) first.
    ASSERT_EQ(v->NumLevelFiles(0), 2);
    EXPECT_EQ(v->files(0)[0]->number, 5u);
    // L1 sorted by smallest key.
    ASSERT_EQ(v->NumLevelFiles(1), 2);
    EXPECT_EQ(v->files(1)[0]->number, 2u);
    EXPECT_EQ(v->LevelBytes(1), 2u << 20);
  });
}

TEST_F(VersionSetTest, DeleteRemovesFiles) {
  Run([&](VersionSet& vs) {
    VersionEdit e1;
    e1.AddFile(1, File(2, "aaa", "bbb"));
    ASSERT_TRUE(vs.LogAndApply(&e1).ok());
    VersionEdit e2;
    e2.DeleteFile(1, 2);
    ASSERT_TRUE(vs.LogAndApply(&e2).ok());
    EXPECT_EQ(vs.current()->NumLevelFiles(1), 0);
  });
}

TEST_F(VersionSetTest, OverlappingInputs) {
  Run([&](VersionSet& vs) {
    VersionEdit e;
    e.AddFile(1, File(2, "aaa", "ccc"));
    e.AddFile(1, File(3, "ddd", "fff"));
    e.AddFile(1, File(4, "ggg", "iii"));
    ASSERT_TRUE(vs.LogAndApply(&e).ok());
    auto v = vs.current();
    auto overlap = v->OverlappingInputs(1, IKey("bbb", 50), IKey("eee", 50));
    ASSERT_EQ(overlap.size(), 2u);
    EXPECT_EQ(overlap[0]->number, 2u);
    EXPECT_EQ(overlap[1]->number, 3u);
    EXPECT_TRUE(v->OverlappingInputs(1, IKey("jjj", 1), IKey("kkk", 1))
                    .empty());
  });
}

TEST_F(VersionSetTest, ForEachOverlappingProbesL0NewestFirstThenLevels) {
  Run([&](VersionSet& vs) {
    VersionEdit e;
    e.AddFile(0, File(10, "aaa", "zzz"));
    e.AddFile(0, File(11, "aaa", "zzz"));
    e.AddFile(1, File(5, "kkk", "mmm"));
    e.AddFile(2, File(6, "aaa", "zzz"));
    ASSERT_TRUE(vs.LogAndApply(&e).ok());
    std::vector<uint64_t> probed;
    vs.current()->ForEachOverlapping(
        Slice("lll"), [&](int, const FileMetaPtr& f) {
          probed.push_back(f->number);
          return true;
        });
    // L0 newest first (11, 10), then L1 (5), then L2 (6).
    EXPECT_EQ(probed, (std::vector<uint64_t>{11, 10, 5, 6}));
  });
}

TEST_F(VersionSetTest, ScoresAndPendingBytes) {
  Run([&](VersionSet& vs) {
    // Empty: no compaction wanted.
    EXPECT_LT(vs.MaxCompactionScore(nullptr), 1.0);
    VersionEdit e;
    for (int i = 0; i < options_.l0_compaction_trigger + 1; i++) {
      e.AddFile(0, File(10 + i, "aaa", "zzz"));
    }
    ASSERT_TRUE(vs.LogAndApply(&e).ok());
    int level = -1;
    EXPECT_GE(vs.MaxCompactionScore(&level), 1.0);
    EXPECT_EQ(level, 0);
    EXPECT_GT(vs.EstimatedPendingCompactionBytes(), 0u);
  });
}

TEST_F(VersionSetTest, PickCompactionL0TakesAllAndSerializes) {
  Run([&](VersionSet& vs) {
    VersionEdit e;
    for (int i = 0; i < 4; i++) e.AddFile(0, File(10 + i, "aaa", "zzz"));
    e.AddFile(1, File(20, "bbb", "ccc"));
    ASSERT_TRUE(vs.LogAndApply(&e).ok());

    auto c = vs.PickCompaction();
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->level, 0);
    EXPECT_EQ(c->inputs[0].size(), 4u);
    EXPECT_EQ(c->inputs[1].size(), 1u);  // overlapping L1 file dragged in
    EXPECT_TRUE(c->inputs[0][0]->being_compacted);

    // Second pick must refuse: L0->L1 is serialized.
    EXPECT_EQ(vs.PickCompaction(), nullptr);
    c->MarkBeingCompacted(false);
  });
}

TEST_F(VersionSetTest, PickCompactionSkipsBusyDeepFiles) {
  Run([&](VersionSet& vs) {
    DbOptions small = options_;
    VersionEdit e;
    // L1 over its byte budget (base is 1 MiB in SmallDbOptions).
    e.AddFile(1, File(2, "aaa", "ccc", 1 << 20));
    e.AddFile(1, File(3, "ddd", "fff", 1 << 20));
    ASSERT_TRUE(vs.LogAndApply(&e).ok());
    auto c1 = vs.PickCompaction();
    ASSERT_NE(c1, nullptr);
    EXPECT_EQ(c1->level, 1);
    ASSERT_EQ(c1->inputs[0].size(), 1u);
    // Second pick takes the *other* L1 file (round-robin, not busy).
    auto c2 = vs.PickCompaction();
    if (c2 != nullptr) {
      EXPECT_NE(c2->inputs[0][0]->number, c1->inputs[0][0]->number);
      c2->MarkBeingCompacted(false);
    }
    c1->MarkBeingCompacted(false);
  });
}

TEST_F(VersionSetTest, MaxBytesForLevelGrowsByMultiplier) {
  Run([&](VersionSet& vs) {
    uint64_t l1 = vs.MaxBytesForLevel(1);
    uint64_t l2 = vs.MaxBytesForLevel(2);
    uint64_t l3 = vs.MaxBytesForLevel(3);
    EXPECT_EQ(l1, options_.max_bytes_for_level_base);
    EXPECT_NEAR(static_cast<double>(l2) / l1,
                options_.max_bytes_for_level_multiplier, 0.01);
    EXPECT_NEAR(static_cast<double>(l3) / l2,
                options_.max_bytes_for_level_multiplier, 0.01);
  });
}

// ---------------- Priority compaction scheduler ----------------

TEST_F(VersionSetTest, PickCompactionPrefersL0OverHigherScoringDeepLevel) {
  Run([&](VersionSet& vs) {
    VersionEdit e;
    // L0 at its trigger (SmallDbOptions: 4 files) ...
    e.AddFile(0, File(10, "aaa", "zzz"));
    e.AddFile(0, File(11, "aaa", "zzz"));
    e.AddFile(0, File(12, "aaa", "zzz"));
    e.AddFile(0, File(13, "aaa", "zzz"));
    // ... while L1 holds 5x its 1 MB budget — FIFO or pure score order
    // would drain L1 first and let L0 depth stall writers.
    for (int i = 0; i < 5; i++) {
      std::string lo(1, static_cast<char>('b' + 2 * i));
      std::string hi(1, static_cast<char>('c' + 2 * i));
      e.AddFile(1, File(20 + i, lo, hi, 1 << 20));
    }
    ASSERT_TRUE(vs.LogAndApply(&e).ok());

    auto c = vs.PickCompaction();
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->level, 0);
    EXPECT_EQ(c->output_level, 1);
    EXPECT_FALSE(c->is_intra_l0);
    EXPECT_EQ(c->inputs[0].size(), 4u);
  });
}

TEST_F(VersionSetTest, PickCompactionIntraL0WhenL0ToL1Busy) {
  Run([&](VersionSet& vs) {
    VersionEdit e1;
    for (int i = 0; i < 4; i++) e1.AddFile(0, File(10 + i, "aaa", "zzz"));
    ASSERT_TRUE(vs.LogAndApply(&e1).ok());

    // The L0->L1 job takes the current four files and marks them busy.
    auto running = vs.PickCompaction();
    ASSERT_NE(running, nullptr);
    EXPECT_EQ(running->level, 0);
    EXPECT_FALSE(running->is_intra_l0);

    // While it runs, flushes keep landing. Below the slowdown trigger
    // (SmallDbOptions: 8) intra-L0 is wasted write amp, so nothing runs.
    VersionEdit e2;
    for (int i = 0; i < 3; i++) e2.AddFile(0, File(20 + i, "aaa", "zzz"));
    ASSERT_TRUE(vs.LogAndApply(&e2).ok());
    EXPECT_EQ(vs.PickCompaction(), nullptr);

    // One more flush crosses the trigger: the idle files merge among
    // themselves (intra-L0) instead of waiting behind the busy job.
    VersionEdit e3;
    e3.AddFile(0, File(23, "aaa", "zzz"));
    ASSERT_TRUE(vs.LogAndApply(&e3).ok());
    auto relief = vs.PickCompaction();
    ASSERT_NE(relief, nullptr);
    EXPECT_TRUE(relief->is_intra_l0);
    EXPECT_EQ(relief->level, 0);
    EXPECT_EQ(relief->output_level, 0);
    EXPECT_EQ(relief->inputs[0].size(), 4u);  // only the non-busy files
    EXPECT_TRUE(relief->inputs[1].empty());
  });
}

TEST_F(VersionSetTest, PickCompactionWithholdsDeepJobsWhenAsked) {
  Run([&](VersionSet& vs) {
    VersionEdit e;
    e.AddFile(1, File(20, "bbb", "ccc", 2 << 20));  // 2x the L1 budget
    ASSERT_TRUE(vs.LogAndApply(&e).ok());

    // allow_deep=false is the worker loop reserving its last slot for L0.
    EXPECT_EQ(vs.PickCompaction(/*allow_deep=*/false), nullptr);
    auto c = vs.PickCompaction(/*allow_deep=*/true);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->level, 1);
    EXPECT_EQ(c->output_level, 2);
  });
}

TEST_F(VersionSetTest, PickCompactionRanksDeepLevelsByScore) {
  Run([&](VersionSet& vs) {
    VersionEdit e;
    // L1 at 2x its budget, L2 at 3x (base 1 MB, multiplier 10 -> 10 MB):
    // the more oversubscribed level must drain first.
    e.AddFile(1, File(20, "bbb", "ccc", 2 << 20));
    for (int i = 0; i < 3; i++) {
      std::string lo(1, static_cast<char>('d' + 2 * i));
      std::string hi(1, static_cast<char>('e' + 2 * i));
      e.AddFile(2, File(30 + i, lo, hi, 10 << 20));
    }
    ASSERT_TRUE(vs.LogAndApply(&e).ok());

    auto c = vs.PickCompaction();
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->level, 2);
  });
}

TEST_F(VersionSetTest, CompactionQueueDepthCountsRunnableLevels) {
  Run([&](VersionSet& vs) {
    EXPECT_EQ(vs.CompactionQueueDepth(), 0);
    VersionEdit e;
    for (int i = 0; i < 4; i++) e.AddFile(0, File(10 + i, "aaa", "zzz"));
    e.AddFile(1, File(20, "bbb", "ccc", 2 << 20));
    e.AddFile(2, File(30, "ddd", "eee", 11 << 20));
    ASSERT_TRUE(vs.LogAndApply(&e).ok());
    EXPECT_EQ(vs.CompactionQueueDepth(), 3);
  });
}

TEST_F(VersionSetTest, RecoverRestoresState) {
  world_.Run([&] {
    {
      VersionSet vs(options_, world_.fs.get());
      ASSERT_TRUE(vs.Create().ok());
      vs.SetLastSequence(1234);
      VersionEdit e;
      e.AddFile(2, File(9, "mmm", "nnn", 777));
      ASSERT_TRUE(vs.LogAndApply(&e).ok());
      ASSERT_TRUE(vs.CloseManifest().ok());
    }
    {
      VersionSet vs(options_, world_.fs.get());
      ASSERT_TRUE(vs.Recover().ok());
      EXPECT_EQ(vs.current()->NumLevelFiles(2), 1);
      EXPECT_EQ(vs.current()->files(2)[0]->number, 9u);
      EXPECT_EQ(vs.current()->files(2)[0]->logical_size, 777u);
      EXPECT_EQ(vs.last_sequence(), 1234u);
      ASSERT_TRUE(vs.CloseManifest().ok());
    }
  });
}

}  // namespace
}  // namespace kvaccel::lsm
