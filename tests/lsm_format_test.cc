#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/random.h"
#include "lsm/bloom.h"
#include "lsm/cache.h"
#include "lsm/dbformat.h"
#include "lsm/filename.h"
#include "lsm/iterator.h"
#include "lsm/memtable.h"
#include "lsm/skiplist.h"
#include "lsm/write_batch.h"

namespace kvaccel::lsm {
namespace {

TEST(DbFormatTest, PackUnpack) {
  uint64_t packed = PackSequenceAndType(12345, ValueType::kValue);
  SequenceNumber seq;
  ValueType t;
  UnpackSequenceAndType(packed, &seq, &t);
  EXPECT_EQ(seq, 12345u);
  EXPECT_EQ(t, ValueType::kValue);
}

TEST(DbFormatTest, InternalKeyExtraction) {
  std::string ikey;
  AppendInternalKey(&ikey, "mykey", 42, ValueType::kDeletion);
  EXPECT_EQ(ikey.size(), 5u + 8u);
  EXPECT_EQ(ExtractUserKey(ikey).ToString(), "mykey");
  EXPECT_EQ(ExtractSequence(ikey), 42u);
  EXPECT_EQ(ExtractValueType(ikey), ValueType::kDeletion);
}

TEST(DbFormatTest, ComparatorOrdersUserKeyAscSeqDesc) {
  InternalKeyComparator cmp;
  std::string a, b, c;
  AppendInternalKey(&a, "aaa", 100, ValueType::kValue);
  AppendInternalKey(&b, "aaa", 50, ValueType::kValue);
  AppendInternalKey(&c, "bbb", 1, ValueType::kValue);
  EXPECT_LT(cmp.Compare(a, b), 0);  // newer sorts first for same user key
  EXPECT_LT(cmp.Compare(b, c), 0);  // user key dominates
  EXPECT_EQ(cmp.Compare(a, a), 0);
}

TEST(DbFormatTest, LookupKeySeeksNewest) {
  InternalKeyComparator cmp;
  LookupKey lk("k", 100);
  std::string newer, exact, older;
  AppendInternalKey(&newer, "k", 150, ValueType::kValue);
  AppendInternalKey(&exact, "k", 100, ValueType::kValue);
  AppendInternalKey(&older, "k", 50, ValueType::kValue);
  // Seek key must land after entries newer than the snapshot but at/before
  // the snapshot version.
  EXPECT_GT(cmp.Compare(lk.internal_key(), newer), 0);
  EXPECT_LE(cmp.Compare(lk.internal_key(), exact), 0);
  EXPECT_LT(cmp.Compare(lk.internal_key(), older), 0);
}

struct IntComparator {
  int operator()(const uint64_t& a, const uint64_t& b) const {
    if (a < b) return -1;
    if (a > b) return +1;
    return 0;
  }
};

TEST(SkipListTest, InsertAndIterateSorted) {
  Arena arena;
  SkipList<uint64_t, IntComparator> list(IntComparator(), &arena);
  Random64 rng(301);
  std::set<uint64_t> keys;
  for (int i = 0; i < 2000; i++) {
    uint64_t k = rng.Uniform(100000);
    if (keys.insert(k).second) list.Insert(k);
  }
  for (uint64_t k : keys) EXPECT_TRUE(list.Contains(k));
  EXPECT_FALSE(list.Contains(1000001));

  SkipList<uint64_t, IntComparator>::Iterator it(&list);
  it.SeekToFirst();
  for (uint64_t k : keys) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key(), k);
    it.Next();
  }
  EXPECT_FALSE(it.Valid());
}

TEST(SkipListTest, Seek) {
  Arena arena;
  SkipList<uint64_t, IntComparator> list(IntComparator(), &arena);
  for (uint64_t k : {10u, 20u, 30u}) list.Insert(k);
  SkipList<uint64_t, IntComparator>::Iterator it(&list);
  it.Seek(15);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 20u);
  it.Seek(30);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 30u);
  it.Seek(31);
  EXPECT_FALSE(it.Valid());
}

TEST(MemTableTest, AddGet) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "apple", Value::Inline("red"));
  mem.Add(2, ValueType::kValue, "banana", Value::Inline("yellow"));
  Value v;
  Status s;
  EXPECT_TRUE(mem.Get(LookupKey("apple", 10), &v, &s));
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(v.Materialize(), "red");
  EXPECT_FALSE(mem.Get(LookupKey("cherry", 10), &v, &s));
  EXPECT_EQ(mem.NumEntries(), 2u);
}

TEST(MemTableTest, NewerVersionWins) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "k", Value::Inline("v1"));
  mem.Add(5, ValueType::kValue, "k", Value::Inline("v2"));
  Value v;
  Status s;
  ASSERT_TRUE(mem.Get(LookupKey("k", 100), &v, &s));
  EXPECT_EQ(v.Materialize(), "v2");
  // Snapshot below the second version sees the first.
  ASSERT_TRUE(mem.Get(LookupKey("k", 3), &v, &s));
  EXPECT_EQ(v.Materialize(), "v1");
}

TEST(MemTableTest, TombstoneDecides) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "k", Value::Inline("v"));
  mem.Add(2, ValueType::kDeletion, "k", Value());
  Value v;
  Status s;
  ASSERT_TRUE(mem.Get(LookupKey("k", 100), &v, &s));
  EXPECT_TRUE(s.IsNotFound());
}

TEST(MemTableTest, LogicalSizeCountsSyntheticValues) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "abcd", Value::Synthetic(7, 4096));
  EXPECT_EQ(mem.LogicalSize(), 4u + 8u + 4096u);
  // Host memory stays compact.
  EXPECT_LT(mem.ApproximateMemoryUsage(), 2u << 20);
}

TEST(MemTableTest, IteratorSortedByInternalKey) {
  MemTable mem;
  mem.Add(3, ValueType::kValue, "b", Value::Inline("b3"));
  mem.Add(1, ValueType::kValue, "a", Value::Inline("a1"));
  mem.Add(2, ValueType::kValue, "c", Value::Inline("c2"));
  auto it = mem.NewIterator();
  std::vector<std::string> keys;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    keys.push_back(ExtractUserKey(it->key()).ToString());
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(WriteBatchTest, PutDeleteRoundTrip) {
  WriteBatch batch;
  batch.Put("k1", Value::Inline("v1"));
  batch.Delete("k2");
  batch.Put("k3", Value::Synthetic(9, 100));
  batch.SetSequence(50);
  EXPECT_EQ(batch.Count(), 3u);
  EXPECT_EQ(batch.LogicalSize(), (2 + 8 + 2) + (2 + 8) + (2 + 8 + 100));

  WriteBatch parsed;
  ASSERT_TRUE(WriteBatch::ParseFrom(batch.Contents(), &parsed).ok());
  EXPECT_EQ(parsed.Count(), 3u);
  EXPECT_EQ(parsed.Sequence(), 50u);
  EXPECT_EQ(parsed.LogicalSize(), batch.LogicalSize());

  MemTable mem;
  ASSERT_TRUE(parsed.InsertInto(&mem).ok());
  Value v;
  Status s;
  ASSERT_TRUE(mem.Get(LookupKey("k1", 100), &v, &s));
  EXPECT_EQ(v.Materialize(), "v1");
  ASSERT_TRUE(mem.Get(LookupKey("k2", 100), &v, &s));
  EXPECT_TRUE(s.IsNotFound());
}

TEST(WriteBatchTest, SequencesAreConsecutive) {
  WriteBatch batch;
  batch.Put("a", Value::Inline("1"));
  batch.Put("a", Value::Inline("2"));
  batch.SetSequence(10);
  MemTable mem;
  ASSERT_TRUE(batch.InsertInto(&mem).ok());
  Value v;
  Status s;
  ASSERT_TRUE(mem.Get(LookupKey("a", 100), &v, &s));
  EXPECT_EQ(v.Materialize(), "2");  // seq 11 wins
  ASSERT_TRUE(mem.Get(LookupKey("a", 10), &v, &s));
  EXPECT_EQ(v.Materialize(), "1");
}

TEST(WriteBatchTest, ParseRejectsGarbage) {
  WriteBatch batch;
  EXPECT_TRUE(WriteBatch::ParseFrom(Slice("xy"), &batch).IsCorruption());
  std::string bad(12, '\0');
  bad[8] = 2;  // claims 2 entries, provides none
  EXPECT_TRUE(WriteBatch::ParseFrom(bad, &batch).IsCorruption());
}

TEST(FileNameTest, RoundTripsPastSixDigitsAndRejectsOtherNames) {
  struct Case {
    uint64_t number;
    std::string table, log, manifest;
  };
  const Case cases[] = {
      {0, "000000.sst", "000000.log", "MANIFEST-000000"},
      {999999, "999999.sst", "999999.log", "MANIFEST-999999"},
      {1000000, "1000000.sst", "1000000.log", "MANIFEST-1000000"},
      {uint64_t{1} << 63, "9223372036854775808.sst",
       "9223372036854775808.log", "MANIFEST-9223372036854775808"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(TableFileName(c.number), c.table);
    EXPECT_EQ(LogFileName(c.number), c.log);
    EXPECT_EQ(ManifestFileName(c.number), c.manifest);
    const std::pair<std::string, FileType> names[] = {
        {c.table, FileType::kTable},
        {c.log, FileType::kLog},
        {c.manifest, FileType::kManifest}};
    for (const auto& [name, want] : names) {
      uint64_t number = 12345;
      FileType type = want == FileType::kLog ? FileType::kTable
                                             : FileType::kLog;
      ASSERT_TRUE(ParseFileName(name, &number, &type)) << name;
      EXPECT_EQ(number, c.number) << name;
      EXPECT_EQ(type, want) << name;
    }
  }
  for (const char* name :
       {"000001.sst.bad", "MANIFEST-", "12ab.log", "MANIFEST-000001.bad",
        "CURRENT", "CURRENT.tmp", "FENCE", "KVX_INDEX", "1.sst", "01000000.log",
        "-00001.log", "+00001.sst", "000001.ldb", "18446744073709551616.sst"}) {
    uint64_t number;
    FileType type;
    EXPECT_FALSE(ParseFileName(name, &number, &type)) << name;
  }
}

TEST(BloomTest, NoFalseNegatives) {
  BloomFilter bloom(10);
  std::vector<uint32_t> hashes;
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; i++) {
    keys.push_back("key" + std::to_string(i));
    hashes.push_back(BloomFilter::HashKey(keys.back()));
  }
  std::string filter;
  bloom.CreateFilter(hashes, &filter);
  for (const auto& k : keys) {
    EXPECT_TRUE(bloom.KeyMayMatch(BloomFilter::HashKey(k), filter));
  }
}

TEST(BloomTest, LowFalsePositiveRate) {
  BloomFilter bloom(10);
  std::vector<uint32_t> hashes;
  for (int i = 0; i < 1000; i++) {
    hashes.push_back(BloomFilter::HashKey("in" + std::to_string(i)));
  }
  std::string filter;
  bloom.CreateFilter(hashes, &filter);
  int false_positives = 0;
  for (int i = 0; i < 10000; i++) {
    if (bloom.KeyMayMatch(BloomFilter::HashKey("out" + std::to_string(i)),
                          filter)) {
      false_positives++;
    }
  }
  // ~1% expected at 10 bits/key; allow generous slack.
  EXPECT_LT(false_positives, 300);
}

TEST(BlockCacheTest, HitMissAndLru) {
  BlockCache cache(100);
  auto block = [](uint64_t logical) {
    auto b = std::make_shared<BlockCache::Block>();
    b->logical = logical;
    return b;
  };
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  cache.Insert(1, 0, block(40));
  cache.Insert(1, 100, block(40));
  EXPECT_NE(cache.Lookup(1, 0), nullptr);   // refresh: (1,0) is MRU
  cache.Insert(2, 0, block(40));            // evicts LRU (1,100)
  EXPECT_EQ(cache.Lookup(1, 100), nullptr);
  EXPECT_NE(cache.Lookup(1, 0), nullptr);
  EXPECT_NE(cache.Lookup(2, 0), nullptr);
  EXPECT_LE(cache.usage(), 100u);
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
}

TEST(BlockCacheTest, ZeroCapacityCachesNothing) {
  BlockCache cache(0);
  auto b = std::make_shared<BlockCache::Block>();
  b->logical = 10;
  cache.Insert(1, 0, b);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
}

TEST(BlockCacheTest, Erase) {
  BlockCache cache(1000);
  auto b = std::make_shared<BlockCache::Block>();
  b->logical = 10;
  cache.Insert(3, 7, b);
  EXPECT_NE(cache.Lookup(3, 7), nullptr);
  cache.Erase(3, 7);
  EXPECT_EQ(cache.Lookup(3, 7), nullptr);
  EXPECT_EQ(cache.usage(), 0u);
}

// ---------- MergingIterator ----------

using Entries = std::vector<std::pair<std::string, std::string>>;

struct BytewiseOrder {
  int Compare(const Slice& a, const Slice& b) const { return a.compare(b); }
};

// A child over entries sorted by key, each key once.
class VectorIterator : public Iterator {
 public:
  explicit VectorIterator(Entries entries)
      : entries_(std::move(entries)), pos_(entries_.size()) {}

  bool Valid() const override { return pos_ < entries_.size(); }
  void SeekToFirst() override { pos_ = 0; }
  void Seek(const Slice& target) override {
    pos_ = 0;
    while (pos_ < entries_.size() && Slice(entries_[pos_].first) < target) {
      pos_++;
    }
  }
  void Next() override { pos_++; }
  Slice key() const override { return entries_[pos_].first; }
  Slice value() const override { return entries_[pos_].second; }
  Status status() const override { return Status::OK(); }

 private:
  Entries entries_;
  size_t pos_;
};

std::unique_ptr<Iterator> Merge(const std::vector<Entries>& children) {
  std::vector<std::unique_ptr<Iterator>> its;
  for (const Entries& c : children) {
    its.push_back(std::make_unique<VectorIterator>(c));
  }
  return std::make_unique<MergingIterator<BytewiseOrder>>(BytewiseOrder{},
                                                          std::move(its));
}

// Everything from the current position on.
Entries Drain(Iterator* it) {
  Entries out;
  for (; it->Valid(); it->Next()) {
    out.emplace_back(it->key().ToString(), it->value().ToString());
  }
  return out;
}

TEST(MergingIteratorTest, EqualKeysComeOutEarliestChildFirst) {
  auto it = Merge({{{"a", "0"}, {"b", "0"}},
                   {{"a", "1"}, {"c", "1"}},
                   {{"a", "2"}, {"b", "2"}}});
  it->SeekToFirst();
  EXPECT_EQ(Drain(it.get()), (Entries{{"a", "0"},
                                      {"a", "1"},
                                      {"a", "2"},
                                      {"b", "0"},
                                      {"b", "2"},
                                      {"c", "1"}}));
  EXPECT_TRUE(it->status().ok());
}

TEST(MergingIteratorTest, ChildrenExhaustAtDifferentPoints) {
  auto it = Merge({{{"a", "0"}, {"b", "0"}},
                   {{"c", "1"}, {"e", "1"}, {"g", "1"}, {"h", "1"}},
                   {{"d", "2"}}});
  it->SeekToFirst();
  EXPECT_EQ(Drain(it.get()), (Entries{{"a", "0"},
                                      {"b", "0"},
                                      {"c", "1"},
                                      {"d", "2"},
                                      {"e", "1"},
                                      {"g", "1"},
                                      {"h", "1"}}));
}

TEST(MergingIteratorTest, SeekLandsMidRangeAndNextCrossesChildren) {
  auto it = Merge({{{"a", "0"}, {"d", "0"}, {"g", "0"}},
                   {{"b", "1"}, {"e", "1"}, {"h", "1"}},
                   {{"c", "2"}, {"f", "2"}, {"i", "2"}}});
  it->Seek("e");
  EXPECT_EQ(Drain(it.get()), (Entries{{"e", "1"},
                                      {"f", "2"},
                                      {"g", "0"},
                                      {"h", "1"},
                                      {"i", "2"}}));
  it->Seek("cc");  // between keys: lands on the next one
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "d");
  it->Next();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "e");
  it->Seek("z");
  EXPECT_FALSE(it->Valid());
  it->SeekToFirst();  // a seek after exhaustion starts over
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "a");
}

TEST(MergingIteratorTest, EmptyChildren) {
  auto none = Merge({});
  none->SeekToFirst();
  EXPECT_FALSE(none->Valid());
  none->Seek("a");
  EXPECT_FALSE(none->Valid());

  auto all_empty = Merge({{}, {}, {}});
  all_empty->SeekToFirst();
  EXPECT_FALSE(all_empty->Valid());

  auto some = Merge({{}, {{"b", "1"}}, {}, {{"a", "3"}, {"b", "3"}}, {}});
  some->SeekToFirst();
  EXPECT_EQ(Drain(some.get()), (Entries{{"a", "3"}, {"b", "1"}, {"b", "3"}}));
}

// 64 children over a small key space, so most keys sit in several
// children: the merge must equal a stable sort of every entry by
// (key, child index), from the start and from random seek targets.
TEST(MergingIteratorTest, Seeded64ChildrenMatchStableSort) {
  Random64 rng(7919);
  std::vector<Entries> children(64);
  Entries all;  // appended child by child, so stable order is child order
  for (size_t c = 0; c < children.size(); c++) {
    std::set<std::string> keys;
    uint64_t n = rng.Uniform(40);  // some children stay empty
    for (uint64_t i = 0; i < n; i++) {
      keys.insert("k" + std::to_string(100 + rng.Uniform(200)));
    }
    for (const std::string& k : keys) {
      children[c].emplace_back(k, std::to_string(c));
      all.emplace_back(k, std::to_string(c));
    }
  }
  std::stable_sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });

  auto it = Merge(children);
  it->SeekToFirst();
  EXPECT_EQ(Drain(it.get()), all);
  for (int i = 0; i < 50; i++) {
    std::string target = "k" + std::to_string(90 + rng.Uniform(220));
    auto from = std::find_if(all.begin(), all.end(), [&](const auto& e) {
      return e.first >= target;
    });
    it->Seek(target);
    EXPECT_EQ(Drain(it.get()), Entries(from, all.end())) << target;
  }
}

}  // namespace
}  // namespace kvaccel::lsm
