#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/coding.h"
#include "common/crc32c.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/units.h"
#include "common/value.h"

namespace kvaccel {

// Shrinks a histogram's bucket vector in place, simulating a layout from a
// build with a shorter bucket table (the case Merge must fold, not overrun).
class HistogramTestPeer {
 public:
  static void TruncateBuckets(Histogram* h, size_t n) {
    uint64_t folded = 0;
    for (size_t i = n; i < h->buckets_.size(); i++) folded += h->buckets_[i];
    h->buckets_.resize(n);
    h->buckets_.back() += folded;  // keep count_ consistent with buckets_
  }
};

namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CodesAndMessages) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing key");
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::IOError().IsIOError());
  EXPECT_TRUE(Status::Busy().IsBusy());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::NoSpace().IsNoSpace());
  EXPECT_TRUE(Status::Aborted().IsAborted());
  EXPECT_TRUE(Status::TryAgain().IsTryAgain());
  EXPECT_TRUE(Status::NotSupported().IsNotSupported());
}

TEST(SliceTest, BasicOps) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[1], 'e');
  EXPECT_EQ(s.ToString(), "hello");
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "llo");
  s.clear();
  EXPECT_TRUE(s.empty());
}

TEST(SliceTest, Compare) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  // Prefix ordering: shorter sorts first.
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("abc").starts_with(Slice("ab")));
  EXPECT_FALSE(Slice("abc").starts_with(Slice("b")));
  EXPECT_TRUE(Slice("x") == Slice("x"));
  EXPECT_TRUE(Slice("x") != Slice("y"));
}

TEST(CodingTest, FixedRoundTrip) {
  std::string s;
  PutFixed16(&s, 0xbeef);
  PutFixed32(&s, 0xdeadbeefu);
  PutFixed64(&s, 0x0123456789abcdefull);
  Slice in(s);
  uint32_t v32;
  uint64_t v64;
  EXPECT_EQ(DecodeFixed16(in.data()), 0xbeef);
  in.remove_prefix(2);
  ASSERT_TRUE(GetFixed32(&in, &v32));
  EXPECT_EQ(v32, 0xdeadbeefu);
  ASSERT_TRUE(GetFixed64(&in, &v64));
  EXPECT_EQ(v64, 0x0123456789abcdefull);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintRoundTrip) {
  std::string s;
  std::vector<uint64_t> values;
  for (uint64_t shift = 0; shift < 64; shift += 7) {
    values.push_back(uint64_t{1} << shift);
    values.push_back((uint64_t{1} << shift) - 1);
  }
  values.push_back(UINT64_MAX);
  values.push_back(0);
  for (uint64_t v : values) PutVarint64(&s, v);
  Slice in(s);
  for (uint64_t v : values) {
    uint64_t got;
    ASSERT_TRUE(GetVarint64(&in, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, Varint32RoundTrip) {
  std::string s;
  std::vector<uint32_t> values = {0, 1, 127, 128, 16383, 16384, UINT32_MAX};
  for (uint32_t v : values) PutVarint32(&s, v);
  Slice in(s);
  for (uint32_t v : values) {
    uint32_t got;
    ASSERT_TRUE(GetVarint32(&in, &got));
    EXPECT_EQ(got, v);
  }
}

TEST(CodingTest, VarintLength) {
  EXPECT_EQ(VarintLength(0), 1);
  EXPECT_EQ(VarintLength(127), 1);
  EXPECT_EQ(VarintLength(128), 2);
  EXPECT_EQ(VarintLength(UINT64_MAX), 10);
}

TEST(CodingTest, TruncatedInputFails) {
  std::string s;
  PutVarint64(&s, UINT64_MAX);
  for (size_t cut = 0; cut + 1 < s.size(); cut++) {
    Slice in(s.data(), cut);
    uint64_t got;
    EXPECT_FALSE(GetVarint64(&in, &got)) << "cut=" << cut;
  }
  Slice short32("x", 1);
  uint32_t v32;
  EXPECT_FALSE(GetFixed32(&short32, &v32));
}

TEST(CodingTest, LengthPrefixedSlice) {
  std::string s;
  PutLengthPrefixedSlice(&s, Slice("payload"));
  PutLengthPrefixedSlice(&s, Slice(""));
  Slice in(s);
  Slice a, b;
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &a));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &b));
  EXPECT_EQ(a.ToString(), "payload");
  EXPECT_TRUE(b.empty());
}

TEST(Crc32cTest, KnownValues) {
  // Standard CRC32C test vector: "123456789" -> 0xe3069283.
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xe3069283u);
  // CRC of 32 zero bytes -> 0x8a9136aa.
  char zeros[32] = {0};
  EXPECT_EQ(crc32c::Value(zeros, 32), 0x8a9136aau);
  // The other RFC 3720 (iSCSI) appendix B.4 vectors.
  char buf[32];
  memset(buf, 0xff, sizeof(buf));
  EXPECT_EQ(crc32c::Value(buf, sizeof(buf)), 0x62a8ab43u);
  for (int i = 0; i < 32; i++) buf[i] = static_cast<char>(i);
  EXPECT_EQ(crc32c::Value(buf, sizeof(buf)), 0x46dd794eu);
  for (int i = 0; i < 32; i++) buf[i] = static_cast<char>(31 - i);
  EXPECT_EQ(crc32c::Value(buf, sizeof(buf)), 0x113fdb5cu);
}

TEST(Crc32cTest, ExtendMatchesWhole) {
  const std::string data = "hello world, this is a crc test";
  uint32_t whole = crc32c::Value(data.data(), data.size());
  uint32_t part = crc32c::Value(data.data(), 10);
  part = crc32c::Extend(part, data.data() + 10, data.size() - 10);
  EXPECT_EQ(whole, part);
}

TEST(Crc32cTest, HardwareMatchesPortableReference) {
  if (!crc32c::IsHardwareAccelerated()) {
    GTEST_SKIP() << "this CPU has no crc32 instruction";
  }
  Random64 rng(3720);
  std::string buf(1024 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Uniform(256));
  // Every length at every alignment, from a fresh and a running crc.
  for (size_t offset = 0; offset < 8; offset++) {
    for (size_t n = 0; n <= 1024; n++) {
      const char* p = buf.data() + offset;
      ASSERT_EQ(crc32c::Extend(0, p, n), crc32c::ExtendPortable(0, p, n))
          << "offset " << offset << " length " << n;
      ASSERT_EQ(crc32c::Extend(0x9e3779b9u, p, n),
                crc32c::ExtendPortable(0x9e3779b9u, p, n))
          << "offset " << offset << " length " << n;
    }
  }
  const uint32_t whole = crc32c::ExtendPortable(0, buf.data(), 100);
  for (size_t split = 0; split <= 100; split++) {
    uint32_t head = crc32c::Extend(0, buf.data(), split);
    EXPECT_EQ(crc32c::Extend(head, buf.data() + split, 100 - split), whole)
        << "split at " << split;
  }
}

TEST(Crc32cTest, MaskRoundTrip) {
  uint32_t crc = crc32c::Value("abc", 3);
  EXPECT_NE(crc, crc32c::Mask(crc));
  EXPECT_EQ(crc, crc32c::Unmask(crc32c::Mask(crc)));
}

TEST(HashTest, Deterministic) {
  EXPECT_EQ(Hash32("abc", 3, 1), Hash32("abc", 3, 1));
  EXPECT_NE(Hash32("abc", 3, 1), Hash32("abd", 3, 1));
  EXPECT_NE(Hash32("abc", 3, 1), Hash32("abc", 3, 2));
  EXPECT_EQ(Hash64("abcdefgh", 8), Hash64("abcdefgh", 8));
  EXPECT_NE(Hash64("abcdefgh", 8), Hash64("abcdefgi", 8));
}

TEST(HashTest, TailBytesMatter) {
  EXPECT_NE(Hash64("abcdefghi", 9), Hash64("abcdefghj", 9));
  EXPECT_NE(Hash32("ab", 2, 0), Hash32("ac", 2, 0));
}

TEST(RandomTest, DeterministicStreams) {
  Random64 a(42), b(42), c(43);
  for (int i = 0; i < 100; i++) {
    uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    (void)c.Next();
  }
  Random64 a2(42), c2(43);
  EXPECT_NE(a2.Next(), c2.Next());
}

TEST(RandomTest, UniformInRange) {
  Random64 r(7);
  for (int i = 0; i < 1000; i++) {
    EXPECT_LT(r.Uniform(17), 17u);
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, ZipfianSkew) {
  ZipfianGenerator zipf(1000, 0.99, 123);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 20000; i++) {
    uint64_t v = zipf.Next();
    ASSERT_LT(v, 1000u);
    counts[v]++;
  }
  // Head item should be much hotter than a mid-range item.
  EXPECT_GT(counts[0], counts[500] * 5);
}

TEST(ArenaTest, AllocatesDistinctMemory) {
  Arena arena;
  char* a = arena.Allocate(100);
  char* b = arena.Allocate(100);
  EXPECT_NE(a, b);
  memset(a, 0xaa, 100);
  memset(b, 0xbb, 100);
  EXPECT_EQ(static_cast<unsigned char>(a[99]), 0xaa);
  EXPECT_GT(arena.MemoryUsage(), 0u);
}

TEST(ArenaTest, LargeAndAlignedAllocations) {
  Arena arena;
  char* big = arena.Allocate(3u << 20);  // > block size
  ASSERT_NE(big, nullptr);
  big[0] = 1;
  big[(3u << 20) - 1] = 2;
  char* aligned = arena.AllocateAligned(64);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(aligned) %
                alignof(std::max_align_t),
            0u);
}

TEST(HistogramTest, PercentilesOfUniform) {
  Histogram h;
  for (int i = 1; i <= 10000; i++) h.Add(i);
  EXPECT_EQ(h.Count(), 10000u);
  EXPECT_EQ(h.Min(), 1u);
  EXPECT_EQ(h.Max(), 10000u);
  EXPECT_NEAR(h.Average(), 5000.5, 1.0);
  EXPECT_NEAR(h.Percentile(50), 5000, 600);
  EXPECT_NEAR(h.Percentile(99), 9900, 1000);
  EXPECT_LE(h.Percentile(99.9), 10000);
}

TEST(HistogramTest, MergeAndClear) {
  Histogram a, b;
  a.Add(10);
  b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 2u);
  EXPECT_EQ(a.Min(), 10u);
  EXPECT_EQ(a.Max(), 1000u);
  a.Clear();
  EXPECT_EQ(a.Count(), 0u);
  EXPECT_EQ(a.Percentile(99), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Add(77);
  EXPECT_NEAR(h.Percentile(50), 77, 8);
  EXPECT_NEAR(h.Percentile(99.9), 77, 8);
}

TEST(HistogramTest, EmptyHistogramIsAllZeros) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 0u);
  EXPECT_EQ(h.Average(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);
  EXPECT_EQ(h.Percentile(99), 0.0);
  EXPECT_EQ(h.Percentile(99.9), 0.0);
}

TEST(HistogramTest, SingleValueBoundsPercentiles) {
  Histogram h;
  h.Add(500);
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_EQ(h.Min(), 500u);
  EXPECT_EQ(h.Max(), 500u);
  EXPECT_EQ(h.Average(), 500.0);
  // Every percentile of a single-sample distribution lands in its bucket.
  for (double p : {0.1, 25.0, 50.0, 99.0, 100.0}) {
    EXPECT_NEAR(h.Percentile(p), 500, 50) << "p=" << p;
  }
}

TEST(HistogramTest, MergeIntoEmptyPreservesEverything) {
  Histogram a, b;
  for (int i = 1; i <= 1000; i++) b.Add(i);
  const double p50 = b.Percentile(50);
  const double p99 = b.Percentile(99);
  a.Merge(b);
  EXPECT_EQ(a.Count(), b.Count());
  EXPECT_EQ(a.Min(), b.Min());
  EXPECT_EQ(a.Max(), b.Max());
  EXPECT_EQ(a.Average(), b.Average());
  EXPECT_EQ(a.Percentile(50), p50);
  EXPECT_EQ(a.Percentile(99), p99);
}

TEST(HistogramTest, MergeEmptyIsANoOp) {
  Histogram a, empty;
  for (int i = 1; i <= 1000; i++) a.Add(i);
  const double p50 = a.Percentile(50);
  a.Merge(empty);
  EXPECT_EQ(a.Count(), 1000u);
  EXPECT_EQ(a.Min(), 1u);
  EXPECT_EQ(a.Max(), 1000u);
  EXPECT_EQ(a.Percentile(50), p50);
}

TEST(HistogramTest, MergeDisjointRangesKeepsTails) {
  Histogram lo, hi;
  for (int i = 1; i <= 300; i++) lo.Add(i);
  for (int i = 0; i <= 100; i++) hi.Add(100000 + i * 10);
  lo.Merge(hi);
  EXPECT_EQ(lo.Count(), 401u);
  EXPECT_EQ(lo.Min(), 1u);
  EXPECT_EQ(lo.Max(), 101000u);
  // The low range dominates the median; the merged tail sits in the high
  // range contributed entirely by `hi`.
  EXPECT_LT(lo.Percentile(50), 1000);
  EXPECT_GT(lo.Percentile(99), 50000);
}

TEST(HistogramTest, MergeMismatchedLayoutFoldsIntoOverflow) {
  // `other` has a shorter bucket table than `a` (merge of a longer table
  // into a shorter one): the shared prefix merges bucket-by-bucket and
  // count/sum/min/max stay exact.
  Histogram a, shorter;
  for (int i = 1; i <= 500; i++) a.Add(i);
  for (int i = 1; i <= 500; i++) shorter.Add(i * 1000);
  HistogramTestPeer::TruncateBuckets(&shorter, 8);
  a.Merge(shorter);
  EXPECT_EQ(a.Count(), 1000u);
  EXPECT_EQ(a.Min(), 1u);
  EXPECT_EQ(a.Max(), 500000u);
  // Everything `shorter` folded into its 8th bucket lands in `a`'s 8th
  // bucket, far below the true values — the median degrades gracefully
  // instead of Merge indexing out of range.
  EXPECT_GT(a.Percentile(99), a.Percentile(1));

  // The opposite direction: merging a longer table into a truncated one
  // must fold the excess into the overflow (last) bucket, preserving count.
  Histogram b, full;
  for (int i = 1; i <= 100; i++) b.Add(i);
  HistogramTestPeer::TruncateBuckets(&b, 4);
  for (int i = 0; i < 50; i++) full.Add(1000000);
  b.Merge(full);
  EXPECT_EQ(b.Count(), 150u);
  EXPECT_EQ(b.Max(), 1000000u);
  // The folded tail keeps high percentiles inside the (truncated) table's
  // top bucket rather than losing the samples.
  EXPECT_GT(b.Percentile(99), 0.0);
}

TEST(ValueTest, InlineRoundTrip) {
  Value v = Value::Inline("some bytes");
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v.logical_size(), 10u);
  EXPECT_EQ(v.Materialize(), "some bytes");
  std::string enc;
  v.EncodeTo(&enc);
  Slice in(enc);
  Value out;
  ASSERT_TRUE(Value::DecodeFrom(&in, &out));
  EXPECT_EQ(out, v);
  EXPECT_TRUE(in.empty());
}

TEST(ValueTest, SyntheticRoundTrip) {
  Value v = Value::Synthetic(1234, 4096);
  EXPECT_TRUE(v.is_synthetic());
  EXPECT_EQ(v.logical_size(), 4096u);
  std::string bytes = v.Materialize();
  EXPECT_EQ(bytes.size(), 4096u);
  // Deterministic regeneration.
  EXPECT_EQ(bytes, Value::Synthetic(1234, 4096).Materialize());
  EXPECT_NE(bytes, Value::Synthetic(1235, 4096).Materialize());
  std::string enc;
  v.EncodeTo(&enc);
  // The whole point: a 4 KB value encodes to ~11 bytes.
  EXPECT_LT(enc.size(), 16u);
  Value out = Value::DecodeOrDie(enc);
  EXPECT_EQ(out, v);
}

TEST(ValueTest, SyntheticOddSize) {
  for (uint32_t size : {0u, 1u, 7u, 8u, 9u, 100u}) {
    Value v = Value::Synthetic(9, size);
    EXPECT_EQ(v.Materialize().size(), size);
  }
}

TEST(ValueTest, DecodeRejectsGarbage) {
  Slice empty("", 0);
  Value out;
  EXPECT_FALSE(Value::DecodeFrom(&empty, &out));
  std::string bad = "\x07junk";
  Slice in(bad);
  EXPECT_FALSE(Value::DecodeFrom(&in, &out));
}

TEST(UnitsTest, Conversions) {
  EXPECT_EQ(FromMicros(1.37), 1370u);
  EXPECT_EQ(FromMillis(100), 100'000'000u);
  EXPECT_EQ(FromSecs(600), 600ull * kNanosPerSec);
  EXPECT_EQ(KiB(4), 4096u);
  EXPECT_EQ(MiB(1), 1048576u);
  // 630 MB/s moving 630 MB takes 1 second.
  EXPECT_NEAR(static_cast<double>(TransferNanos(630'000'000, MBps(630))),
              1e9, 1.0);
}

}  // namespace
}  // namespace kvaccel
