#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "harness/flags.h"
#include "harness/presets.h"
#include "harness/report_json.h"
#include "harness/workload.h"
#include "ssd/ftl.h"

namespace kvaccel::harness {
namespace {

TEST(MakeKeyTest, LexicographicEqualsNumeric) {
  std::string prev;
  for (uint64_t v : {0ull, 1ull, 255ull, 256ull, 65535ull, 1ull << 24,
                     (1ull << 31) - 1}) {
    std::string k = MakeKey(v, 4);
    EXPECT_EQ(k.size(), 4u);
    if (!prev.empty()) EXPECT_LT(prev, k) << v;
    prev = k;
  }
}

TEST(MakeKeyTest, WidthsAndRoundTrip) {
  EXPECT_EQ(MakeKey(0x01020304, 4), std::string("\x01\x02\x03\x04", 4));
  EXPECT_EQ(MakeKey(7, 8).size(), 8u);
  EXPECT_EQ(MakeKey(7, 8).substr(0, 7), std::string(7, '\0'));
}

TEST(PresetsTest, PaperDefaultsMatchTables) {
  ssd::SsdConfig ssd = PaperSsdConfig(1.0);
  EXPECT_EQ(ssd.channels, 4);             // Table I: 4 channel
  EXPECT_EQ(ssd.ways_per_channel, 8);     // Table I: 8 way
  EXPECT_NEAR(ssd.nand_bytes_per_sec, 630e6, 1);   // §III-A: 630 MB/s
  EXPECT_NEAR(ssd.pcie_bytes_per_sec, 4e9, 1);     // PCIe Gen2 x8
  EXPECT_EQ(ssd.firmware_cores, 1);       // single ARM core

  lsm::DbOptions db = PaperDbOptions(4, true, 1.0);
  EXPECT_EQ(db.write_buffer_size, 128ull << 20);   // Table III: MT 128 MB
  EXPECT_EQ(db.compaction_threads, 4);
  EXPECT_TRUE(db.enable_slowdown);

  core::KvaccelOptions kv = PaperKvaccelOptions(core::RollbackScheme::kLazy);
  EXPECT_EQ(kv.detector_period, FromMillis(100));  // §VI-A: every 0.1 s
  EXPECT_EQ(kv.dev.dma_chunk, 512u << 10);         // §V-E: 512 KB DMA
  EXPECT_NEAR(kv.detector_cpu_ns, 1370, 0.1);      // Table VI
  EXPECT_NEAR(kv.md_insert_ns, 450, 0.1);
  EXPECT_NEAR(kv.md_check_ns, 200, 0.1);
  EXPECT_NEAR(kv.md_delete_ns, 280, 0.1);
}

TEST(PresetsTest, ScaleShrinksSizesNotRates) {
  lsm::DbOptions full = PaperDbOptions(1, true, 1.0);
  lsm::DbOptions eighth = PaperDbOptions(1, true, 0.125);
  EXPECT_EQ(eighth.write_buffer_size * 8, full.write_buffer_size);
  EXPECT_EQ(eighth.max_bytes_for_level_base * 8, full.max_bytes_for_level_base);
  EXPECT_EQ(eighth.l0_stop_writes_trigger, full.l0_stop_writes_trigger);
  EXPECT_DOUBLE_EQ(eighth.delayed_write_rate, full.delayed_write_rate);
  ssd::SsdConfig s_full = PaperSsdConfig(1.0);
  ssd::SsdConfig s_eighth = PaperSsdConfig(0.125);
  EXPECT_DOUBLE_EQ(s_eighth.nand_bytes_per_sec, s_full.nand_bytes_per_sec);
}

TEST(FlagsTest, ParseAll) {
  const char* argv[] = {"bench", "--scale=0.5", "--seconds=42",
                        "--threads=2"};
  BenchFlags f = BenchFlags::Parse(4, const_cast<char**>(argv), 60);
  EXPECT_DOUBLE_EQ(f.scale, 0.5);
  EXPECT_DOUBLE_EQ(f.seconds, 42);
  EXPECT_EQ(f.threads, 2);

  const char* argv2[] = {"bench", "--paper"};
  BenchFlags p = BenchFlags::Parse(2, const_cast<char**>(argv2), 60);
  EXPECT_DOUBLE_EQ(p.scale, 1.0);
  EXPECT_DOUBLE_EQ(p.seconds, 600);
}

TEST(FlagsTest, ScaleIsCappedWhereTheFtlTablesStillFit) {
  const char* ok[] = {"bench", "--scale=64"};
  EXPECT_DOUBLE_EQ(BenchFlags::Parse(2, const_cast<char**>(ok), 60).scale,
                   kMaxScale);
  const char* big[] = {"bench", "--scale=64.5"};
  EXPECT_EXIT(BenchFlags::Parse(2, const_cast<char**>(big), 60),
              ::testing::ExitedWithCode(2), "--scale");
  const char* nan[] = {"bench", "--scale=nan"};  // compares false to any cap
  EXPECT_EXIT(BenchFlags::Parse(2, const_cast<char**>(nan), 60),
              ::testing::ExitedWithCode(2), "--scale");
  // The cap's device: its block region fits the FTL's 32-bit tables.
  ssd::SsdConfig c = PaperSsdConfig(kMaxScale);
  ssd::Ftl::Options o;
  o.logical_pages = c.block_region_pages();
  o.pages_per_block = c.pages_per_block;
  o.overprovision = c.overprovision;
  EXPECT_LE(ssd::Ftl::PhysicalBlocks(o) * o.pages_per_block,
            ssd::Ftl::kMaxPhysicalPages);
}

// End-to-end harness run, small but real; twice for determinism.
TEST(RunBenchmarkTest, DeterministicAcrossRuns) {
  auto run = [] {
    BenchConfig c;
    c.scale = 0.03125;  // tiny
    c.sut.kind = SystemKind::kRocksDB;
    c.sut.compaction_threads = 1;
    c.workload.duration = FromSecs(5);
    return RunBenchmark(c);
  };
  RunResult a = run();
  RunResult b = run();
  EXPECT_GT(a.write_kops, 0);
  EXPECT_DOUBLE_EQ(a.write_kops, b.write_kops);
  EXPECT_EQ(a.per_sec_write_kops, b.per_sec_write_kops);
  EXPECT_EQ(a.stall_events, b.stall_events);
  EXPECT_DOUBLE_EQ(a.cpu_pct, b.cpu_pct);
}

TEST(RunBenchmarkTest, KvaccelRunCollectsItsStats) {
  BenchConfig c;
  c.scale = 0.03125;
  c.sut.kind = SystemKind::kKvaccel;
  c.sut.compaction_threads = 1;
  c.sut.rollback = core::RollbackScheme::kDisabled;
  c.workload.duration = FromSecs(8);
  RunResult r = RunBenchmark(c);
  EXPECT_GT(r.write_kops, 0);
  EXPECT_GT(r.detector_checks, 0u);
  EXPECT_EQ(r.slowdown_events, 0u);  // KVACCEL never throttles
  EXPECT_FALSE(r.per_sec_pcie_mbps.empty());
}

TEST(RunBenchmarkTest, MixedWorkloadProducesReads) {
  BenchConfig c;
  c.scale = 0.03125;
  c.sut.kind = SystemKind::kRocksDB;
  c.workload.type = WorkloadConfig::Type::kReadWhileWriting;
  c.workload.read_threads = 1;
  c.workload.duration = FromSecs(5);
  RunResult r = RunBenchmark(c);
  EXPECT_GT(r.write_kops, 0);
  EXPECT_GT(r.read_kops, 0);
}

TEST(RunBenchmarkTest, SeekRandomReportsScanThroughput) {
  BenchConfig c;
  c.scale = 0.03125;
  c.sut.kind = SystemKind::kRocksDB;
  c.workload.type = WorkloadConfig::Type::kSeekRandom;
  c.workload.preload_bytes = 2ull << 30;  // scaled to 64 MiB
  c.workload.seek_ops = 20;
  c.workload.nexts_per_seek = 64;
  RunResult r = RunBenchmark(c);
  EXPECT_GT(r.scan_kops, 0);
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Pins the KVACCEL write path's whole report, not just its self-consistency:
// a short seeded fillrandom that redirects to the Dev-LSM and rolls back,
// hashed with FNV-1a over its kvaccel-run-v1 report. A change that moves one virtual-time
// event on the Main-LSM, Dev-LSM, Metadata Manager or NAND path changes the
// digest.
TEST(RunBenchmarkTest, KvaccelFillrandomReplaysItsPinnedReport) {
  BenchConfig c;
  c.scale = 0.03125;
  c.sut.kind = SystemKind::kKvaccel;
  c.sut.rollback = core::RollbackScheme::kEager;  // lazy waits out the window
  c.workload.writer_threads = 4;
  c.workload.batch_size = 4;
  c.workload.duration = FromSecs(6);
  RunResult r = RunBenchmark(c);
  EXPECT_GT(r.redirected_writes, 0u);
  EXPECT_GT(r.rollbacks, 0u);
  EXPECT_EQ(Fnv1a(JsonReportString(c, {r})), 0x793e94999cd8608full)
      << "the KVACCEL fillrandom report changed";
}

}  // namespace
}  // namespace kvaccel::harness
