#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

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
    if (!prev.empty()) {
      EXPECT_LT(prev, k) << v;
    }
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
  EXPECT_NEAR(core::kDetectorCpuNs, 1370, 0.1);    // Table VI
  EXPECT_NEAR(core::kMdInsertNs, 450, 0.1);
  EXPECT_NEAR(core::kMdCheckNs, 200, 0.1);
  EXPECT_NEAR(core::kMdDeleteNs, 280, 0.1);
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
  BenchFlags f = BenchFlags::Parse(4, const_cast<char**>(argv),
                                   {.seconds = 60, .threads = true});
  EXPECT_DOUBLE_EQ(f.scale, 0.5);
  EXPECT_DOUBLE_EQ(f.seconds, 42);
  EXPECT_EQ(f.threads, 2);

  const char* argv2[] = {"bench", "--paper"};
  BenchFlags p =
      BenchFlags::Parse(2, const_cast<char**>(argv2), {.seconds = 60});
  EXPECT_DOUBLE_EQ(p.scale, 1.0);
  EXPECT_DOUBLE_EQ(p.seconds, 600);
}

TEST(FlagsTest, ScaleIsCappedWhereTheFtlTablesStillFit) {
  const char* ok[] = {"bench", "--scale=64"};
  EXPECT_DOUBLE_EQ(
      BenchFlags::Parse(2, const_cast<char**>(ok), {.seconds = 60}).scale,
      kMaxScale);
  const char* big[] = {"bench", "--scale=64.5"};
  EXPECT_EXIT(BenchFlags::Parse(2, const_cast<char**>(big), {.seconds = 60}),
              ::testing::ExitedWithCode(2), "--scale");
  const char* nan[] = {"bench", "--scale=nan"};  // compares false to any cap
  EXPECT_EXIT(BenchFlags::Parse(2, const_cast<char**>(nan), {.seconds = 60}),
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

// Parses `flags` with the kvaccel_dbbench table.
DbbenchArgs ParseDbbench(std::vector<const char*> flags) {
  flags.insert(flags.begin(), "kvaccel_dbbench");
  DbbenchArgs args;
  DbbenchFlags(&args).Parse(static_cast<int>(flags.size()),
                            const_cast<char**>(flags.data()));
  return args;
}

// Each flag's non-default value lands in its BenchConfig field.
TEST(FlagsTest, EveryDbbenchFlagLandsInItsField) {
  using A = const DbbenchArgs&;
  const std::pair<const char*, std::function<bool(A)>> cases[] = {
      {"--system=kvaccel",
       [](A a) { return a.config.sut.kind == SystemKind::kKvaccel; }},
      {"--workload=seekrandom",
       [](A a) {
         return a.config.workload.type == WorkloadConfig::Type::kSeekRandom;
       }},
      {"--seconds=7.5",
       [](A a) { return a.config.workload.duration == FromSecs(7.5); }},
      {"--scale=0.25", [](A a) { return a.config.scale == 0.25; }},
      {"--threads=3",
       [](A a) { return a.config.sut.compaction_threads == 3; }},
      {"--value_size=100",
       [](A a) { return a.config.workload.value_size == 100; }},
      {"--key_space=1000",
       [](A a) { return a.config.workload.key_space == 1000; }},
      {"--read_threads=3",
       [](A a) { return a.config.workload.read_threads == 3; }},
      {"--writer_threads=3",
       [](A a) { return a.config.workload.writer_threads == 3; }},
      {"--batch_size=5",
       [](A a) { return a.config.workload.batch_size == 5; }},
      {"--rollback=eager",
       [](A a) {
         return a.config.sut.rollback == core::RollbackScheme::kEager;
       }},
      {"--no_slowdown", [](A a) { return !a.config.sut.enable_slowdown; }},
      {"--seed=9", [](A a) { return a.config.workload.seed == 9; }},
      {"--fault_profile=bitrot",
       [](A a) { return a.config.fault_profile == "bitrot"; }},
      {"--fault_seed=9", [](A a) { return a.config.fault_seed == 9; }},
      {"--series", [](A a) { return a.series; }},
      {"--trace_out=t.json",
       [](A a) { return a.config.trace_out == "t.json"; }},
      {"--json_out=r.json", [](A a) { return a.json_out == "r.json"; }},
      {"--nemesis_seed=5", [](A a) { return a.config.nemesis_seed == 5; }},
      {"--trace_dump_dir=d",
       [](A a) { return a.config.trace_dump_dir == "d"; }},
      {"--db_dump_dir=d", [](A a) { return a.config.db_dump_dir == "d"; }},
      {"--max_subcompactions=2",
       [](A a) { return a.config.sut.max_subcompactions == 2; }},
      {"--nand_mbps=500", [](A a) { return a.config.nand_mbps == 500; }},
      {"--shards=4", [](A a) { return a.config.sut.shards == 4; }},
      {"--tenants=3", [](A a) { return a.config.workload.tenants == 3; }},
      {"--ndp=force",
       [](A a) { return a.config.sut.ndp_mode == ndp::OffloadMode::kForce; }},
      {"--ha", [](A a) { return a.config.sut.ha; }},
      {"--repl_ack=async", [](A a) { return a.config.sut.repl_ack_async; }},
      {"--net_mbps=100", [](A a) { return a.config.sut.net_mbps == 100; }},
      {"--net_latency_us=5",
       [](A a) { return a.config.sut.net_latency_us == 5; }},
      {"--lease_ms=20", [](A a) { return a.config.sut.lease_ms == 20; }},
      {"--heartbeat_ms=4",
       [](A a) { return a.config.sut.heartbeat_ms == 4; }},
      {"--fence_epoch=3", [](A a) { return a.config.sut.fence_epoch == 3; }},
      {"--net_partition=2:1.5",
       [](A a) {
         return a.config.sut.net_partition_start_s == 2 &&
                a.config.sut.net_partition_dur_s == 1.5;
       }},
      {"--workload_mix=balanced",
       [](A a) {
         return a.config.workload.mix_spec == "balanced" &&
                a.config.workload.type == WorkloadConfig::Type::kMixed &&
                a.config.workload.profiles.size() == 1;
       }},
      {"--arrival=poisson",
       [](A a) { return a.config.workload.arrival == Arrival::kPoisson; }},
      {"--arrival_rate=500",
       [](A a) { return a.config.workload.arrival_rate == 500; }},
      {"--zipf_theta=0.5",
       [](A a) {
         const TenantProfile& p = a.config.workload.default_profile;
         return a.zipf && p.dist == KeyDist::kZipfian && p.zipf_theta == 0.5;
       }},
      {"--hotspot=0.2:0.8",
       [](A a) {
         const TenantProfile& p = a.config.workload.default_profile;
         return a.hotspot && p.dist == KeyDist::kHotspot &&
                p.hotspot_frac == 0.2 && p.hotspot_opfrac == 0.8;
       }},
      {"--ttl_frac=0.25",
       [](A a) { return a.config.workload.ttl_frac == 0.25; }},
      {"--ttl_s=3", [](A a) { return a.config.workload.ttl_s == 3; }},
      {"--deadline_us=250",
       [](A a) { return a.config.workload.deadline_us == 250; }},
  };
  const DbbenchArgs defaults;
  for (const auto& [flag, landed] : cases) {
    EXPECT_FALSE(landed(defaults)) << flag << " is already the default";
    EXPECT_TRUE(landed(ParseDbbench({flag}))) << flag;
  }
  // Command-line order: --workload_mix implies --workload=mixed, and a later
  // --workload overrides it.
  EXPECT_EQ(ParseDbbench({"--workload_mix=churn", "--workload=fillrandom"})
                .config.workload.type,
            WorkloadConfig::Type::kFillRandom);
  EXPECT_EQ(ParseDbbench({"--workload=fillrandom", "--workload_mix=churn"})
                .config.workload.type,
            WorkloadConfig::Type::kMixed);
}

TEST(FlagsTest, DbbenchCrossFlagRulesNameTheFlags) {
  EXPECT_EQ(DbbenchConfigError(ParseDbbench({"--system=kvaccel", "--ha"})),
            "");
  EXPECT_EQ(DbbenchConfigError(ParseDbbench(
                {"--system=kvaccel", "--ha", "--net_mbps=100",
                 "--net_latency_us=5", "--lease_ms=5", "--heartbeat_ms=2",
                 "--fence_epoch=3"})),
            "");
  EXPECT_EQ(DbbenchConfigError(ParseDbbench(
                {"--system=kvaccel", "--workload=mixed", "--arrival=spike",
                 "--arrival_rate=12000", "--ttl_frac=0.05", "--ttl_s=3",
                 "--deadline_us=250"})),
            "");
  const std::pair<std::vector<const char*>, const char*> bad[] = {
      {{"--shards=2"}, "--shards"},
      {{"--ha"}, "--ha"},
      {{"--system=kvaccel", "--ha", "--shards=2"}, "--ha"},
      {{"--ndp=auto"}, "--ndp"},
      {{"--system=kvaccel", "--net_partition=4:2"}, "--net_partition"},
      {{"--system=kvaccel", "--repl_ack=async"}, "--repl_ack"},
      {{"--system=kvaccel", "--net_mbps=100"}, "--net_mbps"},
      {{"--system=kvaccel", "--net_latency_us=5"}, "--net_latency_us"},
      {{"--system=kvaccel", "--lease_ms=5"}, "--lease_ms"},
      {{"--system=kvaccel", "--heartbeat_ms=2"}, "--heartbeat_ms"},
      {{"--system=kvaccel", "--fence_epoch=3"}, "--fence_epoch"},
      {{"--zipf_theta=0.5", "--hotspot=0.1:0.9"}, "--zipf_theta"},
      {{"--arrival=spike"}, "--arrival=spike"},
      {{"--ttl_frac=0.1"}, "--ttl_frac"},
      {{"--workload=mixed", "--arrival_rate=500"}, "--arrival_rate"},
      {{"--workload=mixed", "--ttl_s=3"}, "--ttl_s"},
      {{"--deadline_us=250"}, "--deadline_us"},
  };
  for (const auto& [flags, name] : bad) {
    EXPECT_NE(DbbenchConfigError(ParseDbbench(flags)).find(name),
              std::string::npos)
        << name;
  }
}

// Integers too wide for their field, "=VALUE" on a bare flag and a zero key
// space exit 2 naming the flag instead of wrapping, being misread or
// dividing by zero.
TEST(FlagsTest, DbbenchRejectsWrappedAndMisreadValues) {
  const std::pair<const char*, const char*> probes[] = {
      {"--threads=4294967296", "--threads"},
      {"--writer_threads=4294967297", "--writer_threads"},
      {"--no_slowdown=false", "--no_slowdown"},
      {"--series=no", "--series"},
      {"--key_space=0", "--key_space"},
      {"--net_mbps=0", "--net_mbps"},
  };
  for (const auto& [arg, flag] : probes) {
    EXPECT_EXIT(ParseDbbench({arg}), ::testing::ExitedWithCode(2), flag)
        << arg;
  }
}

// A bench binary accepts only the flags it reads.
TEST(FlagsTest, BenchBinariesRejectFlagsTheyDoNotRead) {
  auto parse = [](std::vector<const char*> flags, BenchFlags::Reads reads) {
    flags.insert(flags.begin(), "bench");
    BenchFlags::Parse(static_cast<int>(flags.size()),
                      const_cast<char**>(flags.data()), reads);
  };
  EXPECT_EXIT(parse({"--seconds", "5"}, {.seconds = 60}),
              ::testing::ExitedWithCode(2), "--seconds");
  EXPECT_EXIT(parse({"--shards=4"}, {.seconds = 60}),
              ::testing::ExitedWithCode(2), "--shards");
  EXPECT_EXIT(parse({"--bogus"}, {.seconds = 60}),
              ::testing::ExitedWithCode(2), "--bogus");
  EXPECT_EXIT(parse({"--seconds=5"}, {}), ::testing::ExitedWithCode(2),
              "--seconds");
  EXPECT_EXIT(parse({"--threads=2"}, {.seconds = 60}),
              ::testing::ExitedWithCode(2), "--threads");
  EXPECT_EXIT(parse({"--json_out=r.json"}, {.seconds = 60}),
              ::testing::ExitedWithCode(2), "--json_out");
}

// README documents flags; every one it names must exist. --help is the
// full list, so the check runs one way only.
TEST(FlagsTest, ReadmeFlagTableNamesRegisteredFlags) {
  const std::string path = std::string(KVACCEL_SOURCE_DIR) + "/README.md";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot open " << path;
  DbbenchArgs args;
  const FlagTable dbbench = DbbenchFlags(&args);
  BenchFlags bench_flags;
  const FlagTable bench = BenchFlags::Table(
      &bench_flags, {.seconds = 60, .threads = true, .artifacts = true});
  // "| `--name...` |" rows of the table under the line naming `table`.
  auto rows_under = [&in](const std::string& table) {
    in.clear();
    in.seekg(0);
    std::vector<std::string> names;
    std::string line;
    bool inside = false;
    while (std::getline(in, line)) {
      if (line.find(table) != std::string::npos) {
        inside = true;
      } else if (inside && line.rfind("| `--", 0) == 0) {
        const size_t end = line.find_first_of("=`", 5);
        names.push_back(line.substr(5, end - 5));
      } else if (inside && line.empty() && !names.empty()) {
        break;
      }
    }
    return names;
  };
  const std::vector<std::string> dbbench_rows =
      rows_under("Notable `kvaccel_dbbench` flags");
  EXPECT_GE(dbbench_rows.size(), 20u);
  for (const std::string& name : dbbench_rows) {
    EXPECT_TRUE(dbbench.Has(name)) << "README names --" << name;
  }
  const std::vector<std::string> bench_rows = rows_under("Bench binary flags");
  EXPECT_GE(bench_rows.size(), 2u);
  for (const std::string& name : bench_rows) {
    EXPECT_TRUE(bench.Has(name)) << "README names --" << name;
  }
  EXPECT_TRUE(bench.Has("paper"));
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
  EXPECT_GT(r.kv.detector_checks, 0u);
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
  EXPECT_GT(r.kv.redirected_writes, 0u);
  EXPECT_GT(r.kv.rollbacks, 0u);
  EXPECT_EQ(Fnv1a(JsonReportString(c, {r})), 0x35e27f4062969369ull)
      << "the KVACCEL fillrandom report changed";
}

}  // namespace
}  // namespace kvaccel::harness
