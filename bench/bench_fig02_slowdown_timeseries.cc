// Figure 2: per-second throughput time series for RocksDB and ADOC with the
// slowdown feature disabled ((a),(b)) and enabled ((c),(d)), workload A.
//
// Expected shape (paper §III-A): without slowdown, throughput repeatedly
// drops to zero (hard write stalls); with slowdown, the zero drops disappear
// and a low-but-nonzero floor (~2 Kops/s at the delayed write rate) remains,
// at the cost of lower peaks.
#include <algorithm>
#include <cstdio>

#include "harness/flags.h"
#include "harness/report.h"
#include "harness/workload.h"

using namespace kvaccel;
using namespace kvaccel::harness;

namespace {

RunResult RunPanel(SystemKind kind, bool slowdown, const BenchFlags& flags) {
  BenchConfig c;
  c.scale = flags.scale;
  c.sut.kind = kind;
  c.sut.compaction_threads = 1;
  c.sut.enable_slowdown = slowdown;
  c.workload.type = WorkloadConfig::Type::kFillRandom;
  c.workload.duration = FromSecs(flags.seconds);
  return RunBenchmark(c);
}

// Zero-throughput seconds, excluding the final (partial) window bucket.
int CountZeroSeconds(const RunResult& r) {
  int zeros = 0;
  for (size_t i = 0; i + 1 < r.per_sec_write_kops.size(); i++) {
    if (r.per_sec_write_kops[i] < 0.05) zeros++;
  }
  return zeros;
}

double MinNonLeadingSecond(const RunResult& r) {
  double min = 1e18;
  // Skip ramp-up and the final partial bucket.
  for (size_t i = 2; i + 1 < r.per_sec_write_kops.size(); i++) {
    min = std::min(min, r.per_sec_write_kops[i]);
  }
  return min;
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv, {.seconds = 60});
  PrintBanner("Figure 2: per-second throughput vs. slowdown usage "
              "(workload A, 1 compaction thread)");

  RunResult rocks_ns = RunPanel(SystemKind::kRocksDB, false, flags);
  RunResult adoc_ns = RunPanel(SystemKind::kAdoc, false, flags);
  RunResult rocks_sd = RunPanel(SystemKind::kRocksDB, true, flags);
  RunResult adoc_sd = RunPanel(SystemKind::kAdoc, true, flags);

  PrintSeries("(a) RocksDB w/o slowdown", rocks_ns.per_sec_write_kops,
              "Kops/s");
  PrintStallRegions(rocks_ns);
  PrintSeries("(b) ADOC w/o slowdown", adoc_ns.per_sec_write_kops, "Kops/s");
  PrintStallRegions(adoc_ns);
  PrintSeries("(c) RocksDB w/ slowdown", rocks_sd.per_sec_write_kops,
              "Kops/s");
  printf("  slowdown periods=%llu delayed writes=%llu\n",
         static_cast<unsigned long long>(rocks_sd.slowdown_periods),
         static_cast<unsigned long long>(rocks_sd.slowdown_events));
  PrintSeries("(d) ADOC w/ slowdown", adoc_sd.per_sec_write_kops, "Kops/s");
  printf("  slowdown periods=%llu delayed writes=%llu\n",
         static_cast<unsigned long long>(adoc_sd.slowdown_periods),
         static_cast<unsigned long long>(adoc_sd.slowdown_events));

  printf("\n");
  CheckShape(CountZeroSeconds(rocks_ns) >= 3,
             "RocksDB w/o slowdown suffers zero-throughput stall seconds");
  CheckShape(CountZeroSeconds(adoc_ns) >= 3,
             "ADOC w/o slowdown suffers zero-throughput stall seconds");
  CheckShape(CountZeroSeconds(rocks_sd) == 0,
             "RocksDB w/ slowdown never halts (no zero seconds)");
  CheckShape(CountZeroSeconds(adoc_sd) == 0,
             "ADOC w/ slowdown never halts (no zero seconds)");
  CheckShape(MinNonLeadingSecond(rocks_sd) > 0.5,
             "RocksDB w/ slowdown keeps a nonzero service floor (~2 Kops/s)");
  CheckShape(rocks_sd.slowdown_periods > 0 && adoc_sd.slowdown_periods > 0,
             "slowdown mechanism engaged repeatedly (paper: 258/433 events)");
  CheckShape(rocks_ns.stall_events > 0 && rocks_sd.stall_events == 0,
             "slowdown converts hard stalls into throttling for RocksDB");
  return 0;
}
