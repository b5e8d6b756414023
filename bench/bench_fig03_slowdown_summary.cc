// Figure 3: aggregate throughput (a) and tail latency (b) of RocksDB and
// ADOC with and without the slowdown mechanism, workload A.
//
// Paper: enabling slowdown cost RocksDB 34% and ADOC 47% of throughput and
// elongated P99 tails by 48% / 28% — slowdowns actively harm performance.
#include <cstdio>

#include "harness/flags.h"
#include "harness/report.h"
#include "harness/workload.h"

using namespace kvaccel;
using namespace kvaccel::harness;

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv, {.seconds = 60});
  PrintBanner("Figure 3: throughput & tail latency vs. slowdown usage "
              "(workload A, 1 compaction thread)");

  struct Cell {
    const char* label;
    SystemKind kind;
    bool slowdown;
    RunResult r;
  };
  Cell cells[] = {
      {"RocksDB", SystemKind::kRocksDB, false, {}},
      {"ADOC", SystemKind::kAdoc, false, {}},
      {"RocksDB w/ Slowdown", SystemKind::kRocksDB, true, {}},
      {"ADOC w/ Slowdown", SystemKind::kAdoc, true, {}},
  };
  for (Cell& cell : cells) {
    BenchConfig c;
    c.scale = flags.scale;
    c.sut.kind = cell.kind;
    c.sut.compaction_threads = 1;
    c.sut.enable_slowdown = cell.slowdown;
    c.workload.duration = FromSecs(flags.seconds);
    cell.r = RunBenchmark(c);
    cell.r.name = cell.label;
  }

  printf("%-22s %10s %12s %12s\n", "variant", "Kops/s", "P99 (us)",
         "P99.9 (us)");
  for (const Cell& cell : cells) {
    printf("%-22s %10.1f %12.1f %12.1f\n", cell.label, cell.r.write_kops,
           cell.r.put_p99_us, cell.r.put_p999_us);
  }

  const RunResult& rocks_ns = cells[0].r;
  const RunResult& adoc_ns = cells[1].r;
  const RunResult& rocks_sd = cells[2].r;
  const RunResult& adoc_sd = cells[3].r;

  double rocks_drop = 1.0 - rocks_sd.write_kops / rocks_ns.write_kops;
  double adoc_drop = 1.0 - adoc_sd.write_kops / adoc_ns.write_kops;
  printf("\nthroughput drop with slowdown: RocksDB %.0f%% (paper: 34%%), "
         "ADOC %.0f%% (paper: 47%%)\n",
         rocks_drop * 100, adoc_drop * 100);

  CheckShape(rocks_sd.write_kops < rocks_ns.write_kops,
             "slowdown lowers RocksDB aggregate throughput");
  CheckShape(adoc_sd.write_kops < adoc_ns.write_kops,
             "slowdown lowers ADOC aggregate throughput");
  CheckShape(rocks_drop > 0.10 && rocks_drop < 0.70,
             "RocksDB slowdown penalty in the paper's ballpark (34%)");
  CheckShape(rocks_sd.put_p99_us > rocks_ns.put_p99_us,
             "slowdown elongates RocksDB P99 latency");
  CheckShape(adoc_sd.put_p99_us > adoc_ns.put_p99_us,
             "slowdown elongates ADOC P99 latency");
  return 0;
}
