// Ablation (DESIGN.md §4.2): the chunked read->merge(CPU)->write compaction
// model is what creates the idle-bandwidth windows KVACCEL exploits. Sweeping
// the per-cycle chunk size varies how coarsely CPU and device phases
// interleave: larger chunks -> longer pure-CPU stretches -> more idle PCIe
// seconds during stalls.
#include <cstdio>

#include "harness/flags.h"
#include "harness/report.h"
#include "harness/workload.h"

using namespace kvaccel;
using namespace kvaccel::harness;

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv, {.seconds = 40});
  PrintBanner("Ablation: compaction read/merge/write interleave granularity");

  struct Row {
    uint64_t chunk;
    RunResult r;
  } rows[] = {
      {4ull << 20, {}},    // fine pipeline: phases overlap within buckets
      {32ull << 20, {}},   // intermediate
      {1ull << 30, {}},    // file-scale phases (the paper's behaviour)
  };

  printf("%-12s %10s %14s %16s\n", "chunk", "Kops/s", "stall secs",
         "idle-PCIe stall s");
  for (Row& row : rows) {
    BenchConfig c;
    c.scale = flags.scale;
    c.sut.kind = SystemKind::kRocksDB;
    c.sut.compaction_threads = 1;
    c.sut.enable_slowdown = false;
    c.sut.db_tweak = [&row](lsm::DbOptions& o) {
      o.compaction_io_chunk = row.chunk;
    };
    c.workload.duration = FromSecs(flags.seconds);
    row.r = RunBenchmark(c);
    printf("%-12llu %10.1f %14.1f %16.1f\n",
           static_cast<unsigned long long>(row.chunk >> 20),
           row.r.write_kops, row.r.stalled_seconds,
           row.r.zero_traffic_stall_seconds);
  }

  CheckShape(rows[2].r.zero_traffic_stall_seconds >=
                 rows[0].r.zero_traffic_stall_seconds,
             "coarser interleave leaves at least as many idle-PCIe stall "
             "seconds (the window KVACCEL uses)");
  CheckShape(rows[0].r.write_kops > 0 && rows[2].r.write_kops > 0,
             "all interleave granularities complete the workload");
  return 0;
}
