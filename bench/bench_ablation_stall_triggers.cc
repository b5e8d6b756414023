// Ablation (DESIGN.md §4.3): the RocksDB-style stall trigger family. Sweeping
// the L0 stop trigger shows the throughput/stall trade-off the write
// controller navigates: a lower trigger stalls earlier and more often; a
// higher one admits deeper L0 backlogs (fewer, longer stalls and more read
// amplification).
#include <cstdio>

#include "harness/flags.h"
#include "harness/report.h"
#include "harness/workload.h"

using namespace kvaccel;
using namespace kvaccel::harness;

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv, {.seconds = 40});
  PrintBanner("Ablation: L0 stop-trigger sweep (RocksDB w/o slowdown)");

  struct Row {
    int stop_trigger;
    RunResult r;
  } rows[] = {{6, {}}, {12, {}}, {24, {}}};

  printf("%-14s %10s %12s %14s\n", "stop trigger", "Kops/s", "stalls",
         "stalled secs");
  for (Row& row : rows) {
    BenchConfig c;
    c.scale = flags.scale;
    c.sut.kind = SystemKind::kRocksDB;
    c.sut.compaction_threads = 1;
    c.sut.enable_slowdown = false;
    c.sut.db_tweak = [&row](lsm::DbOptions& o) {
      o.l0_stop_writes_trigger = row.stop_trigger;
      o.l0_slowdown_writes_trigger = row.stop_trigger * 2 / 3;
    };
    c.workload.duration = FromSecs(flags.seconds);
    row.r = RunBenchmark(c);
    printf("%-14d %10.1f %12llu %14.1f\n", row.stop_trigger,
           row.r.write_kops,
           static_cast<unsigned long long>(row.r.stall_events),
           row.r.stalled_seconds);
  }

  CheckShape(rows[0].r.stall_events > 0 && rows[2].r.stall_events > 0,
             "stalls occur at every trigger setting under this load");
  CheckShape(rows[2].r.write_kops > rows[0].r.write_kops,
             "a higher L0 stop trigger admits more backlog and buys write "
             "throughput (RocksDB's tuning trade-off)");
  CheckShape(rows[2].r.stalled_seconds <= rows[0].r.stalled_seconds * 1.1,
             "total stalled time does not grow with a higher trigger");
  CheckShape(rows[0].r.write_kops > 0 && rows[2].r.write_kops > 0,
             "all trigger settings complete the workload");
  return 0;
}
