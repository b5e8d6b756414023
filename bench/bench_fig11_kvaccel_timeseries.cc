// Figure 11: per-second throughput of RocksDB(1), ADOC(1) and KVACCEL(1)
// under workload A.
//
// Expected shape (paper §VI-B): the baselines slow to ~2 Kops/s during
// slowdown phases; in the same phases KVACCEL keeps writing at tens of
// Kops/s via I/O redirection, and it employs no slowdown mechanism at all.
#include <algorithm>
#include <cstdio>

#include "harness/flags.h"
#include "harness/report.h"
#include "harness/report_json.h"
#include "harness/workload.h"

using namespace kvaccel;
using namespace kvaccel::harness;

int main(int argc, char** argv) {
  BenchFlags flags =
      BenchFlags::Parse(argc, argv, {.seconds = 60, .artifacts = true});
  PrintBanner("Figure 11: per-second throughput, workload A "
              "(1 compaction thread)");

  RunResult results[3];
  SystemKind kinds[] = {SystemKind::kRocksDB, SystemKind::kAdoc,
                        SystemKind::kKvaccel};
  for (int i = 0; i < 3; i++) {
    BenchConfig c;
    c.scale = flags.scale;
    c.sut.kind = kinds[i];
    c.sut.compaction_threads = 1;
    c.sut.enable_slowdown = true;  // baselines at their defaults
    c.sut.rollback = core::RollbackScheme::kDisabled;  // §VI-C setup
    c.workload.duration = FromSecs(flags.seconds);
    // --trace_out traces the KVACCEL run (the one with redirect/rollback
    // phases); the baselines would overwrite the same file.
    if (kinds[i] == SystemKind::kKvaccel) c.trace_out = flags.trace_out;
    results[i] = RunBenchmark(c);
  }

  const RunResult& rocks = results[0];
  const RunResult& adoc = results[1];
  const RunResult& kvacc = results[2];

  PrintSeries("(a) RocksDB(1)", rocks.per_sec_write_kops, "Kops/s");
  PrintSeries("(b) ADOC(1)", adoc.per_sec_write_kops, "Kops/s");
  PrintSeries("(c) KVAccel(1)", kvacc.per_sec_write_kops, "Kops/s");
  printf("\nKVAccel: redirected=%llu detector checks=%llu slowdowns=%llu\n",
         static_cast<unsigned long long>(kvacc.kv.redirected_writes),
         static_cast<unsigned long long>(kvacc.kv.detector_checks),
         static_cast<unsigned long long>(kvacc.slowdown_events));

  // Seconds in which the baselines crawl at the delayed-write floor.
  auto slow_seconds = [](const RunResult& r) {
    int n = 0;
    for (size_t i = 2; i < r.per_sec_write_kops.size(); i++) {
      if (r.per_sec_write_kops[i] < 4.0) n++;
    }
    return n;
  };
  // KVACCEL's worst per-second rate outside ramp-up.
  double kv_min = 1e18;
  for (size_t i = 2; i + 1 < kvacc.per_sec_write_kops.size(); i++) {
    kv_min = std::min(kv_min, kvacc.per_sec_write_kops[i]);
  }
  printf("baseline slow seconds: RocksDB=%d ADOC=%d; KVAccel min=%0.1f "
         "Kops/s\n",
         slow_seconds(rocks), slow_seconds(adoc), kv_min);

  CheckShape(slow_seconds(rocks) > 0,
             "RocksDB(1) spends seconds at the ~2 Kops/s slowdown floor");
  CheckShape(kvacc.slowdown_events == 0,
             "KVACCEL employs no slowdown mechanism (paper §VI-B)");
  CheckShape(kvacc.kv.redirected_writes > 0,
             "KVACCEL redirected writes to the Dev-LSM during stalls");
  CheckShape(kv_min > 2.5,
             "KVACCEL's worst second beats the baselines' slowdown floor");
  CheckShape(kvacc.write_kops > rocks.write_kops,
             "KVACCEL(1) aggregate beats RocksDB(1)");
  CheckShape(kvacc.write_kops > adoc.write_kops,
             "KVACCEL(1) aggregate beats ADOC(1) (paper: +17%)");
  if (!flags.json_out.empty()) {
    BenchConfig echo;
    echo.scale = flags.scale;
    echo.sut.kind = SystemKind::kKvaccel;
    echo.sut.compaction_threads = 1;
    echo.workload.duration = FromSecs(flags.seconds);
    if (!WriteJsonReport(flags.json_out, echo, {rocks, adoc, kvacc})) {
      return 1;
    }
  }
  return 0;
}
