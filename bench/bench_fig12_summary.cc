// Figure 12: throughput (a), P99 latency (b) and Efficiency (c, Eq. 1 =
// MB/s / CPU%) for RocksDB/ADOC/KVACCEL at 1, 2 and 4 compaction threads,
// workload A, with KVACCEL's rollback and Dev-LSM compaction disabled
// (paper §VI-C).
//
// Expected shape: KVACCEL(1) beats RocksDB(1) (+37%) and ADOC(1) (+17%) in
// throughput, has the lowest P99 (-30%/-20%), and KVACCEL(1) posts the best
// efficiency of all nine configurations; KVACCEL(1) is comparable to
// ADOC(4); gains shrink as compaction threads increase.
#include <cstdio>

#include "harness/flags.h"
#include "harness/report.h"
#include "harness/report_json.h"
#include "harness/workload.h"

using namespace kvaccel;
using namespace kvaccel::harness;

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(
      argc, argv, {.seconds = 60, .threads = true, .artifacts = true});
  PrintBanner("Figure 12: throughput / P99 / efficiency matrix (workload A)");

  RunResult grid[3][3];  // [thread index][system index]
  std::vector<RunResult> all_runs;
  const int threads_of[3] = {1, 2, 4};
  const SystemKind kinds[3] = {SystemKind::kRocksDB, SystemKind::kAdoc,
                               SystemKind::kKvaccel};

  PrintResultHeader();
  for (int ti = 0; ti < 3; ti++) {
    if (flags.threads != 0 && flags.threads != threads_of[ti]) continue;
    for (int si = 0; si < 3; si++) {
      BenchConfig c;
      c.scale = flags.scale;
      c.sut.kind = kinds[si];
      c.sut.compaction_threads = threads_of[ti];
      c.sut.rollback = core::RollbackScheme::kDisabled;
      c.workload.duration = FromSecs(flags.seconds);
      // --trace_out traces the KVACCEL(1) cell of the matrix.
      if (kinds[si] == SystemKind::kKvaccel && threads_of[ti] == 1) {
        c.trace_out = flags.trace_out;
      }
      grid[ti][si] = RunBenchmark(c);
      all_runs.push_back(grid[ti][si]);
      PrintResultRow(grid[ti][si]);
    }
  }
  auto dump_json = [&]() {
    if (flags.json_out.empty()) return true;
    BenchConfig echo;
    echo.scale = flags.scale;
    echo.sut.kind = SystemKind::kKvaccel;
    echo.sut.compaction_threads = 1;
    echo.workload.duration = FromSecs(flags.seconds);
    return WriteJsonReport(flags.json_out, echo, all_runs);
  };
  if (flags.threads != 0) return dump_json() ? 0 : 1;

  const RunResult& r1 = grid[0][0];
  const RunResult& a1 = grid[0][1];
  const RunResult& k1 = grid[0][2];
  const RunResult& a4 = grid[2][1];

  printf("\nKVAccel(1) vs RocksDB(1): %+.0f%% throughput (paper: +37%%), "
         "%+.0f%% P99 (paper: -30%%)\n",
         (k1.write_kops / r1.write_kops - 1) * 100,
         (k1.put_p99_us / r1.put_p99_us - 1) * 100);
  printf("KVAccel(1) vs ADOC(1):    %+.0f%% throughput (paper: +17%%), "
         "%+.0f%% P99 (paper: -20%%)\n",
         (k1.write_kops / a1.write_kops - 1) * 100,
         (k1.put_p99_us / a1.put_p99_us - 1) * 100);
  printf("KVAccel(1) vs ADOC(4):    %+.0f%% throughput (paper: comparable)\n",
         (k1.write_kops / a4.write_kops - 1) * 100);

  CheckShape(k1.write_kops > r1.write_kops,
             "KVACCEL(1) throughput > RocksDB(1)");
  CheckShape(k1.write_kops > a1.write_kops,
             "KVACCEL(1) throughput > ADOC(1)");
  CheckShape(a1.write_kops > r1.write_kops,
             "ADOC(1) throughput > RocksDB(1)");
  CheckShape(k1.put_p99_us < r1.put_p99_us && k1.put_p99_us < a1.put_p99_us,
             "KVACCEL(1) has the lowest P99 latency");
  CheckShape(k1.write_kops >= a4.write_kops * 0.85,
             "KVACCEL(1) throughput comparable to ADOC(4)");

  // Efficiency: KVACCEL(1) best of all nine configurations (paper Fig 12c).
  bool k1_best_eff = true;
  for (int ti = 0; ti < 3; ti++) {
    for (int si = 0; si < 3; si++) {
      if (&grid[ti][si] == &k1) continue;
      if (grid[ti][si].efficiency >= k1.efficiency) k1_best_eff = false;
    }
  }
  CheckShape(k1_best_eff, "KVACCEL(1) posts the best efficiency score");

  // KVACCEL beats the same-thread baselines on efficiency at every count.
  for (int ti = 0; ti < 3; ti++) {
    char msg[96];
    snprintf(msg, sizeof(msg),
             "KVACCEL(%d) efficiency beats RocksDB/ADOC at %d threads",
             threads_of[ti], threads_of[ti]);
    CheckShape(grid[ti][2].efficiency > grid[ti][0].efficiency &&
                   grid[ti][2].efficiency > grid[ti][1].efficiency,
               msg);
  }
  return dump_json() ? 0 : 1;
}
