// Figure 14: PCIe bandwidth usage over time (log scale in the paper) for
// RocksDB(1) vs KVACCEL(1), workload A.
//
// Paper: KVACCEL achieves a 45% reduction in zero-traffic intervals during
// write-stall periods — its dual interface keeps the link busy where
// RocksDB leaves it idle.
#include <cstdio>

#include "harness/flags.h"
#include "harness/report.h"
#include "harness/workload.h"

using namespace kvaccel;
using namespace kvaccel::harness;

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv, {.seconds = 60});
  PrintBanner("Figure 14: PCIe usage, RocksDB(1) vs KVACCEL(1) (workload A)");

  RunResult rocks, kvacc;
  {
    BenchConfig c;
    c.scale = flags.scale;
    c.sut.kind = SystemKind::kRocksDB;
    c.sut.compaction_threads = 1;
    c.sut.enable_slowdown = false;  // stall-prone baseline, as in Fig. 4
    c.workload.duration = FromSecs(flags.seconds);
    rocks = RunBenchmark(c);
  }
  {
    BenchConfig c;
    c.scale = flags.scale;
    c.sut.kind = SystemKind::kKvaccel;
    c.sut.compaction_threads = 1;
    c.sut.rollback = core::RollbackScheme::kDisabled;
    c.workload.duration = FromSecs(flags.seconds);
    kvacc = RunBenchmark(c);
  }

  PrintSeries("(a) RocksDB(1) PCIe", rocks.per_sec_pcie_mbps, "MB/s");
  PrintSeries("(b) KVAccel(1) PCIe", kvacc.per_sec_pcie_mbps, "MB/s");

  // Zero-traffic seconds over the whole run (the paper's log-scale plot makes
  // zero/near-zero intervals visually prominent).
  auto near_zero_seconds = [](const RunResult& r) {
    int n = 0;
    for (double v : r.per_sec_pcie_mbps) {
      if (v < 1.0) n++;
    }
    return n;
  };
  int rocks_zero = near_zero_seconds(rocks);
  int kv_zero = near_zero_seconds(kvacc);
  printf("\nnear-zero PCIe seconds: RocksDB=%d KVAccel=%d\n", rocks_zero,
         kv_zero);
  printf("zero-traffic *stall* seconds: RocksDB=%.0f KVAccel=%.0f",
         rocks.zero_traffic_stall_seconds, kvacc.zero_traffic_stall_seconds);
  if (rocks.zero_traffic_stall_seconds > 0) {
    printf("  (reduction: %.0f%%, paper: 45%%)",
           (1.0 - kvacc.zero_traffic_stall_seconds /
                      rocks.zero_traffic_stall_seconds) *
               100);
  }
  printf("\n");

  CheckShape(kvacc.zero_traffic_stall_seconds <=
                 rocks.zero_traffic_stall_seconds * 0.55,
             "KVACCEL cuts zero-traffic stall intervals by >=45% (paper)");
  CheckShape(kv_zero <= rocks_zero + 2,
             "KVACCEL leaves no more idle-PCIe seconds overall");
  CheckShape(kvacc.kv.redirected_writes > 0,
             "the extra traffic comes from redirected KV-interface writes");
  return 0;
}
