// Figure 5: CDF of PCIe bandwidth utilisation during write-stall periods for
// RocksDB(1) and RocksDB(4), slowdown disabled.
//
// Paper: RocksDB(1) — 30% of stall time with no PCIe usage, 49% above 90%;
// RocksDB(4) — 21% with none, 55% above 90%. I.e. a strongly bimodal
// distribution with a large idle mass: the opportunity KVACCEL exploits.
#include <algorithm>
#include <cstdio>

#include "harness/flags.h"
#include "harness/report.h"
#include "harness/workload.h"

using namespace kvaccel;
using namespace kvaccel::harness;

int main(int argc, char** argv) {
  BenchFlags flags =
      BenchFlags::Parse(argc, argv, {.seconds = 60, .threads = true});
  PrintBanner("Figure 5: CDF of PCIe utilisation during write stalls "
              "(RocksDB w/o slowdown)");

  for (int threads : {1, 4}) {
    if (flags.threads != 0 && flags.threads != threads) continue;
    BenchConfig c;
    c.scale = flags.scale;
    c.sut.kind = SystemKind::kRocksDB;
    c.sut.compaction_threads = threads;
    c.sut.enable_slowdown = false;
    c.workload.duration = FromSecs(flags.seconds);
    RunResult r = RunBenchmark(c);

    char label[64];
    snprintf(label, sizeof(label), "RocksDB(%d) stall-period PCIe util",
             threads);
    PrintCdf(label, r.stall_pcie_util,
             {0.0, 0.10, 0.25, 0.50, 0.75, 0.90, 1.0});

    size_t n = r.stall_pcie_util.size();
    size_t idle = 0, high = 0;
    for (double u : r.stall_pcie_util) {
      if (u < 0.10) idle++;
      if (u > 0.60) high++;
    }
    double idle_frac = n == 0 ? 0 : static_cast<double>(idle) / n;
    double high_frac = n == 0 ? 0 : static_cast<double>(high) / n;
    printf("  idle(<10%%)=%.0f%%  high(>60%%)=%.0f%%\n", idle_frac * 100,
           high_frac * 100);
    CheckShape(n >= 5, "enough stall seconds to form a CDF");
    CheckShape(idle_frac >= 0.05,
               "a significant share of stall time leaves PCIe idle "
               "(paper: 21-30%)");
    CheckShape(high_frac >= 0.10,
               "a significant share of stall time runs PCIe hot "
               "(paper: ~50% above 90%)");
  }
  return 0;
}
