// Figure 4: PCIe bandwidth utilisation time series with write-stall regions
// marked, for RocksDB(1) and RocksDB(4), slowdown disabled, workload A.
//
// Expected shape (paper §III-B): within stall regions (green boxes) traffic
// alternates between ~zero (merge phase: CPU only) and near the device
// maximum (read/write phases) — significant bandwidth goes unused while
// writes are blocked.
#include <algorithm>
#include <cstdio>

#include "harness/flags.h"
#include "harness/report.h"
#include "harness/workload.h"

using namespace kvaccel;
using namespace kvaccel::harness;

namespace {

RunResult RunPanel(int threads, const BenchFlags& flags) {
  BenchConfig c;
  c.scale = flags.scale;
  c.sut.kind = SystemKind::kRocksDB;
  c.sut.compaction_threads = threads;
  c.sut.enable_slowdown = false;
  c.workload.duration = FromSecs(flags.seconds);
  return RunBenchmark(c);
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags =
      BenchFlags::Parse(argc, argv, {.seconds = 60, .threads = true});
  PrintBanner("Figure 4: PCIe traffic during write stalls, RocksDB w/o "
              "slowdown (device max = 630 MB/s)");

  for (int threads : {1, 4}) {
    if (flags.threads != 0 && flags.threads != threads) continue;
    RunResult r = RunPanel(threads, flags);
    char label[64];
    snprintf(label, sizeof(label), "RocksDB(%d) PCIe MB/s", threads);
    PrintSeries(label, r.per_sec_pcie_mbps, "MB/s");
    PrintStallRegions(r);

    // Quantify the paper's observation inside stall regions.
    int idle = 0, busy = 0;
    for (double util : r.stall_pcie_util) {
      if (util < 0.10) idle++;
      if (util > 0.50) busy++;
    }
    printf("  stall seconds: %zu (idle<10%%: %d, busy>50%%: %d)\n",
           r.stall_pcie_util.size(), idle, busy);
    CheckShape(!r.stall_regions_sec.empty(),
               "write stalls occur without slowdown");
    CheckShape(idle > 0,
               "stall regions contain near-zero PCIe traffic intervals");
    CheckShape(busy > 0,
               "stall regions also contain high-traffic intervals "
               "(compaction I/O phases)");
    double max_mbps = *std::max_element(r.per_sec_pcie_mbps.begin(),
                                        r.per_sec_pcie_mbps.end());
    CheckShape(max_mbps <= 650.0,
               "traffic bounded by the 630 MB/s device ceiling");
  }
  return 0;
}
