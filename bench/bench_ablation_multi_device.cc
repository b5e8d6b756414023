// Ablation (paper §V-D): KVACCEL "can be run in a multi-device setup" with
// the block region on one SSD and the key-value interface on another.
// Compares single-device (redirected writes contend with Main-LSM
// compaction for one NAND budget) against dual-device (dedicated bandwidth
// for the KV interface).
#include <algorithm>
#include <cstdio>
#include <memory>

#include "harness/flags.h"
#include "harness/report.h"
#include "harness/workload.h"

using namespace kvaccel;
using namespace kvaccel::harness;

namespace {

double FillKops(double scale, double seconds, bool dual_device,
                uint64_t* redirected) {
  sim::SimEnv env;
  ssd::HybridSsd main_ssd(&env, PaperSsdConfig(scale));
  std::unique_ptr<ssd::HybridSsd> kv_ssd;
  if (dual_device) {
    kv_ssd = std::make_unique<ssd::HybridSsd>(&env, PaperSsdConfig(scale));
  }
  fs::SimFs fs(&main_ssd, 0);
  sim::CpuPool cpu(&env, "host", 8);
  lsm::DbEnv denv{&env, &main_ssd, &fs, &cpu};
  double kops = 0;

  env.Spawn("main", [&] {
    lsm::DbOptions opts = PaperDbOptions(1, false, scale);
    core::KvaccelOptions kv_opts =
        PaperKvaccelOptions(core::RollbackScheme::kDisabled, scale);
    kv_opts.dev.compaction_enabled = false;
    kv_opts.kv_device = kv_ssd.get();
    std::unique_ptr<core::KvaccelDB> db;
    if (!core::KvaccelDB::Open(opts, kv_opts, denv, &db).ok()) return;
    Random64 rng(7);
    uint64_t writes = 0;
    Nanos end = env.Now() + FromSecs(seconds);
    uint64_t seed = 0;
    while (env.Now() < end) {
      if (!db->Put({}, MakeKey(rng.Uniform(1ull << 31), 4),
                   Value::Synthetic(seed++, 4096)).ok()) {
        break;
      }
      writes++;
    }
    kops = static_cast<double>(writes) / seconds / 1e3;
    *redirected = db->kv_stats().redirected_writes;
    db->Close();
  });
  env.Run();
  return kops;
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv, {.seconds = 40});
  PrintBanner("Ablation: single hybrid device vs. multi-device KV interface "
              "(paper §V-D)");

  uint64_t redir_single = 0, redir_dual = 0;
  double single = FillKops(flags.scale, flags.seconds, false, &redir_single);
  double dual = FillKops(flags.scale, flags.seconds, true, &redir_dual);

  printf("%-16s %12s %14s\n", "deployment", "Kops/s", "redirected");
  printf("%-16s %12.1f %14llu\n", "single-device", single,
         static_cast<unsigned long long>(redir_single));
  printf("%-16s %12.1f %14llu\n", "dual-device", dual,
         static_cast<unsigned long long>(redir_dual));

  CheckShape(redir_single > 0 && redir_dual > 0,
             "redirection active in both deployments");
  // Mechanism check rather than a direction check: with a dedicated KV
  // device the Main-LSM's compaction is less contended, stalls clear
  // sooner, and LESS traffic is served by the steady redirected path — the
  // two deployments trade duty cycle, landing within ~25% of each other.
  CheckShape(redir_dual < redir_single,
             "a dedicated KV device shortens stall windows (fewer "
             "redirected writes)");
  double lo = std::min(single, dual), hi = std::max(single, dual);
  CheckShape(lo >= 0.75 * hi,
             "single- and multi-device deployments land within ~25% "
             "(contention share is small at 630 MB/s)");
  return 0;
}
