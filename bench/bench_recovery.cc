// §VI-D Recovery Process: after a crash the Metadata Manager's hash table
// (volatile) is lost; recovery rolls every Dev-LSM pair back into Main-LSM.
//
// Paper: restoring 10,000 KV pairs from Dev-LSM to Main-LSM took 1.1 s.
#include <cstdio>

#include "core/kvaccel_db.h"
#include "fs/simfs.h"
#include "harness/flags.h"
#include "harness/presets.h"
#include "harness/report.h"
#include "harness/workload.h"
#include "sim/cpu_pool.h"

using namespace kvaccel;
using namespace kvaccel::harness;

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv, {});
  PrintBanner("Recovery (paper §VI-D): metadata loss -> full Dev-LSM "
              "rollback");

  sim::SimEnv env;
  ssd::HybridSsd ssd(&env, PaperSsdConfig(flags.scale));
  fs::SimFs fs(&ssd, 0);
  sim::CpuPool host_cpu(&env, "host", 8);
  lsm::DbEnv denv{&env, &ssd, &fs, &host_cpu};

  double recovery_s = -1;
  uint64_t restored = 0;
  bool verified = true;

  env.Spawn("main", [&] {
    lsm::DbOptions opts = PaperDbOptions(4, false, flags.scale);
    core::KvaccelOptions kv_opts =
        PaperKvaccelOptions(core::RollbackScheme::kDisabled, flags.scale);
    std::unique_ptr<core::KvaccelDB> db;
    if (!core::KvaccelDB::Open(opts, kv_opts, denv, &db).ok()) return;

    // Plant exactly 10,000 redirected pairs in the Dev-LSM, as a stall
    // window would, with metadata records to lose.
    const int kPairs = 10000;
    for (int i = 0; i < kPairs; i++) {
      lsm::SequenceNumber seq = db->main()->AllocateSequence(1);
      std::string key = MakeKey(static_cast<uint64_t>(i), 4);
      Status s = db->dev()->PutCompound(
          {{key, Value::Synthetic(i, 4096), false, seq}});
      if (!s.ok()) return;
      db->metadata()->Insert(key, seq);
    }

    Nanos dur = 0;
    if (!db->CrashMetadataAndRecover(&dur).ok()) return;
    recovery_s = ToSecs(dur);
    restored = db->kv_stats().rollback_entries;

    // Integrity: every pair must now be served by Main-LSM.
    for (int i = 0; i < kPairs; i += 97) {
      Value v;
      Status s = db->Get({}, MakeKey(static_cast<uint64_t>(i), 4), &v);
      if (!s.ok() || v.seed() != static_cast<uint64_t>(i)) verified = false;
    }
    if (!db->dev()->Empty()) verified = false;
    db->Close();
  });
  env.Run();

  printf("restored %llu / 10000 KV pairs in %.2f s (paper: 1.1 s)\n",
         static_cast<unsigned long long>(restored), recovery_s);
  CheckShape(restored == 10000, "all 10,000 pairs restored to Main-LSM");
  CheckShape(verified, "restored data readable and Dev-LSM empty");
  CheckShape(recovery_s > 0.05 && recovery_s < 5.0,
             "recovery completes in ~1 second (paper: 1.1 s)");
  return 0;
}
