// Ablation / future-work (paper Table V discussion): the paper attributes
// KVACCEL's 3x range-query deficit to the Dev-LSM iterator's lack of a
// device-side read cache. This bench implements that cache and quantifies
// the claim: range-query throughput with 0 / 8 MB / 64 MB of device DRAM
// read cache.
#include <cstdio>

#include "harness/flags.h"
#include "harness/report.h"
#include "harness/workload.h"

using namespace kvaccel;
using namespace kvaccel::harness;

namespace {

// Custom run: plant a fixed Dev-LSM population, then scan.
double ScanKopsWithCache(double scale, uint64_t cache_bytes,
                         uint64_t* hits_out) {
  sim::SimEnv env;
  ssd::HybridSsd ssd(&env, PaperSsdConfig(scale));
  fs::SimFs fs(&ssd, 0);
  sim::CpuPool cpu(&env, "host", 8);
  lsm::DbEnv denv{&env, &ssd, &fs, &cpu};
  double kops = 0;
  uint64_t hits = 0;

  env.Spawn("main", [&] {
    lsm::DbOptions opts = PaperDbOptions(4, false, scale);
    core::KvaccelOptions kv_opts =
        PaperKvaccelOptions(core::RollbackScheme::kDisabled, scale);
    kv_opts.dev.read_cache_bytes = cache_bytes;
    std::unique_ptr<core::KvaccelDB> db;
    if (!core::KvaccelDB::Open(opts, kv_opts, denv, &db).ok()) return;

    // Interleaved population: even keys in Main-LSM, odd keys device-side.
    const uint64_t kKeys = 60000;
    for (uint64_t i = 0; i < kKeys; i += 2) {
      db->Put({}, MakeKey(i, 8), Value::Synthetic(i, 4096));
    }
    db->WaitForCompactionIdle();
    for (uint64_t i = 1; i < kKeys; i += 2) {
      lsm::SequenceNumber seq = db->main()->AllocateSequence(1);
      db->dev()->PutCompound(
          {{MakeKey(i, 8), Value::Synthetic(i, 4096), false, seq}});
      db->metadata()->Insert(MakeKey(i, 8), seq);
    }

    Random64 rng(99);
    lsm::ReadOptions ropts;
    ropts.readahead_blocks = 16;
    Nanos t0 = env.Now();
    uint64_t ops = 0;
    const int kSeeks = 400;
    for (int s = 0; s < kSeeks; s++) {
      auto it = db->NewIterator(ropts);
      it->Seek(MakeKey(rng.Uniform(kKeys - 2000), 8));
      ops++;
      for (int n = 0; n < 1024 && it->Valid(); n++) {
        it->Next();
        ops++;
      }
    }
    kops = static_cast<double>(ops) / ToSecs(env.Now() - t0) / 1e3;
    hits = db->dev()->stats().read_cache_hits;
    db->Close();
  });
  env.Run();
  *hits_out = hits;
  return kops;
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv, {});
  PrintBanner("Ablation: Dev-LSM device read cache (the paper's named "
              "range-query bottleneck)");

  struct Row {
    uint64_t cache;
    double kops = 0;
    uint64_t hits = 0;
  } rows[] = {{0, 0, 0}, {8ull << 20, 0, 0}, {64ull << 20, 0, 0}};

  printf("%-14s %14s %14s\n", "read cache", "scan Kops/s", "cache hits");
  for (Row& row : rows) {
    row.kops = ScanKopsWithCache(flags.scale, row.cache, &row.hits);
    printf("%-14llu %14.1f %14llu\n",
           static_cast<unsigned long long>(row.cache >> 20), row.kops,
           static_cast<unsigned long long>(row.hits));
  }

  CheckShape(rows[0].hits == 0, "paper configuration: no cache, no hits");
  CheckShape(rows[2].hits > 0, "a configured cache absorbs repeat reads");
  CheckShape(rows[2].kops > rows[0].kops * 1.2,
             "a device read cache recovers a substantial share of the "
             "range-query deficit (the paper's hypothesis)");
  return 0;
}
