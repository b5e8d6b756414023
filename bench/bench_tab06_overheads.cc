// Table VI: KVACCEL operation overheads.
//
//   Operation   | paper (avg us)
//   Detector    | 1.37
//   Key Insert  | 0.45
//   Key Check   | 0.20
//   Key Delete  | 0.28
//
// Two views are produced:
//  1. Virtual-cost verification: the simulation charges exactly the paper's
//     measured costs — asserted by driving the real modules in a SimEnv.
//  2. google-benchmark microbenchmarks of the Metadata Manager's own table
//     (core::KeySeqTable Set/Find/Erase on 8-byte keys), demonstrating the
//     costs are of the right physical magnitude on real hardware too.
//
// The command line is google-benchmark's (--benchmark_filter=...); anything
// else exits 2.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/detector.h"
#include "core/kvaccel_db.h"
#include "core/metadata_manager.h"
#include "harness/report.h"
#include "harness/workload.h"
#include "tests/test_util.h"

using namespace kvaccel;

namespace {

// ---- View 2: real-hardware microbenchmarks ----

std::string BenchKey(uint64_t i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "%08llx", static_cast<unsigned long long>(i));
  return buf;
}

void BM_MetadataInsert(benchmark::State& state) {
  core::KeySeqTable table;
  benchmark::DoNotOptimize(&table);
  uint64_t i = 0;
  for (auto _ : state) {
    table.Set(BenchKey(i & 0xfffff), i);
    benchmark::ClobberMemory();
    i++;
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_MetadataInsert);

void BM_MetadataCheck(benchmark::State& state) {
  core::KeySeqTable table;
  for (uint64_t i = 0; i < 100000; i++) table.Set(BenchKey(i), i);
  uint64_t i = 0;
  bool found = false;
  for (auto _ : state) {
    found ^= table.Find(BenchKey(i++ % 200000)) != nullptr;
  }
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_MetadataCheck);

// Erases from a table of 100k entries: erasing the last entry would release
// the table's slot array, which a serving Metadata Manager rarely does.
void BM_MetadataDelete(benchmark::State& state) {
  core::KeySeqTable table;
  benchmark::DoNotOptimize(&table);
  for (uint64_t i = 0; i < 100000; i++) table.Set(BenchKey(i), i);
  uint64_t i = 100000;
  for (auto _ : state) {
    state.PauseTiming();
    std::string key = BenchKey(i++);
    table.Set(key, i);
    state.ResumeTiming();
    table.Erase(key);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MetadataDelete);

// ---- View 1: virtual-cost verification against Table VI ----

void VerifyModeledCosts() {
  using namespace kvaccel::core;
  using namespace kvaccel::harness;
  test::SimWorld world;
  double detector_us = 0, insert_us = 0, check_us = 0, delete_us = 0;
  world.Run([&] {
    lsm::DbOptions opts = test::SmallDbOptions();
    KvaccelOptions kv_opts;
    kv_opts.rollback = RollbackScheme::kDisabled;
    std::unique_ptr<KvaccelDB> db;
    if (!KvaccelDB::Open(opts, kv_opts, world.MakeDbEnv(), &db).ok()) return;

    const int kOps = 1000;
    Nanos t0 = world.env.Now();
    for (int i = 0; i < kOps; i++) db->detector()->PollNow();
    detector_us = ToMicros(world.env.Now() - t0) / kOps;

    t0 = world.env.Now();
    for (int i = 0; i < kOps; i++) {
      db->metadata()->Insert(harness::MakeKey(i, 8), i + 1);
    }
    insert_us = ToMicros(world.env.Now() - t0) / kOps;

    t0 = world.env.Now();
    for (int i = 0; i < kOps; i++) {
      db->metadata()->Check(harness::MakeKey(i, 8));
    }
    check_us = ToMicros(world.env.Now() - t0) / kOps;

    t0 = world.env.Now();
    for (int i = 0; i < kOps; i++) {
      db->metadata()->Delete(harness::MakeKey(i, 8));
    }
    delete_us = ToMicros(world.env.Now() - t0) / kOps;
    db->Close();
  });

  harness::PrintBanner("Table VI: KVACCEL operation overheads "
                       "(modeled virtual cost, paper-calibrated)");
  printf("%-12s %18s %12s\n", "Operation", "measured (us)", "paper (us)");
  printf("%-12s %18.2f %12s\n", "Detector", detector_us, "1.37");
  printf("%-12s %18.2f %12s\n", "Key Insert", insert_us, "0.45");
  printf("%-12s %18.2f %12s\n", "Key Check", check_us, "0.20");
  printf("%-12s %18.2f %12s\n", "Key Delete", delete_us, "0.28");
  harness::CheckShape(std::abs(detector_us - 1.37) < 0.05,
                      "Detector check ~1.37 us");
  harness::CheckShape(std::abs(insert_us - 0.45) < 0.02,
                      "Metadata key insert ~0.45 us");
  harness::CheckShape(std::abs(check_us - 0.20) < 0.02,
                      "Metadata key check ~0.20 us");
  harness::CheckShape(std::abs(delete_us - 0.28) < 0.02,
                      "Metadata key delete ~0.28 us");
  // Combined check+delete, the paper's worst observed composite (0.48 us).
  harness::CheckShape(std::abs((check_us + delete_us) - 0.48) < 0.04,
                      "key check + delete composite ~0.48 us");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  VerifyModeledCosts();
  printf("\n-- google-benchmark: host-hardware metadata ops --\n");
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
