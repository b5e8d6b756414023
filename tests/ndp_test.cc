// Device-offloaded compaction (DESIGN.md §13): the NDP COMPACT engine, the
// host/device placement planner, and the integrated KvaccelDB offload path —
// including the device-error fallback and same-seed report byte-identity.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/kvaccel_db.h"
#include "harness/report_json.h"
#include "harness/workload.h"
#include "ndp/ndp_device.h"
#include "ndp/offload_planner.h"
#include "sim/fault.h"
#include "tests/test_util.h"

namespace kvaccel::ndp {
namespace {

using test::SimWorld;
using test::TestKey;

lsm::OffloadJobInfo BulkJob(uint64_t bytes = 8 << 20) {
  lsm::OffloadJobInfo j;
  j.level = 0;
  j.output_level = 1;
  j.input_bytes = bytes;
  j.input_files = 4;
  return j;
}

lsm::OffloadJobInfo IntraL0Job(uint64_t bytes = 8 << 20) {
  lsm::OffloadJobInfo j = BulkJob(bytes);
  j.output_level = 0;
  j.is_intra_l0 = true;
  return j;
}

TEST(NdpDeviceTest, CompactLifecycleBurnsNdpCoresAndShipsCapsules) {
  SimWorld world;
  NdpDevice dev(world.ssd.get());
  world.Run([&] {
    CompactDescriptor d;
    d.level = 0;
    d.output_level = 1;
    d.input_bytes = 4 << 20;
    d.input_files = 4;
    uint64_t cmd_id = 0;
    ASSERT_TRUE(dev.BeginCompact(d, &cmd_id).ok());
    EXPECT_GT(cmd_id, 0u);
    Nanos before = world.env.Now();
    dev.MergeCpu(1 << 20);
    EXPECT_GT(world.env.Now(), before);  // merge cost is real virtual time
    ASSERT_TRUE(dev.FinishCompact(cmd_id, true, 2, 1 << 20).ok());

    const NdpStats& s = dev.stats();
    EXPECT_EQ(s.commands, 1u);
    EXPECT_EQ(s.jobs_completed, 1u);
    EXPECT_EQ(s.jobs_failed, 0u);
    EXPECT_EQ(s.merge_bytes, static_cast<uint64_t>(1 << 20));
    // Only the descriptor and the result capsule cross PCIe — never data.
    EXPECT_GT(s.command_bytes, 0u);
    EXPECT_GT(s.result_bytes, 0u);
    EXPECT_LT(s.command_bytes + s.result_bytes, 8u << 10);
    EXPECT_GT(dev.cpu()->busy_seconds(), 0.0);
  });
}

TEST(NdpDeviceTest, FailedJobReportsNoCapsule) {
  SimWorld world;
  NdpDevice dev(world.ssd.get());
  world.Run([&] {
    uint64_t cmd_id = 0;
    ASSERT_TRUE(dev.BeginCompact(CompactDescriptor(), &cmd_id).ok());
    ASSERT_TRUE(dev.FinishCompact(cmd_id, false, 0, 0).ok());
    EXPECT_EQ(dev.stats().jobs_failed, 1u);
    EXPECT_EQ(dev.stats().jobs_completed, 0u);
    EXPECT_EQ(dev.stats().result_bytes, 0u);
  });
}

TEST(OffloadPlannerTest, BulkJobsOffloadIntraL0StaysHostWhenIdle) {
  SimWorld world;
  NdpDevice dev(world.ssd.get());
  world.Run([&] {
    OffloadPlanner planner(&world.env, world.host_cpu.get(), dev.cpu(),
                           OffloadMode::kAuto);
    // Idle host: bulk merges go to the device, intra-L0 stays local, and
    // jobs under 1 MiB aren't worth the command round-trip.
    EXPECT_TRUE(planner.ShouldOffload(BulkJob()));
    EXPECT_FALSE(planner.ShouldOffload(IntraL0Job()));
    EXPECT_FALSE(planner.ShouldOffload(BulkJob(/*bytes=*/4 << 10)));
    EXPECT_EQ(planner.stats().device_jobs, 1u);
    EXPECT_EQ(planner.stats().host_jobs, 2u);
  });
}

TEST(OffloadPlannerTest, CpuPressureFlipsIntraL0ToDeviceWithHysteresis) {
  SimWorld world;
  NdpDevice dev(world.ssd.get());
  // Saturate every host core for the first simulated second.
  for (int i = 0; i < 8; i++) {
    world.env.Spawn("burn" + std::to_string(i),
                    [&] { world.host_cpu->Consume(1e9); });
  }
  world.Run([&] {
    OffloadPlanner planner(&world.env, world.host_cpu.get(), dev.cpu(),
                           OffloadMode::kAuto);
    world.env.SleepFor(FromMillis(400));  // trailing window is now all-busy
    // Two high samples flip the state: the first doesn't flip yet.
    EXPECT_FALSE(planner.ShouldOffload(IntraL0Job()));
    EXPECT_TRUE(planner.ShouldOffload(IntraL0Job()));
    EXPECT_EQ(planner.stats().flips, 1u);

    // A stall already in progress vetoes the offload: host cores un-gate
    // writers faster.
    planner.set_signals_provider([] {
      lsm::StallSignals s;
      s.stalled = true;
      return s;
    });
    EXPECT_FALSE(planner.ShouldOffload(IntraL0Job()));
  });
}

TEST(OffloadPlannerTest, DeviceFailureOpensCooldownThatExpires) {
  SimWorld world;
  NdpDevice dev(world.ssd.get());
  world.Run([&] {
    OffloadPlanner planner(&world.env, world.host_cpu.get(), dev.cpu(),
                           OffloadMode::kAuto);
    ASSERT_TRUE(planner.ShouldOffload(BulkJob()));
    planner.ReportDeviceFailure();
    EXPECT_FALSE(planner.ShouldOffload(BulkJob()));  // circuit breaker open
    EXPECT_EQ(planner.stats().cooldown_rejects, 1u);
    EXPECT_EQ(planner.stats().failures, 1u);
    world.env.SleepFor(kFailureCooldown + FromMillis(1));
    EXPECT_TRUE(planner.ShouldOffload(BulkJob()));  // breaker closed again
  });
}

TEST(OffloadPlannerTest, ForceModeIgnoresSizeAndCooldown) {
  SimWorld world;
  NdpDevice dev(world.ssd.get());
  world.Run([&] {
    OffloadPlanner planner(&world.env, world.host_cpu.get(), dev.cpu(),
                           OffloadMode::kForce);
    planner.ReportDeviceFailure();
    EXPECT_TRUE(planner.ShouldOffload(BulkJob(/*bytes=*/1)));
    EXPECT_TRUE(planner.ShouldOffload(IntraL0Job()));
  });
}

core::KvaccelOptions NdpKvOptions(NdpDevice* dev, OffloadMode mode) {
  core::KvaccelOptions o;
  o.dev.memtable_bytes = 128 << 10;
  o.dev.dma_chunk = 64 << 10;
  o.rollback = core::RollbackScheme::kDisabled;
  o.ndp_device = dev;
  o.ndp_mode = mode;
  return o;
}

// Writes enough overlapping data to force compactions, then verifies the
// newest version of every key.
void FillAndVerify(core::KvaccelDB* db, int writes, int keys) {
  for (int i = 0; i < writes; i++) {
    ASSERT_TRUE(db->Put({}, TestKey(i % keys),
                        Value::Synthetic(static_cast<uint64_t>(i), 4096))
                    .ok());
  }
  Value v;
  for (int k = 0; k < keys; k++) {
    int last = (writes - keys) + k;
    ASSERT_TRUE(db->Get({}, TestKey(k), &v).ok()) << k;
    EXPECT_EQ(v.seed(), static_cast<uint64_t>(last)) << k;
  }
}

TEST(NdpIntegrationTest, ForceModeRunsCompactionsDeviceSide) {
  SimWorld world;
  NdpDevice dev(world.ssd.get());
  world.Run([&] {
    std::unique_ptr<core::KvaccelDB> db;
    ASSERT_TRUE(core::KvaccelDB::Open(test::SmallDbOptions(),
                                      NdpKvOptions(&dev, OffloadMode::kForce),
                                      world.MakeDbEnv(), &db)
                    .ok());
    FillAndVerify(db.get(), 2000, 500);
    const lsm::DbStats& s = db->main()->stats();
    EXPECT_GT(s.ndp_compactions, 0u);
    EXPECT_GT(s.ndp_bytes_written, 0u);
    EXPECT_EQ(s.ndp_fallbacks, 0u);
    EXPECT_EQ(dev.stats().jobs_completed, s.ndp_compactions);
    EXPECT_GT(dev.cpu()->busy_seconds(), 0.0);
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(NdpIntegrationTest, TransientRejectsFallBackToHostAndPreserveData) {
  SimWorld world;
  NdpDevice dev(world.ssd.get());
  sim::FaultInjector inj(&world.env, /*seed=*/17);
  world.env.set_fault_injector(&inj);
  // Every COMPACT command is rejected: the planner reports the failure and
  // the whole stream of compactions runs host-side instead.
  sim::FaultRule rule;
  rule.probability = 1.0;
  inj.Arm("ndp.compact.transient", rule);
  world.Run([&] {
    std::unique_ptr<core::KvaccelDB> db;
    ASSERT_TRUE(core::KvaccelDB::Open(test::SmallDbOptions(),
                                      NdpKvOptions(&dev, OffloadMode::kForce),
                                      world.MakeDbEnv(), &db)
                    .ok());
    FillAndVerify(db.get(), 2000, 500);
    const lsm::DbStats& s = db->main()->stats();
    EXPECT_EQ(s.ndp_compactions, 0u);   // nothing completed device-side
    EXPECT_GT(s.compaction_count, 0u);  // the host did the work instead
    EXPECT_GT(dev.stats().rejected, 0u);
    EXPECT_GT(db->offload_planner()->stats().failures, 0u);
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(NdpIntegrationTest, OffAndForceConvergeToSameData) {
  auto run = [](OffloadMode mode, uint64_t* device_jobs) {
    SimWorld world;
    NdpDevice dev(world.ssd.get());
    std::string digest;
    world.Run([&] {
      std::unique_ptr<core::KvaccelDB> db;
      ASSERT_TRUE(core::KvaccelDB::Open(test::SmallDbOptions(),
                                        NdpKvOptions(&dev, mode),
                                        world.MakeDbEnv(), &db)
                      .ok());
      for (int i = 0; i < 2000; i++) {
        ASSERT_TRUE(db->Put({}, TestKey(i % 500),
                            Value::Synthetic(static_cast<uint64_t>(i), 4096))
                        .ok());
      }
      auto it = db->NewIterator({});
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        digest += it->key().ToString();
        digest += ':';
        digest += std::to_string(Value::DecodeOrDie(it->value()).seed());
        digest += '\n';
      }
      ASSERT_TRUE(it->status().ok());
      *device_jobs = db->main()->stats().ndp_compactions;
      ASSERT_TRUE(db->Close().ok());
    });
    return digest;
  };
  uint64_t off_jobs = 0, force_jobs = 0;
  std::string off = run(OffloadMode::kOff, &off_jobs);
  std::string force = run(OffloadMode::kForce, &force_jobs);
  EXPECT_EQ(off_jobs, 0u);
  EXPECT_GT(force_jobs, 0u);
  EXPECT_FALSE(off.empty());
  EXPECT_EQ(off, force);  // placement never changes the logical contents
}

TEST(NdpReportTest, SameSeedAutoReportsAreByteIdentical) {
  auto report = [] {
    harness::BenchConfig c;
    c.scale = 0.03125;
    c.sut.kind = harness::SystemKind::kKvaccel;
    c.sut.compaction_threads = 1;
    c.sut.rollback = core::RollbackScheme::kDisabled;
    c.sut.ndp_mode = OffloadMode::kAuto;
    c.workload.duration = FromSecs(8);
    harness::RunResult r = harness::RunBenchmark(c);
    return harness::JsonReportString(c, {r});
  };
  std::string a = report();
  std::string b = report();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"ndp\""), std::string::npos);
}

}  // namespace
}  // namespace kvaccel::ndp
