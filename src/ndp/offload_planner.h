// OffloadPlanner: the host-side placement policy for compaction jobs
// (DESIGN.md §13). Decides per picked job whether the merge runs on the host
// CPU pool or is shipped to the device's NDP cores, from the same live
// resource picture the Detector reads: trailing host-CPU utilisation and
// backlog, trailing NDP-core utilisation, and LSM stall signals.
//
// Policy (auto mode):
//  - Bulk merges (L0->L1 and deeper) of at least 1 MiB offload
//    whenever the NDP cores have headroom — they are throughput work, and
//    moving them off the host frees cycles and PCIe bandwidth for the
//    foreground.
//  - Intra-L0 jobs are latency-critical — they un-gate stalled writers — so
//    they stay host-side unless the host itself is the bottleneck: sustained
//    host-CPU utilisation above 60% (with hysteresis so the decision
//    doesn't flap around the threshold).
//  - A reported device failure opens a cooldown window during which every
//    job runs host-side (circuit breaker; force mode ignores it so fault
//    drills still arm the device path).
//
// Every input is virtual-time-deterministic, so same-seed runs make
// identical placement decisions (the CI byte-identity gate covers this).
#pragma once

#include <cstdint>
#include <functional>

#include "common/units.h"
#include "lsm/db.h"
#include "lsm/options.h"
#include "obs/metrics.h"
#include "sim/cpu_pool.h"
#include "sim/sim_env.h"

namespace kvaccel::ndp {

enum class OffloadMode { kOff, kAuto, kForce };

// Circuit-breaker window after a device failure.
constexpr Nanos kFailureCooldown = FromSecs(2);

struct PlannerStats {
  uint64_t device_jobs = 0;      // decisions that granted the device
  uint64_t host_jobs = 0;        // decisions that kept the host
  uint64_t flips = 0;            // hysteresis state changes
  uint64_t cooldown_rejects = 0; // jobs kept host-side by the breaker
  uint64_t failures = 0;         // device failures reported

  static constexpr obs::StatField<PlannerStats> kMetrics[] = {
      {"ndp.planner.device_jobs", &PlannerStats::device_jobs},
      {"ndp.planner.host_jobs", &PlannerStats::host_jobs},
      {"ndp.planner.flips", &PlannerStats::flips},
      {"ndp.planner.cooldown_rejects", &PlannerStats::cooldown_rejects},
      {"ndp.planner.failures", &PlannerStats::failures},
  };
};

class OffloadPlanner {
 public:
  OffloadPlanner(sim::SimEnv* env, sim::CpuPool* host_cpu,
                 sim::CpuPool* device_cpu, OffloadMode mode)
      : env_(env), host_(host_cpu), device_(device_cpu), mode_(mode) {}

  // Optional: LSM stall signals sharpen the L0 decision (an imminent stall
  // keeps L0 work on the faster host cores even under CPU pressure).
  void set_signals_provider(std::function<lsm::StallSignals()> fn) {
    signals_ = std::move(fn);
  }

  bool ShouldOffload(const lsm::OffloadJobInfo& job);

  void ReportDeviceFailure() {
    stats_.failures++;
    cooldown_until_ = env_->Now() + kFailureCooldown;
  }

  const PlannerStats& stats() const { return stats_; }

 private:
  bool HostPressureHigh();  // hysteresis-filtered host-CPU signal

  sim::SimEnv* env_;
  sim::CpuPool* host_;
  sim::CpuPool* device_;
  OffloadMode mode_;
  std::function<lsm::StallSignals()> signals_;
  PlannerStats stats_;
  Nanos cooldown_until_ = 0;
  bool pressure_high_ = false;
  int streak_ = 0;
};

}  // namespace kvaccel::ndp
