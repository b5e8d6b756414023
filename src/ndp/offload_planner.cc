#include "ndp/offload_planner.h"

namespace kvaccel::ndp {

namespace {
// Hysteresis band for "the host is the bottleneck".
constexpr double kCpuHighWater = 0.60;
constexpr double kCpuLowWater = 0.40;
// NDP cores above this trailing utilisation have no headroom.
constexpr double kDevHighWater = 0.90;
// Trailing window the utilisation signals are read over.
constexpr Nanos kWindow = FromMillis(500);
// Consecutive same-side samples before the hysteresis state flips.
constexpr int kFlipStreak = 2;
// Jobs smaller than this aren't worth a command round-trip.
constexpr uint64_t kMinJobBytes = 1ull << 20;
}  // namespace

bool OffloadPlanner::HostPressureHigh() {
  Nanos now = env_->Now();
  Nanos start = now > kWindow ? now - kWindow : 0;
  double util = host_->UtilizationBetween(start, now);
  // Backlog counts as pressure too: booked-but-unfinished work means new
  // merge bursts would queue even if the trailing window looks moderate.
  bool sample_high = util > kCpuHighWater ||
                     host_->BacklogNanos(now) >
                         static_cast<double>(kWindow) / 4.0;
  bool sample_low = util < kCpuLowWater;
  if (pressure_high_ ? sample_low : sample_high) {
    if (++streak_ >= kFlipStreak) {
      pressure_high_ = !pressure_high_;
      stats_.flips++;
      streak_ = 0;
    }
  } else {
    streak_ = 0;
  }
  return pressure_high_;
}

bool OffloadPlanner::ShouldOffload(const lsm::OffloadJobInfo& job) {
  if (mode_ == OffloadMode::kOff) {
    stats_.host_jobs++;
    return false;
  }
  if (mode_ == OffloadMode::kForce) {
    stats_.device_jobs++;
    return true;
  }
  Nanos now = env_->Now();
  if (now < cooldown_until_) {
    stats_.cooldown_rejects++;
    stats_.host_jobs++;
    return false;
  }
  // Update the hysteresis state on every decision so the streak counter sees
  // a steady sample stream even when only deep jobs arrive.
  bool host_pressed = HostPressureHigh();
  if (job.input_bytes < kMinJobBytes) {
    stats_.host_jobs++;
    return false;
  }
  Nanos start = now > kWindow ? now - kWindow : 0;
  if (device_ != nullptr &&
      device_->UtilizationBetween(start, now) >= kDevHighWater) {
    stats_.host_jobs++;
    return false;
  }
  bool offload;
  if (!job.is_intra_l0) {
    // Bulk merges (L0->L1 and deeper): throughput work whose host cost is
    // pure overhead — the device takes them whenever it has headroom.
    offload = true;
  } else {
    // Intra-L0 jobs un-gate stalled writers: host cores are faster, so keep
    // them local unless the host itself is the bottleneck — and even then,
    // not while a stall is already in progress.
    offload = host_pressed;
    if (offload && signals_) {
      lsm::StallSignals sig = signals_();
      if (sig.stalled) offload = false;
    }
  }
  if (offload) {
    stats_.device_jobs++;
  } else {
    stats_.host_jobs++;
  }
  return offload;
}

}  // namespace kvaccel::ndp
