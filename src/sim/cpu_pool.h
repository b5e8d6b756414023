// CpuPool: a k-server CPU model. Consume(work) occupies the least-loaded core
// for `work` virtual nanoseconds, queueing behind earlier work when all cores
// are busy, and blocks the calling simulated thread until its work retires.
//
// Busy-time accounting yields the CPU-utilisation percentages behind the
// paper's Efficiency metric (Eq. 1) and the ADOC-uses-more-CPU result
// (Fig. 12c). The host pool models the 8 cores of Table II; a separate 1-core
// pool models the Cosmos+ ARM Cortex-A9 running Dev-LSM firmware.
//
// Accounting is exact: every Consume books one closed busy interval on the
// core that ran it (intervals on a core never overlap — core_free_ns_ is
// monotone per core — and back-to-back intervals coalesce), so
// UtilizationBetween / CoreUtilizationBetween over an arbitrary virtual-time
// window return the true busy fraction, not a bucket approximation. The
// NDP OffloadPlanner keys its host-vs-device placement off short trailing
// windows of this signal (DESIGN.md §13). Charge() costs are sub-resolution
// bookkeeping without a core assignment; concurrent charges may overlap one
// another, so they are accumulated additively in fine (10 ms) prorated
// buckets rather than as intervals (utilization is clamped to 1).
//
// A pool built without history (keep_history = false) keeps only the busy
// total: a pool read through busy_seconds() alone, like the SSD firmware
// core, then holds no per-interval memory. A window query on it aborts.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/sim_env.h"
#include "sim/timeseries.h"

namespace kvaccel::sim {

class CpuPool {
 public:
  CpuPool(SimEnv* env, std::string name, int cores,
          double speed_factor = 1.0, bool keep_history = true)
      : env_(env), name_(std::move(name)),
        speed_factor_(speed_factor), keep_history_(keep_history),
        core_free_ns_(cores, 0.0), core_busy_(static_cast<size_t>(cores)) {
    assert(cores > 0);
    assert(speed_factor > 0);
  }

  // Executes `work_ns` of nominal CPU work (scaled by 1/speed_factor — a
  // 0.5-speed core takes twice as long). Blocks until the work completes.
  Nanos Consume(double work_ns) {
    if (work_ns <= 0) return env_->Now();
    double scaled = work_ns / speed_factor_;
    size_t core = PickCore();
    double start =
        std::max(static_cast<double>(env_->Now()), core_free_ns_[core]);
    double end = start + scaled;
    core_free_ns_[core] = end;
    busy_ns_ += scaled;
    if (keep_history_) AppendInterval(&core_busy_[core], start, end);
    env_->SleepUntil(static_cast<Nanos>(end + 0.999));
    return env_->Now();
  }

  // Accounts CPU busy-time without modeling queueing delay for the caller —
  // for sub-microsecond bookkeeping costs (Table VI) where queueing at op
  // granularity is below the model's resolution. The caller adds the latency
  // itself (typically via an accumulated sleep).
  void Charge(double work_ns) {
    if (work_ns <= 0) return;
    double scaled = work_ns / speed_factor_;
    busy_ns_ += scaled;
    if (!keep_history_) return;
    Nanos now = env_->Now();
    charge_series_.AddRange(now, now + static_cast<Nanos>(scaled + 0.5),
                            scaled);
  }

  int cores() const { return static_cast<int>(core_free_ns_.size()); }
  double busy_seconds() const { return busy_ns_ / 1e9; }
  const std::string& name() const { return name_; }

  // Exact busy nanoseconds core `core` spent on Consume work inside
  // [start, end) — interval-clipped, not bucketed.
  double CoreBusyBetween(int core, Nanos start, Nanos end) const {
    RequireHistory();
    return OverlapSum(core_busy_[static_cast<size_t>(core)],
                      static_cast<double>(start), static_cast<double>(end));
  }

  // Exact utilisation of one core in [0, 1] over [start, end).
  double CoreUtilizationBetween(int core, Nanos start, Nanos end) const {
    RequireHistory();
    if (end <= start) return 0.0;
    return CoreBusyBetween(core, start, end) /
           static_cast<double>(end - start);
  }

  // Mean pool utilisation in [0,1] over [start, end): exact sum of per-core
  // busy intervals plus Charge() costs, over the window's capacity. Clamped
  // only because concurrent Charges may overlap one another.
  double UtilizationBetween(Nanos start, Nanos end) const {
    RequireHistory();
    if (end <= start) return 0.0;
    double busy = charge_series_.ProratedSumBetween(start, end);
    for (const auto& core : core_busy_) {
      busy += OverlapSum(core, static_cast<double>(start),
                         static_cast<double>(end));
    }
    double capacity =
        static_cast<double>(end - start) * static_cast<double>(cores());
    return std::min(1.0, busy / capacity);
  }

  // Mean per-core backlog at instant `now`: booked-but-unfinished work, in
  // nanoseconds. >0 means new work queues before it runs — the saturation
  // signal the offload planner reads alongside trailing utilisation.
  double BacklogNanos(Nanos now) const {
    double backlog = 0;
    for (double free_at : core_free_ns_) {
      backlog += std::max(0.0, free_at - static_cast<double>(now));
    }
    return backlog / static_cast<double>(cores());
  }

 private:
  struct Interval {
    double start;
    double end;
  };

  // Intervals are appended in non-decreasing start order per list; a new
  // interval starting at (or before) the previous end extends it, so a
  // saturated core stays O(1) intervals per busy run.
  static void AppendInterval(std::vector<Interval>* list, double start,
                             double end) {
    if (!list->empty() && start <= list->back().end) {
      list->back().end = std::max(list->back().end, end);
      return;
    }
    list->push_back({start, end});
  }

  static double OverlapSum(const std::vector<Interval>& list, double start,
                           double end) {
    // Intervals are start-sorted: binary-search the first that can overlap.
    auto it = std::lower_bound(
        list.begin(), list.end(), start,
        [](const Interval& iv, double t) { return iv.end <= t; });
    double sum = 0;
    for (; it != list.end() && it->start < end; ++it) {
      sum += std::min(end, it->end) - std::max(start, it->start);
    }
    return sum;
  }

  // A pool without history would answer every window with 0; stop instead,
  // in every build.
  void RequireHistory() const {
    if (keep_history_) return;
    fprintf(stderr, "CpuPool %s: window query on a pool built without "
                    "interval history\n", name_.c_str());
    std::abort();
  }

  size_t PickCore() {
    size_t best = 0;
    for (size_t i = 1; i < core_free_ns_.size(); i++) {
      if (core_free_ns_[i] < core_free_ns_[best]) best = i;
    }
    return best;
  }

  SimEnv* env_;
  std::string name_;
  double speed_factor_;
  bool keep_history_;
  std::vector<double> core_free_ns_;
  double busy_ns_ = 0;
  // Charge() costs at 10 ms resolution; read back prorated so short planner
  // windows see the right fraction of a boundary bucket.
  TimeSeries charge_series_{FromMillis(10)};
  std::vector<std::vector<Interval>> core_busy_;
};

}  // namespace kvaccel::sim
