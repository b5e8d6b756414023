// Write Stall Detector (paper §V-C): a thread detached from the DB that
// every 0.1 s polls the three Main-LSM components associated with a write
// stall — L0 SST count, memtable size, pending compaction bytes — and
// publishes (a) whether the Controller should redirect writes and (b)
// whether the Rollback Manager may run. Each check costs 1.37 µs (Table VI).
#pragma once

#include <cstdint>

#include "core/config.h"
#include "lsm/db.h"
#include "obs/trace.h"
#include "sim/cpu_pool.h"
#include "sim/periodic.h"
#include "sim/sim_env.h"

namespace kvaccel::core {

class Detector {
 public:
  Detector(lsm::DB* main_db, sim::SimEnv* env, sim::CpuPool* host_cpu,
           const KvaccelOptions& options, KvaccelStats* stats)
      : db_(main_db), env_(env), cpu_(host_cpu), options_(options),
        stats_(stats) {}

  void Start() {
    tracer_ = env_->tracer();
    if (tracer_ != nullptr) tr_kvaccel_ = tracer_->RegisterTrack("kvaccel");
    actor_.Start(env_, "kvaccel-detector", options_.detector_period,
                 [this] { CheckOnce(); });
  }

  void Stop() {
    if (!actor_.running()) return;
    actor_.Stop();
    // Close an open redirect window so the trace has no dangling 'B'.
    if (tracer_ != nullptr && stall_detected_) {
      tracer_->End(tr_kvaccel_, "stall.redirect");
    }
  }

  // Latest published state (read by the Controller on every operation —
  // a flag read, not a fresh poll).
  bool stall_detected() const { return stall_detected_; }
  int calm_streak() const { return calm_streak_; }
  lsm::StallSignals last_signals() const { return last_signals_; }

  // Force an immediate poll (used by tests and by rollback bootstrap).
  void PollNow() { CheckOnce(); }

  // ---- Device-health circuit breaker (fault-injection PR) ----
  // The Controller reports the outcome of Dev-LSM commands here. After the
  // retry budget is exhausted the device is latched unhealthy and the
  // Controller stops redirecting; after `device_unhealthy_cooldown` a single
  // write is allowed through as a half-open probe, and its success closes
  // the circuit again.
  bool device_healthy(Nanos now) const {
    return device_healthy_ || now >= device_retry_at_;
  }
  void ReportDeviceFailure(Nanos now) {
    if (device_healthy_) {
      device_healthy_ = false;
      stats_->device_unhealthy_events++;
    }
    device_retry_at_ = now + options_.device_unhealthy_cooldown;
  }
  void ReportDeviceSuccess() { device_healthy_ = true; }

 private:
  void CheckOnce() {
    cpu_->Charge(kDetectorCpuNs);
    env_->SleepFor(static_cast<Nanos>(kDetectorCpuNs + 0.5));
    stats_->detector_checks++;
    lsm::StallSignals sig = db_->GetStallSignals();
    last_signals_ = sig;
    // Redirect when a *stall* is active or about to hit: the Main-LSM (run
    // without slowdown under KVACCEL) serves writes at full speed right up
    // to its stop triggers, so the switch point is the edge of the stop
    // conditions, not the earlier slowdown thresholds.
    bool l0_at_edge = sig.l0_stop_trigger > 0 &&
                      sig.l0_files >= sig.l0_stop_trigger - 1;
    bool flush_backlogged =
        sig.max_write_buffer_number > 1 &&
        sig.immutable_memtables >= sig.max_write_buffer_number - 1;
    bool pending_at_edge =
        sig.hard_pending_limit > 0 &&
        sig.pending_compaction_bytes >=
            sig.hard_pending_limit - sig.hard_pending_limit / 10;
    bool was_stalled = stall_detected_;
    stall_detected_ =
        sig.stalled || l0_at_edge || flush_backlogged || pending_at_edge;
    if (tracer_ != nullptr && stall_detected_ != was_stalled) {
      if (stall_detected_) {
        tracer_->Begin(tr_kvaccel_, "stall.redirect");
      } else {
        tracer_->End(tr_kvaccel_, "stall.redirect");
      }
    }
    if (stall_detected_) {
      calm_streak_ = 0;
    } else {
      calm_streak_++;
    }
  }

  lsm::DB* db_;
  sim::SimEnv* env_;
  sim::CpuPool* cpu_;
  const KvaccelOptions& options_;
  KvaccelStats* stats_;

  sim::PeriodicActor actor_;

  bool stall_detected_ = false;
  int calm_streak_ = 0;
  lsm::StallSignals last_signals_;

  obs::Tracer* tracer_ = nullptr;  // redirect-window track (DESIGN.md §8)
  uint32_t tr_kvaccel_ = 0;

  bool device_healthy_ = true;
  Nanos device_retry_at_ = 0;  // half-open probe time while unhealthy
};

}  // namespace kvaccel::core
