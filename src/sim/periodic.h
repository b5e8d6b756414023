// A periodic background actor (virtual time): one simulated thread that runs
// a tick every `period` until Stop(). The Detector, the Rollback Manager, the
// scrubber, the ADOC tuner and the HA heartbeat are each one of these.
#pragma once

#include <functional>
#include <string>
#include <utility>

#include "common/units.h"
#include "sim/sim_env.h"

namespace kvaccel::sim {

class PeriodicActor {
 public:
  PeriodicActor() = default;
  // The thread holds `this`.
  PeriodicActor(const PeriodicActor&) = delete;
  PeriodicActor& operator=(const PeriodicActor&) = delete;

  // Spawns the thread. The first tick runs one period after Start, each
  // later one a period after the previous tick returned.
  void Start(SimEnv* env, std::string name, Nanos period,
             std::function<void()> tick) {
    env_ = env;
    period_ = period;
    tick_ = std::move(tick);
    stop_ = false;
    thread_ = env->Spawn(std::move(name), [this] { Loop(); });
  }

  // Wakes the thread at once, lets a tick in progress finish and joins it;
  // no further tick runs. A no-op before Start and after an earlier Stop.
  void Stop() {
    if (thread_ == nullptr) return;
    {
      SimLockGuard l(mu_);
      stop_ = true;
      cv_.NotifyAll();
    }
    env_->Join(thread_);
    thread_ = nullptr;
  }

  // Between Start and Stop.
  bool running() const { return thread_ != nullptr; }

 private:
  void Loop() {
    SimLockGuard l(mu_);
    while (!stop_) {
      if (cv_.WaitFor(mu_, period_)) continue;  // woken by Stop
      // A tick may sleep or block; run it unlocked so Stop never queues
      // behind it.
      mu_.Unlock();
      tick_();
      mu_.Lock();
    }
  }

  SimEnv* env_ = nullptr;
  Nanos period_ = 0;
  std::function<void()> tick_;
  SimMutex mu_;
  SimCondVar cv_;
  bool stop_ = false;
  SimEnv::Thread* thread_ = nullptr;
};

}  // namespace kvaccel::sim
