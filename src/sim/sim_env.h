// Deterministic cooperative discrete-event executor.
//
// Every actor in the reproduction — db_bench client threads, the LSM flush
// and compaction workers, the KVACCEL detector/rollback threads, the SSD
// firmware — is a *simulated thread*: a user-space fiber with its own stack,
// all of them multiplexed on the OS thread that calls Run(). Exactly one
// runs at any instant, ordered by virtual wake-up time (ties broken by spawn
// order). Virtual time is a uint64 nanosecond clock that only the scheduler
// advances. A thread that parks hands the CPU straight to its successor —
// the minimum (time, spawn seq) candidate — without a scheduler hop.
//
// This gives three properties the evaluation needs:
//  1. Determinism — identical runs produce bit-identical time series.
//  2. Speed — 600 virtual seconds of a 150 Kops/s workload executes in
//     seconds of wall-clock, because "sleeping" is just a clock jump and a
//     switch between simulated threads is a swapcontext, not an OS thread
//     handoff.
//  3. Natural blocking code — LSM/SSD code is written with ordinary
//     mutex/condvar idioms (SimMutex/SimCondVar), not callbacks.
//
// Threads may interact only through the Sim* primitives; plain std::mutex
// inside simulated code would deadlock the cooperative schedule. A simulated
// thread must not block inside a catch handler: the C++ runtime keeps one
// caught-exception stack per OS thread, which all fibers share.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"

namespace kvaccel::obs {
class Tracer;
}  // namespace kvaccel::obs

namespace kvaccel::sim {

// Thrown out of blocked daemon threads when the environment shuts down; the
// thread wrapper catches it. Structured shutdown (explicit stop flags) is the
// primary mechanism — this is the backstop.
struct ShutdownSignal {};

class SimMutex;
class SimCondVar;
class FaultInjector;

class SimEnv {
 public:
  struct Thread;

  SimEnv();
  ~SimEnv();
  SimEnv(const SimEnv&) = delete;
  SimEnv& operator=(const SimEnv&) = delete;

  // Current virtual time in nanoseconds.
  Nanos Now() const { return now_; }

  // Spawns a simulated thread, ready to run at the current virtual time.
  // Daemon threads do not keep Run() alive: once only daemons remain they
  // receive ShutdownSignal at their next blocking call.
  Thread* Spawn(std::string name, std::function<void()> fn,
                bool daemon = false);

  // Scheduler loop; call from the owning (non-simulated) thread. Returns when
  // every non-daemon thread has finished. Throws std::runtime_error on
  // deadlock (no runnable thread, non-daemon threads still blocked).
  void Run();

  // ---- Callable only from within simulated threads ----
  void SleepFor(Nanos d);
  void SleepUntil(Nanos t);
  void Yield() { SleepFor(0); }
  // Blocks until `t` finishes.
  void Join(Thread* t);

  // Environment of the simulated thread currently executing (nullptr outside).
  static SimEnv* Current();

  bool shutting_down() const { return shutting_down_; }

  // Optional fault injector (see sim/fault.h). Not owned; null by default.
  // Components reach it through their SimEnv* so arming faults needs no
  // constructor plumbing.
  void set_fault_injector(FaultInjector* f) { fault_injector_ = f; }
  FaultInjector* fault_injector() const { return fault_injector_; }

  // Optional span tracer (see obs/trace.h). Not owned; null by default, in
  // which case instrumentation sites reduce to a pointer comparison.
  // Forward-declared so sim never links against obs.
  void set_tracer(obs::Tracer* t) { tracer_ = t; }
  obs::Tracer* tracer() const { return tracer_; }

 private:
  friend class SimMutex;
  friend class SimCondVar;
  struct Fiber;

  enum class State { kReady, kRunning, kBlocked, kDone };

  // First frame of every fiber: runs the current thread's body, retires it
  // and leaves for the scheduler loop for good.
  [[noreturn]] static void FiberMain() noexcept;
  // Parks the current thread as kBlocked; with `has_deadline` it becomes a
  // candidate at `deadline` and resumes with timed_out set if nothing woke it
  // first. Returns with the thread kRunning again.
  void BlockCurrent(Thread* self, bool has_deadline, Nanos deadline);
  // Moves a blocked thread to kReady at the current time.
  void Wake(Thread* t);
  // Hands the CPU from the parked `self` to the next candidate, or to the
  // scheduler loop when there is none; returns once `self` runs again.
  void Park(Thread* self);
  // Makes `next`, just taken from the candidate heap, the running thread and
  // switches to it from context `from`.
  void Resume(Fiber* from, Thread* next);
  // Saves the running context into `from` and continues `to`; returns when
  // something switches back. An exiting fiber passes `from_exits`.
  void Switch(Fiber* from, Fiber* to, bool from_exits = false);
  // Marks `t` done and wakes its joiners.
  void Retire(Thread* t);
  // Shutdown: resumes every unfinished thread in spawn order so it unwinds
  // via ShutdownSignal; a thread that never started is retired unrun.
  void Drain();
  // Unmaps the stack of the thread that just exited.
  void Reap();

  // Candidate heap: runnable threads keyed by wake time and timed waits by
  // deadline, min (key, spawn seq) first.
  static Nanos Key(const Thread* t);
  static bool Before(const Thread* a, const Thread* b);
  void Enqueue(Thread* t);  // insert, or move up after the key decreased
  Thread* PopMin();
  void CheckInSimThread() const;

  std::vector<std::unique_ptr<Thread>> threads_;  // spawn order
  std::vector<Thread*> ready_;
  std::unique_ptr<Fiber> sched_;  // the context that called Run()
  Fiber* switch_from_ = nullptr;  // AddressSanitizer builds only
  Thread* exited_ = nullptr;      // awaiting Reap()
  size_t live_ = 0;               // threads not yet done
  size_t live_daemons_ = 0;
  Nanos now_ = 0;
  bool shutting_down_ = false;
  uint64_t next_seq_ = 0;
  FaultInjector* fault_injector_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
};

struct SimEnv::Thread {
  ~Thread();
  std::string name;
  uint64_t seq = 0;
  bool daemon = false;
  std::function<void()> fn;
  State state = State::kReady;
  Nanos wake_time = 0;       // when kReady: earliest virtual run time
  bool has_deadline = false;  // when kBlocked: timed wait in progress
  Nanos deadline = 0;
  bool timed_out = false;     // set by scheduler when a timed wait expires
  std::deque<Thread*> joiners;
  std::unique_ptr<Fiber> fiber;  // from first dispatch until done
  size_t heap_pos = SIZE_MAX;    // index in ready_, SIZE_MAX when absent
};

// Cooperative mutex for simulated threads. FIFO handoff keeps scheduling
// deterministic.
class SimMutex {
 public:
  SimMutex() = default;
  SimMutex(const SimMutex&) = delete;
  SimMutex& operator=(const SimMutex&) = delete;

  void Lock();
  void Unlock();

 private:
  SimEnv::Thread* owner_ = nullptr;
  std::deque<SimEnv::Thread*> waiters_;
};

class SimLockGuard {
 public:
  explicit SimLockGuard(SimMutex& m) : m_(m) { m_.Lock(); }
  ~SimLockGuard() { m_.Unlock(); }
  SimLockGuard(const SimLockGuard&) = delete;
  SimLockGuard& operator=(const SimLockGuard&) = delete;

 private:
  SimMutex& m_;
};

// Condition variable for simulated threads. Wakeups are FIFO.
class SimCondVar {
 public:
  SimCondVar() = default;
  SimCondVar(const SimCondVar&) = delete;
  SimCondVar& operator=(const SimCondVar&) = delete;

  void Wait(SimMutex& m);
  // Returns false if the timeout elapsed before a notification.
  bool WaitFor(SimMutex& m, Nanos timeout);
  void NotifyOne();
  void NotifyAll();

 private:
  std::deque<SimEnv::Thread*> waiters_;
};

}  // namespace kvaccel::sim
