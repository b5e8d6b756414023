#include "sim/sim_env.h"

#include <sys/mman.h>
#include <ucontext.h>

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <new>
#include <stdexcept>

#if defined(__SANITIZE_ADDRESS__)
#define KVX_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define KVX_ASAN_FIBERS 1
#endif
#endif
#ifdef KVX_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace kvaccel::sim {
namespace {

thread_local SimEnv* tls_env = nullptr;
thread_local SimEnv::Thread* tls_current = nullptr;

// Fiber stacks are reserved, not committed: only the pages a thread touches
// cost memory. A PROT_NONE guard page below each turns an overflow into a
// fault instead of silent corruption of a neighbour.
constexpr size_t kStackBytes = size_t{1} << 20;
constexpr size_t kGuardBytes = 4096;

}  // namespace

// A simulated thread's stack and, while it is switched out, its saved
// context. The scheduler's context has no stack here: it runs on the stack
// of the OS thread that called Run().
struct SimEnv::Fiber {
  Fiber() = default;
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber() {
    if (stack != nullptr) munmap(stack, kGuardBytes + kStackBytes);
  }

  // Maps a stack and sets the context up so that the first switch to this
  // fiber enters FiberMain.
  void Prepare() {
    void* m = mmap(nullptr, kGuardBytes + kStackBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
    if (m == MAP_FAILED) throw std::bad_alloc();
    stack = static_cast<char*>(m);
    if (mprotect(stack, kGuardBytes, PROT_NONE) != 0) throw std::bad_alloc();
    bottom = stack + kGuardBytes;
    size = kStackBytes;
    getcontext(&uc);
    uc.uc_stack.ss_sp = stack + kGuardBytes;
    uc.uc_stack.ss_size = kStackBytes;
    uc.uc_link = nullptr;
    makecontext(&uc, &FiberMain, 0);
  }

  char* stack = nullptr;  // mapping base: guard page, then the stack proper
  ucontext_t uc{};
  // AddressSanitizer's view of this context (see Switch).
  void* fake_stack = nullptr;
  const void* bottom = nullptr;
  size_t size = 0;
};

SimEnv::Thread::~Thread() = default;

SimEnv::SimEnv() : sched_(std::make_unique<Fiber>()) {}

SimEnv::~SimEnv() {
  // Normal lifecycle: Run() already drove every thread to kDone. If Run()
  // was never called (or threw), unwind the parked threads so the objects on
  // their stacks are destroyed; the unstarted ones never run their body.
  if (live_ > 0) {
    SimEnv* outer = tls_env;
    tls_env = this;
    Drain();
    tls_env = outer;
  }
}

SimEnv* SimEnv::Current() { return tls_env; }

void SimEnv::CheckInSimThread() const {
  assert(tls_env == this && tls_current != nullptr &&
         "Sim primitive called outside a simulated thread");
}

SimEnv::Thread* SimEnv::Spawn(std::string name, std::function<void()> fn,
                              bool daemon) {
  threads_.push_back(std::make_unique<Thread>());
  Thread* t = threads_.back().get();
  t->name = std::move(name);
  t->seq = next_seq_++;
  t->daemon = daemon;
  t->fn = std::move(fn);
  t->wake_time = now_;
  live_++;
  if (daemon) live_daemons_++;
  Enqueue(t);
  return t;
}

// ---------------- candidate heap ----------------

Nanos SimEnv::Key(const Thread* t) {
  return t->state == State::kReady ? t->wake_time : t->deadline;
}

bool SimEnv::Before(const Thread* a, const Thread* b) {
  Nanos ka = Key(a), kb = Key(b);
  return ka < kb || (ka == kb && a->seq < b->seq);
}

void SimEnv::Enqueue(Thread* t) {
  size_t i = t->heap_pos;
  if (i == SIZE_MAX) {
    i = ready_.size();
    ready_.push_back(t);
  }
  while (i > 0 && Before(t, ready_[(i - 1) / 2])) {
    ready_[i] = ready_[(i - 1) / 2];
    ready_[i]->heap_pos = i;
    i = (i - 1) / 2;
  }
  ready_[i] = t;
  t->heap_pos = i;
}

SimEnv::Thread* SimEnv::PopMin() {
  Thread* top = ready_.front();
  top->heap_pos = SIZE_MAX;
  Thread* last = ready_.back();
  ready_.pop_back();
  if (last == top) return top;
  size_t i = 0;
  for (;;) {
    size_t c = 2 * i + 1;
    if (c >= ready_.size()) break;
    if (c + 1 < ready_.size() && Before(ready_[c + 1], ready_[c])) c++;
    if (!Before(ready_[c], last)) break;
    ready_[i] = ready_[c];
    ready_[i]->heap_pos = i;
    i = c;
  }
  ready_[i] = last;
  last->heap_pos = i;
  return top;
}

// ---------------- context switching ----------------

void SimEnv::Switch(Fiber* from, Fiber* to, [[maybe_unused]] bool from_exits) {
#ifdef KVX_ASAN_FIBERS
  // Tell ASan which stack runs next; an exiting fiber releases its fake
  // stack. The resumed side records the bounds of the stack it came from,
  // which is how the scheduler's own stack becomes known.
  switch_from_ = from;
  __sanitizer_start_switch_fiber(from_exits ? nullptr : &from->fake_stack,
                                 to->bottom, to->size);
#endif
  swapcontext(&from->uc, &to->uc);
#ifdef KVX_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(from->fake_stack, &switch_from_->bottom,
                                  &switch_from_->size);
#endif
}

void SimEnv::FiberMain() noexcept {
  SimEnv* env = tls_env;
  Thread* t = tls_current;
#ifdef KVX_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(nullptr, &env->switch_from_->bottom,
                                  &env->switch_from_->size);
#endif
  try {
    t->fn();
  } catch (const ShutdownSignal&) {
    // Cooperative teardown of a daemon/abandoned thread.
  }
  env->Retire(t);
  // The scheduler loop reclaims this stack once it is off it.
  env->exited_ = t;
  tls_current = nullptr;
  env->Switch(t->fiber.get(), env->sched_.get(), /*from_exits=*/true);
  std::abort();  // an exited fiber is never resumed
}

void SimEnv::Resume(Fiber* from, Thread* next) {
  now_ = std::max(now_, Key(next));
  if (next->state == State::kBlocked) {
    // Only timed waits are blocked candidates: this one expired.
    next->timed_out = true;
    next->has_deadline = false;
  }
  next->state = State::kRunning;
  // A timed wait that nothing else preceded resumes in place.
  if (next->fiber.get() == from) return;
  if (next->fiber == nullptr) {
    next->fiber = std::make_unique<Fiber>();
    next->fiber->Prepare();
  }
  tls_current = next;
  Switch(from, next->fiber.get());
}

void SimEnv::Park(Thread* self) {
  if (ready_.empty()) {
    // Nothing else can run: the scheduler loop decides between shutdown and
    // deadlock.
    tls_current = nullptr;
    Switch(self->fiber.get(), sched_.get());
  } else {
    Resume(self->fiber.get(), PopMin());
  }
}

void SimEnv::Reap() {
  if (exited_ == nullptr) return;
#ifdef KVX_ASAN_FIBERS
  // The next stack may be mapped at this address: clear the poisoning the
  // exited thread's frames left in ASan's shadow memory.
  __asan_unpoison_memory_region(exited_->fiber->bottom, exited_->fiber->size);
#endif
  exited_->fiber.reset();
  exited_ = nullptr;
}

void SimEnv::Retire(Thread* t) {
  t->state = State::kDone;
  live_--;
  if (t->daemon) live_daemons_--;
  for (Thread* j : t->joiners) Wake(j);
  t->joiners.clear();
}

// ---------------- scheduling ----------------

void SimEnv::SleepUntil(Nanos t) {
  CheckInSimThread();
  if (shutting_down_) throw ShutdownSignal{};
  Thread* self = tls_current;
  self->wake_time = std::max(t, now_);
  self->state = State::kReady;
  if (ready_.empty() || Before(self, ready_.front())) {
    // Fast path: no other runnable thread would execute before `self`, so
    // advancing the clock in place is equivalent to a full reschedule.
    self->state = State::kRunning;
    now_ = self->wake_time;
    return;
  }
  Enqueue(self);
  Park(self);
  if (shutting_down_) throw ShutdownSignal{};
}

void SimEnv::SleepFor(Nanos d) { SleepUntil(Now() + d); }

void SimEnv::BlockCurrent(Thread* self, bool has_deadline, Nanos deadline) {
  if (shutting_down_) throw ShutdownSignal{};
  self->state = State::kBlocked;
  self->has_deadline = has_deadline;
  self->deadline = deadline;
  self->timed_out = false;
  if (has_deadline) Enqueue(self);
  Park(self);
  if (shutting_down_) throw ShutdownSignal{};
}

void SimEnv::Wake(Thread* t) {
  if (t->state != State::kBlocked) return;
  t->state = State::kReady;
  t->wake_time = now_;
  t->has_deadline = false;
  Enqueue(t);
}

void SimEnv::Join(Thread* t) {
  CheckInSimThread();
  if (t->state == State::kDone) return;
  t->joiners.push_back(tls_current);
  BlockCurrent(tls_current, false, 0);
}

void SimEnv::Run() {
  SimEnv* outer = tls_env;
  tls_env = this;
  while (live_ > 0) {
    if (shutting_down_ || live_ == live_daemons_) {
      Drain();
      break;
    }
    if (ready_.empty()) {
      std::string who;
      for (const auto& t : threads_) {
        if (t->state != State::kDone) {
          if (!who.empty()) who += ", ";
          who += t->name;
        }
      }
      tls_env = outer;
      throw std::runtime_error("SimEnv deadlock: blocked threads [" + who +
                               "] with no runnable candidate");
    }
    // Threads hand the CPU to each other directly; control comes back here
    // only when one exits or none is runnable.
    Resume(sched_.get(), PopMin());
    Reap();
  }
  tls_env = outer;
}

void SimEnv::Drain() {
  shutting_down_ = true;
  // Index loop: a thread unwinding here may still spawn (and the newcomer is
  // retired unrun in its turn).
  for (size_t i = 0; i < threads_.size(); i++) {
    Thread* t = threads_[i].get();
    if (t->state == State::kDone) continue;
    if (t->fiber == nullptr) {
      Retire(t);
      continue;
    }
    t->state = State::kRunning;
    tls_current = t;
    Switch(sched_.get(), t->fiber.get());
    Reap();
  }
  ready_.clear();
}

// ---------------- SimMutex ----------------

void SimMutex::Lock() {
  SimEnv* env = SimEnv::Current();
  assert(env != nullptr);
  SimEnv::Thread* self = tls_current;
  if (env->shutting_down()) {
    // Teardown: ownership discipline no longer matters; let unwinding guards
    // pair up without blocking on threads that will never run again.
    owner_ = self;
    return;
  }
  assert(owner_ != self && "recursive SimMutex lock");
  if (owner_ == nullptr) {
    owner_ = self;
    return;
  }
  waiters_.push_back(self);
  env->BlockCurrent(self, false, 0);
  assert(owner_ == self);
}

void SimMutex::Unlock() {
  SimEnv* env = SimEnv::Current();
  assert(env != nullptr);
  if (owner_ != tls_current && env->shutting_down()) {
    // A guard unwinding through ShutdownSignal may not actually hold the
    // mutex (e.g. interrupted inside SimCondVar::Wait before re-acquiring).
    return;
  }
  assert(owner_ == tls_current && "unlocking a SimMutex not held");
  // FIFO handoff; skip any waiter flushed by shutdown.
  while (!waiters_.empty()) {
    SimEnv::Thread* next = waiters_.front();
    waiters_.pop_front();
    if (next->state == SimEnv::State::kBlocked) {
      owner_ = next;
      env->Wake(next);
      return;
    }
  }
  owner_ = nullptr;
}

// ---------------- SimCondVar ----------------

void SimCondVar::Wait(SimMutex& m) {
  SimEnv* env = SimEnv::Current();
  assert(env != nullptr);
  SimEnv::Thread* self = tls_current;
  waiters_.push_back(self);
  m.Unlock();
  env->BlockCurrent(self, false, 0);
  m.Lock();
}

bool SimCondVar::WaitFor(SimMutex& m, Nanos timeout) {
  SimEnv* env = SimEnv::Current();
  assert(env != nullptr);
  SimEnv::Thread* self = tls_current;
  waiters_.push_back(self);
  m.Unlock();
  env->BlockCurrent(self, true, env->Now() + timeout);
  if (self->timed_out) {
    auto it = std::find(waiters_.begin(), waiters_.end(), self);
    if (it != waiters_.end()) waiters_.erase(it);
  }
  m.Lock();
  return !self->timed_out;
}

void SimCondVar::NotifyOne() {
  SimEnv* env = SimEnv::Current();
  assert(env != nullptr);
  while (!waiters_.empty()) {
    SimEnv::Thread* t = waiters_.front();
    waiters_.pop_front();
    if (t->state == SimEnv::State::kBlocked) {
      env->Wake(t);
      return;
    }
  }
}

void SimCondVar::NotifyAll() {
  SimEnv* env = SimEnv::Current();
  assert(env != nullptr);
  while (!waiters_.empty()) {
    SimEnv::Thread* t = waiters_.front();
    waiters_.pop_front();
    if (t->state == SimEnv::State::kBlocked) env->Wake(t);
  }
}

}  // namespace kvaccel::sim
