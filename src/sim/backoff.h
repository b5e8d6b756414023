// Decorrelated-jitter retry backoff (virtual time), and the one retry loop
// every transient-error site calls.
//
// Exponential backoff without jitter makes N shards/nodes that hit the same
// transient fault retry in lockstep: every retry wave lands on the device at
// the same virtual instant and collides again. NextDecorrelatedDelay spreads
// the waves with the "decorrelated jitter" recurrence
//
//   delay_0 = base
//   delay_n = min(cap, uniform(base, prev * 3))
//
// which keeps the expected delay growing roughly exponentially while
// decorrelating concurrent retriers, and bounds every delay by `cap` so a
// long fault can't push a single sleep into the minutes. Deterministic: the
// spread is a pure function of the caller's Random64 stream, so a pinned
// seed reproduces the exact schedule.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/random.h"
#include "common/status.h"
#include "common/units.h"
#include "sim/sim_env.h"

namespace kvaccel::sim {

// Returns the next retry delay. `prev` is the delay used for the previous
// attempt (0 for the first retry, which always gets `base`). `rng` must be
// owned by the caller; each retrier keeps its own stream so concurrent
// backoffs decorrelate.
inline Nanos NextDecorrelatedDelay(Random64* rng, Nanos base, Nanos cap,
                                   Nanos prev) {
  if (base == 0) base = 1;
  if (cap < base) cap = base;
  if (prev == 0) return base;
  if (prev > cap) prev = cap;
  // uniform over [base, prev * 3]; prev >= base so the span is well-formed.
  Nanos span = prev * 3 - base + 1;
  Nanos next = base + rng->Uniform(span);
  return std::min(next, cap);
}

// How a transient failure is retried: at most `limit` retries after the
// first call, the delays drawn by NextDecorrelatedDelay from `base` up to
// `cap`.
struct RetryPolicy {
  int limit;
  Nanos base;
  Nanos cap;
};

// A limit that only the caller's stop rule ends.
constexpr int kRetryUnbounded = std::numeric_limits<int>::max();

// Runs `call` and retries it while it returns a transient status
// (IOError/Busy/TryAgain) and fewer than `policy.limit` retries have run.
// Before each retry it asks `stop()`, and a true answer ends the loop; then
// it bumps `*retries` (unless null), draws the next delay from the caller's
// own `rng` and sleeps it in virtual time. Returns the last call's status.
template <typename Stop, typename Call>
Status RetryTransient(SimEnv* env, Random64* rng, const RetryPolicy& policy,
                      Stop&& stop, uint64_t* retries, Call&& call) {
  Status s = call();
  Nanos delay = 0;
  for (int retry = 0; s.IsTransient() && retry < policy.limit; retry++) {
    if (stop()) break;
    if (retries != nullptr) ++*retries;
    delay = NextDecorrelatedDelay(rng, policy.base, policy.cap, delay);
    env->SleepFor(delay);
    s = call();
  }
  return s;
}

}  // namespace kvaccel::sim
