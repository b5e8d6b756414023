#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "sim/backoff.h"
#include "sim/cpu_pool.h"
#include "sim/fault.h"
#include "sim/periodic.h"
#include "sim/resource.h"
#include "sim/sim_env.h"
#include "sim/timeseries.h"

namespace kvaccel::sim {
namespace {

TEST(SimEnvTest, ClockAdvancesOnSleep) {
  SimEnv env;
  Nanos observed = 0;
  env.Spawn("t", [&] {
    env.SleepFor(FromMicros(10));
    observed = env.Now();
  });
  env.Run();
  EXPECT_EQ(observed, FromMicros(10));
}

TEST(SimEnvTest, ThreadsInterleaveByTime) {
  SimEnv env;
  std::vector<std::string> order;
  env.Spawn("a", [&] {
    env.SleepFor(100);
    order.push_back("a@100");
    env.SleepFor(200);  // wakes at 300
    order.push_back("a@300");
  });
  env.Spawn("b", [&] {
    env.SleepFor(200);
    order.push_back("b@200");
    env.SleepFor(200);  // wakes at 400
    order.push_back("b@400");
  });
  env.Run();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], "a@100");
  EXPECT_EQ(order[1], "b@200");
  EXPECT_EQ(order[2], "a@300");
  EXPECT_EQ(order[3], "b@400");
}

TEST(SimEnvTest, TiesBrokenBySpawnOrder) {
  SimEnv env;
  std::vector<int> order;
  env.Spawn("first", [&] {
    env.SleepFor(100);
    order.push_back(1);
  });
  env.Spawn("second", [&] {
    env.SleepFor(100);
    order.push_back(2);
  });
  env.Run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(SimEnvTest, SpawnFromWithinSimThread) {
  SimEnv env;
  bool child_ran = false;
  env.Spawn("parent", [&] {
    env.SleepFor(50);
    SimEnv::Thread* child = env.Spawn("child", [&] {
      env.SleepFor(10);
      child_ran = true;
    });
    env.Join(child);
    EXPECT_TRUE(child_ran);
    EXPECT_EQ(env.Now(), 60u);
  });
  env.Run();
  EXPECT_TRUE(child_ran);
}

TEST(SimEnvTest, JoinFinishedThreadReturnsImmediately) {
  SimEnv env;
  env.Spawn("parent", [&] {
    SimEnv::Thread* child = env.Spawn("child", [] {});
    env.SleepFor(1000);  // child certainly done
    env.Join(child);
    EXPECT_EQ(env.Now(), 1000u);
  });
  env.Run();
}

TEST(SimEnvTest, MutexProvidesExclusion) {
  SimEnv env;
  SimMutex mu;
  int counter = 0;
  int max_in_section = 0;
  int in_section = 0;
  for (int i = 0; i < 4; i++) {
    env.Spawn("w" + std::to_string(i), [&] {
      for (int j = 0; j < 10; j++) {
        SimLockGuard g(mu);
        in_section++;
        max_in_section = std::max(max_in_section, in_section);
        env.SleepFor(7);  // hold across a yield
        counter++;
        in_section--;
      }
    });
  }
  env.Run();
  EXPECT_EQ(counter, 40);
  EXPECT_EQ(max_in_section, 1);
}

TEST(SimEnvTest, CondVarNotifyOne) {
  SimEnv env;
  SimMutex mu;
  SimCondVar cv;
  bool ready = false;
  int woken = 0;
  env.Spawn("waiter", [&] {
    SimLockGuard g(mu);
    while (!ready) cv.Wait(mu);
    woken++;
  });
  env.Spawn("signaler", [&] {
    env.SleepFor(500);
    SimLockGuard g(mu);
    ready = true;
    cv.NotifyOne();
  });
  env.Run();
  EXPECT_EQ(woken, 1);
}

TEST(SimEnvTest, CondVarWaitForTimesOut) {
  SimEnv env;
  SimMutex mu;
  SimCondVar cv;
  bool notified = true;
  Nanos end = 0;
  env.Spawn("waiter", [&] {
    SimLockGuard g(mu);
    notified = cv.WaitFor(mu, FromMicros(100));
    end = env.Now();
  });
  env.Run();
  EXPECT_FALSE(notified);
  EXPECT_EQ(end, FromMicros(100));
}

TEST(SimEnvTest, CondVarWaitForNotifiedEarly) {
  SimEnv env;
  SimMutex mu;
  SimCondVar cv;
  bool notified = false;
  Nanos end = 0;
  env.Spawn("waiter", [&] {
    SimLockGuard g(mu);
    notified = cv.WaitFor(mu, FromMicros(1000));
    end = env.Now();
  });
  env.Spawn("signaler", [&] {
    env.SleepFor(FromMicros(10));
    SimLockGuard g(mu);
    cv.NotifyOne();
  });
  env.Run();
  EXPECT_TRUE(notified);
  EXPECT_EQ(end, FromMicros(10));
}

TEST(SimEnvTest, NotifyAllWakesEveryWaiter) {
  SimEnv env;
  SimMutex mu;
  SimCondVar cv;
  bool go = false;
  int woken = 0;
  for (int i = 0; i < 5; i++) {
    env.Spawn("w" + std::to_string(i), [&] {
      SimLockGuard g(mu);
      while (!go) cv.Wait(mu);
      woken++;
    });
  }
  env.Spawn("signaler", [&] {
    env.SleepFor(100);
    SimLockGuard g(mu);
    go = true;
    cv.NotifyAll();
  });
  env.Run();
  EXPECT_EQ(woken, 5);
}

TEST(SimEnvTest, DaemonDoesNotBlockShutdown) {
  SimEnv env;
  int ticks = 0;
  env.Spawn(
      "daemon",
      [&] {
        for (;;) {
          env.SleepFor(FromMicros(100));
          ticks++;
        }
      },
      /*daemon=*/true);
  env.Spawn("main", [&] { env.SleepFor(FromMicros(1000)); });
  env.Run();  // must return despite the infinite daemon
  EXPECT_GE(ticks, 9);
}

TEST(SimEnvTest, DeadlockDetected) {
  SimEnv env;
  SimMutex mu;
  SimCondVar cv;
  env.Spawn("stuck", [&] {
    SimLockGuard g(mu);
    cv.Wait(mu);  // nobody will ever notify
  });
  EXPECT_THROW(env.Run(), std::runtime_error);
}

TEST(SimEnvTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    SimEnv env;
    std::vector<Nanos> log;
    SimMutex mu;
    for (int i = 0; i < 3; i++) {
      env.Spawn("t" + std::to_string(i), [&, i] {
        for (int j = 0; j < 5; j++) {
          SimLockGuard g(mu);
          env.SleepFor(static_cast<Nanos>(10 + i * 3));
          log.push_back(env.Now());
        }
      });
    }
    env.Run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

// Pins the dispatch order itself. Six seeded workers mix sleeps, yields,
// mutex handoffs, timed condvar waits, notifies, spawns and joins next to a
// daemon; every step folds (virtual time, event) into a digest. The constant
// was recorded with the kernel that ran one OS thread per simulated thread,
// so it holds the (time, spawn seq) order fixed across kernel rewrites.
TEST(SimEnvTest, DispatchOrderMatchesPinnedDigest) {
  SimEnv env;
  SimMutex mu;
  SimCondVar cv;
  uint64_t digest = 14695981039346656037ull;  // FNV-1a
  auto note = [&](uint64_t event) {
    for (uint64_t v : {env.Now(), event}) {
      for (int b = 0; b < 8; b++) {
        digest = (digest ^ ((v >> (8 * b)) & 0xff)) * 1099511628211ull;
      }
    }
  };
  env.Spawn(
      "ticker",
      [&] {
        for (;;) {
          env.SleepFor(37);
          note(1);
        }
      },
      /*daemon=*/true);
  for (uint64_t w = 0; w < 6; w++) {
    env.Spawn("w" + std::to_string(w), [&, w] {
      Random64 rng(w + 1);
      for (uint64_t step = 0; step < 300; step++) {
        uint64_t event = (w + 1) * 10000 + step * 8;
        switch (rng.Uniform(7)) {
          case 0:
            env.SleepFor(rng.Uniform(40));
            break;
          case 1:
            env.Yield();
            break;
          case 2: {
            SimLockGuard g(mu);
            env.SleepFor(rng.Uniform(5));
            break;
          }
          case 3: {
            SimLockGuard g(mu);
            event += cv.WaitFor(mu, rng.Uniform(60)) ? 1 : 2;
            break;
          }
          case 4: {
            SimLockGuard g(mu);
            cv.NotifyOne();
            break;
          }
          case 5: {
            SimLockGuard g(mu);
            cv.NotifyAll();
            break;
          }
          default: {
            Nanos nap = rng.Uniform(30);
            SimEnv::Thread* child = env.Spawn("child", [&, nap, event] {
              env.SleepFor(nap);
              note(event + 3);
            });
            if (rng.OneIn(2)) env.Join(child);
          }
        }
        note(event);
      }
    });
  }
  env.Run();
  EXPECT_EQ(digest, 6470606010411827322ull);
}

TEST(SimEnvTest, ThreadsShareTheRunCallersOsThread) {
  SimEnv env;
  std::set<std::thread::id> ids;
  for (int i = 0; i < 3; i++) {
    env.Spawn("t" + std::to_string(i), [&] {
      ids.insert(std::this_thread::get_id());
      env.SleepFor(5);
      ids.insert(std::this_thread::get_id());
    });
  }
  env.Run();
  EXPECT_EQ(ids, std::set<std::thread::id>{std::this_thread::get_id()});
}

// Destructor that records its owner's id, to observe stack unwinding.
struct UnwindNote {
  std::vector<int>* log;
  int id;
  ~UnwindNote() { log->push_back(id); }
};

TEST(SimEnvTest, ShutdownUnwindsDaemonsInSpawnOrder) {
  SimEnv env;
  SimMutex mu;
  SimCondVar cv;
  std::vector<int> unwound;
  env.Spawn(
      "sleeper",
      [&] {
        UnwindNote n{&unwound, 0};
        for (;;) env.SleepFor(100);
      },
      /*daemon=*/true);
  env.Spawn(
      "waiter",
      [&] {
        UnwindNote n{&unwound, 1};
        SimLockGuard g(mu);
        cv.Wait(mu);
      },
      /*daemon=*/true);
  env.Spawn(
      "timed-waiter",
      [&] {
        UnwindNote n{&unwound, 2};
        SimLockGuard g(mu);
        cv.WaitFor(mu, FromSecs(1));
      },
      /*daemon=*/true);
  env.Spawn("main", [&] { env.SleepFor(450); });
  env.Run();
  EXPECT_EQ(unwound, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(env.Now(), 450u);
}

TEST(SimEnvTest, DestroyAfterDeadlockUnwindsParkedThreads) {
  std::vector<int> unwound;
  bool late_ran = false;
  {
    SimMutex mu;  // outlives env, whose destructor unwinds "stuck"
    SimCondVar cv;
    SimEnv env;
    env.Spawn("stuck", [&] {
      UnwindNote n{&unwound, 7};
      SimLockGuard g(mu);
      cv.Wait(mu);
    });
    EXPECT_THROW(env.Run(), std::runtime_error);
    env.Spawn("late", [&] { late_ran = true; });
    EXPECT_TRUE(unwound.empty());
  }
  EXPECT_EQ(unwound, std::vector<int>{7});
  EXPECT_FALSE(late_ran);
}

// 4096 short-lived threads, at most 64 alive at once: each maps a stack when
// first dispatched and unmaps it when it exits.
TEST(SimEnvTest, WavesOfShortLivedThreads) {
  SimEnv env;
  int finished = 0;
  env.Spawn("parent", [&] {
    for (int wave = 0; wave < 64; wave++) {
      std::vector<SimEnv::Thread*> kids;
      for (int i = 0; i < 64; i++) {
        kids.push_back(env.Spawn("kid", [&, i] {
          env.SleepFor(static_cast<Nanos>(1 + i % 3));
          finished++;
        }));
      }
      for (SimEnv::Thread* k : kids) env.Join(k);
    }
  });
  env.Run();
  EXPECT_EQ(finished, 64 * 64);
  EXPECT_EQ(env.Now(), 64u * 3);
}

TEST(RateResourceTest, SerializesTransfers) {
  SimEnv env;
  RateResource link(&env, "link", MBps(100));  // 100 MB/s = 100 B/us
  Nanos t1 = 0, t2 = 0;
  env.Spawn("a", [&] { t1 = link.Transfer(100'000); });   // 1 ms
  env.Spawn("b", [&] { t2 = link.Transfer(100'000); });   // queued behind a
  env.Run();
  EXPECT_NEAR(static_cast<double>(t1), 1e6, 1e3);
  EXPECT_NEAR(static_cast<double>(t2), 2e6, 1e3);
  EXPECT_EQ(link.total_bytes(), 200'000u);
}

TEST(RateResourceTest, TrafficSeriesAccounting) {
  SimEnv env;
  RateResource link(&env, "link", MBps(1));  // 1 MB/s
  env.Spawn("a", [&] {
    link.Transfer(500'000);             // 0.0..0.5 s
    env.SleepUntil(FromSecs(2));
    link.Transfer(1'000'000);           // 2.0..3.0 s
  });
  env.Run();
  const TimeSeries& ts = link.traffic();
  EXPECT_NEAR(ts.Bucket(0), 500'000, 1000);  // second 0
  EXPECT_NEAR(ts.Bucket(1), 0, 1);           // second 1 idle
  EXPECT_NEAR(ts.Bucket(2), 1'000'000, 1000);
  EXPECT_NEAR(ts.total(), 1'500'000, 1);
}

TEST(CpuPoolTest, QueueingWhenAllCoresBusy) {
  SimEnv env;
  CpuPool cpu(&env, "host", 2);
  std::vector<Nanos> done(3);
  for (int i = 0; i < 3; i++) {
    env.Spawn("w" + std::to_string(i),
              [&, i] { cpu.Consume(1e6); done[i] = env.Now(); });
  }
  env.Run();
  // Two run immediately, the third queues behind the first finisher.
  EXPECT_NEAR(static_cast<double>(done[0]), 1e6, 10);
  EXPECT_NEAR(static_cast<double>(done[1]), 1e6, 10);
  EXPECT_NEAR(static_cast<double>(done[2]), 2e6, 10);
  EXPECT_NEAR(cpu.busy_seconds(), 3e-3, 1e-5);
}

TEST(CpuPoolTest, SpeedFactorScalesWork) {
  SimEnv env;
  CpuPool slow(&env, "arm", 1, 0.25);  // quarter-speed core
  Nanos done = 0;
  env.Spawn("w", [&] {
    slow.Consume(1e6);
    done = env.Now();
  });
  env.Run();
  EXPECT_NEAR(static_cast<double>(done), 4e6, 10);
}

TEST(CpuPoolTest, UtilizationBetween) {
  SimEnv env;
  CpuPool cpu(&env, "host", 4);
  env.Spawn("w", [&] {
    cpu.Consume(2e9);  // one core busy 2 s of the 4-core pool
  });
  env.Run();
  double util = cpu.UtilizationBetween(0, FromSecs(2));
  EXPECT_NEAR(util, 0.25, 0.01);
}

TEST(CpuPoolTest, OverlappingJobsAccountExactlyPerCore) {
  SimEnv env;
  CpuPool cpu(&env, "host", 2);
  // Three jobs whose busy intervals overlap and queue:
  //   A: core0 [0, 3s]
  //   B: core1 [1s, 2s]
  //   C: arrives at 1.5s, books the earlier-free core1 back-to-back [2s, 4s]
  env.Spawn("a", [&] { cpu.Consume(3e9); });
  env.Spawn("b", [&] {
    env.SleepFor(FromSecs(1));
    cpu.Consume(1e9);
  });
  env.Spawn("c", [&] {
    env.SleepFor(FromMillis(1500));
    cpu.Consume(2e9);
  });
  env.Run();
  // Per-core busy time is exact, not prorated: core0 3 s, core1 1 + 2 s.
  EXPECT_NEAR(cpu.CoreBusyBetween(0, 0, FromSecs(4)), 3e9, 10);
  EXPECT_NEAR(cpu.CoreBusyBetween(1, 0, FromSecs(4)), 3e9, 10);
  // Windows that slice through the overlap see exact fractions.
  EXPECT_NEAR(cpu.UtilizationBetween(0, FromSecs(4)), 0.75, 1e-9);
  EXPECT_NEAR(cpu.UtilizationBetween(0, FromSecs(2)), 0.75, 1e-9);
  EXPECT_NEAR(cpu.UtilizationBetween(FromMillis(2500), FromMillis(3500)),
              0.75, 1e-9);
  // Tail window: only C's back-to-back booking on core1 remains busy.
  EXPECT_NEAR(cpu.UtilizationBetween(FromSecs(3), FromSecs(4)), 0.5, 1e-9);
  EXPECT_NEAR(cpu.CoreUtilizationBetween(0, FromSecs(3), FromSecs(4)), 0.0,
              1e-9);
  EXPECT_NEAR(cpu.CoreUtilizationBetween(1, FromSecs(3), FromSecs(4)), 1.0,
              1e-9);
  EXPECT_NEAR(cpu.busy_seconds(), 6.0, 1e-6);
}

TEST(CpuPoolTest, ChargesOverlapWithoutCoalescing) {
  SimEnv env;
  CpuPool cpu(&env, "host", 2);
  // Two actors Charge at the same instant: both costs must be counted (a
  // naive interval model would coalesce the identical [t, t+d) spans).
  env.Spawn("a", [&] {
    env.SleepFor(FromSecs(1));
    cpu.Charge(0.5e9);
  });
  env.Spawn("b", [&] {
    env.SleepFor(FromSecs(1));
    cpu.Charge(0.5e9);
  });
  env.Run();
  // 1 core-second of charge inside [0, 2s] of a 2-core pool.
  EXPECT_NEAR(cpu.UtilizationBetween(0, FromSecs(2)), 0.25, 1e-3);
}

TEST(TimeSeriesTest, AddAndRange) {
  TimeSeries ts(kNanosPerSec);
  ts.Add(FromSecs(0.5), 10);
  ts.AddRange(FromSecs(1), FromSecs(3), 20);  // 10 per bucket
  EXPECT_DOUBLE_EQ(ts.Bucket(0), 10);
  EXPECT_NEAR(ts.Bucket(1), 10, 1e-6);
  EXPECT_NEAR(ts.Bucket(2), 10, 1e-6);
  EXPECT_DOUBLE_EQ(ts.total(), 30);
  EXPECT_NEAR(ts.SumBetween(FromSecs(1), FromSecs(3)), 20, 1e-6);
}

TEST(TimeSeriesTest, RangeWithinOneBucket) {
  TimeSeries ts(kNanosPerSec);
  ts.AddRange(100, 200, 5);
  EXPECT_DOUBLE_EQ(ts.Bucket(0), 5);
}

TEST(IntervalRecorderTest, RecordsStallRegions) {
  IntervalRecorder rec;
  rec.Begin(100);
  rec.Begin(150);  // merged into the open interval
  rec.End(200);
  rec.Begin(300);
  rec.End(450);
  EXPECT_EQ(rec.Count(), 2u);
  EXPECT_EQ(rec.TotalDuration(), 250u);
  EXPECT_TRUE(rec.Contains(120));
  EXPECT_FALSE(rec.Contains(250));
  EXPECT_TRUE(rec.Contains(449));
  EXPECT_FALSE(rec.Contains(450));
}

TEST(IntervalRecorderTest, CloseAtClosesOpenInterval) {
  IntervalRecorder rec;
  rec.Begin(10);
  EXPECT_TRUE(rec.open());
  EXPECT_TRUE(rec.Contains(50));
  rec.CloseAt(60);
  EXPECT_FALSE(rec.open());
  EXPECT_EQ(rec.TotalDuration(), 50u);
}

TEST(BackoffTest, FirstRetryIsBaseAndCapBoundsEveryDelay) {
  Random64 rng(1);
  const Nanos base = FromMicros(200);
  const Nanos cap = FromMillis(10);
  Nanos prev = 0;
  for (int i = 0; i < 64; i++) {
    Nanos d = NextDecorrelatedDelay(&rng, base, cap, prev);
    if (i == 0) {
      EXPECT_EQ(d, base);  // prev == 0 => exactly base
    }
    EXPECT_GE(d, base);
    EXPECT_LE(d, cap);  // bounded-cap: no delay ever exceeds the cap
    prev = d;
  }
  // A long-enough chain must have hit the cap clamp at least once.
  EXPECT_EQ(NextDecorrelatedDelay(&rng, cap, cap, cap), cap);
}

TEST(BackoffTest, SameSeedReproducesScheduleAndJitterSpreads) {
  const Nanos base = FromMicros(100);
  const Nanos cap = FromMillis(50);
  auto schedule = [&](uint64_t seed) {
    Random64 rng(seed);
    std::vector<Nanos> out;
    Nanos prev = 0;
    for (int i = 0; i < 16; i++) {
      prev = NextDecorrelatedDelay(&rng, base, cap, prev);
      out.push_back(prev);
    }
    return out;
  };
  // Seed-reproducible: the whole schedule is a pure function of the stream.
  EXPECT_EQ(schedule(0xBACC0FF), schedule(0xBACC0FF));
  // Decorrelated: two retriers with different seeds must not march in
  // lockstep (that lockstep is the failure mode jitter exists to break).
  std::vector<Nanos> a = schedule(1), b = schedule(2);
  int differing = 0;
  for (size_t i = 1; i < a.size(); i++) {
    if (a[i] != b[i]) differing++;
  }
  EXPECT_GE(differing, 8) << "jitter streams are correlated";
  // And a single stream actually spreads instead of fixing on one value.
  std::set<Nanos> distinct(a.begin(), a.end());
  EXPECT_GE(distinct.size(), 4u);
}

// ---- RetryTransient ----

const RetryPolicy kTestRetry{4, FromMicros(100), FromMillis(1)};

TEST(RetryTransientTest, RunsExactlyLimitRetriesThenStops) {
  SimEnv env;
  env.Spawn("t", [&] {
    Random64 rng(5);
    uint64_t retries = 0;
    int calls = 0;
    Status s = RetryTransient(
        &env, &rng, kTestRetry, [] { return false; }, &retries, [&] {
          calls++;
          return Status::IOError("down");
        });
    EXPECT_TRUE(s.IsIOError());
    EXPECT_EQ(calls, kTestRetry.limit + 1);
    EXPECT_EQ(retries, static_cast<uint64_t>(kTestRetry.limit));
  });
  env.Run();
}

TEST(RetryTransientTest, EachSleepFollowsTheCallersDecorrelatedStream) {
  SimEnv env;
  env.Spawn("t", [&] {
    Random64 rng(0xBACC0FF);
    std::vector<Nanos> call_times;
    Status s = RetryTransient(
        &env, &rng, kTestRetry, [] { return false; }, nullptr, [&] {
          call_times.push_back(env.Now());
          return Status::Busy("later");
        });
    EXPECT_TRUE(s.IsBusy());
    Random64 ref(0xBACC0FF);
    Nanos prev = 0;
    ASSERT_EQ(call_times.size(), static_cast<size_t>(kTestRetry.limit + 1));
    for (size_t i = 1; i < call_times.size(); i++) {
      prev = NextDecorrelatedDelay(&ref, kTestRetry.base, kTestRetry.cap,
                                   prev);
      EXPECT_EQ(call_times[i] - call_times[i - 1], prev) << "retry " << i;
    }
  });
  env.Run();
}

TEST(RetryTransientTest, NonTransientStatusOrStopRuleEndsWithoutSleeping) {
  SimEnv env;
  env.Spawn("t", [&] {
    Random64 rng(1);
    uint64_t retries = 0;
    int calls = 0;
    Status s = RetryTransient(
        &env, &rng, kTestRetry, [] { return false; }, &retries, [&] {
          calls++;
          return Status::Corruption("bad block");
        });
    EXPECT_TRUE(s.IsCorruption());
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(retries, 0u);
    EXPECT_EQ(env.Now(), 0u);

    // The stop rule is asked before every retry: stopping at the second
    // ask leaves one retry slept and counted.
    int asks = 0;
    calls = 0;
    s = RetryTransient(
        &env, &rng, kTestRetry, [&] { return ++asks == 2; }, &retries, [&] {
          calls++;
          return Status::TryAgain("busy");
        });
    EXPECT_TRUE(s.IsTryAgain());
    EXPECT_EQ(asks, 2);
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(retries, 1u);
    EXPECT_EQ(env.Now(), kTestRetry.base);
  });
  env.Run();
}

TEST(RetryTransientTest, ZeroLimitCallsOnceAndSuccessEndsTheLoop) {
  SimEnv env;
  env.Spawn("t", [&] {
    Random64 rng(1);
    int calls = 0;
    Status s = RetryTransient(
        &env, &rng, RetryPolicy{0, kTestRetry.base, kTestRetry.cap},
        [] { return false; }, nullptr, [&] {
          calls++;
          return Status::IOError("down");
        });
    EXPECT_TRUE(s.IsIOError());
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(env.Now(), 0u);

    calls = 0;
    s = RetryTransient(
        &env, &rng, RetryPolicy{kRetryUnbounded, kTestRetry.base,
                                kTestRetry.cap},
        [] { return false; }, nullptr, [&] {
          return ++calls < 3 ? Status::IOError("down") : Status::OK();
        });
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(calls, 3);
  });
  env.Run();
}

// ---- PeriodicActor ----

TEST(PeriodicActorTest, TicksLandAtMultiplesOfThePeriod) {
  SimEnv env;
  PeriodicActor actor;
  std::vector<Nanos> ticks;
  env.Spawn("t", [&] {
    actor.Start(&env, "ticker", 100, [&] { ticks.push_back(env.Now()); });
    EXPECT_TRUE(actor.running());
    env.SleepFor(550);
    actor.Stop();
    EXPECT_FALSE(actor.running());
  });
  env.Run();
  EXPECT_EQ(ticks, (std::vector<Nanos>{100, 200, 300, 400, 500}));
}

TEST(PeriodicActorTest, StopDuringTheWaitReturnsAtTheSameInstant) {
  SimEnv env;
  PeriodicActor actor;
  int ticks = 0;
  env.Spawn("t", [&] {
    actor.Start(&env, "ticker", 100, [&] { ticks++; });
    env.SleepFor(150);
    actor.Stop();
    EXPECT_EQ(env.Now(), 150u);
  });
  env.Run();
  EXPECT_EQ(ticks, 1);
}

TEST(PeriodicActorTest, StopDuringASleepingTickLetsItFinishAndRunsNoMore) {
  SimEnv env;
  PeriodicActor actor;
  std::vector<Nanos> finished;
  env.Spawn("t", [&] {
    actor.Start(&env, "ticker", 100, [&] {
      env.SleepFor(50);
      finished.push_back(env.Now());
    });
    env.SleepFor(120);  // the first tick sleeps from 100 to 150
    actor.Stop();
    EXPECT_EQ(env.Now(), 150u);
    env.SleepFor(1000);
  });
  env.Run();
  EXPECT_EQ(finished, (std::vector<Nanos>{150}));
}

TEST(PeriodicActorTest, StopBeforeStartOrTwiceIsANoOp) {
  SimEnv env;
  PeriodicActor actor;
  int ticks = 0;
  env.Spawn("t", [&] {
    actor.Stop();
    EXPECT_FALSE(actor.running());
    actor.Start(&env, "ticker", 100, [&] { ticks++; });
    env.SleepFor(250);
    actor.Stop();
    actor.Stop();
    EXPECT_FALSE(actor.running());
    EXPECT_EQ(env.Now(), 250u);
  });
  env.Run();
  EXPECT_EQ(ticks, 2);
}

TEST(FaultRegistryTest, KnownFaultSitesListsEverySubsystem) {
  std::set<std::string> names;
  for (const FaultSiteInfo& s : KnownFaultSites()) {
    EXPECT_NE(s.what[0], '\0') << s.site << " has no description";
    names.insert(s.site);
  }
  EXPECT_EQ(names.size(), KnownFaultSites().size()) << "duplicate site rows";
  for (const char* expected :
       {"devlsm.put.transient", "net.send.transient", "crash.wal.post_sync",
        "crash.redirect.mid", "crash.net.send.mid", "simfs.powercut.torn",
        "ndp.compact.transient", "crash.ndp.merge.mid",
        "crash.ndp.submerge.mid", "crash.ndp.result.pre", "net.partition.sym",
        "net.partition.tx", "net.partition.ack", "net.delay", "net.dup",
        "net.reorder"}) {
    EXPECT_TRUE(names.count(expected)) << expected << " not registered";
  }
}

// Docs-drift gate: every crash.* site cited in DESIGN.md must exist in the
// registry, and every registered crash.* site must be documented. DESIGN.md
// may use one level of brace shorthand: crash.wal.{post_append,post_sync}.
TEST(FaultRegistryTest, DesignDocCrashSitesMatchRegistry) {
  const std::string path = std::string(KVACCEL_SOURCE_DIR) + "/DESIGN.md";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot open " << path;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());

  auto site_char = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' ||
           c == '.';
  };
  std::set<std::string> documented;
  for (size_t pos = text.find("crash."); pos != std::string::npos;
       pos = text.find("crash.", pos + 1)) {
    size_t end = pos;
    while (end < text.size() && (site_char(text[end]) || text[end] == '{' ||
                                 text[end] == '}' || text[end] == ','))
      end++;
    std::string tok = text.substr(pos, end - pos);
    while (!tok.empty() && (tok.back() == '.' || tok.back() == ','))
      tok.pop_back();
    // Expand one {a,b,...} group into full site names.
    size_t open = tok.find('{'), close = tok.find('}');
    std::vector<std::string> expanded;
    if (open != std::string::npos && close != std::string::npos &&
        close > open) {
      std::string prefix = tok.substr(0, open);
      std::string suffix = tok.substr(close + 1);
      std::string body = tok.substr(open + 1, close - open - 1);
      size_t start = 0;
      while (start <= body.size()) {
        size_t comma = body.find(',', start);
        if (comma == std::string::npos) comma = body.size();
        expanded.push_back(prefix + body.substr(start, comma - start) +
                           suffix);
        start = comma + 1;
      }
    } else if (tok.find('{') == std::string::npos) {
      expanded.push_back(tok);
    }
    for (const std::string& site : expanded) {
      if (site.find('.') == std::string::npos || site == "crash") continue;
      if (site.compare(0, 6, "crash.") == 0 && site.size() > 6) {
        documented.insert(site);
      }
    }
  }
  ASSERT_FALSE(documented.empty()) << "no crash.* sites found in DESIGN.md";

  std::set<std::string> registered;
  for (const FaultSiteInfo& s : KnownFaultSites()) {
    if (std::string(s.site).compare(0, 6, "crash.") == 0) {
      registered.insert(s.site);
    }
  }
  for (const std::string& site : documented) {
    EXPECT_TRUE(registered.count(site))
        << "DESIGN.md cites unregistered crash site " << site;
  }
  for (const std::string& site : registered) {
    EXPECT_TRUE(documented.count(site))
        << "registered crash site " << site << " is undocumented in DESIGN.md";
  }
}

}  // namespace
}  // namespace kvaccel::sim
