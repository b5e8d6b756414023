// ADOC baseline (Yu et al., FAST '23): automatic dataflow harmonization for
// LSM-KVS. The reproduction implements the two knobs the KVACCEL paper
// measures ADOC by:
//   1. dynamically increasing the number of compaction threads when data
//      overflows at the flush/L0 boundary (raising host CPU usage — Fig 12c);
//   2. dynamically growing the write-buffer (batch) size to absorb bursts;
// and, like the original, it "still falls back to slowdowns as a last
// resort" (paper §III-A) — the underlying DB keeps its delayed-write
// mechanism unless the experiment disables it.
//
// The tuner is a monitor thread sampling StallSignals on a fixed period and
// nudging both knobs up under overflow pressure / decaying them when calm.
#pragma once

#include <cstdint>

#include "lsm/db.h"
#include "sim/sim_env.h"

namespace kvaccel::adoc {

struct AdocOptions {
  Nanos tuning_period = FromMillis(100);
  int min_compaction_threads = 1;
  int max_compaction_threads = 4;
  uint64_t min_write_buffer = 64ull << 20;
  uint64_t max_write_buffer = 256ull << 20;
  // Consecutive calm periods before decaying a knob back down.
  int calm_periods_to_decay = 20;
};

struct AdocStats {
  uint64_t tuning_rounds = 0;
  uint64_t thread_increases = 0;
  uint64_t thread_decreases = 0;
  uint64_t buffer_increases = 0;
  uint64_t buffer_decreases = 0;
  // Buffer growths vetoed because they would overrun the headroom to the
  // hard pending-compaction stall threshold.
  uint64_t buffer_growth_clamped = 0;
};

class AdocTuner {
 public:
  AdocTuner(lsm::DB* db, sim::SimEnv* env, const lsm::DbOptions& db_options,
            const AdocOptions& options);

  // Spawns the tuning thread.
  void Start();
  // Signals the thread to exit and joins it.
  void Stop();

  const AdocStats& stats() const { return stats_; }

 private:
  void TuningLoop();
  void TuneOnce();
  // Largest write-buffer size growth may reach without risking a straight
  // run into the hard pending-compaction stall (see TuneOnce).
  uint64_t SafeBufferCeiling(const lsm::StallSignals& sig) const;

  lsm::DB* db_;
  sim::SimEnv* env_;
  lsm::DbOptions db_options_;
  AdocOptions options_;
  AdocStats stats_;

  sim::SimMutex mu_;
  sim::SimCondVar cv_;
  bool stop_requested_ = false;
  sim::SimEnv::Thread* thread_ = nullptr;
  int calm_streak_ = 0;
};

}  // namespace kvaccel::adoc
