#include "adoc/adoc_tuner.h"

#include <algorithm>

namespace kvaccel::adoc {

namespace {
// L0 overflow pressure threshold, as a fraction of the slowdown trigger.
constexpr double kL0PressureFraction = 0.5;
}  // namespace

AdocTuner::AdocTuner(lsm::DB* db, sim::SimEnv* env,
                     const lsm::DbOptions& db_options,
                     const AdocOptions& options)
    : db_(db), env_(env), db_options_(db_options), options_(options) {}

void AdocTuner::Start() {
  thread_ = env_->Spawn("adoc-tuner", [this] { TuningLoop(); });
}

void AdocTuner::Stop() {
  if (thread_ == nullptr) return;
  {
    sim::SimLockGuard l(mu_);
    stop_requested_ = true;
    cv_.NotifyAll();
  }
  env_->Join(thread_);
  thread_ = nullptr;
}

void AdocTuner::TuningLoop() {
  sim::SimLockGuard l(mu_);
  while (!stop_requested_) {
    if (cv_.WaitFor(mu_, options_.tuning_period)) {
      continue;  // notified: re-check stop flag
    }
    TuneOnce();
  }
}

void AdocTuner::TuneOnce() {
  stats_.tuning_rounds++;
  lsm::StallSignals sig = db_->GetStallSignals();

  // Overflow detection at the memtable->L0 boundary: L0 backlog or immutable
  // memtables queueing up means compaction/flush cannot keep pace.
  bool l0_pressure =
      sig.l0_files >=
      static_cast<int>(
          static_cast<double>(db_options_.l0_slowdown_writes_trigger) *
          kL0PressureFraction);
  bool imm_pressure = sig.immutable_memtables >= 1;
  bool pending_pressure =
      sig.pending_compaction_bytes >
      db_options_.soft_pending_compaction_bytes_limit / 2;
  bool overflow = l0_pressure || imm_pressure || pending_pressure;

  int threads = db_->compaction_threads();
  uint64_t buffer = db_->write_buffer_size();

  if (overflow) {
    calm_streak_ = 0;
    if (threads < options_.max_compaction_threads) {
      db_->SetCompactionThreads(threads + 1);
      // Subcompaction width follows the thread budget: a wider budget is
      // useless to the one L0->L1 job unless it may also split wider.
      db_->SetMaxSubcompactions(threads + 1);
      stats_.thread_increases++;
    } else if (buffer < options_.max_write_buffer) {
      // Threads saturated: absorb the burst with a bigger batch instead —
      // but never grow past what the hard pending-compaction limit can
      // absorb, or the "relief" valve would steer straight into a stall.
      uint64_t target = std::min(options_.max_write_buffer, buffer * 2);
      target = std::min(target, SafeBufferCeiling(sig));
      if (target > buffer) {
        db_->SetWriteBufferSize(target);
        stats_.buffer_increases++;
      } else {
        stats_.buffer_growth_clamped++;
      }
    }
  } else {
    calm_streak_++;
    if (calm_streak_ >= options_.calm_periods_to_decay) {
      // One knob per decay event, in LIFO order (buffer grows last, so it
      // decays first); resetting the streak means the other knob needs a
      // fresh calm run — a single calm window can't whipsaw both.
      calm_streak_ = 0;
      if (buffer > options_.min_write_buffer) {
        db_->SetWriteBufferSize(
            std::max(options_.min_write_buffer, buffer / 2));
        stats_.buffer_decreases++;
      } else if (threads > options_.min_compaction_threads) {
        db_->SetCompactionThreads(threads - 1);
        db_->SetMaxSubcompactions(std::max(1, threads - 1));
        stats_.thread_decreases++;
      }
    }
  }
}

uint64_t AdocTuner::SafeBufferCeiling(const lsm::StallSignals& sig) const {
  // Every byte buffered beyond what compaction absorbs becomes
  // pending-compaction debt at the next flush. With up to
  // max_write_buffer_number buffers queueable, cap each at its share of half
  // the remaining headroom to the hard limit, so one more burst cannot cross
  // it outright.
  uint64_t hard = sig.hard_pending_limit;
  if (hard == 0) return UINT64_MAX;  // no hard stop configured
  if (sig.pending_compaction_bytes >= hard) return 0;
  uint64_t headroom = (hard - sig.pending_compaction_bytes) / 2;
  int bufs = std::max(1, sig.max_write_buffer_number);
  return headroom / static_cast<uint64_t>(bufs);
}

}  // namespace kvaccel::adoc
