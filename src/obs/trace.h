// Virtual-time span tracer emitting Chrome trace-event-format JSON, loadable
// in chrome://tracing or https://ui.perfetto.dev.
//
// Each subsystem registers one or more named *tracks* (rendered as threads of
// a single "kvaccel-sim" process, in registration order) and records events
// against them:
//   Begin/End   B/E span pair (stall windows, redirect windows)
//   Complete    X span with explicit [start, end) (flush, compaction phases)
//   Instant     i marker (memtable switch, device reset)
//
// Cost model:
//  - Disabled: no Tracer is attached to the SimEnv; every instrumentation
//    site is a `tracer == nullptr` branch. No allocation, no virtual call,
//    no clock read on the hot path.
//  - Enabled: one POD append into a pre-reserved bounded buffer. Event names
//    must be string literals (the tracer stores the pointer, never copies),
//    so recording never allocates either. When the buffer fills, further
//    events are counted in dropped_events() and discarded — a run can never
//    OOM because of tracing.
//
// High-frequency activity (per-write WAL appends, per-page NAND/PCIe DMA)
// goes through CoalescingSpan, which merges busy intervals separated by less
// than a configurable gap into one span, turning millions of micro-transfers
// into a readable "link busy" band whose gaps are the idle windows the paper
// reads off Fig. 4.
//
// Timestamps are virtual nanoseconds from SimEnv::Now(), emitted in the
// microseconds Chrome expects with 1 ns resolution (three decimals), so a
// trace is bit-identical across identical runs.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/sim_env.h"

namespace kvaccel::obs {

class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 1u << 20;

  explicit Tracer(sim::SimEnv* env, size_t max_events = kDefaultCapacity);

  // Returns a stable track id; registering the same name twice returns the
  // same id. Track ids map to Chrome tids in registration order, which is
  // deterministic because world construction is.
  uint32_t RegisterTrack(const std::string& name);

  // `name` must be a string literal (or otherwise outlive the tracer).
  void Begin(uint32_t track, const char* name) {
    Push(Event{env_->Now(), 0, name, track, 'B', 0});
  }
  void End(uint32_t track, const char* name) {
    Push(Event{env_->Now(), 0, name, track, 'E', 0});
  }
  void Complete(uint32_t track, const char* name, Nanos start, Nanos end,
                uint64_t bytes = 0) {
    if (end < start) end = start;
    Push(Event{start, end - start, name, track, 'X', bytes});
  }
  void Instant(uint32_t track, const char* name) {
    Push(Event{env_->Now(), 0, name, track, 'i', 0});
  }

  // Registered callbacks run at serialization time, before events are
  // written — CoalescingSpans owned by long-lived components (the SSD) flush
  // their open interval here. The callback's target must still be alive when
  // the trace is written; short-lived components (the DB) must instead flush
  // explicitly on Close and not register here.
  void AddFlusher(std::function<void()> flusher) {
    flushers_.push_back(std::move(flusher));
  }

  size_t num_events() const { return events_.size(); }
  uint64_t dropped_events() const { return dropped_; }
  size_t num_tracks() const { return track_names_.size(); }

  // Test helpers: scan the buffer for events by exact name.
  bool HasEvent(const char* name) const { return CountEvents(name) > 0; }
  uint64_t CountEvents(const char* name) const;

  // Writes `{"traceEvents":[...]}`. Returns false (with *error set) if the
  // file cannot be written. Runs flushers first.
  bool WriteChromeTrace(const std::string& path, std::string* error = nullptr);
  void WriteChromeTrace(std::FILE* f);

 private:
  struct Event {
    Nanos ts;
    Nanos dur;
    const char* name;
    uint32_t track;
    char phase;  // 'B' | 'E' | 'X' | 'i'
    uint64_t bytes;
  };

  void Push(const Event& e) {
    if (events_.size() >= max_events_) {
      dropped_++;
      return;
    }
    events_.push_back(e);
  }

  sim::SimEnv* env_;
  size_t max_events_;
  std::vector<Event> events_;
  std::vector<std::string> track_names_;
  std::vector<std::function<void()>> flushers_;
  uint64_t dropped_ = 0;
};

// Merges bursts of short busy intervals into single spans. Intervals must
// arrive in non-decreasing start order (true for any FIFO resource). Safe to
// call when not Init-ed: every operation is a no-op, so call sites need no
// tracer null checks of their own.
class CoalescingSpan {
 public:
  CoalescingSpan() = default;

  void Init(Tracer* tracer, uint32_t track, const char* name, Nanos max_gap) {
    tracer_ = tracer;
    track_ = track;
    name_ = name;
    max_gap_ = max_gap;
  }

  void Add(Nanos start, Nanos end, uint64_t bytes) {
    if (tracer_ == nullptr) return;
    if (open_ && start <= end_ + max_gap_) {
      if (end > end_) end_ = end;
      bytes_ += bytes;
      return;
    }
    Flush();
    open_ = true;
    start_ = start;
    end_ = end;
    bytes_ = bytes;
  }

  // Emits the pending interval, if any. Idempotent.
  void Flush() {
    if (tracer_ != nullptr && open_) {
      tracer_->Complete(track_, name_, start_, end_, bytes_);
    }
    open_ = false;
    bytes_ = 0;
  }

 private:
  Tracer* tracer_ = nullptr;
  uint32_t track_ = 0;
  const char* name_ = nullptr;
  Nanos max_gap_ = 0;
  bool open_ = false;
  Nanos start_ = 0;
  Nanos end_ = 0;
  uint64_t bytes_ = 0;
};

}  // namespace kvaccel::obs
