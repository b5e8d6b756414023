// Bucketed time-series accumulators and interval recorders. These back the
// paper's time-series figures: per-second throughput (Figs 2, 11), per-second
// PCIe traffic (Figs 4, 14), write-stall regions (Fig 4's green boxes) and
// the stall-period bandwidth CDF (Fig 5).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/units.h"

namespace kvaccel::sim {

// Accumulates double-valued samples into fixed-width time buckets.
// Not internally synchronized: safe under the cooperative scheduler as long
// as callers do not yield mid-update (they don't — updates are plain code).
class TimeSeries {
 public:
  explicit TimeSeries(Nanos bucket_width = kNanosPerSec)
      : bucket_width_(bucket_width) {}

  // Adds `value` at instant `t`.
  void Add(Nanos t, double value) {
    size_t b = static_cast<size_t>(t / bucket_width_);
    EnsureBucket(b);
    buckets_[b] += value;
    total_ += value;
  }

  // Spreads `value` uniformly over [start, end); used for transfers so that a
  // 3-bucket-long DMA contributes to all three buckets proportionally.
  void AddRange(Nanos start, Nanos end, double value) {
    if (end <= start) {
      Add(start, value);
      return;
    }
    double per_ns = value / static_cast<double>(end - start);
    size_t first = static_cast<size_t>(start / bucket_width_);
    size_t last = static_cast<size_t>((end - 1) / bucket_width_);
    EnsureBucket(last);
    for (size_t b = first; b <= last; b++) {
      Nanos bucket_start = static_cast<Nanos>(b) * bucket_width_;
      Nanos bucket_end = bucket_start + bucket_width_;
      Nanos lo = std::max(start, bucket_start);
      Nanos hi = std::min(end, bucket_end);
      buckets_[b] += per_ns * static_cast<double>(hi - lo);
    }
    total_ += value;
  }

  Nanos bucket_width() const { return bucket_width_; }
  double Bucket(size_t i) const { return i < buckets_.size() ? buckets_[i] : 0.0; }
  double total() const { return total_; }
  const std::vector<double>& buckets() const { return buckets_; }

  // Bucket-wise accumulation of another series (shard roll-ups). Bucket
  // widths must match; mismatched series would mis-align instants.
  void MergeFrom(const TimeSeries& other) {
    if (other.bucket_width_ != bucket_width_ || other.buckets_.empty()) return;
    EnsureBucket(other.buckets_.size() - 1);
    for (size_t b = 0; b < other.buckets_.size(); b++) {
      buckets_[b] += other.buckets_[b];
    }
    total_ += other.total_;
  }

  // Sum over [start, end) with boundary buckets prorated by their overlap
  // fraction — assumes a bucket's value is spread uniformly across it (true
  // for AddRange; a point Add is smeared over its bucket). Exact-enough
  // windowed reads for accounting series whose writes are themselves ranges.
  double ProratedSumBetween(Nanos start, Nanos end) const {
    if (end <= start) return 0.0;
    double sum = 0;
    size_t first = static_cast<size_t>(start / bucket_width_);
    size_t last = static_cast<size_t>((end - 1) / bucket_width_);
    last = std::min(last, buckets_.empty() ? 0 : buckets_.size() - 1);
    for (size_t b = first; b < buckets_.size() && b <= last; b++) {
      Nanos bucket_start = static_cast<Nanos>(b) * bucket_width_;
      Nanos bucket_end = bucket_start + bucket_width_;
      Nanos lo = std::max(start, bucket_start);
      Nanos hi = std::min(end, bucket_end);
      if (hi <= lo) continue;
      sum += buckets_[b] * static_cast<double>(hi - lo) /
             static_cast<double>(bucket_width_);
    }
    return sum;
  }

  // Sum of bucket values over the instants covered by [start, end), at bucket
  // granularity (buckets whose start lies in the range).
  double SumBetween(Nanos start, Nanos end) const {
    double sum = 0;
    for (size_t b = 0; b < buckets_.size(); b++) {
      Nanos bucket_start = static_cast<Nanos>(b) * bucket_width_;
      if (bucket_start >= start && bucket_start < end) sum += buckets_[b];
    }
    return sum;
  }

 private:
  void EnsureBucket(size_t b) {
    if (b >= buckets_.size()) buckets_.resize(b + 1, 0.0);
  }

  Nanos bucket_width_;
  std::vector<double> buckets_;
  double total_ = 0;
};

// Records half-open time intervals (e.g. write-stall regions).
class IntervalRecorder {
 public:
  struct Interval {
    Nanos start;
    Nanos end;
  };

  // Begin/End must alternate. A Begin with no matching End is closed by
  // CloseAt().
  void Begin(Nanos t) {
    if (open_) return;  // idempotent: nested begins merge
    open_ = true;
    open_start_ = t;
  }

  void End(Nanos t) {
    if (!open_) return;
    open_ = false;
    if (t > open_start_) intervals_.push_back({open_start_, t});
  }

  void CloseAt(Nanos t) {
    if (open_) End(t);
  }

  bool open() const { return open_; }
  const std::vector<Interval>& intervals() const { return intervals_; }

  Nanos TotalDuration() const {
    Nanos total = 0;
    for (const auto& iv : intervals_) total += iv.end - iv.start;
    return total;
  }

  bool Contains(Nanos t) const {
    for (const auto& iv : intervals_) {
      if (t >= iv.start && t < iv.end) return true;
    }
    return open_ && t >= open_start_;
  }

  size_t Count() const { return intervals_.size(); }

 private:
  bool open_ = false;
  Nanos open_start_ = 0;
  std::vector<Interval> intervals_;
};

}  // namespace kvaccel::sim
