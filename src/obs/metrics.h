// MetricsSnapshot: a run's named counters, gauges and histogram summaries,
// built once at harvest (harness::SnapshotWorld) and serialized into the
// report.
//
// Names are dot-separated paths mirroring the subsystem layout, e.g.
// `lsm.compaction.bytes_written`, `ssd.link.busy_ns`,
// `kvaccel.redirect.active` (the full scheme is DESIGN.md §8).
//
// A stats struct that the sharded engine sums and the report prints
// declares each of its metrics once, as a row of its `kMetrics` table of
// StatField next to its fields. AddStats sums the table across shards and
// MetricsSnapshot::SetStats reports it, so a new counter is one table row.
//
// Snapshots use std::map (sorted keys), so serialization order — and
// therefore report bytes — is deterministic for identical runs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/histogram.h"

namespace kvaccel::obs {

class JsonWriter;

// One metric of stats struct S: the name the snapshot reports it under and
// the member that holds it, a counter or a histogram.
template <typename S>
struct StatField {
  constexpr StatField(const char* n, uint64_t S::*c) : name(n), counter(c) {}
  constexpr StatField(const char* n, Histogram S::*h)
      : name(n), histogram(h) {}

  bool Holds(uint64_t S::*m) const { return counter == m; }
  bool Holds(Histogram S::*m) const { return histogram == m; }

  const char* name;  // null: summed across shards but not reported
  uint64_t S::*counter = nullptr;  // exactly one of the two is set
  Histogram S::*histogram = nullptr;
};

// Adds every row of S::kMetrics from `in` into `*out`: counters sum and
// histograms merge.
template <typename S>
void AddStats(const S& in, S* out) {
  for (const StatField<S>& f : S::kMetrics) {
    if (f.counter != nullptr) {
      out->*f.counter += in.*f.counter;
    } else {
      (out->*f.histogram).Merge(in.*f.histogram);
    }
  }
}

// Compact percentile summary of a Histogram, cheap to snapshot and serialize.
struct HistogramSummary {
  uint64_t count = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  double avg = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;

  static HistogramSummary From(const Histogram& h);
};

struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSummary> histograms;

  void SetCounter(const std::string& name, uint64_t v) { counters[name] = v; }
  void SetGauge(const std::string& name, double v) { gauges[name] = v; }
  void SetHistogram(const std::string& name, const Histogram& h) {
    histograms[name] = HistogramSummary::From(h);
  }

  // Reports the named rows of S::kMetrics whose name starts with `layer`
  // (every named row by default), read from `s`.
  template <typename S>
  void SetStats(const S& s, std::string_view layer = "") {
    for (const StatField<S>& f : S::kMetrics) {
      if (f.name != nullptr && std::string_view(f.name).starts_with(layer)) {
        Set(f, s, "");
      }
    }
  }
  // Reports the row of S::kMetrics that holds `member`, read from `s`, with
  // `prefix` before its name.
  template <typename S, typename M>
  void SetStat(M S::*member, const S& s, const std::string& prefix) {
    for (const StatField<S>& f : S::kMetrics) {
      if (f.Holds(member)) Set(f, s, prefix);
    }
  }

  void WriteJson(JsonWriter* w) const;
  std::string ToJson() const;

 private:
  template <typename S>
  void Set(const StatField<S>& f, const S& s, const std::string& prefix) {
    if (f.counter != nullptr) {
      SetCounter(prefix + f.name, s.*f.counter);
    } else {
      SetHistogram(prefix + f.name, s.*f.histogram);
    }
  }
};

}  // namespace kvaccel::obs
