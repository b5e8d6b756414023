#include "obs/metrics.h"

#include "obs/json.h"

namespace kvaccel::obs {

HistogramSummary HistogramSummary::From(const Histogram& h) {
  HistogramSummary s;
  s.count = h.Count();
  s.min = h.Min();
  s.max = h.Max();
  s.avg = h.Average();
  s.p50 = h.Percentile(50);
  s.p99 = h.Percentile(99);
  s.p999 = h.Percentile(99.9);
  return s;
}

void MetricsSnapshot::WriteJson(JsonWriter* w) const {
  w->BeginObject();
  w->Key("counters");
  w->BeginObject();
  for (const auto& [name, v] : counters) w->Field(name, v);
  w->EndObject();
  w->Key("gauges");
  w->BeginObject();
  for (const auto& [name, v] : gauges) w->Field(name, v);
  w->EndObject();
  w->Key("histograms");
  w->BeginObject();
  for (const auto& [name, h] : histograms) {
    w->Key(name);
    w->BeginObject();
    w->Field("count", h.count);
    w->Field("min", h.min);
    w->Field("max", h.max);
    w->Field("avg", h.avg);
    w->Field("p50", h.p50);
    w->Field("p99", h.p99);
    w->Field("p999", h.p999);
    w->EndObject();
  }
  w->EndObject();
  w->EndObject();
}

std::string MetricsSnapshot::ToJson() const {
  JsonWriter w;
  WriteJson(&w);
  return w.str();
}

}  // namespace kvaccel::obs
