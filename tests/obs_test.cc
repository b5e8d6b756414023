// Observability subsystem tests: JSON writer, metrics registry, tracer,
// coalescing spans, Chrome trace serialization, and the end-to-end run
// artifacts (--trace_out / --json_out equivalents through RunBenchmark).
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "harness/report.h"
#include "harness/report_json.h"
#include "harness/workload.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/sim_env.h"

namespace kvaccel {
namespace {

using harness::BenchConfig;
using harness::RunBenchmark;
using harness::RunResult;
using harness::SystemKind;
using harness::WorkloadConfig;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------------- JsonWriter ----------------

TEST(JsonWriterTest, ObjectsArraysAndFieldTypes) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Field("s", "text");
  w.Field("u", static_cast<uint64_t>(18446744073709551615ull));
  w.Field("i", static_cast<int64_t>(-42));
  w.Field("d", 1.5);
  w.Field("b", true);
  w.Key("arr");
  w.BeginArray();
  w.Uint(1);
  w.Uint(2);
  w.BeginObject();
  w.Field("nested", false);
  w.EndObject();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"s\":\"text\",\"u\":18446744073709551615,\"i\":-42,"
            "\"d\":1.5,\"b\":true,\"arr\":[1,2,{\"nested\":false}]}");
}

TEST(JsonWriterTest, EscapesControlAndQuoteCharacters) {
  std::string out;
  obs::JsonWriter::Escape("a\"b\\c\nd\te\x01", &out);
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeZero) {
  obs::JsonWriter w;
  w.BeginArray();
  w.Double(std::numeric_limits<double>::infinity());
  w.Double(std::numeric_limits<double>::quiet_NaN());
  w.Double(0.25);
  w.EndArray();
  EXPECT_EQ(w.str(), "[0,0,0.25]");
}

TEST(JsonWriterTest, EmptyContainers) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("a");
  w.BeginArray();
  w.EndArray();
  w.Key("o");
  w.BeginObject();
  w.EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"a\":[],\"o\":{}}");
}

// ---------------- MetricsRegistry ----------------

TEST(MetricsRegistryTest, NativeInstrumentsSnapshot) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("lsm.flush.count");
  c->Inc();
  c->Inc(4);
  reg.GetGauge("kvaccel.redirect.active")->Set(1.0);
  Histogram* h = reg.GetHistogram("db.put_latency_ns");
  for (int i = 1; i <= 100; i++) h->Add(static_cast<uint64_t>(i) * 1000);

  obs::MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("lsm.flush.count"), 5u);
  EXPECT_EQ(snap.gauges.at("kvaccel.redirect.active"), 1.0);
  const obs::HistogramSummary& hs = snap.histograms.at("db.put_latency_ns");
  EXPECT_EQ(hs.count, 100u);
  EXPECT_EQ(hs.min, 1000u);
  EXPECT_EQ(hs.max, 100000u);
  EXPECT_GT(hs.p99, hs.p50);
}

TEST(MetricsRegistryTest, StablePointersAcrossRegistrations) {
  obs::MetricsRegistry reg;
  obs::Counter* a = reg.GetCounter("a");
  // Registering many more must not invalidate the first pointer (map nodes).
  for (int i = 0; i < 100; i++) {
    reg.GetCounter("x." + std::to_string(i));
  }
  a->Inc(7);
  EXPECT_EQ(reg.GetCounter("a"), a);
  EXPECT_EQ(reg.Snapshot().counters.at("a"), 7u);
}

TEST(MetricsRegistryTest, SourcesMirrorAndOverride) {
  obs::MetricsRegistry reg;
  reg.GetCounter("shared")->Set(1);
  uint64_t live = 41;
  reg.AddSource([&live](obs::MetricsSnapshot* snap) {
    snap->SetCounter("mirrored", live);
    snap->SetCounter("shared", 99);  // sources win over natives
  });
  live = 42;
  obs::MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("mirrored"), 42u);  // read at snapshot time
  EXPECT_EQ(snap.counters.at("shared"), 99u);
}

TEST(MetricsRegistryTest, SnapshotJsonIsSortedAndDeterministic) {
  obs::MetricsRegistry reg;
  reg.GetCounter("z.last")->Set(1);
  reg.GetCounter("a.first")->Set(2);
  reg.GetGauge("m.gauge")->Set(0.5);
  std::string one = reg.Snapshot().ToJson();
  std::string two = reg.Snapshot().ToJson();
  EXPECT_EQ(one, two);
  // Sorted by name regardless of registration order.
  EXPECT_LT(one.find("a.first"), one.find("z.last"));
  EXPECT_NE(one.find("\"counters\""), std::string::npos);
  EXPECT_NE(one.find("\"gauges\""), std::string::npos);
  EXPECT_NE(one.find("\"histograms\""), std::string::npos);
}

TEST(MetricsRegistryTest, EmptyHistogramSummaryIsZeros) {
  Histogram h;
  obs::HistogramSummary s = obs::HistogramSummary::From(h);
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_EQ(s.avg, 0.0);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.p999, 0.0);
}

// ---------------- Tracer ----------------

TEST(TracerTest, EnvHasNoTracerByDefault) {
  sim::SimEnv env;
  EXPECT_EQ(env.tracer(), nullptr);
}

TEST(TracerTest, TrackRegistrationDedups) {
  sim::SimEnv env;
  obs::Tracer tracer(&env);
  uint32_t a = tracer.RegisterTrack("lsm.wal");
  uint32_t b = tracer.RegisterTrack("lsm.flush");
  EXPECT_NE(a, b);
  EXPECT_EQ(tracer.RegisterTrack("lsm.wal"), a);
  EXPECT_EQ(tracer.num_tracks(), 2u);
}

TEST(TracerTest, RecordsAndCountsEvents) {
  sim::SimEnv env;
  obs::Tracer tracer(&env);
  uint32_t t = tracer.RegisterTrack("test");
  tracer.Begin(t, "stall");
  tracer.End(t, "stall");
  tracer.Complete(t, "flush", 100, 250, 4096);
  tracer.Instant(t, "memtable.switch");
  EXPECT_EQ(tracer.num_events(), 4u);
  EXPECT_EQ(tracer.CountEvents("stall"), 2u);
  EXPECT_TRUE(tracer.HasEvent("flush"));
  EXPECT_TRUE(tracer.HasEvent("memtable.switch"));
  EXPECT_FALSE(tracer.HasEvent("compaction"));
  EXPECT_EQ(tracer.dropped_events(), 0u);
}

TEST(TracerTest, BoundedBufferDropsInsteadOfGrowing) {
  sim::SimEnv env;
  obs::Tracer tracer(&env, /*max_events=*/4);
  uint32_t t = tracer.RegisterTrack("test");
  for (int i = 0; i < 10; i++) tracer.Instant(t, "tick");
  EXPECT_EQ(tracer.num_events(), 4u);
  EXPECT_EQ(tracer.dropped_events(), 6u);
}

TEST(TracerTest, CompleteClampsBackwardsSpan) {
  sim::SimEnv env;
  obs::Tracer tracer(&env);
  uint32_t t = tracer.RegisterTrack("test");
  tracer.Complete(t, "weird", 500, 100);  // end < start → zero duration
  EXPECT_EQ(tracer.num_events(), 1u);
}

TEST(CoalescingSpanTest, MergesWithinGapSplitsBeyond) {
  sim::SimEnv env;
  obs::Tracer tracer(&env);
  uint32_t t = tracer.RegisterTrack("ssd.pcie");
  obs::CoalescingSpan span;
  span.Init(&tracer, t, "pcie.busy", /*max_gap=*/100);
  span.Add(0, 50, 10);
  span.Add(60, 120, 10);    // gap 10 < 100 → merged
  span.Add(130, 180, 10);   // still merged
  EXPECT_EQ(tracer.CountEvents("pcie.busy"), 0u);  // interval still open
  span.Add(1000, 1100, 5);  // gap 820 > 100 → first span emitted
  EXPECT_EQ(tracer.CountEvents("pcie.busy"), 1u);
  span.Flush();
  EXPECT_EQ(tracer.CountEvents("pcie.busy"), 2u);
  span.Flush();  // idempotent
  EXPECT_EQ(tracer.CountEvents("pcie.busy"), 2u);
}

TEST(CoalescingSpanTest, UninitializedIsInert) {
  obs::CoalescingSpan span;
  span.Add(0, 10, 1);  // must not crash
  span.Flush();
}

TEST(TracerTest, ChromeTraceFormat) {
  sim::SimEnv env;
  obs::Tracer tracer(&env);
  uint32_t t = tracer.RegisterTrack("lsm.flush");
  tracer.Complete(t, "flush", 1000, 3500, 4096);
  bool flushed = false;
  tracer.AddFlusher([&flushed] { flushed = true; });

  std::string path = testing::TempDir() + "obs_test_trace.json";
  std::string error;
  ASSERT_TRUE(tracer.WriteChromeTrace(path, &error)) << error;
  EXPECT_TRUE(flushed);
  std::string body = ReadFile(path);
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"lsm.flush\""), std::string::npos);  // track
  // 1000 ns → 1.000 µs, duration 2500 ns → 2.500 µs, bytes in args.
  EXPECT_NE(body.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(body.find("\"ts\":1.000,\"dur\":2.500"), std::string::npos);
  EXPECT_NE(body.find("\"bytes\":4096"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TracerTest, WriteToUnwritablePathFails) {
  sim::SimEnv env;
  obs::Tracer tracer(&env);
  std::string error;
  EXPECT_FALSE(tracer.WriteChromeTrace("/nonexistent-dir/x/trace.json",
                                       &error));
  EXPECT_FALSE(error.empty());
}

// ---------------- End-to-end run artifacts ----------------

BenchConfig SmallKvaccelConfig() {
  BenchConfig c;
  c.scale = 0.03125;
  c.sut.kind = SystemKind::kKvaccel;
  c.sut.compaction_threads = 1;
  c.workload.type = WorkloadConfig::Type::kFillRandom;
  c.workload.duration = FromSecs(6);
  return c;
}

TEST(RunArtifactsTest, TraceContainsSubsystemSpans) {
  BenchConfig c = SmallKvaccelConfig();
  c.trace_out = testing::TempDir() + "obs_e2e_trace.json";
  RunResult r = RunBenchmark(c);
  EXPECT_GT(r.write_kops, 0.0);

  std::string body = ReadFile(c.trace_out);
  ASSERT_FALSE(body.empty());
  // Track metadata for every layer.
  for (const char* track : {"ssd.pcie", "ssd.nand-ch0", "lsm.wal",
                            "lsm.flush", "lsm.compaction-0", "devlsm",
                            "kvaccel"}) {
    EXPECT_NE(body.find(std::string("\"name\":\"") + track + "\""),
              std::string::npos)
        << "missing track " << track;
  }
  // Span/instant events from the LSM, SSD and KVACCEL layers.
  for (const char* name :
       {"flush", "compaction.read", "compaction.merge", "compaction.write",
        "memtable.switch", "wal.append", "pcie.busy", "nand.busy"}) {
    EXPECT_NE(body.find(std::string("\"name\":\"") + name + "\""),
              std::string::npos)
        << "missing event " << name;
  }
  std::remove(c.trace_out.c_str());
}

TEST(RunArtifactsTest, TracingOffProducesNoFile) {
  BenchConfig c = SmallKvaccelConfig();
  c.workload.duration = FromSecs(2);
  RunResult r = RunBenchmark(c);  // trace_out empty → tracer never built
  EXPECT_GT(r.write_kops, 0.0);
}

TEST(RunArtifactsTest, MetricsSnapshotCoversAllLayers) {
  BenchConfig c = SmallKvaccelConfig();
  RunResult r = RunBenchmark(c);
  const auto& counters = r.metrics.counters;
  for (const char* name :
       {"lsm.writes_total", "lsm.flush.count", "lsm.compaction.bytes_written",
        "lsm.block_cache.hits", "lsm.block_cache.capacity_bytes",
        "ssd.link.busy_ns", "ssd.nand.bytes_written", "ssd.ftl.gc_runs",
        "kvaccel.detector.checks", "kvaccel.redirect.writes",
        "devlsm.puts"}) {
    EXPECT_TRUE(counters.count(name)) << "missing counter " << name;
  }
  EXPECT_GT(counters.at("lsm.writes_total"), 0u);
  EXPECT_GT(counters.at("ssd.nand.bytes_written"), 0u);
  EXPECT_GT(counters.at("kvaccel.detector.checks"), 0u);
  EXPECT_GT(counters.at("lsm.block_cache.capacity_bytes"), 0u);
  EXPECT_TRUE(r.metrics.gauges.count("kvaccel.redirect.active"));
  EXPECT_TRUE(r.metrics.gauges.count("lsm.block_cache.hit_rate"));
  EXPECT_TRUE(r.metrics.histograms.count("db.put_latency_ns"));
  EXPECT_GT(r.metrics.histograms.at("db.put_latency_ns").count, 0u);
}

TEST(RunArtifactsTest, BlockCacheStatsSurfaceOnReadWorkload) {
  BenchConfig c;
  c.scale = 0.03125;
  c.sut.kind = SystemKind::kRocksDB;
  c.sut.compaction_threads = 1;
  c.workload.type = WorkloadConfig::Type::kReadWhileWriting;
  c.workload.duration = FromSecs(6);
  RunResult r = RunBenchmark(c);
  EXPECT_GT(r.read_kops, 0.0);
  // Reads that reach the SSTs populate the block cache; hit rate must be a
  // valid fraction and consistent with the raw counts.
  EXPECT_GT(r.cache.hits + r.cache.misses, 0u);
  EXPECT_GE(r.cache.hit_rate(), 0.0);
  EXPECT_LE(r.cache.hit_rate(), 1.0);
  EXPECT_EQ(r.metrics.counters.at("lsm.block_cache.hits"), r.cache.hits);
  EXPECT_EQ(r.metrics.counters.at("lsm.block_cache.misses"), r.cache.misses);
}

TEST(RunArtifactsTest, JsonReportIsValidAndDeterministic) {
  BenchConfig c = SmallKvaccelConfig();
  c.workload.duration = FromSecs(4);
  RunResult r1 = RunBenchmark(c);
  RunResult r2 = RunBenchmark(c);
  std::string report1 = harness::JsonReportString(c, {r1});
  std::string report2 = harness::JsonReportString(c, {r2});
  EXPECT_EQ(report1, report2);  // identical seeds → byte-identical reports
  EXPECT_NE(report1.find("\"schema\":\"kvaccel-run-v1\""), std::string::npos);
  EXPECT_NE(report1.find("\"config\""), std::string::npos);
  EXPECT_NE(report1.find("\"metrics\""), std::string::npos);
  EXPECT_NE(report1.find("\"per_second\""), std::string::npos);
  EXPECT_NE(report1.find("\"shape_checks\""), std::string::npos);
}

TEST(RunArtifactsTest, TraceIsDeterministicAcrossRuns) {
  BenchConfig c = SmallKvaccelConfig();
  c.workload.duration = FromSecs(3);
  c.trace_out = testing::TempDir() + "obs_det_a.json";
  RunBenchmark(c);
  std::string a = ReadFile(c.trace_out);
  std::remove(c.trace_out.c_str());
  c.trace_out = testing::TempDir() + "obs_det_b.json";
  RunBenchmark(c);
  std::string b = ReadFile(c.trace_out);
  std::remove(c.trace_out.c_str());
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace kvaccel
