#include "harness/report_json.h"

#include <cstdio>

#include "harness/report.h"
#include "obs/json.h"

namespace kvaccel::harness {

namespace {

void WriteSeries(obs::JsonWriter* w, const std::string& key,
                 const std::vector<double>& values) {
  w->Key(key);
  w->BeginArray();
  for (double v : values) w->Double(v);
  w->EndArray();
}

void WriteRun(obs::JsonWriter* w, const RunResult& r) {
  w->BeginObject();
  w->Field("name", r.name);
  w->Field("seconds", r.seconds);

  w->Key("summary");
  w->BeginObject();
  w->Field("write_kops", r.write_kops);
  w->Field("read_kops", r.read_kops);
  w->Field("scan_kops", r.scan_kops);
  w->Field("write_mbps", r.write_mbps);
  w->Field("put_avg_us", r.put_avg_us);
  w->Field("put_p99_us", r.put_p99_us);
  w->Field("put_p999_us", r.put_p999_us);
  w->Field("get_p99_us", r.get_p99_us);
  w->Field("cpu_pct", r.cpu_pct);
  w->Field("efficiency", r.efficiency);
  w->Field("stall_events", r.stall_events);
  w->Field("stalled_seconds", r.stalled_seconds);
  w->Field("slowdown_events", r.slowdown_events);
  w->Field("slowdown_periods", r.slowdown_periods);
  w->Field("zero_traffic_stall_seconds", r.zero_traffic_stall_seconds);
  w->Field("write_groups", r.write_groups);
  w->Field("group_commit_mean", r.group_commit_mean);
  w->Field("group_commit_max", r.group_commit_max);
  w->Field("redirected_writes", r.kv.redirected_writes);
  w->Field("redirected_batches", r.kv.redirected_batches);
  w->Field("rollbacks", r.kv.rollbacks);
  w->Field("detector_checks", r.kv.detector_checks);
  w->Field("fault_injected", r.fault_injected);
  w->Field("io_retries", r.io_retries);
  w->Field("background_errors", r.background_errors);
  w->Field("dev_retries", r.kv.dev_retries);
  w->Field("fallback_writes", r.kv.fallback_writes);
  w->Field("cache_hits", r.cache.hits);
  w->Field("cache_misses", r.cache.misses);
  w->Field("cache_hit_rate", r.cache.hit_rate());
  w->Field("compactions", r.compactions);
  w->Field("split_compactions", r.split_compactions);
  w->Field("subcompactions", r.subcompactions);
  w->Field("intra_l0_compactions", r.intra_l0_compactions);
  w->Field("compaction_throttle_seconds", r.compaction_throttle_seconds);
  if (!r.shards.empty()) {
    w->Field("shard_fairness_ratio", r.shard_fairness_ratio);
  }
  w->EndObject();

  // Device-offloaded compaction (DESIGN.md §13): present only when an NDP
  // engine was attached to the run.
  if (r.ndp) {
    const NdpRunStats& n = *r.ndp;
    w->Key("ndp");
    w->BeginObject();
    w->Field("mode", NameOf(kNdpModeNames, n.mode));
    w->Field("compactions", n.compactions);
    w->Field("mb_written", static_cast<double>(n.bytes_written) / 1e6);
    w->Field("fallbacks", n.fallbacks);
    w->Field("commands", n.device.commands);
    w->Field("rejected", n.device.rejected);
    w->Field("planner_device_jobs", n.planner.device_jobs);
    w->Field("planner_host_jobs", n.planner.host_jobs);
    w->Field("planner_flips", n.planner.flips);
    w->Field("planner_cooldown_rejects", n.planner.cooldown_rejects);
    w->Field("cpu_busy_seconds", n.cpu_busy_seconds);
    w->EndObject();
  }

  // HA pair (DESIGN.md §12): replication stream + measured failover.
  if (r.ha) {
    const HaRunStats& ha = *r.ha;
    const core::ReplStats& rs = ha.repl;
    w->Key("ha");
    w->BeginObject();
    w->Field("repl_ack", NameOf(check::kReplAckNames, ha.repl_ack_async));
    w->Field("wal_records", rs.wal_records);
    w->Field("intent_records", rs.intent_records);
    w->Field("repl_mb", static_cast<double>(rs.repl_bytes) / 1e6);
    w->Field("net_retries", rs.net_retries);
    w->Field("ship_failures", rs.ship_failures);
    w->Field("lost_entries", rs.lost_entries);
    w->Field("backup_dev_fallbacks", rs.backup_dev_fallbacks);
    w->Field("async_queue_peak", rs.async_queue_peak);
    w->Field("sync_ship_ms", static_cast<double>(rs.sync_ship_ns) / 1e6);
    w->Field("net_partition", ha.net_partition ? 1 : 0);
    w->Field("heartbeats", rs.heartbeat_records);
    w->Field("fenced_write_rejects", rs.fenced_write_rejects);
    w->Field("lease_expirations", rs.lease_expirations);
    const check::FailoverReport& fo = ha.failover;
    w->Key("failover");
    w->BeginObject();
    w->Field("promote_ms", static_cast<double>(fo.promote_ns) / 1e6);
    w->Field("drained_entries", fo.drained_entries);
    w->Field("checker_errors", fo.checker_errors);
    w->Field("checker_warnings", fo.checker_warnings);
    w->Field("fence_epoch", fo.fence_epoch);
    w->EndObject();
    // Partition drill: the post-run RejoinNode reconciliation measurement.
    if (ha.rejoin) {
      const check::RejoinReport& rj = *ha.rejoin;
      w->Key("rejoin");
      w->BeginObject();
      w->Field("rejoin_ms", static_cast<double>(rj.rejoin_ns) / 1e6);
      w->Field("resync_entries", rj.resync_entries);
      w->Field("resync_bytes", rj.resync_bytes);
      w->Field("quarantined_keys", rj.quarantined_keys);
      w->Field("scrub_deferred", rj.scrub_deferred);
      w->Field("checker_errors", rj.checker_errors);
      w->EndObject();
    }
    w->EndObject();
  }

  if (!r.shards.empty()) {
    w->Key("shards");
    w->BeginArray();
    for (const ShardSummary& s : r.shards) {
      w->BeginObject();
      w->Field("shard", s.shard);
      w->Field("writes", s.writes);
      w->Field("write_kops", s.write_kops);
      w->Field("put_p50_us", s.put_p50_us);
      w->Field("put_p99_us", s.put_p99_us);
      w->Field("redirected_writes", s.kv.redirected_writes);
      w->Field("redirect_admission_rejects", s.kv.redirect_admission_rejects);
      w->Field("rollbacks", s.kv.rollbacks);
      w->Field("stalled_seconds", s.stalled_seconds);
      w->Field("arbiter_grants", s.arbiter.grants);
      w->Field("arbiter_granted_bytes", s.arbiter.granted_bytes);
      w->Field("arbiter_throttles", s.arbiter.throttles);
      w->Field("arbiter_throttle_seconds",
               static_cast<double>(s.arbiter.throttle_ns) / kNanosPerSec);
      w->EndObject();
    }
    w->EndArray();
  }

  // Mixed workload matrix (DESIGN.md §14): arrival accounting measured from
  // each op's scheduled tick, alongside the classic service-time view.
  if (r.mixed_run == 1) {
    w->Key("open_loop");
    w->BeginObject();
    w->Field("arrival", NameOf(kArrivalNames, r.arrival));
    w->Field("scheduled_ops", r.scheduled_ops);
    w->Field("completed_ops", r.completed_ops);
    w->Field("abandoned_ops", r.abandoned_ops);
    w->Field("deadline_misses", r.deadline_misses);
    w->Field("ttl_deletes", r.ttl_deletes);
    w->Field("puts", r.mixed_puts);
    w->Field("gets", r.mixed_gets);
    w->Field("deletes", r.mixed_deletes);
    w->Field("scans", r.mixed_scans);
    w->Field("service_p50_us", r.service_p50_us);
    w->Field("service_p99_us", r.service_p99_us);
    w->Field("service_p999_us", r.service_p999_us);
    w->Field("arrival_p50_us", r.arrival_p50_us);
    w->Field("arrival_p99_us", r.arrival_p99_us);
    w->Field("arrival_p999_us", r.arrival_p999_us);
    w->EndObject();
  }

  if (!r.tenants.empty()) {
    w->Key("tenants");
    w->BeginArray();
    for (const TenantSummary& t : r.tenants) {
      w->BeginObject();
      w->Field("tenant", t.tenant);
      w->Field("ops", t.ops);
      w->Field("put_p50_us", t.put_p50_us);
      w->Field("put_p99_us", t.put_p99_us);
      w->Field("put_p999_us", t.put_p999_us);
      w->Field("puts", t.puts);
      w->Field("gets", t.gets);
      w->Field("deletes", t.deletes);
      w->Field("scans", t.scans);
      w->Field("ttl_deletes", t.ttl_deletes);
      w->Field("scheduled_ops", t.scheduled_ops);
      w->Field("deadline_misses", t.deadline_misses);
      w->Field("abandoned_ops", t.abandoned_ops);
      w->Field("arrival_p50_us", t.arrival_p50_us);
      w->Field("arrival_p99_us", t.arrival_p99_us);
      w->Field("arrival_p999_us", t.arrival_p999_us);
      w->EndObject();
    }
    w->EndArray();
  }

  w->Key("per_second");
  w->BeginObject();
  WriteSeries(w, "write_kops", r.per_sec_write_kops);
  WriteSeries(w, "read_kops", r.per_sec_read_kops);
  WriteSeries(w, "pcie_mbps", r.per_sec_pcie_mbps);
  w->EndObject();

  w->Key("stall_regions_sec");
  w->BeginArray();
  for (const auto& [a, b] : r.stall_regions_sec) {
    w->BeginArray();
    w->Double(a);
    w->Double(b);
    w->EndArray();
  }
  w->EndArray();

  w->Key("metrics");
  r.metrics.WriteJson(w);
  w->EndObject();
}

}  // namespace

std::string JsonReportString(const BenchConfig& config,
                             const std::vector<RunResult>& runs) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Field("schema", "kvaccel-run-v1");

  w.Key("config");
  w.BeginObject();
  w.Field("system", NameOf(kSystemNames, config.sut.kind));
  w.Field("workload", NameOf(kWorkloadNames, config.workload.type));
  w.Field("seconds", ToSecs(config.workload.duration));
  w.Field("scale", config.scale);
  w.Field("compaction_threads", config.sut.compaction_threads);
  w.Field("value_size", config.workload.value_size);
  w.Field("key_space", config.workload.key_space);
  w.Field("read_threads", config.workload.read_threads);
  w.Field("writer_threads", config.workload.writer_threads);
  w.Field("batch_size", config.workload.batch_size);
  w.Field("seed", config.workload.seed);
  w.Field("workload_mix", config.workload.mix_spec);
  w.Field("arrival", NameOf(kArrivalNames, config.workload.arrival));
  w.Field("arrival_rate", config.workload.arrival_rate);
  w.Field("key_dist",
          NameOf(kKeyDistNames, config.workload.default_profile.dist));
  w.Field("zipf_theta", config.workload.default_profile.zipf_theta);
  w.Field("hotspot_frac", config.workload.default_profile.hotspot_frac);
  w.Field("hotspot_opfrac", config.workload.default_profile.hotspot_opfrac);
  w.Field("ttl_frac", config.workload.ttl_frac);
  w.Field("ttl_s", config.workload.ttl_s);
  w.Field("deadline_us", config.workload.deadline_us);
  w.Field("max_subcompactions", config.sut.max_subcompactions);
  w.Field("shards", config.sut.shards);
  w.Field("tenants", config.workload.tenants);
  w.Field("ndp", NameOf(kNdpModeNames, config.sut.ndp_mode));
  w.Field("ha", config.sut.ha);
  w.Field("repl_ack",
          NameOf(check::kReplAckNames, config.sut.repl_ack_async));
  w.Field("net_mbps", config.sut.net_mbps);
  w.Field("net_latency_us", config.sut.net_latency_us);
  w.Field("net_partition_start_s", config.sut.net_partition_start_s);
  w.Field("net_partition_dur_s", config.sut.net_partition_dur_s);
  w.Field("fault_profile", config.fault_profile);
  w.Field("fault_seed", config.fault_seed);
  w.Field("nemesis_seed", config.nemesis_seed);
  w.Field("trace_dump_dir", config.trace_dump_dir);
  w.EndObject();

  w.Key("runs");
  w.BeginArray();
  for (const RunResult& r : runs) WriteRun(&w, r);
  w.EndArray();

  w.Key("shape_checks");
  w.BeginArray();
  for (const ShapeCheck& c : ShapeResults()) {
    w.BeginObject();
    w.Field("description", c.description);
    w.Field("ok", c.ok);
    w.EndObject();
  }
  w.EndArray();

  w.EndObject();
  return w.str();
}

bool WriteJsonReport(const std::string& path, const BenchConfig& config,
                     const std::vector<RunResult>& runs) {
  std::string body = JsonReportString(config, runs);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "json report: cannot open %s\n", path.c_str());
    return false;
  }
  bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  ok = std::fputc('\n', f) != EOF && ok;
  if (std::fclose(f) != 0) ok = false;
  if (!ok) fprintf(stderr, "json report: write to %s failed\n", path.c_str());
  return ok;
}

}  // namespace kvaccel::harness
