// kvaccel_dbbench: db_bench-style command-line driver over the simulation.
//
//   build/tools/kvaccel_dbbench --system=kvaccel --workload=fillrandom
//       --seconds=60 --threads=1 --scale=0.125 --value_size=4096
//
// `--help` lists every flag; the table is harness::DbbenchFlags
// (src/harness/workload.cc). Flags apply in command-line order, so
// --workload_mix (which implies --workload=mixed) can be overridden by a
// later --workload. A bad value, an unknown flag or an invalid combination
// exits 2 with a message naming the flag.
#include <cstdio>
#include <string>

#include "harness/report.h"
#include "harness/report_json.h"
#include "harness/workload.h"

using namespace kvaccel;
using namespace kvaccel::harness;

int main(int argc, char** argv) {
  DbbenchArgs args;
  DbbenchFlags(&args).Parse(argc, argv);
  const std::string error = DbbenchConfigError(args);
  if (!error.empty()) {
    fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  const BenchConfig& config = args.config;

  RunResult r = RunBenchmark(config);

  printf("system            : %s\n", r.name.c_str());
  printf("window            : %.1f virtual seconds (scale %.3g)\n",
         r.seconds, config.scale);
  printf("write throughput  : %.1f Kops/s (%.1f MB/s)\n", r.write_kops,
         r.write_mbps);
  if (r.read_kops > 0) {
    printf("read throughput   : %.1f Kops/s\n", r.read_kops);
  }
  if (r.scan_kops > 0) {
    printf("scan throughput   : %.1f Kops/s (seek+next)\n", r.scan_kops);
  }
  printf("put latency       : avg %.1f us, P99 %.1f us, P99.9 %.1f us\n",
         r.put_avg_us, r.put_p99_us, r.put_p999_us);
  printf("host CPU          : %.1f%%   efficiency (MB/s / CPU%%): %.2f\n",
         r.cpu_pct, r.efficiency);
  printf("stalls            : %llu events, %.1f s total; slowdown periods: "
         "%llu (%llu delayed writes)\n",
         static_cast<unsigned long long>(r.stall_events), r.stalled_seconds,
         static_cast<unsigned long long>(r.slowdown_periods),
         static_cast<unsigned long long>(r.slowdown_events));
  printf("group commit      : %llu groups, mean %.2f entries/group "
         "(max %llu)\n",
         static_cast<unsigned long long>(r.write_groups),
         r.group_commit_mean,
         static_cast<unsigned long long>(r.group_commit_max));
  printf("block cache       : %llu hits / %llu misses (%.1f%% hit rate)\n",
         static_cast<unsigned long long>(r.cache.hits),
         static_cast<unsigned long long>(r.cache.misses),
         r.cache.hit_rate() * 100.0);
  printf("compactions       : %llu jobs (%llu split into %llu subcompactions, "
         "%llu intra-L0), %.1f s throttled\n",
         static_cast<unsigned long long>(r.compactions),
         static_cast<unsigned long long>(r.split_compactions),
         static_cast<unsigned long long>(r.subcompactions),
         static_cast<unsigned long long>(r.intra_l0_compactions),
         r.compaction_throttle_seconds);
  if (config.sut.kind == SystemKind::kKvaccel) {
    printf("kvaccel           : %llu redirected writes (%llu batches), "
           "%llu rollbacks, %llu detector checks\n",
           static_cast<unsigned long long>(r.kv.redirected_writes),
           static_cast<unsigned long long>(r.kv.redirected_batches),
           static_cast<unsigned long long>(r.kv.rollbacks),
           static_cast<unsigned long long>(r.kv.detector_checks));
  }
  if (r.ndp) {
    const NdpRunStats& n = *r.ndp;
    printf("ndp offload       : %s mode, %llu device compactions "
           "(%.1f MB written), %llu fallbacks, planner %llu device / "
           "%llu host jobs\n",
           NameOf(kNdpModeNames, n.mode),
           static_cast<unsigned long long>(n.compactions),
           static_cast<double>(n.bytes_written) / 1e6,
           static_cast<unsigned long long>(n.fallbacks),
           static_cast<unsigned long long>(n.planner.device_jobs),
           static_cast<unsigned long long>(n.planner.host_jobs));
  }
  if (r.ha) {
    const core::ReplStats& rs = r.ha->repl;
    const check::FailoverReport& fo = r.ha->failover;
    printf("ha replication    : %s acks, %llu wal records + %llu intent "
           "records (%.1f MB shipped), %llu net retries, %llu lost entries\n",
           NameOf(check::kReplAckNames, r.ha->repl_ack_async),
           static_cast<unsigned long long>(rs.wal_records),
           static_cast<unsigned long long>(rs.intent_records),
           static_cast<double>(rs.repl_bytes) / 1e6,
           static_cast<unsigned long long>(rs.net_retries),
           static_cast<unsigned long long>(rs.lost_entries));
    printf("ha failover       : promoted backup in %.2f ms, %llu mirror "
           "entries drained, %d checker errors (%d warnings)\n",
           static_cast<double>(fo.promote_ns) / 1e6,
           static_cast<unsigned long long>(fo.drained_entries),
           fo.checker_errors, fo.checker_warnings);
    if (r.ha->net_partition) {
      printf("ha partition      : %llu fenced write rejects, %llu lease "
             "expirations, %llu heartbeats, promoted at epoch %llu\n",
             static_cast<unsigned long long>(rs.fenced_write_rejects),
             static_cast<unsigned long long>(rs.lease_expirations),
             static_cast<unsigned long long>(rs.heartbeat_records),
             static_cast<unsigned long long>(fo.fence_epoch));
    }
    if (r.ha->rejoin) {
      const check::RejoinReport& rj = *r.ha->rejoin;
      printf("ha rejoin         : resync in %.2f ms, %llu entries "
             "(%llu quarantined), %llu scrubs deferred, %d checker errors\n",
             static_cast<double>(rj.rejoin_ns) / 1e6,
             static_cast<unsigned long long>(rj.resync_entries),
             static_cast<unsigned long long>(rj.quarantined_keys),
             static_cast<unsigned long long>(rj.scrub_deferred),
             rj.checker_errors);
    }
  }
  if (!r.shards.empty()) {
    for (const ShardSummary& s : r.shards) {
      printf("shard %-3d         : %.1f Kops/s, p50 %.1f us, p99 %.1f us, "
             "%llu redirected (%llu rejected), %.1f s stalled, "
             "arbiter %llu/%llu grants throttled (%.2f s)\n",
             s.shard, s.write_kops, s.put_p50_us, s.put_p99_us,
             static_cast<unsigned long long>(s.kv.redirected_writes),
             static_cast<unsigned long long>(s.kv.redirect_admission_rejects),
             s.stalled_seconds,
             static_cast<unsigned long long>(s.arbiter.throttles),
             static_cast<unsigned long long>(s.arbiter.grants),
             static_cast<double>(s.arbiter.throttle_ns) / kNanosPerSec);
    }
    printf("shard fairness    : max/min throughput ratio %.2f\n",
           r.shard_fairness_ratio);
  }
  if (r.mixed_run == 1) {
    printf("open loop         : %s arrivals, %llu scheduled, %llu completed, "
           "%llu abandoned, %llu deadline misses (%llu ttl deletes)\n",
           NameOf(kArrivalNames, r.arrival),
           static_cast<unsigned long long>(r.scheduled_ops),
           static_cast<unsigned long long>(r.completed_ops),
           static_cast<unsigned long long>(r.abandoned_ops),
           static_cast<unsigned long long>(r.deadline_misses),
           static_cast<unsigned long long>(r.ttl_deletes));
    printf("service latency   : p50 %.1f us, p99 %.1f us, p99.9 %.1f us "
           "(from issue)\n",
           r.service_p50_us, r.service_p99_us, r.service_p999_us);
    printf("arrival latency   : p50 %.1f us, p99 %.1f us, p99.9 %.1f us "
           "(from scheduled arrival)\n",
           r.arrival_p50_us, r.arrival_p99_us, r.arrival_p999_us);
  }
  for (const TenantSummary& t : r.tenants) {
    printf("tenant %-2d         : %llu ops, p50 %.1f us, p99 %.1f us, "
           "p99.9 %.1f us",
           t.tenant, static_cast<unsigned long long>(t.ops), t.put_p50_us,
           t.put_p99_us, t.put_p999_us);
    if (t.scheduled_ops > 0) {
      printf("; arrival p99.9 %.1f us, %llu deadline misses, %llu abandoned",
             t.arrival_p999_us,
             static_cast<unsigned long long>(t.deadline_misses),
             static_cast<unsigned long long>(t.abandoned_ops));
    }
    printf("\n");
  }
  if (!config.fault_profile.empty()) {
    printf("faults            : profile %s (seed %llu): %llu injected, "
           "%llu retries, %llu background errors",
           config.fault_profile.c_str(),
           static_cast<unsigned long long>(config.fault_seed),
           static_cast<unsigned long long>(r.fault_injected),
           static_cast<unsigned long long>(r.io_retries),
           static_cast<unsigned long long>(r.background_errors));
    if (config.sut.kind == SystemKind::kKvaccel) {
      printf(", %llu dev retries, %llu fallback writes",
             static_cast<unsigned long long>(r.kv.dev_retries),
             static_cast<unsigned long long>(r.kv.fallback_writes));
    }
    printf("\n");
  }
  if (args.series) {
    PrintSeries("write Kops/s", r.per_sec_write_kops, "Kops/s");
    if (r.read_kops > 0) {
      PrintSeries("read Kops/s", r.per_sec_read_kops, "Kops/s");
    }
    PrintSeries("PCIe MB/s", r.per_sec_pcie_mbps, "MB/s");
    PrintStallRegions(r);
  }
  if (!config.trace_out.empty()) {
    printf("trace             : %s (load in Perfetto / chrome://tracing)\n",
           config.trace_out.c_str());
  }
  if (!args.json_out.empty()) {
    if (!WriteJsonReport(args.json_out, config, {r})) return 1;
    printf("json report       : %s\n", args.json_out.c_str());
  }
  return 0;
}
