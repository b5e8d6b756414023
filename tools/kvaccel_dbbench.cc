// kvaccel_dbbench: db_bench-style command-line driver over the simulation.
//
//   build/tools/kvaccel_dbbench --system=kvaccel --workload=fillrandom \
//       --seconds=60 --threads=1 --scale=0.125 --value_size=4096
//
// Flags:
//   --system=rocksdb|adoc|kvaccel     system under test (default rocksdb)
//   --workload=fillrandom|readwhilewriting|seekrandom|mixed
//                      (default fillrandom; mixed = the open-loop workload
//                      matrix, DESIGN.md §14)
//   --seconds=N        measurement window, virtual seconds (default 60)
//   --scale=F          size scale; 1.0 = paper scale (default 0.125, at
//                      most 64: a 16 TiB device)
//   --threads=N        compaction threads (default 1)
//   --value_size=N     value bytes (default 4096)
//   --key_space=N      key draw range (default 2^31)
//   --read_threads=N   readers for readwhilewriting (default 1)
//   --writer_threads=N concurrent writer actors (default 1)
//   --batch_size=N     entries per WriteBatch per writer op (default 1)
//   --rollback=lazy|eager|disabled    KVACCEL rollback scheme (default lazy)
//   --no_slowdown      disable the baselines' delayed-write mechanism
//   --seed=N           workload seed (default 42)
//   --fault_profile=P  arm a canned fault profile: flaky-nvme | bitrot |
//                      power-cut | devlsm-dead (see harness/fault_profiles.h)
//   --fault_seed=N     fault injector RNG seed (default 1); the same
//                      profile+seed reproduces the identical fault sequence
//   --series           print per-second throughput / PCIe series
//   --trace_out=FILE   write a Chrome trace-event JSON of the run (open in
//                      Perfetto / chrome://tracing); off when omitted
//   --json_out=FILE    write the machine-readable kvaccel-run-v1 report
//                      (metrics snapshot + per-second series)
//   --nemesis_seed=N   nemesis schedule seed echoed into the report config
//                      block (0 = none; see tools/kvaccel_nemesis)
//   --trace_dump_dir=D nemesis divergence-dump directory, echoed into the
//                      report config block
//   --db_dump_dir=D    export the final simulated file-system image to a
//                      host directory after Close, for offline inspection
//                      with tools/kvaccel_check
//   --max_subcompactions=N  cap on range-partitioned subcompactions per
//                      compaction job (0 = DbOptions default; 1 disables
//                      splitting entirely)
//   --compaction_rate_limit=F  deep-compaction I/O cap as a fraction of
//                      device NAND bandwidth, in (0, 1]; 0 = unlimited
//   --nand_mbps=F      override the simulated NAND bandwidth in MB/s
//                      (ablation hook; 0 = preset 630 MB/s)
//   --shards=N         KVACCEL only: shard-per-core engine with N shards,
//                      one SSD namespace/WAL/memtable/Detector each
//                      (default 1 = plain single-shard facade)
//   --tenants=N        carve the key space into N per-tenant slices with at
//                      least one writer each; per-tenant p50/p99 reported
//   --shard_partition=hash|range  key-to-shard mapping (default hash)
//   --redirect_policy=global|per_shard  Dev-LSM capacity competition policy
//                      (default global)
//   --arbiter_share=F  fair-share bandwidth arbiter serving rate as a
//                      fraction of NAND bandwidth in [0, 1]; 0 disables
//   --ndp=off|auto|force  KVACCEL only: device-offloaded compaction
//                      (DESIGN.md §13). auto = placement planner chooses
//                      host vs device per job; force = every job offloads
//                      (default off)
//   --ndp_cores=N      dedicated NDP cores on the device (0 = share the
//                      firmware core; default 2)
//   --ha               KVACCEL only (shards=1): open a two-node replicated
//                      pair (DESIGN.md §12); after the window the primary is
//                      "lost" and the backup's promotion is measured into
//                      the report's ha.failover block
//   --repl_ack=sync|async  HA ack discipline: sync = acks wait for the
//                      backup (no acked write lost), async = bounded tail
//                      may be lost at cutover (default sync)
//   --net_mbps=F       HA interconnect bandwidth in MB/s (default 1250)
//   --net_latency_us=F HA interconnect one-way latency (default 30)
//   --lease_ms=F       HA lease duration; a partitioned primary self-fences
//                      once it goes this long without a backup round trip
//                      (default 50)
//   --heartbeat_ms=F   HA heartbeat/lease-renewal period (default 10)
//   --fence_epoch=N    fencing epoch the pair starts at; Open adopts the
//                      max of this and any durable FENCE epochs on either
//                      node (default 1)
//   --net_partition=START:DUR  HA only: cut the interconnect symmetrically
//                      START seconds into the window for DUR seconds. The
//                      primary self-fences on lease lapse (writers back off
//                      through the Busy window), and the post-run failover
//                      becomes a full partition drill: promote under a
//                      bumped fencing epoch, then reconcile the deposed
//                      node back with the rejoin measurement in the
//                      report's ha.rejoin block
//   --resync_mode=MODE delta (default: rejoin ships flushed state through
//                      the WAL-bypassing ingest path) or wal (full replay
//                      through the write path)
//   --workload_mix=SPEC  mixed only (implies --workload=mixed): ';'-separated
//                      per-tenant op streams, each a preset (write-heavy,
//                      balanced, churn, analytics) or k=v fields (put=, get=,
//                      del=, scan=, scanlen=, dist=uniform|zipfian|hotspot,
//                      theta=, hot_frac=, hot_ops=); tenant t gets segment
//                      t % count
//   --arrival=MODE     closed | poisson | diurnal | spike (default closed).
//                      Open-loop modes schedule arrivals in virtual time and
//                      measure latency from the scheduled tick too, so stall
//                      queueing is not hidden by coordinated omission
//   --arrival_rate=F   total scheduled ops/s across tenants (default 20000)
//   --zipf_theta=F     default-profile Zipfian key popularity, theta in (0,1)
//   --hotspot=FRAC:OPFRAC  default-profile hotspot popularity: the first
//                      FRAC of each tenant slice gets OPFRAC of the draws
//   --ttl_frac=F       fraction of mixed puts tagged with a TTL (default 0)
//   --ttl_s=F          TTL duration in virtual seconds (default 2)
//   --deadline_us=F    arrival-deadline for deadline-miss counters
//                      (default 1000)
//   --list_fault_sites print every registered fault/crash site and exit
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/flags.h"
#include "harness/report.h"
#include "harness/report_json.h"
#include "harness/workload.h"
#include "sim/fault.h"

using namespace kvaccel;
using namespace kvaccel::harness;

namespace {

bool FlagEq(const char* arg, const char* name, const char** value) {
  size_t n = strlen(name);
  if (strncmp(arg, name, n) != 0) return false;
  if (arg[n] == '\0') {
    *value = "";
    return true;
  }
  if (arg[n] == '=') {
    *value = arg + n + 1;
    return true;
  }
  return false;
}

void Usage() {
  fprintf(stderr,
          "usage: kvaccel_dbbench [--system=rocksdb|adoc|kvaccel]\n"
          "  [--workload=fillrandom|readwhilewriting|seekrandom|mixed]\n"
          "  [--workload_mix=SPEC] [--arrival=closed|poisson|diurnal|spike]\n"
          "  [--arrival_rate=F] [--zipf_theta=F] [--hotspot=FRAC:OPFRAC]\n"
          "  [--ttl_frac=F] [--ttl_s=F] [--deadline_us=F]\n"
          "  [--seconds=N] [--scale=F] [--threads=N] [--value_size=N]\n"
          "  [--key_space=N] [--read_threads=N] [--writer_threads=N]\n"
          "  [--batch_size=N]\n"
          "  [--rollback=lazy|eager|disabled] [--no_slowdown] [--seed=N]\n"
          "  [--fault_profile=flaky-nvme|bitrot|power-cut|devlsm-dead]\n"
          "  [--fault_seed=N] [--series]\n"
          "  [--trace_out=FILE] [--json_out=FILE]\n"
          "  [--nemesis_seed=N] [--trace_dump_dir=DIR] [--db_dump_dir=DIR]\n"
          "  [--max_subcompactions=N] [--compaction_rate_limit=F]\n"
          "  [--nand_mbps=F] [--shards=N] [--tenants=N]\n"
          "  [--shard_partition=hash|range]\n"
          "  [--redirect_policy=global|per_shard] [--arbiter_share=F]\n"
          "  [--ndp=off|auto|force] [--ndp_cores=N]\n"
          "  [--ha] [--repl_ack=sync|async] [--net_mbps=F]\n"
          "  [--net_latency_us=F] [--net_partition=START:DUR]\n"
          "  [--lease_ms=F] [--heartbeat_ms=F] [--fence_epoch=N]\n"
          "  [--resync_mode=delta|wal] [--list_fault_sites]\n");
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  config.scale = 0.125;
  config.sut.kind = SystemKind::kRocksDB;
  config.sut.compaction_threads = 1;
  config.workload.duration = FromSecs(60);
  bool print_series = false;
  bool saw_zipf = false, saw_hotspot = false;
  std::string json_out;

  for (int i = 1; i < argc; i++) {
    const char* v = nullptr;
    if (FlagEq(argv[i], "--system", &v)) {
      if (strcmp(v, "rocksdb") == 0) {
        config.sut.kind = SystemKind::kRocksDB;
      } else if (strcmp(v, "adoc") == 0) {
        config.sut.kind = SystemKind::kAdoc;
      } else if (strcmp(v, "kvaccel") == 0) {
        config.sut.kind = SystemKind::kKvaccel;
      } else {
        Usage();
        return 2;
      }
    } else if (FlagEq(argv[i], "--workload", &v)) {
      if (strcmp(v, "fillrandom") == 0) {
        config.workload.type = WorkloadConfig::Type::kFillRandom;
      } else if (strcmp(v, "readwhilewriting") == 0) {
        config.workload.type = WorkloadConfig::Type::kReadWhileWriting;
      } else if (strcmp(v, "seekrandom") == 0) {
        config.workload.type = WorkloadConfig::Type::kSeekRandom;
      } else if (strcmp(v, "mixed") == 0) {
        config.workload.type = WorkloadConfig::Type::kMixed;
      } else {
        Usage();
        return 2;
      }
    } else if (FlagEq(argv[i], "--seconds", &v)) {
      config.workload.duration = FromSecs(ParseFlagDouble(v, "--seconds"));
    } else if (FlagEq(argv[i], "--scale", &v)) {
      config.scale = ParseFlagDouble(v, "--scale", 0.0, kMaxScale);
    } else if (FlagEq(argv[i], "--threads", &v)) {
      config.sut.compaction_threads =
          static_cast<int>(ParseFlagInt(v, "--threads", /*min_value=*/1));
    } else if (FlagEq(argv[i], "--value_size", &v)) {
      config.workload.value_size = static_cast<uint32_t>(
          ParseFlagInt(v, "--value_size", /*min_value=*/1));
    } else if (FlagEq(argv[i], "--key_space", &v)) {
      config.workload.key_space = ParseFlagUint64(v, "--key_space");
    } else if (FlagEq(argv[i], "--read_threads", &v)) {
      config.workload.read_threads =
          static_cast<int>(ParseFlagInt(v, "--read_threads"));
    } else if (FlagEq(argv[i], "--writer_threads", &v)) {
      config.workload.writer_threads = static_cast<int>(
          ParseFlagInt(v, "--writer_threads", /*min_value=*/1));
    } else if (FlagEq(argv[i], "--batch_size", &v)) {
      config.workload.batch_size =
          static_cast<int>(ParseFlagInt(v, "--batch_size", /*min_value=*/1));
    } else if (FlagEq(argv[i], "--rollback", &v)) {
      if (strcmp(v, "lazy") == 0) {
        config.sut.rollback = core::RollbackScheme::kLazy;
      } else if (strcmp(v, "eager") == 0) {
        config.sut.rollback = core::RollbackScheme::kEager;
      } else if (strcmp(v, "disabled") == 0) {
        config.sut.rollback = core::RollbackScheme::kDisabled;
      } else {
        Usage();
        return 2;
      }
    } else if (FlagEq(argv[i], "--no_slowdown", &v)) {
      config.sut.enable_slowdown = false;
    } else if (FlagEq(argv[i], "--seed", &v)) {
      config.workload.seed = ParseFlagUint64(v, "--seed");
    } else if (FlagEq(argv[i], "--fault_profile", &v)) {
      config.fault_profile = v;
    } else if (FlagEq(argv[i], "--fault_seed", &v)) {
      config.fault_seed = ParseFlagUint64(v, "--fault_seed");
    } else if (FlagEq(argv[i], "--series", &v)) {
      print_series = true;
    } else if (FlagEq(argv[i], "--trace_out", &v)) {
      config.trace_out = v;
    } else if (FlagEq(argv[i], "--json_out", &v)) {
      json_out = v;
    } else if (FlagEq(argv[i], "--nemesis_seed", &v)) {
      config.nemesis_seed = ParseFlagUint64(v, "--nemesis_seed");
    } else if (FlagEq(argv[i], "--trace_dump_dir", &v)) {
      config.trace_dump_dir = v;
    } else if (FlagEq(argv[i], "--db_dump_dir", &v)) {
      config.db_dump_dir = v;
    } else if (FlagEq(argv[i], "--max_subcompactions", &v)) {
      config.sut.max_subcompactions =
          static_cast<int>(ParseFlagInt(v, "--max_subcompactions"));
    } else if (FlagEq(argv[i], "--compaction_rate_limit", &v)) {
      config.sut.compaction_rate_limit =
          ParseFlagDouble(v, "--compaction_rate_limit");
      if (config.sut.compaction_rate_limit > 1.0) {
        fprintf(stderr, "--compaction_rate_limit must be in [0, 1]\n");
        return 2;
      }
    } else if (FlagEq(argv[i], "--nand_mbps", &v)) {
      config.nand_mbps = ParseFlagDouble(v, "--nand_mbps");
    } else if (FlagEq(argv[i], "--shards", &v)) {
      config.sut.shards =
          static_cast<int>(ParseFlagInt(v, "--shards", /*min_value=*/1));
    } else if (FlagEq(argv[i], "--tenants", &v)) {
      config.workload.tenants =
          static_cast<int>(ParseFlagInt(v, "--tenants", /*min_value=*/1));
    } else if (FlagEq(argv[i], "--shard_partition", &v)) {
      if (strcmp(v, "hash") == 0) {
        config.sut.shard_partition = core::ShardPartition::kHash;
      } else if (strcmp(v, "range") == 0) {
        config.sut.shard_partition = core::ShardPartition::kRange;
      } else {
        Usage();
        return 2;
      }
    } else if (FlagEq(argv[i], "--redirect_policy", &v)) {
      if (strcmp(v, "global") == 0) {
        config.sut.redirect_policy = core::RedirectBudgetPolicy::kGlobal;
      } else if (strcmp(v, "per_shard") == 0) {
        config.sut.redirect_policy = core::RedirectBudgetPolicy::kPerShard;
      } else {
        Usage();
        return 2;
      }
    } else if (FlagEq(argv[i], "--arbiter_share", &v)) {
      config.sut.arbiter_share = ParseFlagDouble(v, "--arbiter_share");
      if (config.sut.arbiter_share > 1.0) {
        fprintf(stderr, "--arbiter_share must be in [0, 1]\n");
        return 2;
      }
    } else if (FlagEq(argv[i], "--ndp", &v)) {
      if (strcmp(v, "off") == 0) {
        config.sut.ndp_mode = ndp::OffloadMode::kOff;
      } else if (strcmp(v, "auto") == 0) {
        config.sut.ndp_mode = ndp::OffloadMode::kAuto;
      } else if (strcmp(v, "force") == 0) {
        config.sut.ndp_mode = ndp::OffloadMode::kForce;
      } else {
        fprintf(stderr, "--ndp must be off, auto or force, got %s\n", v);
        return 2;
      }
    } else if (FlagEq(argv[i], "--ndp_cores", &v)) {
      config.sut.ndp_cores =
          static_cast<int>(ParseFlagInt(v, "--ndp_cores"));
    } else if (strcmp(argv[i], "--ha") == 0) {
      config.sut.ha = true;
    } else if (FlagEq(argv[i], "--repl_ack", &v)) {
      if (strcmp(v, "sync") == 0) {
        config.sut.repl_ack_async = false;
      } else if (strcmp(v, "async") == 0) {
        config.sut.repl_ack_async = true;
      } else {
        fprintf(stderr, "--repl_ack must be sync or async, got %s\n", v);
        return 2;
      }
    } else if (FlagEq(argv[i], "--net_mbps", &v)) {
      config.sut.net_mbps = ParseFlagDouble(v, "--net_mbps");
    } else if (FlagEq(argv[i], "--net_latency_us", &v)) {
      config.sut.net_latency_us = ParseFlagDouble(v, "--net_latency_us");
    } else if (FlagEq(argv[i], "--lease_ms", &v)) {
      config.sut.lease_ms = ParseFlagDouble(v, "--lease_ms");
    } else if (FlagEq(argv[i], "--heartbeat_ms", &v)) {
      config.sut.heartbeat_ms = ParseFlagDouble(v, "--heartbeat_ms");
    } else if (FlagEq(argv[i], "--fence_epoch", &v)) {
      config.sut.fence_epoch = ParseFlagUint64(v, "--fence_epoch");
    } else if (FlagEq(argv[i], "--net_partition", &v)) {
      const char* colon = strchr(v, ':');
      if (colon == nullptr) {
        fprintf(stderr, "--net_partition must be START:DUR seconds, got %s\n",
                v);
        return 2;
      }
      config.sut.net_partition_start_s =
          ParseFlagDouble(std::string(v, colon - v).c_str(),
                          "--net_partition start");
      config.sut.net_partition_dur_s =
          ParseFlagDouble(colon + 1, "--net_partition duration");
    } else if (FlagEq(argv[i], "--resync_mode", &v)) {
      if (strcmp(v, "delta") == 0) {
        config.sut.resync_mode = 1;
      } else if (strcmp(v, "wal") == 0) {
        config.sut.resync_mode = 0;
      } else {
        fprintf(stderr, "--resync_mode must be delta or wal, got %s\n", v);
        return 2;
      }
    } else if (FlagEq(argv[i], "--workload_mix", &v)) {
      config.workload.mix_spec = v;
      config.workload.type = WorkloadConfig::Type::kMixed;
      std::string err;
      if (!ParseWorkloadMix(v, &config.workload.profiles, &err)) {
        fprintf(stderr, "--workload_mix: %s\n", err.c_str());
        return 2;
      }
    } else if (FlagEq(argv[i], "--arrival", &v)) {
      if (strcmp(v, "closed") == 0) {
        config.workload.arrival = Arrival::kClosed;
      } else if (strcmp(v, "poisson") == 0) {
        config.workload.arrival = Arrival::kPoisson;
      } else if (strcmp(v, "diurnal") == 0) {
        config.workload.arrival = Arrival::kDiurnal;
      } else if (strcmp(v, "spike") == 0) {
        config.workload.arrival = Arrival::kSpike;
      } else {
        fprintf(stderr,
                "--arrival must be closed, poisson, diurnal or spike, "
                "got %s\n", v);
        return 2;
      }
    } else if (FlagEq(argv[i], "--arrival_rate", &v)) {
      config.workload.arrival_rate =
          ParseFlagDouble(v, "--arrival_rate", /*min_value=*/1);
    } else if (FlagEq(argv[i], "--zipf_theta", &v)) {
      double theta = ParseFlagDouble(v, "--zipf_theta");
      if (theta <= 0 || theta >= 1) {
        fprintf(stderr, "--zipf_theta must be in (0, 1), got %s\n", v);
        return 2;
      }
      config.workload.default_profile.dist = KeyDist::kZipfian;
      config.workload.default_profile.zipf_theta = theta;
      saw_zipf = true;
    } else if (FlagEq(argv[i], "--hotspot", &v)) {
      const char* colon = strchr(v, ':');
      if (colon == nullptr) {
        fprintf(stderr, "--hotspot must be FRAC:OPFRAC, got %s\n", v);
        return 2;
      }
      double frac = ParseFlagDouble(std::string(v, colon - v).c_str(),
                                    "--hotspot fraction");
      double opfrac = ParseFlagDouble(colon + 1, "--hotspot op fraction");
      if (frac <= 0 || frac > 1 || opfrac <= 0 || opfrac > 1) {
        fprintf(stderr, "--hotspot fractions must be in (0, 1], got %s\n", v);
        return 2;
      }
      config.workload.default_profile.dist = KeyDist::kHotspot;
      config.workload.default_profile.hotspot_frac = frac;
      config.workload.default_profile.hotspot_opfrac = opfrac;
      saw_hotspot = true;
    } else if (FlagEq(argv[i], "--ttl_frac", &v)) {
      config.workload.ttl_frac = ParseFlagDouble(v, "--ttl_frac");
      if (config.workload.ttl_frac > 1.0) {
        fprintf(stderr, "--ttl_frac must be in [0, 1]\n");
        return 2;
      }
    } else if (FlagEq(argv[i], "--ttl_s", &v)) {
      config.workload.ttl_s = ParseFlagDouble(v, "--ttl_s");
    } else if (FlagEq(argv[i], "--deadline_us", &v)) {
      config.workload.deadline_us = ParseFlagDouble(v, "--deadline_us");
    } else if (strcmp(argv[i], "--list_fault_sites") == 0) {
      for (const auto& site : sim::KnownFaultSites()) {
        printf("%-28s %s\n", site.site, site.what);
      }
      return 0;
    } else if (strcmp(argv[i], "--help") == 0) {
      Usage();
      return 0;
    } else {
      fprintf(stderr, "unknown flag: %s\n", argv[i]);
      Usage();
      return 2;
    }
  }

  if (config.sut.shards > 1 && config.sut.kind != SystemKind::kKvaccel) {
    fprintf(stderr, "--shards>1 requires --system=kvaccel\n");
    return 2;
  }
  if (config.sut.ha) {
    if (config.sut.kind != SystemKind::kKvaccel) {
      fprintf(stderr, "--ha requires --system=kvaccel\n");
      return 2;
    }
    if (config.sut.shards > 1) {
      fprintf(stderr, "--ha requires --shards=1\n");
      return 2;
    }
  }
  if (config.sut.ndp_mode != ndp::OffloadMode::kOff &&
      config.sut.kind != SystemKind::kKvaccel) {
    fprintf(stderr, "--ndp requires --system=kvaccel\n");
    return 2;
  }
  if (saw_zipf && saw_hotspot) {
    fprintf(stderr, "--zipf_theta and --hotspot are mutually exclusive\n");
    return 2;
  }
  if (config.workload.arrival != Arrival::kClosed &&
      config.workload.type != WorkloadConfig::Type::kMixed) {
    fprintf(stderr, "--arrival=%s requires --workload=mixed\n",
            config.workload.arrival == Arrival::kPoisson   ? "poisson"
            : config.workload.arrival == Arrival::kDiurnal ? "diurnal"
                                                           : "spike");
    return 2;
  }
  if (config.workload.ttl_frac > 0 &&
      config.workload.type != WorkloadConfig::Type::kMixed) {
    fprintf(stderr, "--ttl_frac requires --workload=mixed\n");
    return 2;
  }

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
         static_cast<unsigned long long>(r.cache_hits),
         static_cast<unsigned long long>(r.cache_misses),
         r.cache_hit_rate * 100.0);
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
           static_cast<unsigned long long>(r.redirected_writes),
           static_cast<unsigned long long>(r.redirected_batches),
           static_cast<unsigned long long>(r.rollbacks),
           static_cast<unsigned long long>(r.detector_checks));
  }
  if (r.ndp_mode >= 0) {
    printf("ndp offload       : %s mode, %llu device compactions "
           "(%.1f MB written), %llu fallbacks, planner %llu device / "
           "%llu host jobs\n",
           r.ndp_mode == 1 ? "force" : "auto",
           static_cast<unsigned long long>(r.ndp_compactions),
           r.ndp_mb_written,
           static_cast<unsigned long long>(r.ndp_fallbacks),
           static_cast<unsigned long long>(r.ndp_planner_device_jobs),
           static_cast<unsigned long long>(r.ndp_planner_host_jobs));
  }
  if (r.ha_repl_ack >= 0) {
    printf("ha replication    : %s acks, %llu wal records + %llu intent "
           "records (%.1f MB shipped), %llu net retries, %llu lost entries\n",
           r.ha_repl_ack == 1 ? "async" : "sync",
           static_cast<unsigned long long>(r.ha_wal_records),
           static_cast<unsigned long long>(r.ha_intent_records), r.ha_repl_mb,
           static_cast<unsigned long long>(r.ha_net_retries),
           static_cast<unsigned long long>(r.ha_lost_entries));
    printf("ha failover       : promoted backup in %.2f ms, %llu mirror "
           "entries drained, %d checker errors (%d warnings)\n",
           r.ha_failover_ms,
           static_cast<unsigned long long>(r.ha_failover_drained),
           r.ha_failover_checker_errors, r.ha_failover_checker_warnings);
    if (r.ha_net_partition != 0) {
      printf("ha partition      : %llu fenced write rejects, %llu lease "
             "expirations, %llu heartbeats, promoted at epoch %llu\n",
             static_cast<unsigned long long>(r.ha_fenced_rejects),
             static_cast<unsigned long long>(r.ha_lease_expirations),
             static_cast<unsigned long long>(r.ha_heartbeats),
             static_cast<unsigned long long>(r.ha_fence_epoch));
    }
    if (r.ha_resync_mode >= 0) {
      printf("ha rejoin         : %s resync in %.2f ms, %llu entries "
             "(%llu quarantined), %llu write-path bytes vs %llu wal-replay "
             "bytes, %llu scrubs deferred, %d checker errors\n",
             r.ha_resync_mode == 1 ? "delta" : "wal", r.ha_rejoin_ms,
             static_cast<unsigned long long>(r.ha_resync_entries),
             static_cast<unsigned long long>(r.ha_quarantined_keys),
             static_cast<unsigned long long>(r.ha_write_path_bytes),
             static_cast<unsigned long long>(r.ha_wal_replay_bytes),
             static_cast<unsigned long long>(r.ha_scrub_deferred),
             r.ha_rejoin_checker_errors);
    }
  }
  if (!r.shards.empty()) {
    for (const ShardSummary& s : r.shards) {
      printf("shard %-3d         : %.1f Kops/s, p50 %.1f us, p99 %.1f us, "
             "%llu redirected (%llu rejected), %.1f s stalled, "
             "arbiter %llu/%llu grants throttled (%.2f s)\n",
             s.shard, s.write_kops, s.put_p50_us, s.put_p99_us,
             static_cast<unsigned long long>(s.redirected_writes),
             static_cast<unsigned long long>(s.redirect_admission_rejects),
             s.stalled_seconds,
             static_cast<unsigned long long>(s.arbiter_throttles),
             static_cast<unsigned long long>(s.arbiter_grants),
             s.arbiter_throttle_seconds);
    }
    printf("shard fairness    : max/min throughput ratio %.2f\n",
           r.shard_fairness_ratio);
  }
  if (r.mixed_run == 1) {
    printf("open loop         : %s arrivals, %llu scheduled, %llu completed, "
           "%llu abandoned, %llu deadline misses (%llu ttl deletes)\n",
           r.arrival_mode == 1   ? "poisson"
           : r.arrival_mode == 2 ? "diurnal"
           : r.arrival_mode == 3 ? "spike"
                                 : "closed",
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
             static_cast<unsigned long long>(r.dev_retries),
             static_cast<unsigned long long>(r.fallback_writes));
    }
    printf("\n");
  }
  if (print_series) {
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
  if (!json_out.empty()) {
    if (!WriteJsonReport(json_out, config, {r})) return 1;
    printf("json report       : %s\n", json_out.c_str());
  }
  return 0;
}
