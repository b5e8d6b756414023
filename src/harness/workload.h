// db_bench-equivalent workload driver (Table IV):
//   A: fillrandom          — 1 unbounded write thread, 4 B keys, 4 KB values
//   B: readwhilewriting    — 1 write + 1 read thread, 9:1 write/read
//   C: readwhilewriting    — 8:2
//   D: seekrandom          — Seek + 1024 Next after an initial bulk fill
//
// Beyond the paper's closed-loop Table IV gauntlet, the `mixed` workload
// matrix (DESIGN.md §14) drives skewed (Zipfian/hotspot), time-varying
// (Poisson/diurnal/spike) open-loop op streams with TTL churn, scans and
// per-tenant profiles, measuring latency from each op's *scheduled* arrival
// so stall queueing is not hidden by coordinated omission.
//
// RunBenchmark assembles a fresh simulation world (SSD, file system, 8-core
// host) per configuration, drives the workload for a virtual-time window and
// extracts every signal the paper's figures need.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "check/failover.h"
#include "common/flags.h"
#include "common/units.h"
#include "harness/presets.h"
#include "harness/sut.h"
#include "ndp/ndp_device.h"
#include "ndp/offload_planner.h"
#include "obs/metrics.h"

namespace kvaccel::harness {

// Key-popularity shape for key draws within a tenant's key-space slice.
enum class KeyDist {
  kUniform,
  kZipfian,  // scrambled Zipfian ranks (YCSB-style), hot keys spread out
  kHotspot,  // contiguous hot range at the front of the slice
};

// Arrival process for the mixed workload. kClosed issues the next op as soon
// as the previous completes (classic db_bench); the rest schedule arrivals in
// virtual time as a Poisson process whose instantaneous rate follows the
// named curve, and latency is additionally measured from the scheduled tick.
enum class Arrival { kClosed, kPoisson, kDiurnal, kSpike };

inline constexpr EnumName<KeyDist> kKeyDistNames[] = {
    {"uniform", KeyDist::kUniform},
    {"zipfian", KeyDist::kZipfian},
    {"hotspot", KeyDist::kHotspot}};
inline constexpr EnumName<Arrival> kArrivalNames[] = {
    {"closed", Arrival::kClosed},
    {"poisson", Arrival::kPoisson},
    {"diurnal", Arrival::kDiurnal},
    {"spike", Arrival::kSpike}};

// Op mix + key-popularity shape for one tenant's stream.
struct TenantProfile {
  OpMix mix;
  KeyDist dist = KeyDist::kUniform;
  double zipf_theta = 0.99;    // dist == kZipfian; must be in (0, 1)
  double hotspot_frac = 0.1;   // dist == kHotspot: hot fraction of the slice
  double hotspot_opfrac = 0.9; // ... receiving this fraction of draws
};

struct WorkloadConfig {
  enum class Type { kFillRandom, kReadWhileWriting, kSeekRandom, kMixed };

  Type type = Type::kFillRandom;
  Nanos duration = FromSecs(60);
  uint64_t key_space = 1ull << 31;  // 4-byte key space (Table IV)
  size_t key_size = 4;
  uint32_t value_size = 4096;
  // Reader threads run unthrottled (db_bench readwhilewriting): workload B
  // approximates the paper's 9:1 mix with one reader, C's 8:2 with two.
  int read_threads = 1;
  // Concurrent writer actors; >1 exercises the group-commit queue. Writer 0
  // keeps the historical seed so N=1 reproduces the single-writer runs.
  int writer_threads = 1;
  // Entries per WriteBatch each writer submits per operation.
  int batch_size = 1;
  // Multi-tenant mode: tenants > 1 carves the key space into equal
  // contiguous slices, one per tenant, and tags each writer with a tenant
  // (writer t serves tenant t % tenants; at least one writer per tenant is
  // spawned). Per-tenant op counts and latency percentiles are reported.
  int tenants = 1;
  // seekrandom (workload D): bulk-filled bytes, then seek_ops range queries.
  uint64_t preload_bytes = 20ull << 30;  // paper: 20 GB (scaled by runner)
  uint64_t seek_ops = 60000;
  int nexts_per_seek = 1024;
  uint64_t seed = 42;

  // ---- Mixed workload matrix (Type::kMixed; DESIGN.md §14) ----
  // Default stream profile, used by every tenant without an explicit entry
  // in `profiles`. Tenant t uses profiles[t % profiles.size()].
  TenantProfile default_profile;
  std::vector<TenantProfile> profiles;
  std::string mix_spec;  // raw --workload_mix text, echoed into the report
  Arrival arrival = Arrival::kClosed;
  // Total scheduled ops/s across all tenants (open-loop modes). The rate is
  // split evenly across tenants, then across each tenant's actors.
  double arrival_rate = 20000;
  // Diurnal curve: rate swings sinusoidally between min_frac*rate (trough,
  // at t=0) and rate (peak) with this period.
  double diurnal_period_s = 20;
  double diurnal_min_frac = 0.25;
  // Spike curve: rate*spike_mult for spike_dur_s at the top of every
  // spike_every_s window, base rate otherwise.
  double spike_every_s = 10;
  double spike_dur_s = 1;
  double spike_mult = 8;
  // TTL churn: this fraction of puts is tagged with a TTL; the writing actor
  // deletes the key once ttl_s of virtual time elapse.
  double ttl_frac = 0;
  double ttl_s = 2;
  // An op completing more than this after its scheduled arrival counts as a
  // deadline miss (closed mode: measured from issue).
  double deadline_us = 1000;

  // Profile for tenant t (see `profiles`).
  const TenantProfile& ProfileFor(int t) const {
    if (profiles.empty()) return default_profile;
    return profiles[static_cast<size_t>(t) % profiles.size()];
  }
};

inline constexpr EnumName<WorkloadConfig::Type> kWorkloadNames[] = {
    {"fillrandom", WorkloadConfig::Type::kFillRandom},
    {"readwhilewriting", WorkloadConfig::Type::kReadWhileWriting},
    {"seekrandom", WorkloadConfig::Type::kSeekRandom},
    {"mixed", WorkloadConfig::Type::kMixed}};

// Parses a --workload_mix spec into per-tenant profiles: ';'-separated
// segments, one per tenant (tenant t gets segment t % count). Each segment
// is a preset name (LookupMixPreset) or a comma list of k=v fields:
//   put=70,get=20,del=5,scan=5[,scanlen=N][,dist=uniform|zipfian|hotspot]
//   [,theta=F][,hot_frac=F][,hot_ops=F]
// A preset name may be followed by k=v overrides ("churn,dist=zipfian").
// Returns false and sets *err on a malformed spec.
bool ParseWorkloadMix(const std::string& spec,
                      std::vector<TenantProfile>* profiles, std::string* err);

struct BenchConfig {
  SutConfig sut;
  WorkloadConfig workload;
  // Global scale knob: shrinks LSM thresholds, device capacity and preload
  // together (DESIGN.md §3). 1.0 = paper scale.
  double scale = 0.125;
  // Ablation hook: override the device bandwidth (0 = preset 630 MB/s).
  double nand_mbps = 0;
  // Fault injection: canned profile name (see harness/fault_profiles.h;
  // "" = no faults) and the injector's RNG seed.
  std::string fault_profile;
  uint64_t fault_seed = 1;
  // Non-empty: attach an obs::Tracer to the run and write the Chrome
  // trace-event JSON here when it finishes (see DESIGN.md §8). Empty =
  // tracing fully disabled (no tracer object exists).
  std::string trace_out;
  // Integrity knobs (DESIGN.md §9). nemesis_seed and trace_dump_dir are
  // echoed into the kvaccel-run-v1 config block so a report names the exact
  // nemesis schedule that accompanied the run; db_dump_dir exports the final
  // SimFs image to a host directory for offline kvaccel_check.
  uint64_t nemesis_seed = 0;
  std::string trace_dump_dir;
  std::string db_dump_dir;
};

// kvaccel_dbbench's command line (tools/kvaccel_dbbench.cc): the run's
// BenchConfig plus what the tool does with the result.
struct DbbenchArgs {
  BenchConfig config;
  bool series = false;   // print the per-second series
  std::string json_out;  // empty = no JSON report
  // Which key-popularity flag was given; the two exclude each other.
  bool zipf = false;
  bool hotspot = false;
};

// The kvaccel_dbbench flag table, filling *args.
FlagTable DbbenchFlags(DbbenchArgs* args);

// The rules between flags that parsing cannot check one flag at a time: a
// message naming the flags at fault, or "" when the run is valid.
std::string DbbenchConfigError(const DbbenchArgs& args);

// Per-shard slice of a sharded run (DESIGN.md §11).
struct ShardSummary {
  int shard = 0;
  uint64_t writes = 0;           // foreground writes routed to this shard
  double write_kops = 0;
  double put_p50_us = 0;
  double put_p99_us = 0;
  double stalled_seconds = 0;
  core::KvaccelStats kv;  // this shard's KVACCEL counters
  // This shard's client of the fair-share device-bandwidth arbiter.
  sim::FairShareArbiter::ClientStats arbiter;
};

// Per-tenant slice of a multi-tenant run. Service percentiles measure from
// op issue; arrival percentiles measure from the scheduled arrival tick
// (open-loop modes), so queueing behind a stall is included — the
// coordinated-omission-free view (DESIGN.md §14).
struct TenantSummary {
  int tenant = 0;
  uint64_t ops = 0;
  double put_p50_us = 0;   // service-time percentiles, all op kinds
  double put_p99_us = 0;
  double put_p999_us = 0;
  // Mixed-matrix op counts (zero outside Type::kMixed).
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t deletes = 0;
  uint64_t scans = 0;
  uint64_t ttl_deletes = 0;
  // Open-loop arrival accounting.
  uint64_t scheduled_ops = 0;
  uint64_t deadline_misses = 0;
  uint64_t abandoned_ops = 0;  // scheduled inside the window, never issued
  double arrival_p50_us = 0;
  double arrival_p99_us = 0;
  double arrival_p999_us = 0;
};

// Device-offloaded compaction (DESIGN.md §13): present when an NDP engine
// was attached to the run.
struct NdpRunStats {
  ndp::OffloadMode mode = ndp::OffloadMode::kAuto;  // kAuto or kForce
  ndp::NdpStats device;         // the engine's own counters
  ndp::PlannerStats planner;    // every DB's planner, summed
  double cpu_busy_seconds = 0;  // busy time on the device's NDP cores
  // The Main-LSM's tally of its offloaded jobs (lsm::DbStats).
  uint64_t compactions = 0;    // jobs that completed device-side
  uint64_t bytes_written = 0;  // output bytes produced device-side
  uint64_t fallbacks = 0;      // offloaded jobs rerun on the host
};

// Two-node HA pair (DESIGN.md §12): present for HA runs. After the window
// the runner fails the primary over to the backup and reports the promotion;
// a partition drill then rejoins the deposed primary.
struct HaRunStats {
  bool repl_ack_async = false;  // check::kReplAckNames
  int resync_mode = 1;          // check::kResyncModeNames
  bool net_partition = false;   // a partition window was injected
  core::ReplStats repl;         // read after Close: async's lost tail is final
  // A failed promote or rejoin reports at least one checker error.
  check::FailoverReport failover;
  std::optional<check::RejoinReport> rejoin;  // partition drills only
};

struct RunResult {
  std::string name;
  double seconds = 0;  // measurement window length

  double write_kops = 0;
  double read_kops = 0;
  double scan_kops = 0;  // seeks+nexts per second (Table V)
  double write_mbps = 0;

  double put_avg_us = 0, put_p99_us = 0, put_p999_us = 0;
  double get_p99_us = 0;

  double cpu_pct = 0;      // mean host CPU utilisation over the window
  double efficiency = 0;   // Eq. (1): MB/s / CPU%

  std::vector<double> per_sec_write_kops;
  std::vector<double> per_sec_read_kops;
  std::vector<double> per_sec_pcie_mbps;
  // Stall (writers fully blocked) regions, in window-relative seconds.
  std::vector<std::pair<double, double>> stall_regions_sec;
  uint64_t stall_events = 0;
  // Delayed writes (every write RocksDB paced) and distinct slowdown periods
  // (what the paper's "258 / 433 instances" count).
  uint64_t slowdown_events = 0;
  uint64_t slowdown_periods = 0;
  double stalled_seconds = 0;

  // Fig. 5: per-second PCIe utilisation (fraction of device bandwidth)
  // sampled over seconds that intersect a write-stall region.
  std::vector<double> stall_pcie_util;
  // Fig. 14: seconds inside stall regions with ~zero PCIe traffic.
  double zero_traffic_stall_seconds = 0;

  // Group commit observability (Main-LSM writer queue).
  uint64_t write_groups = 0;
  double group_commit_mean = 0;  // entries per group
  uint64_t group_commit_max = 0;

  // Fault-injection observability (--fault_profile runs).
  uint64_t fault_injected = 0;      // total injector fires
  uint64_t io_retries = 0;          // Main-LSM transient-error retries
  uint64_t background_errors = 0;   // latched flush/compaction failures

  // Compaction scheduler (Main-LSM, DESIGN.md §10).
  uint64_t compactions = 0;             // jobs installed
  uint64_t split_compactions = 0;       // jobs that ran range-partitioned
  uint64_t subcompactions = 0;          // sub-ranges executed by split jobs
  uint64_t intra_l0_compactions = 0;    // L0->L0 pressure-relief merges
  double compaction_throttle_seconds = 0;  // time parked on the rate limiter

  // The layers' own stats structs (DESIGN.md §18), read before Close
  // except the HA block's.
  core::KvaccelStats kv;       // KVACCEL runs; all zero otherwise
  lsm::BlockCacheStats cache;  // Main-LSM SST block cache
  std::optional<NdpRunStats> ndp;
  std::optional<HaRunStats> ha;

  // Sharded engine (DESIGN.md §11): one entry per shard, plus the fairness
  // headline — max/min per-shard foreground-write throughput (0 when any
  // shard saw no writes; 1.0 = perfectly even).
  std::vector<ShardSummary> shards;
  double shard_fairness_ratio = 0;
  // Multi-tenant runs: one entry per tenant (empty when tenants <= 1 and the
  // workload is not the mixed matrix, which always reports its tenants).
  std::vector<TenantSummary> tenants;

  // Mixed workload matrix rollup (DESIGN.md §14). mixed_run gates the
  // report's open_loop block.
  int mixed_run = 0;
  Arrival arrival = Arrival::kClosed;
  uint64_t scheduled_ops = 0;    // arrivals the rate curve produced in-window
  uint64_t completed_ops = 0;
  uint64_t abandoned_ops = 0;    // scheduled, never issued (backlog at end)
  uint64_t deadline_misses = 0;  // completed late + abandoned
  uint64_t ttl_deletes = 0;
  uint64_t mixed_puts = 0;
  uint64_t mixed_gets = 0;
  uint64_t mixed_deletes = 0;
  uint64_t mixed_scans = 0;
  double service_p50_us = 0;   // issue -> completion
  double service_p99_us = 0;
  double service_p999_us = 0;
  double arrival_p50_us = 0;   // scheduled arrival -> completion
  double arrival_p99_us = 0;
  double arrival_p999_us = 0;

  // Full registry snapshot harvested at window end (obs/metrics.h); the
  // machine-readable superset of the scalar fields above.
  obs::MetricsSnapshot metrics;
};

// Encodes `v` as a fixed-width big-endian key (lexicographic == numeric).
std::string MakeKey(uint64_t v, size_t key_size);

RunResult RunBenchmark(const BenchConfig& config);

}  // namespace kvaccel::harness
