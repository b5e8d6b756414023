// KVACCEL configuration, calibrated to the paper's measurements:
//  - Detector/Rollback polling every 0.1 s (§VI-A);
//  - Detector check cost 1.37 µs; metadata insert/check/delete costs
//    0.45/0.20/0.28 µs (Table VI);
//  - rollback DMA chunk 512 KB (§V-E);
//  - lazy vs eager rollback scheduling (§V-E).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "common/units.h"
#include "devlsm/dev_lsm.h"
#include "ndp/ndp_device.h"
#include "ndp/offload_planner.h"
#include "obs/metrics.h"
#include "sim/backoff.h"
#include "ssd/hybrid_ssd.h"

namespace kvaccel::core {

enum class RollbackScheme {
  kLazy,   // wait until the workload will not be disturbed (write-heavy)
  kEager,  // roll back as soon as resources free up (read-heavy)
  kDisabled,  // never roll back during the run (paper Fig. 12 setup)
};

// Detector check cost, nominal host ns: 1.37 us per check (Table VI).
constexpr double kDetectorCpuNs = 1370;
// Metadata Manager per-op host costs, nominal ns (Table VI).
constexpr double kMdInsertNs = 450;
constexpr double kMdCheckNs = 200;
constexpr double kMdDeleteNs = 280;

// Device-error policy for Dev-LSM commands, on the primary's redirected
// write path and on the backup's intent apply alike. A command that fails
// transiently (IOError/Busy/TryAgain) is retried up to 3 times, 200 us to
// 10 ms apart with decorrelated jitter (sim/backoff.h). When the budget is
// exhausted the Detector latches the device unhealthy, all writes fall back
// to the host path, and after device_unhealthy_cooldown a single half-open
// probe may re-enable it.
constexpr sim::RetryPolicy kDevRetry{3, FromMicros(200), FromMillis(10)};

struct KvaccelOptions {
  // Detector (paper §V-C, §VI-A).
  Nanos detector_period = FromMillis(100);

  // Rollback Manager.
  RollbackScheme rollback = RollbackScheme::kLazy;

  // Device-side write buffer.
  devlsm::DevLsmOptions dev;

  // Redirect writes when the Detector reports an imminent stall.
  bool redirection_enabled = true;

  // Device-error policy (kDevRetry above). The retry-jitter seed is
  // offset per shard/node so co-located retriers don't hammer the device in
  // lockstep.
  uint64_t dev_retry_jitter_seed = 0xDE77E4;
  Nanos device_unhealthy_cooldown = FromSecs(5);

  // Multi-device deployment (paper §V-D): host the key-value interface on a
  // second SSD instead of the hybrid single-device split. nullptr (default)
  // = single-device (Dev-LSM shares the Main-LSM's device).
  ssd::HybridSsd* kv_device = nullptr;

  // --- Device-offloaded compaction (NDP, DESIGN.md §13). Not owned; the
  // world (harness/test) creates one NdpDevice per SSD so sharded engines
  // share it, like the SSD itself. nullptr (or planner mode kOff) = every
  // compaction runs host-side. ---
  ndp::NdpDevice* ndp_device = nullptr;
  // Placement policy for the per-DB OffloadPlanner.
  ndp::OffloadMode ndp_mode = ndp::OffloadMode::kAuto;

  // Externally owned Dev-LSM to attach instead of creating a fresh one.
  // Crash-recovery tests use this to keep redirected pairs alive across a
  // simulated host reboot (the device outlives the host process). Not owned.
  devlsm::DevLsm* external_dev = nullptr;

  // --- Sharded-engine hooks (DESIGN.md §11). Both optional; unset =
  // standalone single-shard behavior. ---
  // Redirect admission control: called with the batch's logical bytes before
  // a redirect; returning false forces the host (stalling) path. The sharded
  // router wires this to the global-vs-per-shard Dev-LSM capacity budget so
  // shards compete for redirect space instead of one filling the device.
  std::function<bool(uint64_t bytes)> redirect_admission;
  // Device-bandwidth arbitration for the redirect DMA: called with the
  // compound command's payload bytes before the device put; blocks in
  // virtual time until the reservation is granted and returns the ns queued.
  std::function<Nanos(uint64_t bytes)> redirect_arbiter;

  // --- Replication hooks (HA pair, DESIGN.md §12). Both optional. ---
  // Called after a redirected batch is durable in the Dev-LSM, BEFORE the
  // metadata flip acks it: ships the batch's Dev-LSM intent (keys, values,
  // host sequence range, tombstone marks) to the backup so the write can be
  // reconstructed on failover even though this node's device KV region is
  // gone. A non-OK return fails the redirect (the write is unacked and the
  // leaked device entries are superseded by recovery's seq comparison).
  std::function<Status(const std::vector<VersionedEntry>& entries)>
      redirect_shipper;
  // Called after a rollback drain completes: tells the backup its mirrored
  // intents are now covered by the primary's Main-LSM (shipped via the WAL
  // stream is wrong — rollback ingests bypass the WAL — so the backup drains
  // its own mirror on this signal).
  std::function<void()> rollback_shipper;

  // Online scrubber (DESIGN.md §9): a low-priority actor that re-reads SST
  // blocks with checksum verification during idle bandwidth. Off by default
  // so existing benchmarks/tests keep their exact virtual-time schedules.
  struct ScrubOptions {
    bool enabled = false;
    // Wake-up cadence; each wake-up verifies at most one SST, and only when
    // the Detector sees no stall pressure (idle-bandwidth discipline).
    Nanos period = FromMillis(500);
    // Consecutive verification failures of the same file before the
    // scrubber escalates through the Detector's device-health circuit
    // breaker (transients get this many chances to clear first).
    int escalate_after = 3;
  };
  ScrubOptions scrub;
};

struct KvaccelStats {
  uint64_t detector_checks = 0;
  uint64_t redirected_writes = 0;   // served by Dev-LSM during stalls
  uint64_t direct_writes = 0;       // served by Main-LSM
  // Redirected groups: one PutCompound command per batch (tentpole path).
  uint64_t redirected_batches = 0;
  Histogram redirect_batch_latency;  // ns per redirected batch (device RTT)
  // Sharded engine: redirects refused by the capacity budget (the batch
  // took the host path instead) and time queued on the bandwidth arbiter.
  uint64_t redirect_admission_rejects = 0;
  uint64_t redirect_arbiter_wait_ns = 0;
  // Batches the Main-LSM refused at a stop trigger (between Detector polls)
  // and the Dev-LSM took instead (DESIGN.md §29).
  uint64_t stall_escapes = 0;
  uint64_t dev_reads = 0;           // Gets answered by Dev-LSM
  uint64_t main_reads = 0;
  uint64_t rollbacks = 0;
  uint64_t rollback_entries = 0;
  Nanos rollback_total_ns = 0;
  uint64_t md_inserts = 0;
  uint64_t md_checks = 0;
  uint64_t md_deletes = 0;
  // Device-fault handling (fault-injection PR).
  uint64_t dev_retries = 0;       // Dev-LSM command retries after transients
  uint64_t fallback_writes = 0;   // entries rerouted to the host path after
                                  // the device retry budget ran out
  uint64_t device_unhealthy_events = 0;  // unhealthy latches (circuit opens)

  static constexpr obs::StatField<KvaccelStats> kMetrics[] = {
      {"kvaccel.detector.checks", &KvaccelStats::detector_checks},
      {"kvaccel.redirect.writes", &KvaccelStats::redirected_writes},
      {"kvaccel.direct.writes", &KvaccelStats::direct_writes},
      {"kvaccel.redirect.batches", &KvaccelStats::redirected_batches},
      {"kvaccel.redirect.batch_latency_ns",
       &KvaccelStats::redirect_batch_latency},
      {"kvaccel.redirect.admission_rejects",
       &KvaccelStats::redirect_admission_rejects},
      {"kvaccel.redirect.arbiter_wait_ns",
       &KvaccelStats::redirect_arbiter_wait_ns},
      {"kvaccel.redirect.stall_escapes", &KvaccelStats::stall_escapes},
      {"kvaccel.read.dev", &KvaccelStats::dev_reads},
      {"kvaccel.read.main", &KvaccelStats::main_reads},
      {"kvaccel.rollback.count", &KvaccelStats::rollbacks},
      {"kvaccel.rollback.entries", &KvaccelStats::rollback_entries},
      {"kvaccel.rollback.total_ns", &KvaccelStats::rollback_total_ns},
      {"kvaccel.md.inserts", &KvaccelStats::md_inserts},
      {"kvaccel.md.checks", &KvaccelStats::md_checks},
      {"kvaccel.md.deletes", &KvaccelStats::md_deletes},
      {"kvaccel.dev.retries", &KvaccelStats::dev_retries},
      {"kvaccel.fallback_writes", &KvaccelStats::fallback_writes},
      {"kvaccel.device_unhealthy_events",
       &KvaccelStats::device_unhealthy_events},
  };
};

}  // namespace kvaccel::core
