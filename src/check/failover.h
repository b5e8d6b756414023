// Failover promotion and partition reconciliation for the two-node HA pair
// (DESIGN.md §12).
//
// PromoteNode turns a surviving backup node into a serving primary:
//
//   1. Offline DbChecker pass over the node's Main-LSM files (the node just
//      absorbed a crash protocol — torn WAL tails and orphan SSTs are legal;
//      errors are repaired with DbChecker::Repair and re-checked).
//   2. KvaccelDB::Open with the node's external Dev-LSM attached: a
//      non-empty mirror (replicated redirect intents not yet covered by a
//      rollback signal) is drained into the Main-LSM by the §VI-D
//      sequence-comparison recovery that Open already performs.
//   3. Live dual-interface check (CheckDualInterface) on the promoted node.
//
// Promotion after a partition additionally bumps the node's durable fencing
// epoch (`new_epoch`): the FENCE file is written before the node opens, so a
// healed, deposed primary's first shipped record finds the newer epoch and
// self-fences permanently.
//
// RejoinNode is the other half of partition tolerance: it reconciles a
// healed, deposed primary against the serving node and brings it back as a
// consistent replica:
//
//   1. Quarantine the diverged tail: offline Check, then Repair with the
//      divergence frontier (the highest sequence the old backup had applied
//      when it was detached) — SSTs and WAL batches above the frontier were
//      never acked anywhere and are cut.
//   2. Adopt the new fencing epoch (durable FENCE write).
//   3. Open the node and walk both DBs: every key where the nodes disagree
//      is shipped from the serving node over a resync NetLink, charged in
//      256 KiB chunks (optionally through a FairShareArbiter client so the
//      resync shares bandwidth fairly with serving traffic).
//   4. Apply on the rejoining node: kDelta ships flushed SST-state via the
//      WAL-bypassing IngestSortedBatch path at exact serving sequences (the
//      RDMA-index-replication idea from PAPERS.md — zero bytes through the
//      write path); kWalReplay re-runs every entry through the full write
//      path for comparison (the report carries both byte counts so the
//      delta-vs-replay claim is measurable).
//   5. Verify convergence: both nodes' live key sets and iterator order must
//      match byte-identically.
//
// While a resync is in flight the serving node's Scrubber is deferred
// (scrub.deferred_for_resync) so reconciliation I/O does not compete with
// client traffic.
//
// This lives in the check layer, not core: promotion and reconciliation ARE
// checker/repair workflows, and core cannot depend on kvx_check.
#pragma once

#include <memory>
#include <string>

#include "check/db_checker.h"
#include "common/flags.h"
#include "core/kvaccel_db.h"
#include "core/replicated_kvaccel_db.h"
#include "sim/arbiter.h"

namespace kvaccel::check {

struct FailoverReport {
  Nanos promote_ns = 0;          // wall (virtual) time for steps 1-3
  uint64_t drained_entries = 0;  // Dev-LSM mirror entries re-hosted at open
  bool repaired = false;         // offline Repair had to run
  int checker_errors = 0;        // errors AFTER repair (0 = clean promote)
  int checker_warnings = 0;
  uint64_t fence_epoch = 0;      // durable epoch the node serves under
  std::string first_error;       // first surviving error, for the trace
};

// Promotes the surviving node described by (main_options, kv_options, node).
// Option structs are the node's own (hooks cleared by the caller; this
// function also clears replication hooks defensively — a promoted node is a
// single node until it re-pairs). Must run on a simulated thread; the node's
// DB must be closed and its crash protocol (DropAllDirty/ClearCrash) done.
// `new_epoch` != 0 persists a bumped fencing epoch before the node opens
// (partition promotions MUST bump so the deposed primary gets fenced).
Status PromoteNode(const lsm::DbOptions& main_options,
                   const core::KvaccelOptions& kv_options,
                   const core::ReplNode& node, sim::SimEnv* env,
                   FailoverReport* report,
                   std::unique_ptr<core::KvaccelDB>* promoted,
                   uint64_t new_epoch = 0);

enum class ResyncMode { kWalReplay, kDelta };

// Flag and report names of the HA modes as the options structs hold them
// (NemesisOptions, harness::SutConfig): the ack discipline (0 = sync, 1 =
// async) and the rejoin transport (0 = WAL replay, 1 = delta).
inline constexpr EnumName<int> kReplAckNames[] = {{"sync", 0}, {"async", 1}};
inline constexpr EnumName<int> kResyncModeNames[] = {{"wal", 0},
                                                     {"delta", 1}};

struct RejoinOptions {
  ResyncMode mode = ResyncMode::kDelta;
  // Divergence frontier: the highest sequence applied on the old backup
  // (ReplicatedKvaccelDB::applied_seq() at detach/close). Everything above
  // it on the rejoining node is unacked divergence and is quarantined.
  // UINT64_MAX skips tail quarantine (pure catch-up resync).
  uint64_t frontier = UINT64_MAX;
  // Fencing epoch to adopt (0 = keep whatever the node's FENCE file holds).
  uint64_t new_epoch = 0;
  // Resync interconnect (same defaults as ReplOptions).
  double net_bytes_per_sec = 1.25e9;
  Nanos net_latency = FromMicros(30);
  // Optional: route resync link charges through a FairShareArbiter client so
  // reconciliation shares bandwidth with serving traffic. The client slot
  // must be registered by the caller; -1 = no arbitration.
  sim::FairShareArbiter* arbiter = nullptr;
  int arbiter_client = -1;
};

struct RejoinReport {
  Nanos rejoin_ns = 0;            // wall (virtual) time end to end
  bool repaired = false;          // offline Repair ran (it always does)
  int checker_errors = 0;         // errors AFTER repair (0 = clean rejoin)
  int checker_warnings = 0;
  uint64_t fence_epoch = 0;       // epoch the node rejoined under
  uint64_t quarantined_keys = 0;  // keys whose diverged version was replaced
  uint64_t resync_entries = 0;    // entries shipped (puts + tombstones)
  uint64_t resync_bytes = 0;      // payload charged to the resync link
  uint64_t write_path_bytes = 0;  // bytes pushed through the node's write
                                  // path (0 in delta mode — that's the point)
  uint64_t wal_replay_bytes = 0;  // what full WAL replay would have moved
  uint64_t scrub_deferred = 0;    // serving-side scrub wake-ups deferred
  std::string first_error;
};

// Reconciles the healed node described by (main_options, kv_options, node)
// against `serving` and leaves it closed, converged and fenced at
// options.new_epoch — ready to re-pair as the backup of a fresh
// ReplicatedKvaccelDB::Open. Must run on a simulated thread; the node's DB
// must be closed (its crash protocol done if it crashed rather than healed).
// `serving` stays open and serving throughout.
Status RejoinNode(const lsm::DbOptions& main_options,
                  const core::KvaccelOptions& kv_options,
                  const core::ReplNode& node, core::KvaccelDB* serving,
                  const RejoinOptions& options, sim::SimEnv* env,
                  RejoinReport* report);

}  // namespace kvaccel::check
