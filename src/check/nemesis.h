// Nemesis: model-oracle simulation testing (DESIGN.md §9).
//
// RunNemesis drives a seeded random op stream (put / delete / batch write /
// get / seek+scan / forced rollback) against a full KVACCEL stack while a
// seeded fault-and-crash schedule arms one crash site per cycle — including
// mid-rollback and mid-redirect kill points — then runs the crash protocol
// (close, drop page cache, clear latch, reopen) and verifies the recovered
// DB against an in-memory ModelDb: every live key at its exact value, every
// deleted key absent, and a full hybrid-iterator walk in model order. The
// same op stream, oracle and verify drive every topology; the HA schedules
// replace the reopen with a promotion or a partition script.
//
// Everything is deterministic from NemesisOptions::seed: the same options
// replay the exact same op stream, fault schedule and virtual-time
// interleaving, so a failure is reproducible from its header line alone.
// On divergence the full op trace is dumped to trace_dump_dir (when set) and
// ParseNemesisTrace turns that file back into the options that reproduce it.
#pragma once

#include <cstdint>
#include <string>

#include "common/flags.h"
#include "common/status.h"

namespace kvaccel::check {

struct NemesisOptions {
  uint64_t seed = 0x5EED;
  int cycles = 30;
  int ops_per_cycle = 150;
  uint64_t key_space = 400;
  uint32_t value_size = 4096;
  // > 1 runs the schedule against a ShardedKvaccelDB (one namespace, WAL and
  // Detector per shard, fair-share arbiter on). Crash cycles may arm a
  // second kill site so the machine can die while one shard is mid-rollback
  // and another mid-flush; recovery verifies every shard's acked writes and
  // the cross-shard iterator order. 1 = the plain single-shard stack,
  // byte-compatible with earlier schedules.
  int shards = 1;
  // Two-node HA pair (DESIGN.md §12): the op stream drives a
  // ReplicatedKvaccelDB instead of a single stack, the crash table gains the
  // replication sites (crash.net.send.mid, net.send.transient), and every
  // cycle ends in a failover: the pair dies, the backup is promoted
  // (check::PromoteNode) and verified against the oracle, the dead node is
  // wiped, and the pair re-forms with roles swapped. The pair is one shard
  // without NDP: ha with shards > 1 or with ndp is rejected.
  bool ha = false;
  // 0 = sync acks (every acked write must be served by the promoted node),
  // 1 = async acks (a bounded, reported tail may be lost).
  int repl_ack = 0;
  // Partition nemesis (DESIGN.md §12): instead of crash-site cycles, the HA
  // schedule rotates partition scenarios — symmetric cut with failover,
  // asymmetric ack-loss cut with failover, a brief cut healed before the
  // lease lapses (no promotion), and a flapping-link chaos cycle (delay
  // spikes, duplicates, transient drops). Full cycles verify the fencing
  // protocol end to end: the partitioned primary self-fences on lease lapse
  // (no write acked on both sides of the split), the backup promotes under a
  // bumped fencing epoch, the healed primary deposes itself on the first
  // stale-epoch rejection, and check::RejoinNode reconciles it back in as a
  // byte-identical replica. Implies ha (and its rejections); async acks
  // (repl_ack = 1) are rejected.
  bool net_partition = false;
  // Reconciliation transport for the rejoin step: 0 = WAL replay (every
  // entry re-runs the write path), 1 = delta resync (flushed state ships
  // through the WAL-bypassing ingest path; zero write-path bytes).
  int resync_mode = 1;
  // Device-offloaded compaction (DESIGN.md §13): attach an NdpDevice and
  // force every compaction through the COMPACT path. The crash table gains
  // the offload kill points — the first cycles rotate through every
  // crash.ndp.* site so each one is exercised, then the combined table is
  // drawn from — and transient cycles also arm ndp.compact.transient so
  // recovery is verified under device rejections and host fallbacks.
  // Single-node only (rejected with ha).
  bool ndp = false;
  // When non-empty: on divergence, write the op trace to
  // <trace_dump_dir>/nemesis-<seed>.trace on the host file system.
  std::string trace_dump_dir;
  // Self-test hook: corrupt one model entry after this cycle's recovery so
  // the harness must detect (and dump) a divergence. -1 = never.
  int corrupt_model_at_cycle = -1;
};

struct NemesisResult {
  bool ok = true;
  std::string error;       // first divergence, empty when ok
  std::string trace;       // full deterministic op trace (header + op lines)
  std::string trace_path;  // non-empty if the trace was dumped to disk
  int cycles_run = 0;
  int crashes = 0;         // cycles that actually died at a crash site
  uint64_t ops_executed = 0;
  // HA mode only.
  int failovers = 0;                    // promotions performed (one per cycle)
  uint64_t ha_lost_entries = 0;         // async tail entries lost, summed
  uint64_t ha_drained_entries = 0;      // mirror entries re-hosted at promote
  uint64_t ha_backup_dev_fallbacks = 0; // intents degraded to the host path
  // Partition nemesis only (net_partition).
  int partitions = 0;                   // partition windows opened
  int rejoins = 0;                      // deposed primaries reconciled back
  uint64_t ha_fenced_rejects = 0;       // writes refused by a fenced primary
  uint64_t ha_resync_entries = 0;       // entries shipped by RejoinNode
  uint64_t ha_resync_bytes = 0;         // payload charged to the resync link
  uint64_t ha_write_path_bytes = 0;     // resync bytes through the write path
  uint64_t ha_wal_replay_bytes = 0;     // what full WAL replay would have moved
  uint64_t ha_quarantined_keys = 0;     // diverged versions replaced at rejoin
};

// Builds its own simulation world and runs the whole schedule; returns after
// the virtual-time run completes. A combination no runner drives (see the
// option comments) is rejected before any world is built: ok = false, an
// "unsupported: ..." error and an empty trace.
NemesisResult RunNemesis(const NemesisOptions& options);

// Reads the header line of a dumped trace back into `out` so one command
// replays the failing schedule.
Status ParseNemesisTrace(const std::string& path, NemesisOptions* out);

// The kvaccel_nemesis flag table (tools/kvaccel_nemesis.cc): the schedule
// flags fill *options, --replay names a dumped trace in *replay.
FlagTable NemesisFlags(NemesisOptions* options, std::string* replay);

}  // namespace kvaccel::check

