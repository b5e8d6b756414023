// Tuning knobs of the host LSM-KVS, mirroring the RocksDB options the paper
// exercises (Table III plus the write-stall trigger family of [9]).
// Sizes are *logical* bytes (synthetic values count at full size).
#pragma once

#include <cstdint>
#include <functional>

#include "common/status.h"
#include "common/units.h"

namespace kvaccel::lsm {

class WriteBatch;

constexpr int kNumLevels = 7;

// --- Device-offloaded compaction vocabulary (NDP, DESIGN.md §13) ---
// The lsm layer stays free of ndp types: the planner/device live behind
// std::function hooks, mirroring compaction_io_arbiter / wal_shipper.

// What the planner sees about a picked job before any work starts.
struct OffloadJobInfo {
  int level = 0;         // inputs[0] level
  int output_level = 0;
  uint64_t input_bytes = 0;  // logical bytes across both input sides
  int input_files = 0;
  int subranges = 1;     // sub-range streams the job will run (PR-5 split)
  bool is_intra_l0 = false;
};

// Execution handles for one granted (offloaded) job.
struct OffloadGrant {
  // Burns the merge + checksum-verify cycles for `bytes` logical bytes on
  // the device's NDP cores; blocks the calling actor in virtual time.
  std::function<void(uint64_t bytes)> merge_cpu;
  // Completion, exactly once per grant: ok=true ships the output metadata
  // back over PCIe (its Status is the shipment's — a crash there aborts the
  // install); ok=false reports a device-side failure before host fallback.
  std::function<Status(bool ok, uint64_t output_files, uint64_t output_bytes)>
      finish;
};

// Per-job placement decision. Returning false = host path; returning true
// fills *grant and commits the device (the COMPACT command has shipped).
using CompactionOffloadFn =
    std::function<bool(const OffloadJobInfo& job, OffloadGrant* grant)>;

struct DbOptions {
  // --- Memtable / flush ---
  uint64_t write_buffer_size = 128ull << 20;  // Table III: MT size 128 MB
  int max_write_buffer_number = 2;            // active + 1 immutable

  // --- Leveled compaction shape ---
  int l0_compaction_trigger = 4;   // L0 file count that scores a compaction
  uint64_t max_bytes_for_level_base = 256ull << 20;  // L1 target
  uint64_t target_file_size = 64ull << 20;

  // --- Write stall & slowdown triggers (paper §II-A events 1/2/3) ---
  int l0_slowdown_writes_trigger = 8;
  int l0_stop_writes_trigger = 12;
  uint64_t soft_pending_compaction_bytes_limit = 4ull << 30;
  uint64_t hard_pending_compaction_bytes_limit = 16ull << 30;
  // RocksDB's delayed-write mechanism [9]: when true, writes are throttled to
  // delayed_write_rate while any slowdown condition holds. The paper's
  // "w/o slowdown" variants set this false (only hard stops remain).
  bool enable_slowdown = true;
  double delayed_write_rate = 8.0 * 1e6;  // bytes/sec (~2 Kops/s at 4 KB)

  // --- Background work ---
  int compaction_threads = 1;  // Table III: 1 / 2 / 4
  // Logical bytes per read->merge->write cycle of a compaction job. The
  // paper's implementation (§III-B) operates at file scale — inputs are
  // loaded, merge-sorted in memory, then written back — which is what leaves
  // the device idle for whole seconds during the merge phase. Smaller chunks
  // pipeline the phases more finely (see bench_ablation_merge_overlap).
  uint64_t compaction_io_chunk = 1ull << 30;
  // RocksDB-style subcompactions (DESIGN.md §10): a picked job whose input
  // exceeds max_subcompaction_input is split at file/index-block boundaries
  // into up to max_subcompactions disjoint key ranges, each merged by its own
  // simulated actor. Requires compaction_threads > 1 to take effect; all
  // sub-range outputs still install atomically in one VersionEdit.
  int max_subcompactions = 4;
  uint64_t max_subcompaction_input = 0;  // 0 = auto: 2 * target_file_size
  // Shared-device bandwidth arbitration (sharded engine, DESIGN.md §11).
  // When set, compaction I/O for levels below L0 reserves bandwidth through
  // this callback: one client slot of the sim::FairShareArbiter every shard
  // on the device shares. It blocks in virtual time until the reservation is
  // granted and returns the ns spent queued (accounted as throttle time).
  // L0->L1 and intra-L0 jobs are exempt: they are exactly the work that
  // un-gates stalled writers, so throttling them would be self-defeating.
  // Unset = unthrottled.
  std::function<Nanos(uint64_t bytes)> compaction_io_arbiter;
  // External-store guard for tombstone elision. Compaction normally drops a
  // tombstone once no level below the output can hold the key — but a
  // collaborating external store (KVACCEL's Dev-LSM) may hold an OLDER
  // version of a deleted key that recovery later re-ingests ordered by
  // sequence number; eliding the tombstone first would resurrect it. When
  // set, a compaction job elides tombstones only if this returns true at the
  // start of the job (KVACCEL wires it to "the Dev-LSM is empty"). Unset =
  // always allowed.
  std::function<bool()> allow_tombstone_elision;

  // --- Device-offloaded compaction (NDP, DESIGN.md §13) ---
  // When set, RunCompaction consults this hook once per picked job. Returning
  // true grants the job to the device: the merge loop then burns its CPU
  // through OffloadGrant::merge_cpu (firmware/NDP cores instead of the host
  // pool), SST reads and writes run device-side (NAND only, no PCIe), and the
  // job's crash sites become crash.ndp.*. The outputs land in the same file
  // system and install through the same single VersionEdit, so crash
  // atomicity is unchanged. On a failed offloaded attempt the job falls back
  // to the host path once (OffloadGrant::finish(false, ...) first, so the
  // planner can open its circuit breaker). Unset = host-only compaction.
  CompactionOffloadFn compaction_offload;

  // --- Table / cache ---
  uint64_t block_size = 16 << 10;          // logical bytes per data block
  uint64_t block_cache_capacity = 64ull << 20;  // logical bytes

  // --- WAL ---
  bool wal_sync = false;  // db_bench default: buffered, unsynced WAL

  // --- Per-operation host CPU costs (nominal ns) ---
  // Put: key-gen/batch/WAL encode/skiplist insert on the client thread.
  double put_cpu_ns = 2500;
  // Get: hashing, memtable probe, per-level seek overhead.
  double get_cpu_ns = 2000;

  // --- Transient-error retry policy (kIoRetry, lsm/db.h) ---
  // Seed of the decorrelated-jitter stream of the retry delays. Sharded and
  // replicated engines offset it per shard/node so co-located retriers
  // don't retry in lockstep.
  uint64_t io_retry_jitter_seed = 0xBACC0FF;

  // --- Replication hooks (HA pair, DESIGN.md §12) ---
  // When set, the group-commit leader ships every locally-originated write
  // group (after WAL append/sync, before memtable apply) with the group's
  // first sequence number. A non-OK return fails the group: the write is
  // durable in the local WAL but unacked — exactly the crash.wal.post_sync
  // ambiguity window, which recovery already tolerates. Writes applied FROM
  // replication (WriteOptions::replicated_seq != 0) are not re-shipped.
  std::function<Status(const WriteBatch& group, uint64_t first_seq)>
      wal_shipper;
};

// Per-read options.
struct ReadOptions {
  bool fill_cache = true;
  // The most blocks an iterator fetches per device read (1 = no readahead).
  // With fill_cache, iterators ramp up to it: two blocks after a Seek,
  // doubling on each sequential refill (RocksDB auto-readahead). Bulk
  // readers without fill_cache read the whole window every time; compaction
  // uses 2 MB (lsm::BulkReadOptions) so sequential reads amortize the NAND
  // access latency.
  uint32_t readahead_blocks = 1;
};

// Per-write options.
struct WriteOptions {
  bool sync = false;
  // Non-zero marks a write applied FROM the replication stream: the batch is
  // committed at exactly this first sequence number (advancing last_sequence
  // past the batch if needed) instead of allocating fresh sequences, is never
  // coalesced with other writers, and is not re-shipped. 0 = normal write.
  uint64_t replicated_seq = 0;
  // RocksDB's no_slowdown, for the long waits: where the write would sleep
  // in a slowdown or wait at a stop trigger (L0 files, pending compaction
  // bytes), it returns Status::Incomplete instead, before any sequence is
  // allocated, WAL byte appended or group shipped. Unlike RocksDB's, a write
  // at the memtable backlog still waits for its flush (DESIGN.md §29).
  // Never coalesced with a writer whose no_slowdown differs.
  bool no_slowdown = false;
};

}  // namespace kvaccel::lsm
