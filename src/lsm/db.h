// Public API of the host LSM-KVS — the RocksDB stand-in the paper builds on.
// Open a DB against a DbEnv (simulation clock, hybrid SSD, file system, host
// CPU pool); use it from simulated threads only.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/value.h"
#include "fs/simfs.h"
#include "lsm/dbformat.h"
#include "lsm/iterator.h"
#include "lsm/options.h"
#include "lsm/stats.h"
#include "lsm/write_batch.h"
#include "sim/cpu_pool.h"
#include "sim/sim_env.h"
#include "ssd/hybrid_ssd.h"

namespace kvaccel::lsm {

// Bundle of simulated resources a DB instance runs against.
struct DbEnv {
  sim::SimEnv* env = nullptr;
  ssd::HybridSsd* ssd = nullptr;
  fs::SimFs* fs = nullptr;
  sim::CpuPool* host_cpu = nullptr;
};

// Snapshot of the Main-LSM internals the KVACCEL Detector polls (paper §V-C:
// "the number of SSTs in L0, MT size, and pending compaction size") plus the
// stall state itself, which baselines and ADOC also consume.
struct StallSignals {
  int l0_files = 0;
  int immutable_memtables = 0;
  uint64_t active_memtable_bytes = 0;  // logical
  uint64_t pending_compaction_bytes = 0;
  bool stalled = false;            // writers fully blocked right now
  bool slowdown_active = false;    // delayed-write throttling in effect
  bool stall_imminent = false;     // any trigger at/over its slowdown bound
  // Trigger configuration, so observers can judge proximity to a stop.
  int l0_slowdown_trigger = 0;
  int l0_stop_trigger = 0;
  int max_write_buffer_number = 0;
  uint64_t hard_pending_limit = 0;
  // Number of levels currently scoring >= 1.0, i.e. distinct compaction jobs
  // the scheduler wants to run right now (obs: `lsm.compaction.queue_depth`).
  int compaction_queue_depth = 0;
};

// Point-in-time view of the SST block cache (obs: `lsm.cache.*`).
struct BlockCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t usage_bytes = 0;
  uint64_t capacity_bytes = 0;

  double hit_rate() const {
    uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

// One live SST as described by the current version — what the scrubber and
// the integrity checker walk (DESIGN.md §9).
struct SstFileInfo {
  uint64_t number = 0;
  int level = 0;
  uint64_t logical_size = 0;
  uint64_t num_entries = 0;
  SequenceNumber max_seq = 0;
  std::string smallest;  // internal keys
  std::string largest;
};

// One entry of a sorted-batch ingestion (see DB::IngestSortedBatch).
struct IngestEntry {
  std::string key;
  Value value;
  bool tombstone = false;
  // Sequence number the entry was originally written with; must come from
  // this DB's sequence space (AllocateSequence) so global ordering holds.
  SequenceNumber seq = 0;
};

// The key-value surface every store serves: this host LSM, the KVACCEL node
// (core::KvaccelDB), the sharded router and the HA pair. The harness and the
// nemesis drive all four through it.
class Store {
 public:
  Store() = default;
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;
  virtual ~Store() = default;

  virtual Status Write(const WriteOptions& wopts, WriteBatch* batch) = 0;
  virtual Status Get(const ReadOptions& ropts, const Slice& key,
                     Value* value) = 0;
  // Forward iterator over live user keys (tombstones/old versions hidden).
  virtual std::unique_ptr<Iterator> NewIterator(const ReadOptions& ropts) = 0;
  // Blocks until every buffered write reaches an SST.
  virtual Status FlushAll() = 0;
  // Blocks until no level wants compaction (test/bootstrap helper).
  virtual Status WaitForCompactionIdle() = 0;
  // Stops background work and joins the store's simulated threads. Must be
  // called before SimEnv::Run() can return.
  virtual Status Close() = 0;
  // The latched background error, if any (RocksDB-style): once a flush or
  // compaction fails unrecoverably the store refuses further writes with
  // this status until reopened. Reads keep working.
  virtual Status GetBackgroundError() = 0;

  // One-entry batches: every store decides a write's path once per batch.
  Status Put(const WriteOptions& wopts, const Slice& key, const Value& value) {
    WriteBatch batch;
    batch.Put(key, value);
    return Write(wopts, &batch);
  }
  Status Delete(const WriteOptions& wopts, const Slice& key) {
    WriteBatch batch;
    batch.Delete(key);
    return Write(wopts, &batch);
  }
};

class DB : public Store {
 public:
  // Opens (creating or recovering) the database stored in `env.fs`.
  static Status Open(const DbOptions& options, const DbEnv& env,
                     std::unique_ptr<DB>* db);

  // Get that also reports the sequence number of the deciding entry: the
  // found value's sequence, a tombstone's sequence (status NotFound), or 0
  // when the key never existed. KVACCEL's crash recovery compares these
  // against redirected-write sequences (DESIGN.md §5).
  virtual Status GetWithSequence(const ReadOptions& ropts, const Slice& key,
                                 Value* value, SequenceNumber* seq) = 0;
  // Reserves `count` consecutive sequence numbers from this DB's sequence
  // space and returns the first; used to version writes that bypass the
  // normal write path (KVACCEL redirection).
  virtual SequenceNumber AllocateSequence(uint32_t count) = 0;
  // The highest sequence number this DB has assigned or applied — the
  // replication/reconciliation frontier probe (reads the clock without
  // advancing it the way AllocateSequence would).
  virtual SequenceNumber LastSequence() = 0;

  // Bulk-loads already-sorted, already-versioned entries as one L0 SST,
  // bypassing WAL and memtable (RocksDB external-file-ingestion style).
  // KVACCEL's rollback uses this to merge the Dev-LSM scan stream without
  // paying the write path twice. Keys must be strictly ascending.
  virtual Status IngestSortedBatch(const std::vector<IngestEntry>& entries) = 0;

  // --- Integrity hooks (scrubber / checker, DESIGN.md §9) ---
  // Every SST in the current version, L0 downward.
  virtual std::vector<SstFileInfo> ListSstFiles() = 0;
  // Re-reads every block of SST `number` with checksum verification on and
  // cross-checks the file's contents against its version metadata (key
  // order within range, entry count, max sequence). Returns NotFound when
  // the file is no longer part of the current version (compacted away since
  // it was listed — benign for an incremental scrubber), Corruption on any
  // mismatch. `*bytes_read` (optional) reports the logical bytes scanned.
  virtual Status VerifySstFile(uint64_t number,
                               uint64_t* bytes_read = nullptr) = 0;

  virtual const DbStats& stats() const = 0;
  virtual DbStats& mutable_stats() = 0;
  virtual BlockCacheStats GetBlockCacheStats() = 0;
  virtual StallSignals GetStallSignals() = 0;
  virtual uint64_t TotalSstBytes() = 0;

  // --- Dynamic tuning hooks (used by the ADOC baseline, paper §II-B) ---
  virtual void SetCompactionThreads(int n) = 0;
  virtual int compaction_threads() const = 0;
  virtual void SetWriteBufferSize(uint64_t bytes) = 0;
  virtual uint64_t write_buffer_size() const = 0;
  virtual void SetSlowdownEnabled(bool enabled) = 0;
  // Width cap for range-partitioned subcompactions (DESIGN.md §10). The ADOC
  // tuner moves this together with the thread budget.
  virtual void SetMaxSubcompactions(int n) = 0;
  virtual int max_subcompactions() const = 0;
};

}  // namespace kvaccel::lsm
