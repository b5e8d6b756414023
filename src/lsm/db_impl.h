// DbImpl: the concrete LSM engine. One writer path with RocksDB-style
// slowdown/stop gating, one flush thread, a pool of compaction workers whose
// active count can change at runtime (the ADOC hook), and snapshot-consistent
// reads over {memtable, immutables, versioned SSTs}.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "lsm/cache.h"
#include "lsm/db.h"
#include "lsm/memtable.h"
#include "lsm/sst.h"
#include "lsm/version.h"
#include "lsm/wal.h"
#include "obs/trace.h"
#include "sim/sim_env.h"

namespace kvaccel::lsm {

class DbImpl : public DB {
 public:
  DbImpl(const DbOptions& options, const DbEnv& env);
  ~DbImpl() override;

  Status OpenImpl();

  Status Write(const WriteOptions& wopts, WriteBatch* batch) override;
  Status Get(const ReadOptions& ropts, const Slice& key,
             Value* value) override;
  Status GetWithSequence(const ReadOptions& ropts, const Slice& key,
                         Value* value, SequenceNumber* seq) override;
  SequenceNumber AllocateSequence(uint32_t count) override;
  SequenceNumber LastSequence() override;
  std::unique_ptr<Iterator> NewIterator(const ReadOptions& ropts) override;

  Status IngestSortedBatch(const std::vector<IngestEntry>& entries) override;
  Status FlushAll() override;
  Status WaitForCompactionIdle() override;
  Status Close() override;

  Status GetBackgroundError() override;

  std::vector<SstFileInfo> ListSstFiles() override;
  Status VerifySstFile(uint64_t number, uint64_t* bytes_read) override;

  const DbStats& stats() const override { return stats_; }
  DbStats& mutable_stats() override { return stats_; }
  BlockCacheStats GetBlockCacheStats() override;
  StallSignals GetStallSignals() override;
  uint64_t TotalSstBytes() override;

  void SetCompactionThreads(int n) override;
  int compaction_threads() const override { return active_compaction_threads_; }
  void SetWriteBufferSize(uint64_t bytes) override;
  uint64_t write_buffer_size() const override { return write_buffer_size_; }
  void SetSlowdownEnabled(bool enabled) override { slowdown_enabled_ = enabled; }
  void SetMaxSubcompactions(int n) override;
  int max_subcompactions() const override { return max_subcompactions_; }

 private:
  struct ImmEntry {
    std::shared_ptr<MemTable> mem;
    uint64_t log_number = 0;
  };

  // One queued foreground write. Writers enqueue under mu_; the front writer
  // becomes the group leader, coalesces followers into one batch, performs
  // the WAL append + memtable apply for the whole group, and completes the
  // followers with the shared status (LevelDB/RocksDB group commit).
  struct Writer {
    Writer(WriteBatch* b, const WriteOptions& o) : batch(b), wopts(o) {}
    WriteBatch* batch;
    WriteOptions wopts;
    bool done = false;
    Status status;
    sim::SimCondVar cv;
  };

  // --- Write-path gating (mu_ held; may release while sleeping/waiting) ---
  Status MakeRoomForWrite(uint64_t batch_logical);
  // mu_ held. Merges queued followers behind the leader (writers_.front())
  // into one batch, bounded by max_group_commit_bytes and compatible write
  // options. Returns the batch to commit (the leader's own, or
  // group_scratch_) and sets *last_writer to the last coalesced writer.
  WriteBatch* BuildBatchGroup(Writer** last_writer);
  SequenceNumber AllocateSequenceLocked(uint32_t count);
  bool StopConditionLocked(std::string* reason) const;
  bool SlowdownConditionLocked() const;
  Status SwitchMemtableLocked();

  // Half-open user-key slice of a compaction's key space; an unset bound is
  // unbounded. Sub-ranges of a split job partition the space (DESIGN.md §10).
  struct KeyRange {
    std::string begin, end;
    bool has_begin = false;
    bool has_end = false;
  };

  // --- Background work ---
  void FlushThreadLoop();
  void CompactionThreadLoop(int worker_id);
  Status FlushImmToL0(const ImmEntry& imm);
  // mu_ held. False withholds the last free worker slot from deep-level jobs
  // while L0 pressure is building (priority scheduler, DESIGN.md §10).
  bool AllowDeepCompactionLocked() const;
  // `trace_track` is the worker's compaction track (unused when tracing is
  // off): sub-phase spans land on the worker that runs them.
  Status RunCompaction(Compaction* c, uint32_t trace_track);
  // Builds the L0 SST file for `imm` and fills `meta`; retryable — the
  // caller deletes the partial file between attempts.
  Status BuildL0Sst(const ImmEntry& imm, uint64_t number, FileMetaData* meta);
  // Merge phase of a compaction restricted to `range`: produces output SSTs
  // without touching the version set. `created` records every file number
  // written so a failed attempt can be cleaned up and retried. `crash_site`
  // names the per-entry fault-injection point; `throttled` subjects the
  // range's I/O to the shared compaction rate limiter; `elide_tombstones`
  // is the per-JOB elision verdict (options_.allow_tombstone_elision and the
  // intra-L0 rule), evaluated once before any sub-range starts so a device
  // drain completing mid-job cannot flip it between sub-ranges. A non-null
  // `ndp` runs the range device-side (DESIGN.md §13): input reads and output
  // writes skip PCIe, and the merge burns ndp->merge_cpu instead of host CPU.
  Status DoCompactionWork(Compaction* c, const KeyRange& range,
                          const char* crash_site, bool throttled,
                          bool elide_tombstones, uint32_t trace_track,
                          const OffloadGrant* ndp,
                          std::vector<FileMetaPtr>* outputs,
                          std::vector<uint64_t>* created,
                          uint64_t* read_bytes, uint64_t* written_bytes);
  // User keys splitting `c`'s key space into up to `want` sub-ranges, chosen
  // evenly from the inputs' index-block boundaries. May return fewer (never
  // more than want-1); empty means the job cannot usefully be split.
  std::vector<std::string> SubcompactionBoundaries(Compaction* c, int want);
  // Runs the sub-ranges defined by `bounds` as parallel actors and merges
  // their results in range order (deterministic).
  Status RunSubcompactions(Compaction* c, const std::vector<std::string>& bounds,
                           bool throttled, bool elide_tombstones,
                           uint32_t trace_track, const OffloadGrant* ndp,
                           std::vector<FileMetaPtr>* outputs,
                           std::vector<uint64_t>* created,
                           uint64_t* read_bytes, uint64_t* written_bytes);
  // Charges `bytes` against the shared compaction-bytes rate limiter and
  // sleeps (virtual time) until the reservation's slot. mu_ must NOT be held.
  void ThrottleCompactionIo(uint64_t bytes);
  // Runs `fn`, retrying transient device errors (IOError/Busy/TryAgain) up
  // to options_.max_io_retries times with exponential virtual-time backoff.
  // mu_ must NOT be held.
  Status RetryTransient(const std::function<Status()>& fn);
  // Obsolete SSTs are deleted only once no live version (and hence no
  // iterator/snapshot) can still lazily open them: files retire to a
  // deferred list and are reaped when their metadata refcount drops to the
  // list's own reference.
  void DeferObsoleteFile(const FileMetaPtr& meta);
  void ReapObsoleteFiles();

  // --- Tables ---
  Status GetTable(uint64_t number, std::shared_ptr<SstReader>* reader);

  Status SearchSstsLocked(const ReadOptions& ropts, const LookupKey& lkey,
                          std::shared_ptr<const Version> version,
                          Value* value, SequenceNumber* seq);

  DbOptions options_;
  DbEnv denv_;
  sim::SimEnv* env_;

  sim::SimMutex mu_;
  sim::SimCondVar bg_cv_;     // wakes flush/compaction workers
  sim::SimCondVar stall_cv_;  // wakes stalled writers
  sim::SimCondVar work_done_cv_;  // FlushAll / WaitForCompactionIdle

  std::deque<Writer*> writers_;   // front = current group leader
  WriteBatch group_scratch_;      // leader's merge buffer (reused)

  std::shared_ptr<MemTable> mem_;
  std::deque<ImmEntry> imm_;
  std::unique_ptr<LogWriter> wal_;
  uint64_t wal_number_ = 0;

  std::unique_ptr<VersionSet> versions_;
  std::unique_ptr<BlockCache> block_cache_;
  std::map<uint64_t, std::shared_ptr<SstReader>> table_cache_;

  std::vector<FileMetaPtr> deferred_deletions_;
  std::vector<sim::SimEnv::Thread*> bg_threads_;
  bool shutting_down_ = false;
  bool closed_ = false;
  Status bg_error_;

  // Decorrelated-jitter stream for RetryTransient backoff (sim/backoff.h).
  // Drawn under mu_, so the schedule is deterministic per instance.
  Random64 retry_rng_;

  // Dynamically tunable copies (ADOC).
  int active_compaction_threads_;
  uint64_t write_buffer_size_;
  bool slowdown_enabled_;
  int max_compaction_workers_;
  int max_subcompactions_;

  // Shared compaction-bytes rate limiter (deep jobs only): classic
  // busy-until accumulator — a reservation starts at max(now, busy_until)
  // and pushes busy_until forward by bytes/rate. 0 rate = disabled.
  double compaction_rate_bps_ = 0;
  double limiter_busy_until_ns_ = 0;

  int running_compactions_ = 0;
  bool flush_running_ = false;
  bool in_slowdown_region_ = false;
  // True while the group leader is committing (WAL + memtable apply) with
  // mu_ released; FlushAll must not switch the memtable underneath it.
  bool commit_in_flight_ = false;

  DbStats stats_;

  // Tracing (obs/trace.h). tracer_ is null unless a Tracer was attached to
  // the SimEnv before Open; every site below guards on that, so the disabled
  // cost is one pointer compare and the hot write path never allocates.
  obs::Tracer* tracer_ = nullptr;
  uint32_t tr_wal_ = 0;
  uint32_t tr_mem_ = 0;
  uint32_t tr_flush_ = 0;
  uint32_t tr_stall_ = 0;
  uint32_t tr_slowdown_ = 0;
  std::vector<uint32_t> tr_compact_;  // one track per compaction worker
  // Track pool for subcompaction helper actors; helpers borrow slots
  // round-robin (next_subtrack_) since split jobs come and go.
  std::vector<uint32_t> tr_subcompact_;
  size_t next_subtrack_ = 0;
  obs::CoalescingSpan wal_append_span_;
  obs::CoalescingSpan wal_sync_span_;
};

}  // namespace kvaccel::lsm
