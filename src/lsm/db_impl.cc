#include "lsm/db_impl.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <set>

#include "lsm/filename.h"
#include "sim/backoff.h"
#include "sim/fault.h"

namespace kvaccel::lsm {

using sim::SimLockGuard;

namespace {

// Byte budget for one leader-coalesced write group (RocksDB
// max_write_batch_group_size_bytes analogue). A small leading batch caps
// the group lower so tiny writes aren't delayed behind huge merges.
constexpr uint64_t kMaxGroupCommitBytes = 1ull << 20;
// Host CPU cost of the compaction merge loop, nominal ns per logical byte.
// ~2 ns/B ≈ 500 MB/s per thread of merge throughput, in line with
// uncompressed RocksDB compaction; this is what leaves the device idle
// during the CPU phase (paper §III-B).
constexpr double kCompactionCpuNsPerByte = 1.2;
// Host CPU cost of one iterator Next(), nominal ns.
constexpr double kNextCpuNs = 350;

}  // namespace

// ---------------- Open / lifecycle ----------------

Status DB::Open(const DbOptions& options, const DbEnv& env,
                std::unique_ptr<DB>* db) {
  auto impl = std::make_unique<DbImpl>(options, env);
  Status s = impl->OpenImpl();
  if (!s.ok()) return s;
  *db = std::move(impl);
  return Status::OK();
}

DbImpl::DbImpl(const DbOptions& options, const DbEnv& env)
    : options_(options), denv_(env), env_(env.env),
      retry_rng_(options.io_retry_jitter_seed),
      active_compaction_threads_(options.compaction_threads),
      write_buffer_size_(options.write_buffer_size),
      max_compaction_workers_(std::max(8, options.compaction_threads)),
      max_subcompactions_(std::max(1, options.max_subcompactions)) {}

DbImpl::~DbImpl() {
  // Close() must have run inside the simulation; assert-level check only.
  assert(closed_ || bg_threads_.empty());
}

Status DbImpl::OpenImpl() {
  tracer_ = env_->tracer();
  if (tracer_ != nullptr) {
    tr_wal_ = tracer_->RegisterTrack("lsm.wal");
    tr_mem_ = tracer_->RegisterTrack("lsm.memtable");
    tr_flush_ = tracer_->RegisterTrack("lsm.flush");
    tr_stall_ = tracer_->RegisterTrack("lsm.stall");
    tr_slowdown_ = tracer_->RegisterTrack("lsm.slowdown");
    for (int i = 0; i < max_compaction_workers_; i++) {
      tr_compact_.push_back(
          tracer_->RegisterTrack("lsm.compaction-" + std::to_string(i)));
    }
    // Helper-actor lanes for range-partitioned subcompactions; sized at the
    // worker pool so even every-worker-split jobs get distinct lanes.
    for (int i = 0; i < max_compaction_workers_; i++) {
      tr_subcompact_.push_back(
          tracer_->RegisterTrack("lsm.subcompact-" + std::to_string(i)));
    }
    wal_append_span_.Init(tracer_, tr_wal_, "wal.append", FromMicros(50));
    wal_sync_span_.Init(tracer_, tr_wal_, "wal.sync", FromMicros(50));
  }
  if (options_.compaction_rate_limit > 0 && denv_.ssd != nullptr) {
    compaction_rate_bps_ =
        options_.compaction_rate_limit * denv_.ssd->config().nand_bytes_per_sec;
  }
  block_cache_ =
      std::make_unique<BlockCache>(options_.block_cache_capacity);
  versions_ = std::make_unique<VersionSet>(options_, denv_.fs);

  Status s;
  mem_ = std::make_shared<MemTable>();
  if (denv_.fs->FileExists("CURRENT")) {
    s = versions_->Recover();
    if (!s.ok()) return s;
    // Tables and WALs on disk, in name order (the order orphans are reaped).
    struct DiskFile { std::string name; uint64_t number; FileType type; };
    std::vector<DiskFile> files;
    for (const std::string& name : denv_.fs->GetChildren()) {
      DiskFile f{name, 0, FileType::kTable};
      if (!ParseFileName(name, &f.number, &f.type) ||
          f.type == FileType::kManifest) {
        continue;
      }
      // The manifest's next-file counter lags any allocation that crashed
      // before its LogAndApply — in particular WAL numbers, which are never
      // recorded in an edit at all. Reusing such a number for the fresh WAL
      // below would truncate a just-replayed log while its records still
      // live only in the memtable; a second crash then loses acknowledged
      // writes.
      versions_->MarkFileNumberUsed(f.number);
      files.push_back(std::move(f));
    }
    // Replay WALs newer than the manifest's log number into the memtable,
    // oldest first.
    std::vector<uint64_t> replay;
    for (const DiskFile& f : files) {
      if (f.type == FileType::kLog && f.number >= versions_->log_number()) {
        replay.push_back(f.number);
      }
    }
    std::sort(replay.begin(), replay.end());
    for (uint64_t number : replay) {
      s = ReadWalBatches(denv_.fs, LogFileName(number),
                         [&](const WriteBatch& batch) {
        Status is = batch.InsertInto(mem_.get());
        if (!is.ok()) return is;
        SequenceNumber max_seq = batch.Sequence() + batch.Count() - 1;
        if (max_seq > versions_->last_sequence()) {
          versions_->SetLastSequence(max_seq);
        }
        return Status::OK();
      });
      if (!s.ok()) return s;
    }
    // A crash can strand SSTs a flush/compaction wrote but never installed
    // (e.g. some sub-ranges of a split job finished, the atomic install did
    // not) and WALs the manifest already superseded. Recovery is the only
    // point where "referenced by nothing" is decidable without tracking
    // in-flight writers, so reap them here.
    std::set<uint64_t> live;
    auto version = versions_->current();
    for (int level = 0; level < kNumLevels; level++) {
      for (const auto& f : version->files(level)) live.insert(f->number);
    }
    for (const DiskFile& f : files) {
      if (f.type == FileType::kTable ? live.count(f.number) == 0
                                     : f.number < versions_->log_number()) {
        denv_.fs->DeleteFile(f.name);
        stats_.orphan_files_removed++;
      }
    }
  } else {
    s = versions_->Create();
    if (!s.ok()) return s;
  }

  // Fresh WAL for the (possibly replayed) active memtable.
  wal_number_ = versions_->NewFileNumber();
  std::unique_ptr<fs::WritableFile> wal_file;
  s = denv_.fs->NewWritableFile(LogFileName(wal_number_), &wal_file);
  if (!s.ok()) return s;
  // Unsynced WAL rides the page cache (db_bench default); a WAL deleted
  // after its memtable flushes may never touch the device.
  wal_file->set_writeback_chunk(fs::kLazyWriteback);
  wal_ = std::make_unique<LogWriter>(std::move(wal_file));

  bg_threads_.push_back(
      env_->Spawn("lsm-flush", [this] { FlushThreadLoop(); }));
  for (int i = 0; i < max_compaction_workers_; i++) {
    bg_threads_.push_back(env_->Spawn(
        "lsm-compact-" + std::to_string(i),
        [this, i] { CompactionThreadLoop(i); }));
  }
  return Status::OK();
}

Status DbImpl::Close() {
  {
    SimLockGuard l(mu_);
    if (closed_) return Status::OK();
    shutting_down_ = true;
    bg_cv_.NotifyAll();
    stall_cv_.NotifyAll();
    work_done_cv_.NotifyAll();
  }
  for (auto* t : bg_threads_) env_->Join(t);
  bg_threads_.clear();
  {
    SimLockGuard l(mu_);
    if (tracer_ != nullptr) {
      // Close any span the shutdown interrupted and drain the WAL
      // coalescers: the tracer may outlive this DB, so nothing here may be
      // deferred to serialization time.
      if (stats_.stall_regions.open()) tracer_->End(tr_stall_, "stall");
      if (in_slowdown_region_) tracer_->End(tr_slowdown_, "slowdown");
      wal_append_span_.Flush();
      wal_sync_span_.Flush();
    }
    stats_.stall_regions.CloseAt(env_->Now());
    stats_.slowdown_regions.CloseAt(env_->Now());
    closed_ = true;
  }
  ReapObsoleteFiles();
  if (wal_ != nullptr) wal_->Close();
  return versions_->CloseManifest();
}

Status DbImpl::GetBackgroundError() {
  SimLockGuard l(mu_);
  return bg_error_;
}

Status DbImpl::RetryTransient(const std::function<Status()>& fn) {
  // Only the stop check needs mu_: a simulated thread runs until it blocks,
  // so the counter bump and the delay draw that follow it cannot interleave.
  return sim::RetryTransient(
      env_, &retry_rng_, kIoRetry,
      [this] {
        SimLockGuard l(mu_);
        return shutting_down_;
      },
      &stats_.io_retries, fn);
}

// ---------------- Write path ----------------

Status DbImpl::Write(const WriteOptions& wopts, WriteBatch* batch) {
  Nanos start = env_->Now();
  // Client-side CPU: key generation, batch/WAL encoding, skiplist insert.
  denv_.host_cpu->Consume(options_.put_cpu_ns * batch->Count());

  Writer w(batch, wopts);
  mu_.Lock();
  writers_.push_back(&w);
  while (!w.done && &w != writers_.front()) {
    w.cv.Wait(mu_);
  }
  if (w.done) {
    // A leader committed this batch on our behalf.
    Status s = w.status;
    Nanos now = env_->Now();
    stats_.writes_total += batch->Count();
    stats_.write_bytes_total += batch->LogicalSize();
    stats_.writes_completed.Add(now, batch->Count());
    stats_.put_latency.Add(now - start);
    mu_.Unlock();
    return s;
  }

  // Leader: gate once for the group, merge followers, commit once.
  Status s = MakeRoomForWrite(batch->LogicalSize());
  Writer* last_writer = &w;
  if (s.ok()) {
    WriteBatch* group = BuildBatchGroup(&last_writer);
    // Reserve the group's sequence range before releasing mu_: the KVACCEL
    // redirect path allocates from the same space concurrently, so the range
    // must be published immediately even though the insert completes later.
    // A batch applied FROM replication commits at the primary's sequence
    // instead (never coalesced, see BuildBatchGroup), advancing
    // last_sequence past it so local allocation continues above.
    if (wopts.replicated_seq != 0) {
      group->SetSequence(wopts.replicated_seq);
      SequenceNumber last = wopts.replicated_seq + group->Count() - 1;
      if (last > versions_->last_sequence()) versions_->SetLastSequence(last);
    } else {
      group->SetSequence(AllocateSequenceLocked(group->Count()));
    }
    stats_.write_groups++;
    stats_.group_commit_size.Add(group->Count());

    // The queue front (this leader) owns the write path, so mem_/wal_ are
    // stable while unlocked: memtable switches happen only under this
    // leadership (FlushAll waits out an in-flight commit). Releasing mu_
    // here is what lets followers enqueue — the queueing group commit
    // coalesces.
    commit_in_flight_ = true;
    mu_.Unlock();
    Nanos append_start = tracer_ != nullptr ? env_->Now() : 0;
    s = wal_->AddRecord(group->Contents(), group->LogicalSize());
    if (tracer_ != nullptr) {
      wal_append_span_.Add(append_start, env_->Now(), group->LogicalSize());
    }
    if (s.ok() && sim::FaultAt(env_, "crash.wal.post_append")) {
      // Power lost after the append, before it could become durable: the
      // group is never acknowledged.
      s = Status::IOError("simulated crash");
    }
    if (s.ok() && (wopts.sync || options_.wal_sync)) {
      Nanos sync_start = tracer_ != nullptr ? env_->Now() : 0;
      s = RetryTransient([this] { return wal_->Sync(); });
      if (tracer_ != nullptr) {
        wal_sync_span_.Add(sync_start, env_->Now(), 0);
      }
    }
    if (s.ok() && sim::FaultAt(env_, "crash.wal.post_sync")) {
      // Power lost after the sync, before the memtable apply: the group is
      // durable in the WAL but never acknowledged.
      s = Status::IOError("simulated crash");
    }
    // Ship the group to the replication peer (HA pair). A shipper failure
    // fails the group: locally WAL-durable but unacked — the same ambiguity
    // window as crash.wal.post_sync, which recovery already tolerates.
    // Batches applied FROM replication are not re-shipped.
    if (s.ok() && options_.wal_shipper && wopts.replicated_seq == 0) {
      s = options_.wal_shipper(*group, group->Sequence());
    }
    if (s.ok()) s = group->InsertInto(mem_.get());
    mu_.Lock();
    commit_in_flight_ = false;
    work_done_cv_.NotifyAll();
    if (s.ok()) {
      // Each member batch learns its slice of the group's range.
      SequenceNumber next = group->Sequence();
      for (Writer* wr : writers_) {
        wr->batch->SetSequence(next);
        next += wr->batch->Count();
        if (wr == last_writer) break;
      }
    }
    if (group == &group_scratch_) group_scratch_.Clear();
  }

  // Complete the whole group; the next queued writer (if any) leads.
  Nanos now = env_->Now();
  for (;;) {
    Writer* ready = writers_.front();
    writers_.pop_front();
    if (ready != &w) {
      ready->status = s;
      ready->done = true;
      ready->cv.NotifyOne();
    } else {
      stats_.writes_total += batch->Count();
      stats_.write_bytes_total += batch->LogicalSize();
      stats_.writes_completed.Add(now, batch->Count());
      stats_.put_latency.Add(now - start);
    }
    if (ready == last_writer) break;
  }
  if (!writers_.empty()) writers_.front()->cv.NotifyOne();
  mu_.Unlock();
  return s;
}

WriteBatch* DbImpl::BuildBatchGroup(Writer** last_writer) {
  assert(!writers_.empty());
  Writer* first = writers_.front();
  WriteBatch* result = first->batch;
  uint64_t size = first->batch->LogicalSize();

  // A small leading batch caps the group lower, so a latency-sensitive tiny
  // write is not committed behind megabytes of followers.
  uint64_t max_size = kMaxGroupCommitBytes;
  if (size <= max_size / 8) max_size = size + max_size / 8;

  *last_writer = first;
  for (auto it = writers_.begin() + 1; it != writers_.end(); ++it) {
    Writer* wr = *it;
    // Never fold a sync write into a non-sync group (its durability demand
    // would be silently dropped).
    if (wr->wopts.sync && !first->wopts.sync) break;
    // Replicated batches carry a fixed sequence range; never coalesce them
    // with anything (their range is not contiguous with a fresh allocation).
    if (first->wopts.replicated_seq != 0 || wr->wopts.replicated_seq != 0) {
      break;
    }
    if (size + wr->batch->LogicalSize() > max_size) break;
    size += wr->batch->LogicalSize();
    if (result == first->batch) {
      group_scratch_.Clear();
      group_scratch_.Append(*first->batch);
      result = &group_scratch_;
    }
    result->Append(*wr->batch);
    *last_writer = wr;
  }
  return result;
}

bool DbImpl::StopConditionLocked(std::string* reason) const {
  auto version = versions_->current();
  if (version->NumLevelFiles(0) >= options_.l0_stop_writes_trigger) {
    if (reason != nullptr) *reason = "L0 stop trigger";
    return true;
  }
  if (versions_->EstimatedPendingCompactionBytes() >=
      options_.hard_pending_compaction_bytes_limit) {
    if (reason != nullptr) *reason = "pending compaction bytes hard limit";
    return true;
  }
  return false;
}

bool DbImpl::SlowdownConditionLocked() const {
  auto version = versions_->current();
  if (version->NumLevelFiles(0) >= options_.l0_slowdown_writes_trigger) {
    return true;
  }
  if (versions_->EstimatedPendingCompactionBytes() >=
      options_.soft_pending_compaction_bytes_limit) {
    return true;
  }
  if (static_cast<int>(imm_.size()) >= options_.max_write_buffer_number - 1 &&
      options_.max_write_buffer_number > 1) {
    return true;
  }
  return false;
}

Status DbImpl::SwitchMemtableLocked() {
  uint64_t new_wal = versions_->NewFileNumber();
  std::unique_ptr<fs::WritableFile> wal_file;
  Status s = denv_.fs->NewWritableFile(LogFileName(new_wal), &wal_file);
  if (!s.ok()) return s;
  wal_file->set_writeback_chunk(fs::kLazyWriteback);
  wal_->Close();
  imm_.push_back({mem_, wal_number_});
  mem_ = std::make_shared<MemTable>();
  wal_ = std::make_unique<LogWriter>(std::move(wal_file));
  wal_number_ = new_wal;
  if (tracer_ != nullptr) tracer_->Instant(tr_mem_, "memtable.switch");
  bg_cv_.NotifyAll();
  return Status::OK();
}

Status DbImpl::MakeRoomForWrite(uint64_t batch_logical) {
  bool delayed_once = false;
  for (;;) {
    if (shutting_down_) return Status::Aborted("db closing");
    if (!bg_error_.ok()) return bg_error_;

    std::string reason;
    bool stop = StopConditionLocked(&reason);

    // RocksDB's delayed-write mechanism: pace this write at
    // delayed_write_rate while any slowdown trigger holds (once per write).
    if (!stop && !delayed_once && options_.enable_slowdown &&
        SlowdownConditionLocked()) {
      delayed_once = true;
      stats_.slowdown_events++;
      if (!in_slowdown_region_) {
        in_slowdown_region_ = true;
        stats_.slowdown_regions.Begin(env_->Now());
        if (tracer_ != nullptr) tracer_->Begin(tr_slowdown_, "slowdown");
      }
      uint64_t bytes = batch_logical == 0 ? 4096 : batch_logical;
      // RocksDB escalates the delay as conditions approach the stop trigger
      // (its write controller repeatedly decays the delayed rate); model
      // that with a factor growing over the slowdown->stop window so hard
      // stops are genuinely prevented rather than merely postponed.
      double escalate = 1.0;
      int l0 = versions_->current()->NumLevelFiles(0);
      if (l0 >= options_.l0_slowdown_writes_trigger &&
          options_.l0_stop_writes_trigger >
              options_.l0_slowdown_writes_trigger) {
        double frac = static_cast<double>(
                          l0 - options_.l0_slowdown_writes_trigger) /
                      static_cast<double>(options_.l0_stop_writes_trigger -
                                          options_.l0_slowdown_writes_trigger);
        escalate = 1.0 + 7.0 * std::min(1.0, frac);
      }
      Nanos delay = static_cast<Nanos>(
          static_cast<double>(TransferNanos(bytes,
                                            options_.delayed_write_rate)) *
          escalate);
      bg_cv_.NotifyAll();
      mu_.Unlock();
      env_->SleepFor(delay);
      mu_.Lock();
      continue;
    }
    if (in_slowdown_region_ && !SlowdownConditionLocked()) {
      in_slowdown_region_ = false;
      stats_.slowdown_regions.End(env_->Now());
      if (tracer_ != nullptr) tracer_->End(tr_slowdown_, "slowdown");
    }

    if (stop) {
      // Full write stall (paper events 2/3).
      stats_.stall_events++;
      stats_.stall_regions.Begin(env_->Now());
      if (tracer_ != nullptr) tracer_->Begin(tr_stall_, "stall");
      while (!shutting_down_ && bg_error_.ok() &&
             StopConditionLocked(nullptr)) {
        bg_cv_.NotifyAll();
        stall_cv_.Wait(mu_);
      }
      stats_.stall_regions.End(env_->Now());
      if (tracer_ != nullptr) tracer_->End(tr_stall_, "stall");
      continue;
    }

    if (mem_->LogicalSize() + batch_logical <= write_buffer_size_) {
      return Status::OK();  // room in the active memtable
    }

    if (static_cast<int>(imm_.size()) >=
        options_.max_write_buffer_number - 1) {
      // Flush cannot keep up (paper event 1): block until an immutable
      // memtable drains.
      stats_.stall_events++;
      stats_.stall_regions.Begin(env_->Now());
      if (tracer_ != nullptr) tracer_->Begin(tr_stall_, "stall");
      while (!shutting_down_ && bg_error_.ok() &&
             static_cast<int>(imm_.size()) >=
                 options_.max_write_buffer_number - 1) {
        bg_cv_.NotifyAll();
        stall_cv_.Wait(mu_);
      }
      stats_.stall_regions.End(env_->Now());
      if (tracer_ != nullptr) tracer_->End(tr_stall_, "stall");
      continue;
    }

    Status s = SwitchMemtableLocked();
    if (!s.ok()) return s;
  }
}

// ---------------- Read path ----------------

Status DbImpl::GetTable(uint64_t number, std::shared_ptr<SstReader>* reader) {
  {
    auto it = table_cache_.find(number);
    if (it != table_cache_.end()) {
      *reader = it->second;
      return Status::OK();
    }
  }
  std::shared_ptr<SstReader> fresh;
  Status s = SstReader::Open(options_, denv_.fs, TableFileName(number), number,
                             block_cache_.get(), &fresh);
  if (!s.ok()) return s;
  // Another thread may have opened it while we yielded in I/O; keep one.
  auto [it, inserted] = table_cache_.emplace(number, fresh);
  *reader = it->second;
  return Status::OK();
}

Status DbImpl::SearchSstsLocked(const ReadOptions& ropts,
                                const LookupKey& lkey,
                                std::shared_ptr<const Version> version,
                                Value* value, SequenceNumber* seq) {
  // mu_ NOT held here despite the name pattern: `version` is an immutable
  // snapshot; table opens/reads yield freely.
  //
  // Every overlapping file in every level is probed and the highest-sequence
  // decider wins. Level order does NOT imply sequence order here: rollback
  // re-ingests device pairs at their historical host sequences (DESIGN.md §5
  // extension 3), and compaction can carry such a file to L1+ while a stale
  // WAL-replayed version of the same key is later flushed to L0 with a
  // LOWER sequence — so neither "newest L0 file first" nor "L1 before L2"
  // may stop at the first hit. Files that cannot beat the current best
  // (max_seq <= *seq, seeded by the caller with any memtable hit) are
  // skipped before any I/O; the rest are bloom-guarded, so extra probes
  // rarely cost device reads.
  Slice user_key = lkey.user_key();
  SequenceNumber best = *seq;
  Status result = Status::NotFound("key absent");
  Status io_error;
  version->ForEachOverlapping(
      user_key, [&](int /*level*/, const FileMetaPtr& f) {
        if (f->max_seq <= best) return true;
        std::shared_ptr<SstReader> table;
        Status s = GetTable(f->number, &table);
        if (!s.ok()) {
          io_error = s;
          return false;
        }
        bool found = false;
        ValueType type;
        Value v;
        SequenceNumber s2 = 0;
        s = table->Get(ropts, lkey.internal_key(), &found, &type, &v, &s2);
        if (!s.ok()) {
          io_error = s;
          return false;
        }
        if (found && s2 > best) {
          best = s2;
          if (type == ValueType::kValue) {
            *value = std::move(v);
            result = Status::OK();
          } else {
            result = Status::NotFound("tombstone");
          }
        }
        return true;
      });
  if (!io_error.ok()) return io_error;
  if (best > *seq) *seq = best;
  return result;
}

Status DbImpl::Get(const ReadOptions& ropts, const Slice& key, Value* value) {
  SequenceNumber seq = 0;
  return GetWithSequence(ropts, key, value, &seq);
}

SequenceNumber DbImpl::AllocateSequence(uint32_t count) {
  SimLockGuard l(mu_);
  return AllocateSequenceLocked(count);
}

SequenceNumber DbImpl::LastSequence() {
  SimLockGuard l(mu_);
  return versions_->last_sequence();
}

SequenceNumber DbImpl::AllocateSequenceLocked(uint32_t count) {
  SequenceNumber first = versions_->last_sequence() + 1;
  versions_->SetLastSequence(first + count - 1);
  return first;
}

Status DbImpl::GetWithSequence(const ReadOptions& ropts, const Slice& key,
                               Value* value, SequenceNumber* entry_seq) {
  Nanos start = env_->Now();
  denv_.host_cpu->Consume(options_.get_cpu_ns);
  *entry_seq = 0;

  mu_.Lock();
  std::shared_ptr<MemTable> mem = mem_;
  std::vector<std::shared_ptr<MemTable>> imms;
  for (auto it = imm_.rbegin(); it != imm_.rend(); ++it) {
    imms.push_back(it->mem);  // newest first
  }
  std::shared_ptr<const Version> version = versions_->current();
  SequenceNumber snapshot = versions_->last_sequence();
  mu_.Unlock();

  LookupKey lkey(key, snapshot);
  Status s;
  bool hit = mem->Get(lkey, value, &s, entry_seq);
  if (!hit) {
    for (const auto& imm : imms) {
      if (imm->Get(lkey, value, &s, entry_seq)) {
        hit = true;
        break;
      }
    }
  }
  // The SST sweep runs even on a memtable hit: a bulk-ingested file may hold
  // a NEWER sequence for this key than a WAL-replayed memtable entry (see
  // SearchSstsLocked). The memtable sequence floors the sweep, so files that
  // cannot supersede it are skipped without I/O.
  SequenceNumber mem_seq = *entry_seq;
  Status sst = SearchSstsLocked(ropts, lkey, version, value, entry_seq);
  if (!hit || *entry_seq > mem_seq || (!sst.ok() && !sst.IsNotFound())) {
    s = sst;
  }

  Nanos now = env_->Now();
  mu_.Lock();
  stats_.reads_total++;
  stats_.reads_completed.Add(now, 1);
  stats_.get_latency.Add(now - start);
  mu_.Unlock();
  return s;
}

// ---------------- Iterators ----------------

namespace {

// Lazily concatenates the (sorted, disjoint) files of one L1+ level.
class LevelConcatIterator : public Iterator {
 public:
  using TableOpener =
      std::function<Status(uint64_t, std::shared_ptr<SstReader>*)>;

  LevelConcatIterator(std::vector<FileMetaPtr> files, TableOpener opener,
                      ReadOptions ropts)
      : files_(std::move(files)), opener_(std::move(opener)), ropts_(ropts) {}

  bool Valid() const override { return iter_ != nullptr && iter_->Valid(); }

  void SeekToFirst() override {
    file_pos_ = 0;
    InitFileIter(nullptr);
  }

  void Seek(const Slice& target) override {
    InternalKeyComparator cmp;
    // First file whose largest >= target.
    size_t lo = 0, hi = files_.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (cmp.Compare(Slice(files_[mid]->largest), target) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    file_pos_ = lo;
    InitFileIter(&target);
  }

  void Next() override {
    assert(Valid());
    iter_->Next();
    while (status_.ok() && (iter_ == nullptr || !iter_->Valid()) &&
           file_pos_ + 1 < files_.size()) {
      file_pos_++;
      OpenCurrent(nullptr);
    }
  }

  Slice key() const override { return iter_->key(); }
  Slice value() const override { return iter_->value(); }
  Status status() const override { return status_; }

 private:
  void InitFileIter(const Slice* target) {
    iter_.reset();
    while (file_pos_ < files_.size()) {
      OpenCurrent(target);
      if (!status_.ok() || iter_ == nullptr) return;
      if (iter_->Valid()) return;
      file_pos_++;
      target = nullptr;
    }
  }

  void OpenCurrent(const Slice* target) {
    std::shared_ptr<SstReader> table;
    status_ = opener_(files_[file_pos_]->number, &table);
    if (!status_.ok()) {
      iter_.reset();
      return;
    }
    iter_ = table->NewIterator(ropts_);
    if (target != nullptr) {
      iter_->Seek(*target);
    } else {
      iter_->SeekToFirst();
    }
  }

  std::vector<FileMetaPtr> files_;
  TableOpener opener_;
  ReadOptions ropts_;
  size_t file_pos_ = 0;
  std::unique_ptr<Iterator> iter_;
  Status status_;
};

// User-facing iterator: hides sequence numbers, old versions and tombstones.
// Each Seek and SeekToFirst reports its start time to `on_seek`.
class DbIter : public Iterator {
 public:
  DbIter(std::unique_ptr<Iterator> internal, SequenceNumber snapshot,
         sim::SimEnv* env, sim::CpuPool* cpu,
         std::function<void(Nanos)> on_seek,
         std::vector<std::shared_ptr<MemTable>> pinned_mems,
         std::shared_ptr<const Version> pinned_version)
      : internal_(std::move(internal)), snapshot_(snapshot), env_(env),
        cpu_(cpu), on_seek_(std::move(on_seek)),
        pinned_mems_(std::move(pinned_mems)),
        pinned_version_(std::move(pinned_version)) {}

  bool Valid() const override { return valid_; }

  void SeekToFirst() override {
    const Nanos start = env_->Now();
    saved_user_key_.clear();
    have_saved_ = false;
    internal_->SeekToFirst();
    FindNextUserEntry();
    on_seek_(start);
  }

  void Seek(const Slice& target) override {
    const Nanos start = env_->Now();
    saved_user_key_.clear();
    have_saved_ = false;
    LookupKey lkey(target, snapshot_);
    internal_->Seek(lkey.internal_key());
    FindNextUserEntry();
    on_seek_(start);
  }

  void Next() override {
    assert(valid_);
    cpu_->Consume(kNextCpuNs);
    internal_->Next();
    FindNextUserEntry();
  }

  // Returns the *user* key.
  Slice key() const override { return ExtractUserKey(internal_->key()); }
  // Returns the encoded Value payload; decode with Value::DecodeOrDie.
  Slice value() const override { return internal_->value(); }
  Status status() const override { return internal_->status(); }

 private:
  void FindNextUserEntry() {
    valid_ = false;
    while (internal_->Valid()) {
      Slice ikey = internal_->key();
      if (ExtractSequence(ikey) > snapshot_) {
        internal_->Next();
        continue;
      }
      Slice ukey = ExtractUserKey(ikey);
      if (have_saved_ && ukey == Slice(saved_user_key_)) {
        internal_->Next();  // an older version of a key already decided
        continue;
      }
      saved_user_key_.assign(ukey.data(), ukey.size());
      have_saved_ = true;
      if (ExtractValueType(ikey) == ValueType::kDeletion) {
        internal_->Next();  // tombstone hides everything older
        continue;
      }
      valid_ = true;
      return;
    }
  }

  std::unique_ptr<Iterator> internal_;
  SequenceNumber snapshot_;
  sim::SimEnv* env_;
  sim::CpuPool* cpu_;
  std::function<void(Nanos)> on_seek_;
  // Keep the snapshot alive: memtable arenas and SST metadata must outlive
  // this iterator even if a flush/compaction retires them meanwhile.
  std::vector<std::shared_ptr<MemTable>> pinned_mems_;
  std::shared_ptr<const Version> pinned_version_;
  std::string saved_user_key_;
  bool have_saved_ = false;
  bool valid_ = false;
};

}  // namespace

std::unique_ptr<Iterator> DbImpl::NewIterator(const ReadOptions& ropts) {
  mu_.Lock();
  std::shared_ptr<MemTable> mem = mem_;
  std::vector<std::shared_ptr<MemTable>> imms;
  for (auto it = imm_.rbegin(); it != imm_.rend(); ++it) {
    imms.push_back(it->mem);
  }
  std::shared_ptr<const Version> version = versions_->current();
  SequenceNumber snapshot = versions_->last_sequence();
  mu_.Unlock();

  auto opener = [this](uint64_t number, std::shared_ptr<SstReader>* out) {
    return GetTable(number, out);
  };

  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(mem->NewIterator());
  for (const auto& imm : imms) children.push_back(imm->NewIterator());
  for (const auto& f : version->files(0)) {
    std::shared_ptr<SstReader> table;
    Status s = GetTable(f->number, &table);
    if (s.ok()) children.push_back(table->NewIterator(ropts));
  }
  for (int level = 1; level < kNumLevels; level++) {
    if (version->files(level).empty()) continue;
    children.push_back(std::make_unique<LevelConcatIterator>(
        version->files(level), opener, ropts));
  }
  auto merged = std::make_unique<MergingIterator<InternalKeyComparator>>(
      InternalKeyComparator(), std::move(children));
  std::vector<std::shared_ptr<MemTable>> pinned;
  pinned.push_back(mem);
  for (const auto& imm : imms) pinned.push_back(imm);
  auto on_seek = [this](Nanos start) {
    Nanos now = env_->Now();
    mu_.Lock();
    stats_.AddSeek(now - start);
    mu_.Unlock();
  };
  return std::make_unique<DbIter>(std::move(merged), snapshot, env_,
                                  denv_.host_cpu, std::move(on_seek),
                                  std::move(pinned), version);
}

// ---------------- Flush ----------------

void DbImpl::FlushThreadLoop() {
  mu_.Lock();
  while (!shutting_down_) {
    // A latched background error parks the thread: retrying forever against
    // a dead device would spin without advancing virtual time.
    if (imm_.empty() || !bg_error_.ok()) {
      bg_cv_.Wait(mu_);
      continue;
    }
    ImmEntry imm = imm_.front();
    flush_running_ = true;
    mu_.Unlock();

    Nanos flush_start = tracer_ != nullptr ? env_->Now() : 0;
    Status s = FlushImmToL0(imm);
    if (tracer_ != nullptr) {
      tracer_->Complete(tr_flush_, "flush", flush_start, env_->Now(),
                        imm.mem->LogicalSize());
    }

    mu_.Lock();
    flush_running_ = false;
    if (!s.ok()) {
      if (bg_error_.ok()) {
        bg_error_ = s;
        stats_.background_errors++;
      }
      fprintf(stderr, "[ERROR] flush failed: %s\n", s.ToString().c_str());
    } else {
      imm_.pop_front();
    }
    stall_cv_.NotifyAll();
    bg_cv_.NotifyAll();
    work_done_cv_.NotifyAll();
    if (s.ok()) {
      std::string old_log = LogFileName(imm.log_number);
      mu_.Unlock();
      denv_.fs->DeleteFile(old_log);  // WAL no longer needed
      ReapObsoleteFiles();
      mu_.Lock();
    }
  }
  mu_.Unlock();
}

Status DbImpl::BuildL0Sst(const ImmEntry& imm, uint64_t number,
                          FileMetaData* meta) {
  std::unique_ptr<fs::WritableFile> file;
  Status s = denv_.fs->NewWritableFile(TableFileName(number), &file);
  if (!s.ok()) return s;
  file->set_writeback_chunk(1 << 20);  // stream like bytes_per_sync
  SstBuilder builder(options_, std::move(file));

  auto iter = imm.mem->NewIterator();
  uint64_t cpu_debt_bytes = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    if (sim::FaultAt(env_, "crash.flush.mid")) {
      return Status::IOError("simulated crash");
    }
    Slice ikey = iter->key();
    Slice val = iter->value();
    Value decoded;
    uint64_t entry_logical = ikey.size();
    if (ExtractValueType(ikey) == ValueType::kValue) {
      Slice tmp = val;
      if (Value::DecodeFrom(&tmp, &decoded)) {
        entry_logical += decoded.logical_size();
      }
    }
    s = builder.Add(ikey, val, entry_logical);
    if (!s.ok()) return s;
    cpu_debt_bytes += entry_logical;
    if (cpu_debt_bytes >= options_.compaction_io_chunk) {
      // Flush is I/O-dominated; charge a light encode cost.
      denv_.host_cpu->Consume(0.5 * static_cast<double>(cpu_debt_bytes));
      cpu_debt_bytes = 0;
    }
  }
  if (cpu_debt_bytes > 0) {
    denv_.host_cpu->Consume(0.5 * static_cast<double>(cpu_debt_bytes));
  }
  s = builder.Finish();
  if (!s.ok()) return s;
  *meta = builder.Meta(number);
  return Status::OK();
}

Status DbImpl::FlushImmToL0(const ImmEntry& imm) {
  mu_.Lock();
  uint64_t number = versions_->NewFileNumber();
  mu_.Unlock();

  auto meta = std::make_shared<FileMetaData>();
  Status s = RetryTransient([&] {
    Status bs = BuildL0Sst(imm, number, meta.get());
    if (!bs.ok() && !sim::SimCrashed(env_)) {
      // Drop the partial output so a retry (or reopened DB) starts clean.
      denv_.fs->DeleteFile(TableFileName(number));
    }
    return bs;
  });
  if (!s.ok()) return s;

  mu_.Lock();
  VersionEdit edit;
  edit.AddFile(0, meta);
  // WALs older than every remaining memtable's log are obsolete.
  uint64_t min_log = wal_number_;
  for (size_t i = 1; i < imm_.size(); i++) {
    min_log = std::min(min_log, imm_[i].log_number);
  }
  edit.SetLogNumber(min_log);
  Status vs = versions_->LogAndApply(&edit);
  stats_.flush_count++;
  stats_.flush_bytes += meta->logical_size;
  mu_.Unlock();
  return vs;
}

// ---------------- Compaction ----------------

void DbImpl::CompactionThreadLoop(int worker_id) {
  mu_.Lock();
  while (!shutting_down_) {
    if (worker_id >= active_compaction_threads_ || !bg_error_.ok()) {
      // Parked: beyond the currently configured thread budget (ADOC shrink),
      // or the DB has latched a background error.
      bg_cv_.Wait(mu_);
      continue;
    }
    std::unique_ptr<Compaction> c =
        versions_->PickCompaction(AllowDeepCompactionLocked());
    if (c == nullptr) {
      bg_cv_.Wait(mu_);
      continue;
    }
    running_compactions_++;
    mu_.Unlock();

    uint32_t track = tracer_ != nullptr ? tr_compact_[worker_id] : 0;
    Nanos comp_start = tracer_ != nullptr ? env_->Now() : 0;
    Status s = RunCompaction(c.get(), track);
    if (tracer_ != nullptr) {
      tracer_->Complete(track, "compaction", comp_start, env_->Now());
    }

    mu_.Lock();
    running_compactions_--;
    c->MarkBeingCompacted(false);
    if (!s.ok()) {
      if (bg_error_.ok()) {
        bg_error_ = s;
        stats_.background_errors++;
      }
      fprintf(stderr, "[ERROR] compaction failed: %s\n",
              s.ToString().c_str());
    }
    stall_cv_.NotifyAll();
    bg_cv_.NotifyAll();
    work_done_cv_.NotifyAll();
  }
  mu_.Unlock();
}

bool DbImpl::AllowDeepCompactionLocked() const {
  // Slot reservation: while L0 pressure is building, hold the last free
  // worker slot back for the L0->L1 (or intra-L0) job that becomes pickable
  // the moment the current L0 work finishes. With nothing running there is
  // nothing to wait for, so any job may start.
  if (running_compactions_ == 0) return true;
  if (running_compactions_ + 1 < active_compaction_threads_) return true;
  return versions_->current()->NumLevelFiles(0) <
         options_.l0_slowdown_writes_trigger;
}

void DbImpl::ThrottleCompactionIo(uint64_t bytes) {
  if (bytes == 0) return;
  if (options_.compaction_io_arbiter) {
    // Shared-device fair-share path: the arbiter blocks until the
    // reservation is granted; the queue time still lands in this DB's
    // throttle accounting so per-shard reports stay comparable.
    Nanos waited = options_.compaction_io_arbiter(bytes);
    if (waited > 0) {
      mu_.Lock();
      stats_.compaction_throttle_ns += static_cast<uint64_t>(waited);
      mu_.Unlock();
    }
    return;
  }
  if (compaction_rate_bps_ <= 0) return;
  mu_.Lock();
  double now = static_cast<double>(env_->Now());
  double start = std::max(now, limiter_busy_until_ns_);
  limiter_busy_until_ns_ =
      start + static_cast<double>(bytes) * 1e9 / compaction_rate_bps_;
  double wake = limiter_busy_until_ns_;
  if (wake > now) stats_.compaction_throttle_ns +=
      static_cast<uint64_t>(wake - now);
  mu_.Unlock();
  if (wake > now) env_->SleepUntil(static_cast<Nanos>(wake));
}

Status DbImpl::RunCompaction(Compaction* c, uint32_t trace_track) {
  // Deep-level jobs are subject to the shared rate limiter; L0 relief work
  // (L0->L1, intra-L0) is exactly what un-gates stalled writers and runs
  // unthrottled.
  const bool throttled = c->level > 0;

  // Elision verdict for the whole job, decided before any work starts.
  // Intra-L0 merges only a subset of L0, so an older version of a deleted
  // key may live in an L0 file outside the job. The options hook lets an
  // external store (KVACCEL's Dev-LSM) veto elision while it holds redirected
  // pairs that recovery would re-ingest at their original sequence numbers.
  const bool elide_tombstones =
      !c->is_intra_l0 && (options_.allow_tombstone_elision == nullptr ||
                          options_.allow_tombstone_elision());

  // Decide the split up front — it only depends on the (immutable) inputs.
  std::vector<std::string> bounds;
  {
    SimLockGuard l(mu_);
    uint64_t threshold = options_.max_subcompaction_input != 0
                             ? options_.max_subcompaction_input
                             : 2 * options_.target_file_size;
    uint64_t input = c->InputBytes();
    if (!c->is_intra_l0 && max_subcompactions_ > 1 &&
        active_compaction_threads_ > 1 && threshold > 0 &&
        input > threshold) {
      int want = static_cast<int>(
          std::min<uint64_t>(static_cast<uint64_t>(max_subcompactions_),
                             (input + threshold - 1) / threshold));
      if (want > 1) {
        mu_.Unlock();
        bounds = SubcompactionBoundaries(c, want);
        mu_.Lock();
      }
    }
  }

  std::vector<FileMetaPtr> outputs;
  std::vector<uint64_t> created;
  uint64_t read_bytes = 0;
  uint64_t written_bytes = 0;

  // NDP placement (DESIGN.md §13): consult the planner once per job, after
  // the split decision so the COMPACT descriptor carries the sub-range count
  // — a split job runs its deep sub-ranges as independent device streams.
  OffloadGrant grant;
  bool offloaded = false;
  if (options_.compaction_offload) {
    OffloadJobInfo info;
    info.level = c->level;
    info.output_level = c->output_level;
    info.input_bytes = c->InputBytes();
    info.input_files =
        static_cast<int>(c->inputs[0].size() + c->inputs[1].size());
    info.subranges = static_cast<int>(bounds.size()) + 1;
    info.is_intra_l0 = c->is_intra_l0;
    offloaded = options_.compaction_offload(info, &grant);
  }

  auto attempt = [&](const OffloadGrant* ndp) {
    return RetryTransient([&] {
      outputs.clear();
      read_bytes = 0;
      written_bytes = 0;
      Status ws;
      if (!bounds.empty()) {
        ws = RunSubcompactions(c, bounds, throttled, elide_tombstones,
                               trace_track, ndp, &outputs, &created,
                               &read_bytes, &written_bytes);
      } else {
        ws = DoCompactionWork(c, KeyRange{},
                              ndp != nullptr ? "crash.ndp.merge.mid"
                                             : "crash.compaction.mid",
                              throttled, elide_tombstones, trace_track, ndp,
                              &outputs, &created, &read_bytes,
                              &written_bytes);
      }
      if (!ws.ok() && !sim::SimCrashed(env_)) {
        // Drop partial outputs so a retry (or reopened DB) starts clean.
        for (uint64_t n : created) denv_.fs->DeleteFile(TableFileName(n));
      }
      if (!ws.ok()) created.clear();
      return ws;
    });
  };
  Status s = attempt(offloaded ? &grant : nullptr);
  if (offloaded && !s.ok() && !sim::SimCrashed(env_)) {
    // Per-job fallback: report the device failure first (the planner opens
    // its circuit breaker), then rerun the whole job on the host path.
    grant.finish(false, 0, 0);
    mu_.Lock();
    stats_.ndp_fallbacks++;
    mu_.Unlock();
    offloaded = false;
    s = attempt(nullptr);
  }
  if (s.ok() && offloaded) {
    // Ship the output metadata back to the host. A crash while the result is
    // in flight (crash.ndp.result.pre) aborts before the install: the output
    // SSTs stay uninstalled strays that recovery reaps.
    s = grant.finish(true, outputs.size(), written_bytes);
  }
  if (!s.ok()) return s;

  // Install the result — all sub-ranges in ONE VersionEdit. MANIFEST
  // failures are not retried: a possibly half-appended edit must not be
  // followed by a duplicate. Crash atomicity: either the edit is durable and
  // every output is live, or none is and recovery reaps the strays.
  mu_.Lock();
  VersionEdit edit;
  for (const auto& f : c->inputs[0]) edit.DeleteFile(c->level, f->number);
  for (const auto& f : c->inputs[1]) {
    edit.DeleteFile(c->output_level, f->number);
  }
  for (const auto& meta : outputs) edit.AddFile(c->output_level, meta);
  s = versions_->LogAndApply(&edit);
  stats_.compaction_count++;
  stats_.compaction_bytes_read += read_bytes;
  stats_.compaction_bytes_written += written_bytes;
  if (offloaded) {
    stats_.ndp_compactions++;
    stats_.ndp_bytes_written += written_bytes;
  }
  if (c->is_intra_l0) stats_.intra_l0_compactions++;
  if (!bounds.empty()) {
    stats_.split_compactions++;
    stats_.subcompaction_count += bounds.size() + 1;
  }
  mu_.Unlock();
  if (!s.ok()) return s;

  // Retire the inputs; actual deletion waits until no pinned version can
  // still reference them.
  for (int which = 0; which < 2; which++) {
    for (const auto& f : c->inputs[which]) DeferObsoleteFile(f);
  }
  ReapObsoleteFiles();
  return Status::OK();
}

std::vector<std::string> DbImpl::SubcompactionBoundaries(Compaction* c,
                                                         int want) {
  // Candidate split points: the last user key of every data block of every
  // input (the index is resident, so this costs no device I/O). Blocks are
  // near-equal logical size, so evenly spaced candidates balance bytes.
  std::vector<std::string> candidates;
  std::string smallest_ukey;
  bool has_smallest = false;
  std::vector<std::string> block_keys;
  for (const auto& side : c->inputs) {
    for (const auto& f : side) {
      Slice file_smallest = ExtractUserKey(f->smallest);
      if (!has_smallest || file_smallest.compare(Slice(smallest_ukey)) < 0) {
        smallest_ukey.assign(file_smallest.data(), file_smallest.size());
        has_smallest = true;
      }
      std::shared_ptr<SstReader> table;
      block_keys.clear();
      if (GetTable(f->number, &table).ok()) {
        table->AppendBlockBoundaries(&block_keys);
        for (const std::string& ikey : block_keys) {
          candidates.push_back(ExtractUserKey(ikey).ToString());
        }
      } else {
        // Degraded: fall back to the file's own range end; the split is
        // coarser but still valid.
        candidates.push_back(ExtractUserKey(f->largest).ToString());
      }
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  // A boundary at (or before) the global smallest user key yields an empty
  // first range; drop such candidates.
  while (!candidates.empty() && has_smallest &&
         candidates.front() <= smallest_ukey) {
    candidates.erase(candidates.begin());
  }
  if (candidates.empty()) return {};
  std::vector<std::string> bounds;
  size_t n = candidates.size();
  if (n <= static_cast<size_t>(want - 1)) {
    bounds = std::move(candidates);
  } else {
    for (int i = 1; i < want; i++) {
      bounds.push_back(candidates[i * n / want]);
    }
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  }
  return bounds;
}

Status DbImpl::RunSubcompactions(Compaction* c,
                                 const std::vector<std::string>& bounds,
                                 bool throttled, bool elide_tombstones,
                                 uint32_t trace_track, const OffloadGrant* ndp,
                                 std::vector<FileMetaPtr>* outputs,
                                 std::vector<uint64_t>* created,
                                 uint64_t* read_bytes_out,
                                 uint64_t* written_bytes_out) {
  const size_t k = bounds.size() + 1;
  const char* sub_site = ndp != nullptr ? "crash.ndp.submerge.mid"
                                        : "crash.subcompaction.mid";
  struct Sub {
    KeyRange range;
    std::vector<FileMetaPtr> outputs;
    std::vector<uint64_t> created;
    uint64_t read = 0;
    uint64_t written = 0;
    Status status;
  };
  std::vector<Sub> subs(k);
  for (size_t i = 0; i < k; i++) {
    if (i > 0) {
      subs[i].range.begin = bounds[i - 1];
      subs[i].range.has_begin = true;
    }
    if (i < bounds.size()) {
      subs[i].range.end = bounds[i];
      subs[i].range.has_end = true;
    }
  }
  // Helpers run every range but the last; this worker runs the last range
  // itself, so a k-way split occupies exactly k actors.
  std::vector<sim::SimEnv::Thread*> helpers;
  for (size_t i = 0; i + 1 < k; i++) {
    Sub* sub = &subs[i];
    uint32_t track = trace_track;
    if (tracer_ != nullptr && !tr_subcompact_.empty()) {
      SimLockGuard l(mu_);
      track = tr_subcompact_[next_subtrack_++ % tr_subcompact_.size()];
    }
    helpers.push_back(env_->Spawn(
        "lsm-subcompact-" + std::to_string(i),
        [this, c, sub, throttled, elide_tombstones, track, ndp, sub_site] {
          Nanos start = tracer_ != nullptr ? env_->Now() : 0;
          sub->status = DoCompactionWork(
              c, sub->range, sub_site, throttled, elide_tombstones, track,
              ndp, &sub->outputs, &sub->created, &sub->read, &sub->written);
          if (tracer_ != nullptr) {
            tracer_->Complete(track, "subcompaction", start, env_->Now());
          }
        }));
  }
  Sub* tail = &subs[k - 1];
  tail->status = DoCompactionWork(c, tail->range, sub_site, throttled,
                                  elide_tombstones, trace_track, ndp,
                                  &tail->outputs, &tail->created, &tail->read,
                                  &tail->written);
  for (auto* t : helpers) env_->Join(t);

  // Merge in range order (deterministic): keep the first failure, but always
  // account every created file so a failed attempt's cleanup sees them all.
  Status s;
  for (Sub& sub : subs) {
    if (s.ok() && !sub.status.ok()) s = sub.status;
    created->insert(created->end(), sub.created.begin(), sub.created.end());
    outputs->insert(outputs->end(), sub.outputs.begin(), sub.outputs.end());
    *read_bytes_out += sub.read;
    *written_bytes_out += sub.written;
  }
  return s;
}

Status DbImpl::DoCompactionWork(Compaction* c, const KeyRange& range,
                                const char* crash_site, bool throttled,
                                bool elide_tombstones, uint32_t trace_track,
                                const OffloadGrant* ndp,
                                std::vector<FileMetaPtr>* outputs,
                                std::vector<uint64_t>* created,
                                uint64_t* read_bytes_out,
                                uint64_t* written_bytes_out) {
  const int output_level = c->output_level;
  // Compaction reads must not wipe the cache, and read 2 MB per command.
  const ReadOptions ropts = BulkReadOptions(options_);

  std::vector<std::unique_ptr<Iterator>> children;
  std::vector<std::shared_ptr<SstReader>> device_tables;
  for (const auto& side : c->inputs) {
    for (const auto& f : side) {
      std::shared_ptr<SstReader> table;
      if (ndp != nullptr) {
        // Device-side stream: a dedicated reader (no block cache — firmware
        // reads must not populate the host cache) whose data-block reads run
        // NAND-only, skipping PCIe.
        Status s = SstReader::Open(options_, denv_.fs, TableFileName(f->number),
                                   f->number, nullptr, &table);
        if (!s.ok()) return s;
        table->set_device_side(true);
        device_tables.push_back(table);
      } else {
        Status s = GetTable(f->number, &table);
        if (!s.ok()) return s;
      }
      children.push_back(table->NewIterator(ropts));
    }
  }
  MergingIterator<InternalKeyComparator> merged(InternalKeyComparator(),
                                                std::move(children));

  // Snapshot for tombstone elision: a delete can be dropped when no level
  // below the output, no level above the job and no memtable can hold an
  // older version of the key.
  mu_.Lock();
  std::shared_ptr<const Version> version = versions_->current();
  std::vector<std::shared_ptr<MemTable>> mems;
  if (elide_tombstones) {
    mems.push_back(mem_);
    for (const ImmEntry& imm : imm_) mems.push_back(imm.mem);
  }
  mu_.Unlock();
  auto is_base_level_for = [&](const Slice& user_key) {
    for (int level = output_level + 1; level < kNumLevels; level++) {
      for (const auto& f : version->files(level)) {
        if (user_key.compare(ExtractUserKey(f->smallest)) >= 0 &&
            user_key.compare(ExtractUserKey(f->largest)) <= 0) {
          return false;
        }
      }
    }
    return true;
  };
  // Rolled-back (ingested) data re-enters L0 at its ORIGINAL sequence
  // numbers, so — unlike a plain LSM — a file this job did not pick may
  // hold an OLDER version of a key: one on a level above the job, or one on
  // its own input level that a concurrent job moved down (or a flush added)
  // after this job picked its inputs. A tombstone must therefore stay while
  // such a file's range holds its key.
  std::set<uint64_t> picked;
  for (const auto& f : c->inputs[0]) picked.insert(f->number);
  auto key_outside_job = [&](const Slice& user_key) {
    for (int level = 0; level <= c->level; level++) {
      for (const auto& f : version->files(level)) {
        if (level == c->level && picked.count(f->number) > 0) continue;
        if (user_key.compare(ExtractUserKey(f->smallest)) >= 0 &&
            user_key.compare(ExtractUserKey(f->largest)) <= 0) {
          return true;
        }
      }
    }
    return false;
  };
  // For the same reason a memtable can hold a version older than the
  // tombstone: a redirected delete rolled back while the key's earlier put
  // is still unflushed, or a backup or resync ingest landing under live
  // writes.
  auto older_in_memtable = [&](const Slice& user_key, SequenceNumber seq) {
    LookupKey lkey(user_key, seq - 1);
    Value unused;
    Status found;
    for (const auto& mem : mems) {
      if (mem->Get(lkey, &unused, &found)) return true;
    }
    return false;
  };

  std::unique_ptr<SstBuilder> builder;
  uint64_t builder_number = 0;
  std::string last_user_key;
  bool has_last = false;
  Status s;

  auto finish_output = [&]() -> Status {
    if (builder == nullptr) return Status::OK();
    Status fs_status = builder->Finish();
    if (!fs_status.ok()) return fs_status;
    auto meta = std::make_shared<FileMetaData>(builder->Meta(builder_number));
    *written_bytes_out += meta->logical_size;
    if (meta->num_entries > 0) outputs->push_back(meta);
    builder.reset();
    return Status::OK();
  };

  // Phase-structured processing, per paper §III-B: "SSTables are loaded from
  // the storage device to memory, where a merge-sort operation is performed;
  // newly created SSTs are then written back". Each batch of
  // compaction_io_chunk logical bytes runs as read-phase (device I/O),
  // merge-phase (pure host CPU — the device-idle window KVACCEL exploits),
  // then write-phase (device I/O).
  // A batch's internal keys and values sit back to back in one reused
  // buffer; `batch` records their sizes.
  struct BatchEntry {
    uint32_t key_size;
    uint32_t value_size;
    uint64_t logical;
  };
  std::vector<BatchEntry> batch;
  std::string batch_buf;
  uint64_t batch_bytes = 0;
  // Read-phase start for tracing: the span from here (or from the end of the
  // previous write phase) to the batch boundary is dominated by SST reads.
  Nanos phase_start = tracer_ != nullptr ? env_->Now() : 0;

  auto write_batch_out = [&]() -> Status {
    if (batch.empty()) return Status::OK();
    const uint64_t bytes = batch_bytes;
    // Rate limiter: pace the job at its aggregate device traffic (the batch
    // is read once and written once) so deep compactions can't starve host
    // writes of bandwidth.
    if (throttled) ThrottleCompactionIo(2 * bytes);
    Nanos merge_start = 0;
    if (tracer_ != nullptr) {
      merge_start = env_->Now();
      tracer_->Complete(trace_track, "compaction.read", phase_start,
                        merge_start, bytes);
    }
    // Merge phase: one CPU burst for the whole batch, no device traffic.
    // Offloaded jobs burn the device's NDP cores instead of the host pool —
    // this is exactly the cycle/PCIe relief near-data compaction buys.
    if (ndp != nullptr) {
      ndp->merge_cpu(batch_bytes);
    } else {
      denv_.host_cpu->Consume(kCompactionCpuNsPerByte *
                              static_cast<double>(batch_bytes));
    }
    Nanos write_start = 0;
    if (tracer_ != nullptr) {
      write_start = env_->Now();
      tracer_->Complete(trace_track, "compaction.merge", merge_start,
                        write_start, bytes);
    }
    // Write phase.
    const char* next = batch_buf.data();
    for (const BatchEntry& e : batch) {
      const Slice ikey(next, e.key_size);
      const Slice val(next + e.key_size, e.value_size);
      next += e.key_size + e.value_size;
      if (builder == nullptr) {
        mu_.Lock();
        builder_number = versions_->NewFileNumber();
        mu_.Unlock();
        created->push_back(builder_number);
        std::unique_ptr<fs::WritableFile> file;
        Status ws = denv_.fs->NewWritableFile(TableFileName(builder_number), &file);
        if (!ws.ok()) return ws;
        file->set_writeback_chunk(1 << 20);  // stream like bytes_per_sync
        if (ndp != nullptr) file->set_device_side(true);
        builder = std::make_unique<SstBuilder>(options_, std::move(file));
      }
      Status ws = builder->Add(ikey, val, e.logical);
      if (!ws.ok()) return ws;
      if (builder->logical_size() >= options_.target_file_size) {
        ws = finish_output();
        if (!ws.ok()) return ws;
      }
    }
    batch.clear();
    batch_buf.clear();
    batch_bytes = 0;
    if (tracer_ != nullptr) {
      phase_start = env_->Now();
      tracer_->Complete(trace_track, "compaction.write", write_start,
                        phase_start, bytes);
    }
    return Status::OK();
  };

  // Position at the first entry of the sub-range: (begin, max-seq) sorts
  // before every version of `begin`, so all versions of a boundary key land
  // in exactly one sub-range.
  if (range.has_begin) {
    std::string seek_key;
    AppendInternalKey(&seek_key, range.begin, kMaxSequenceNumber,
                      kValueTypeForSeek);
    merged.Seek(seek_key);
  } else {
    merged.SeekToFirst();
  }
  for (; merged.Valid(); merged.Next()) {
    if (sim::FaultAt(env_, crash_site)) {
      return Status::IOError("simulated crash");
    }
    Slice ikey = merged.key();
    Slice ukey = ExtractUserKey(ikey);
    if (range.has_end && ukey.compare(Slice(range.end)) >= 0) break;
    Slice val = merged.value();

    uint64_t entry_logical = ikey.size();
    if (ExtractValueType(ikey) == ValueType::kValue) {
      Value decoded;
      Slice tmp = val;
      if (Value::DecodeFrom(&tmp, &decoded)) {
        entry_logical += decoded.logical_size();
      }
    }
    *read_bytes_out += entry_logical;

    if (has_last && ukey == Slice(last_user_key)) continue;  // shadowed
    last_user_key.assign(ukey.data(), ukey.size());
    has_last = true;

    if (elide_tombstones && ExtractValueType(ikey) == ValueType::kDeletion &&
        is_base_level_for(ukey) && !key_outside_job(ukey) &&
        !older_in_memtable(ukey, ExtractSequence(ikey))) {
      continue;  // tombstone has nothing left to hide
    }

    batch.push_back({static_cast<uint32_t>(ikey.size()),
                     static_cast<uint32_t>(val.size()), entry_logical});
    batch_buf.append(ikey.data(), ikey.size());
    batch_buf.append(val.data(), val.size());
    batch_bytes += entry_logical;
    if (batch_bytes >= options_.compaction_io_chunk) {
      s = write_batch_out();
      if (!s.ok()) return s;
    }
  }
  if (!merged.status().ok()) return merged.status();
  s = write_batch_out();
  if (!s.ok()) return s;
  return finish_output();
}

void DbImpl::DeferObsoleteFile(const FileMetaPtr& meta) {
  SimLockGuard l(mu_);
  deferred_deletions_.push_back(meta);
}

void DbImpl::ReapObsoleteFiles() {
  std::vector<uint64_t> reap;
  {
    SimLockGuard l(mu_);
    auto it = deferred_deletions_.begin();
    while (it != deferred_deletions_.end()) {
      // use_count == 1: only the deferred list itself still references the
      // file, so no version/iterator can lazily open it anymore.
      if (it->use_count() == 1) {
        reap.push_back((*it)->number);
        table_cache_.erase((*it)->number);
        it = deferred_deletions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (uint64_t number : reap) denv_.fs->DeleteFile(TableFileName(number));
}

// ---------------- Maintenance / introspection ----------------

Status DbImpl::IngestSortedBatch(const std::vector<VersionedEntry>& entries) {
  if (entries.empty()) return Status::OK();
  mu_.Lock();
  uint64_t number = versions_->NewFileNumber();
  mu_.Unlock();

  std::unique_ptr<fs::WritableFile> file;
  Status s = denv_.fs->NewWritableFile(TableFileName(number), &file);
  if (!s.ok()) return s;
  file->set_writeback_chunk(1 << 20);
  SstBuilder builder(options_, std::move(file));

  std::string prev_key;
  for (const VersionedEntry& e : entries) {
    if (!prev_key.empty() && e.key <= prev_key) {
      return Status::InvalidArgument("ingest batch not strictly sorted");
    }
    prev_key = e.key;
    std::string ikey;
    AppendInternalKey(
        &ikey, e.key, e.seq,
        e.tombstone ? ValueType::kDeletion : ValueType::kValue);
    std::string val_enc;
    uint64_t logical = e.key.size() + 8;
    if (!e.tombstone) {
      e.value.EncodeTo(&val_enc);
      logical += e.value.logical_size();
    }
    s = builder.Add(ikey, val_enc, logical);
    if (!s.ok()) break;
  }
  if (s.ok()) s = builder.Finish();
  if (!s.ok()) {
    if (!sim::SimCrashed(env_)) denv_.fs->DeleteFile(TableFileName(number));
    return s;
  }

  auto meta = std::make_shared<FileMetaData>(builder.Meta(number));

  mu_.Lock();
  VersionEdit edit;
  edit.AddFile(0, meta);
  // Ingested entries carry historical sequences; after a crash-recovery
  // ingest those may exceed the recovered last_sequence, and fresh writes
  // must never be allocated below them.
  if (meta->max_seq > versions_->last_sequence()) {
    versions_->SetLastSequence(meta->max_seq);
  }
  s = versions_->LogAndApply(&edit);
  bg_cv_.NotifyAll();
  mu_.Unlock();
  return s;
}

Status DbImpl::FlushAll() {
  mu_.Lock();
  // A group leader may be applying its batch with mu_ released; switching
  // the memtable (and WAL) underneath it would lose the in-flight group.
  while (commit_in_flight_) work_done_cv_.Wait(mu_);
  if (!mem_->Empty()) {
    Status s = SwitchMemtableLocked();
    if (!s.ok()) {
      mu_.Unlock();
      return s;
    }
  }
  while (!shutting_down_ && !imm_.empty() && bg_error_.ok()) {
    bg_cv_.NotifyAll();
    work_done_cv_.Wait(mu_);
  }
  Status s = bg_error_;
  mu_.Unlock();
  return s;
}

Status DbImpl::WaitForCompactionIdle() {
  mu_.Lock();
  for (;;) {
    if (shutting_down_ || !bg_error_.ok()) break;
    bool idle = imm_.empty() && !flush_running_ && running_compactions_ == 0 &&
                versions_->MaxCompactionScore(nullptr) < 1.0;
    if (idle) break;
    bg_cv_.NotifyAll();
    work_done_cv_.Wait(mu_);
  }
  Status s = bg_error_;
  mu_.Unlock();
  return s;
}

BlockCacheStats DbImpl::GetBlockCacheStats() {
  SimLockGuard l(mu_);
  BlockCacheStats cs;
  cs.hits = block_cache_->hits();
  cs.misses = block_cache_->misses();
  cs.usage_bytes = block_cache_->usage();
  cs.capacity_bytes = block_cache_->capacity();
  return cs;
}

StallSignals DbImpl::GetStallSignals() {
  SimLockGuard l(mu_);
  StallSignals sig;
  auto version = versions_->current();
  sig.l0_files = version->NumLevelFiles(0);
  sig.immutable_memtables = static_cast<int>(imm_.size());
  sig.active_memtable_bytes = mem_->LogicalSize();
  sig.pending_compaction_bytes = versions_->EstimatedPendingCompactionBytes();
  sig.stalled = stats_.stall_regions.open();
  sig.l0_slowdown_trigger = options_.l0_slowdown_writes_trigger;
  sig.l0_stop_trigger = options_.l0_stop_writes_trigger;
  sig.max_write_buffer_number = options_.max_write_buffer_number;
  sig.hard_pending_limit = options_.hard_pending_compaction_bytes_limit;
  sig.compaction_queue_depth = versions_->CompactionQueueDepth();
  return sig;
}

uint64_t DbImpl::TotalSstBytes() {
  SimLockGuard l(mu_);
  return versions_->current()->TotalBytes();
}

std::vector<SstFileInfo> DbImpl::ListSstFiles() {
  SimLockGuard l(mu_);
  auto version = versions_->current();
  std::vector<SstFileInfo> out;
  for (int level = 0; level < kNumLevels; level++) {
    for (const auto& f : version->files(level)) {
      SstFileInfo info;
      info.number = f->number;
      info.level = level;
      info.logical_size = f->logical_size;
      info.num_entries = f->num_entries;
      info.max_seq = f->max_seq;
      info.smallest = f->smallest;
      info.largest = f->largest;
      out.push_back(std::move(info));
    }
  }
  return out;
}

Status DbImpl::VerifySstFile(uint64_t number, uint64_t* bytes_read) {
  if (bytes_read != nullptr) *bytes_read = 0;
  FileMetaPtr meta;
  {
    SimLockGuard l(mu_);
    auto version = versions_->current();
    for (int level = 0; level < kNumLevels && meta == nullptr; level++) {
      for (const auto& f : version->files(level)) {
        if (f->number == number) {
          meta = f;
          break;
        }
      }
    }
  }
  if (meta == nullptr) {
    return Status::NotFound("file not in current version");
  }
  std::shared_ptr<SstReader> table;
  Status s = GetTable(number, &table);
  if (!s.ok()) return s;
  // Scrub read: the scan checks CRCs and skips the block cache, so it
  // exercises the media, not cached copies.
  FileMetaData observed;
  s = ScanTable(table.get(), &observed);
  if (!s.ok()) return s;
  InternalKeyComparator icmp;
  if (observed.num_entries > 0 &&
      (icmp.Compare(observed.smallest, meta->smallest) < 0 ||
       icmp.Compare(observed.largest, meta->largest) > 0)) {
    return Status::Corruption("sst key outside recorded range");
  }
  if (observed.num_entries != meta->num_entries) {
    return Status::Corruption("sst entry count mismatch");
  }
  if (observed.num_entries > 0 && observed.max_seq != meta->max_seq) {
    return Status::Corruption("sst max sequence mismatch");
  }
  if (bytes_read != nullptr) *bytes_read = meta->logical_size;
  return Status::OK();
}

void DbImpl::SetCompactionThreads(int n) {
  SimLockGuard l(mu_);
  active_compaction_threads_ = std::clamp(n, 1, max_compaction_workers_);
  // Wake everything that keys off the budget: parked workers (a grow must
  // un-park them), idle-waiters and stalled writers (a shrink changes what
  // "idle" and the deep-job slot reservation mean, and a waiter blocked on
  // work_done_cv_ with an empty queue must re-evaluate rather than hang).
  bg_cv_.NotifyAll();
  work_done_cv_.NotifyAll();
  stall_cv_.NotifyAll();
}

void DbImpl::SetMaxSubcompactions(int n) {
  SimLockGuard l(mu_);
  max_subcompactions_ = std::clamp(n, 1, 64);
}

void DbImpl::SetWriteBufferSize(uint64_t bytes) {
  SimLockGuard l(mu_);
  write_buffer_size_ = bytes;
}

}  // namespace kvaccel::lsm
