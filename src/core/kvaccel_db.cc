#include "core/kvaccel_db.h"

#include <cassert>
#include <string>
#include <utility>
#include <vector>

#include "core/hybrid_iterator.h"
#include "obs/trace.h"
#include "sim/backoff.h"
#include "sim/fault.h"

namespace kvaccel::core {

namespace {

// Lazy rollback: the quiet streak of calm detector periods required before
// touching the device (eager waits eager_calm_periods).
constexpr int kLazyCalmPeriods = 10;

}  // namespace

// ---------------- Open / lifecycle ----------------

KvaccelDB::KvaccelDB(const KvaccelOptions& kv_options, const lsm::DbEnv& env)
    : options_(kv_options), denv_(env), env_(env.env),
      dev_retry_rng_(kv_options.dev_retry_jitter_seed) {}

Status KvaccelDB::Open(const lsm::DbOptions& main_options,
                       const KvaccelOptions& kv_options,
                       const lsm::DbEnv& env,
                       std::unique_ptr<KvaccelDB>* db) {
  auto impl = std::unique_ptr<KvaccelDB>(new KvaccelDB(kv_options, env));

  // Single-device (hybrid split) by default; §V-D multi-device when a
  // second SSD is supplied. An external (device-owned) Dev-LSM survives a
  // host crash/reopen, so redirected pairs can be recovered below. Resolved
  // before the Main-LSM opens: its compactions need the elision guard from
  // their very first job.
  if (kv_options.external_dev != nullptr) {
    impl->dev_ = kv_options.external_dev;
  } else {
    ssd::HybridSsd* kv_ssd =
        kv_options.kv_device != nullptr ? kv_options.kv_device : env.ssd;
    impl->owned_dev_ = std::make_unique<devlsm::DevLsm>(kv_ssd, /*nsid=*/0,
                                                        kv_options.dev);
    impl->dev_ = impl->owned_dev_.get();
  }

  // KVACCEL runs its Main-LSM without the slowdown mechanism: redirection
  // replaces throttling (paper §VI-B). While the Dev-LSM holds redirected
  // pairs, Main-LSM compactions must not elide tombstones: a deleted key's
  // older redirected version would otherwise be resurrected when recovery
  // drains the device ordered by sequence number (§VI-D).
  lsm::DbOptions opts = main_options;
  opts.enable_slowdown = false;
  devlsm::DevLsm* dev = impl->dev_;
  opts.allow_tombstone_elision = [dev] { return dev->Empty(); };

  // Device-offloaded compaction (DESIGN.md §13): a per-DB OffloadPlanner in
  // front of the shared NdpDevice. The hook must be in place before the
  // Main-LSM opens — its compaction workers may pick a job immediately.
  if (kv_options.ndp_device != nullptr &&
      kv_options.ndp_mode != ndp::OffloadMode::kOff) {
    ndp::NdpDevice* ndev = kv_options.ndp_device;
    impl->planner_ = std::make_unique<ndp::OffloadPlanner>(
        env.env, env.host_cpu, ndev->cpu(), kv_options.ndp_mode);
    ndp::OffloadPlanner* planner = impl->planner_.get();
    opts.compaction_offload = [planner, ndev](const lsm::OffloadJobInfo& job,
                                              lsm::OffloadGrant* grant) {
      if (!planner->ShouldOffload(job)) return false;
      ndp::CompactDescriptor d;
      d.level = job.level;
      d.output_level = job.output_level;
      d.input_bytes = job.input_bytes;
      d.input_files = job.input_files;
      d.subranges = job.subranges;
      uint64_t cmd_id = 0;
      Status bs = ndev->BeginCompact(d, &cmd_id);
      if (!bs.ok()) {
        // Command never reached the device: open the breaker, run host-side.
        planner->ReportDeviceFailure();
        return false;
      }
      grant->merge_cpu = [ndev](uint64_t bytes) { ndev->MergeCpu(bytes); };
      grant->finish = [planner, ndev, cmd_id](bool ok, uint64_t files,
                                              uint64_t bytes) {
        Status fin = ndev->FinishCompact(cmd_id, ok, files, bytes);
        if (ok && fin.ok()) {
          planner->ReportDeviceSuccess();
        } else if (!ok) {
          planner->ReportDeviceFailure();
        }
        return fin;
      };
      return true;
    };
  }

  Status s = lsm::DB::Open(opts, env, &impl->main_);
  if (!s.ok()) return s;
  if (impl->planner_ != nullptr) {
    lsm::DB* main = impl->main_.get();
    impl->planner_->set_signals_provider(
        [main] { return main->GetStallSignals(); });
  }
  impl->md_ = std::make_unique<MetadataManager>(env.env, env.host_cpu,
                                                &impl->kv_stats_);
  impl->detector_ = std::make_unique<Detector>(
      impl->main_.get(), env.env, env.host_cpu, impl->options_,
      &impl->kv_stats_);
  impl->rollback_ =
      std::make_unique<RollbackManager>(impl.get(), impl->options_);

  // Recovery after a host crash: pairs still cached device-side have no
  // metadata records (the hash table is volatile), so drain them back into
  // Main-LSM ordered by sequence number before serving traffic (§VI-D).
  if (!impl->dev_->Empty()) {
    s = impl->rollback_->Execute(/*trust_metadata=*/false);
    if (!s.ok()) {
      impl->main_->Close();
      impl->closed_ = true;
      return s;
    }
  }

  impl->detector_->Start();
  if (impl->options_.rollback != RollbackScheme::kDisabled) {
    impl->rollback_->Start(env.env);
  }
  if (impl->options_.scrub.enabled) {
    impl->scrubber_ = std::make_unique<Scrubber>(
        impl->main_.get(), impl->detector_.get(), env.env, impl->options_);
    impl->scrubber_->Start();
  }
  *db = std::move(impl);
  return Status::OK();
}

KvaccelDB::~KvaccelDB() { assert(closed_); }

Status KvaccelDB::Close() {
  if (closed_) return Status::OK();
  if (scrubber_ != nullptr) scrubber_->Stop();
  if (rollback_ != nullptr) rollback_->Stop();
  if (detector_ != nullptr) detector_->Stop();
  Status s = main_->Close();
  closed_ = true;
  return s;
}

// ---------------- Controller: write path (paper §V-C) ----------------

bool KvaccelDB::ShouldRedirect() const {
  // Redirection stays available during rollback: the snapshot-bounded reset
  // (DevLsm::ResetUpTo) keeps concurrently redirected pairs safe. A device
  // latched unhealthy by the circuit breaker is skipped until its half-open
  // probe time.
  return options_.redirection_enabled && detector_->stall_detected() &&
         detector_->device_healthy(env_->Now());
}

Status KvaccelDB::DevPutWithRetry(const std::vector<VersionedEntry>& entries) {
  Status s = sim::RetryTransient(
      env_, &dev_retry_rng_, kDevRetry, [] { return false; },
      &kv_stats_.dev_retries, [&] { return dev_->PutCompound(entries); });
  if (s.ok()) {
    detector_->ReportDeviceSuccess();
  } else if (s.IsTransient()) {
    detector_->ReportDeviceFailure(env_->Now());
  }
  return s;
}

void KvaccelDB::DropSupersededRecords(const lsm::WriteBatch& batch,
                                      bool drop) {
  lsm::SequenceNumber seq = batch.Sequence();
  (void)batch.ForEach([&](lsm::ValueType, const Slice& key, const Value&) {
    if (drop) {
      md_->DeleteIfNotNewer(key, seq);
    } else {
      md_->NoteMainVersion(key, seq);
    }
    seq++;
  });
}

Status KvaccelDB::Write(const lsm::WriteOptions& wopts,
                        lsm::WriteBatch* batch) {
  const uint32_t count = batch->Count();
  if (count == 0) return Status::OK();
  Nanos start = env_->Now();
  Status s;
  bool redirect = ShouldRedirect();
  if (redirect && options_.redirect_admission &&
      !options_.redirect_admission(batch->LogicalSize())) {
    // Sharded engine: this shard's slice of the Dev-LSM capacity budget is
    // exhausted — compete fairly by falling back to the host path.
    kv_stats_.redirect_admission_rejects++;
    redirect = false;
  }
  if (redirect) {
    // Stall path: serve the whole batch from the key-value interface as one
    // compound command. Pairs land on the device first; only then do the
    // metadata records flip, so a concurrent reader never chases a record to
    // a not-yet-written pair. The batch is versioned from the Main-LSM
    // sequence space so crash recovery can order it against host-side data.
    lsm::SequenceNumber seq = main_->AllocateSequence(count);
    std::vector<VersionedEntry> entries;
    entries.reserve(count);
    lsm::SequenceNumber next = seq;
    s = batch->ForEach(
        [&](lsm::ValueType type, const Slice& key, const Value& value) {
          entries.push_back({key.ToString(), value,
                             type == lsm::ValueType::kDeletion, next++});
        });
    md_->BeginRedirect(entries);
    if (s.ok() && options_.redirect_arbiter) {
      // Reserve the redirect DMA's bandwidth on the shared-device arbiter
      // before issuing the command, so a compaction-heavy neighbor shard
      // cannot monopolize the link ahead of this stalled shard's escape path.
      kv_stats_.redirect_arbiter_wait_ns += static_cast<uint64_t>(
          options_.redirect_arbiter(batch->LogicalSize()));
    }
    if (s.ok()) {
      Nanos dev_start = env_->Now();
      // An HA primary ships the Dev-LSM intent to its backup BEFORE the
      // device put: an acked redirected write must be reconstructible on
      // failover even though this node's device KV region is gone, and a
      // failed ship must leave no version on this device that reads or a
      // trusted rollback would serve.
      if (options_.redirect_shipper) s = options_.redirect_shipper(entries);
      if (s.ok()) s = DevPutWithRetry(entries);
      // Kill point: crash after the compound command landed on the device
      // but before the metadata records flip. The pairs are durable
      // device-side with their host sequence numbers, so reopen's
      // metadata-less drain recovers them — the window this site exists to
      // prove (single-authority invariant across the flip).
      if (s.ok() && sim::FaultAt(env_, "crash.redirect.mid")) {
        s = Status::IOError("simulated crash");
      }
      if (s.ok()) {
        kv_stats_.redirect_batch_latency.Add(env_->Now() - dev_start);
        std::vector<std::pair<std::string, uint64_t>> recs;
        recs.reserve(entries.size());
        for (const auto& e : entries) recs.emplace_back(e.key, e.seq);
        md_->InsertBatch(recs);
        kv_stats_.redirected_writes += count;
        kv_stats_.redirected_batches++;
      }
    }
    md_->EndRedirect(entries);
    if (!s.ok()) {
      // Device full/unavailable: fall back to the normal (stalling) path.
      // Counted as fallback so a dead device shows up in bench reports.
      s = main_->Write(wopts, batch);
      if (s.ok()) DropSupersededRecords(*batch, /*drop=*/true);
      kv_stats_.direct_writes += count;
      kv_stats_.fallback_writes += count;
    }
  } else {
    s = main_->Write(wopts, batch);
    kv_stats_.direct_writes += count;
    // Path (3-1): overlapping pairs in Dev-LSM are now stale.
    if (s.ok()) DropSupersededRecords(*batch, /*drop=*/!dev_->Empty());
  }
  Nanos now = env_->Now();
  agg_stats_.writes_total += count;
  agg_stats_.write_bytes_total += batch->LogicalSize();
  agg_stats_.writes_completed.Add(now, count);
  agg_stats_.put_latency.Add(now - start);
  return s;
}

// ---------------- Controller: read path ----------------

Status KvaccelDB::Get(const lsm::ReadOptions& ropts, const Slice& key,
                      Value* value) {
  Nanos start = env_->Now();
  Status s;
  // (1) Metadata Manager locates the key; (2) Main-LSM when the record is
  // absent or the Dev-LSM is empty; (3) Dev-LSM otherwise.
  if (!dev_->Empty() && md_->Check(key)) {
    s = dev_->Get(key, value);
    kv_stats_.dev_reads++;
  } else {
    s = main_->Get(ropts, key, value);
    kv_stats_.main_reads++;
  }
  Nanos now = env_->Now();
  agg_stats_.reads_total++;
  agg_stats_.reads_completed.Add(now, 1);
  agg_stats_.get_latency.Add(now - start);
  return s;
}

std::unique_ptr<lsm::Iterator> KvaccelDB::NewIterator(
    const lsm::ReadOptions& ropts) {
  return std::make_unique<HybridIterator>(main_->NewIterator(ropts),
                                          dev_->NewIterator(), md_.get(), env_,
                                          &agg_stats_);
}

// ---------------- Rollback / recovery ----------------

Status KvaccelDB::RollbackNow() { return rollback_->Execute(true); }

Status KvaccelDB::CrashMetadataAndRecover(Nanos* recovery_duration) {
  md_->LoseAll();
  Nanos t0 = env_->Now();
  Status s = rollback_->Execute(/*trust_metadata=*/false);
  if (recovery_duration != nullptr) *recovery_duration = env_->Now() - t0;
  return s;
}

// ---------------- RollbackManager ----------------

void RollbackManager::Start(sim::SimEnv* env) {
  actor_.Start(env, "kvaccel-rollback", options_.detector_period,
               [this] { Tick(); });
}

void RollbackManager::Tick() {
  if (owner_->dev()->Empty()) return;
  int needed = options_.rollback == RollbackScheme::kEager
                   ? options_.eager_calm_periods
                   : kLazyCalmPeriods;
  if (owner_->detector()->stall_detected()) return;
  if (owner_->detector()->calm_streak() < needed) return;
  Execute(true);
}

Status RollbackManager::Execute(bool trust_metadata) {
  if (in_progress_) return Status::Busy("rollback already running");
  devlsm::DevLsm* dev = owner_->dev();
  if (dev->Empty()) return Status::OK();
  in_progress_ = true;
  Nanos start = owner_->sim_env()->Now();
  obs::Tracer* tracer = owner_->sim_env()->tracer();
  uint32_t track = 0;
  if (tracer != nullptr) track = tracer->RegisterTrack("kvaccel");
  // Snapshot bound: only pairs written up to here are scanned and reset;
  // anything redirected during the drain survives for the next rollback.
  uint64_t snapshot_seq = dev->LastSeq();

  MetadataManager* md = owner_->metadata();
  lsm::DB* main = owner_->main();
  uint64_t merged = 0;
  Status ingest_error;

  // The bulk scan streams in key order, so batches are already sorted —
  // they bulk-load into Main-LSM as L0 SSTs at their original sequence
  // numbers, skipping the WAL/memtable double-write (DB::IngestSortedBatch).
  std::vector<VersionedEntry> batch;
  uint64_t batch_bytes = 0;
  uint64_t drained_bytes = 0;
  auto flush_batch = [&]() {
    if (batch.empty() || !ingest_error.ok()) return;
    Status s = main->IngestSortedBatch(batch);
    if (!s.ok()) {
      ingest_error = s;
      return;
    }
    for (const auto& e : batch) {
      // Clear each record unless a newer redirected version appeared
      // during the drain.
      md->DeleteIfNotNewer(e.key, e.seq);
      merged++;
    }
    drained_bytes += batch_bytes;
    batch.clear();
    batch_bytes = 0;
  };

  Status status = dev->BulkScan([&](const VersionedEntry& e) {
    // Kill point: a crash mid-drain must leave every not-yet-reset pair on
    // the device for the next recovery pass (ResetUpTo runs only at the end).
    if (sim::FaultAt(owner_->sim_env(), "crash.rollback.mid")) {
      ingest_error = Status::IOError("simulated crash");
      return;
    }
    if (!ingest_error.ok()) return;
    if (trust_metadata) {
      // Skip pairs superseded either by a newer Main-LSM write (their
      // metadata record was deleted on the 3-1 path) or by a re-redirection
      // during this very rollback (record seq is newer than the scanned
      // pair's).
      uint64_t md_seq = md->GetSeq(e.key);
      if (md_seq == 0 || md_seq > e.seq) return;
    } else {
      // Recovery after metadata loss (paper §VI-D): the hash table is gone,
      // so order the device pair against Main-LSM by sequence number.
      // An entry it cannot order stays on the device: the error skips the
      // reset, and a later drain compares it again.
      Value unused;
      lsm::SequenceNumber main_seq = 0;
      Status gs = main->GetWithSequence({}, e.key, &unused, &main_seq);
      if (!gs.ok() && !gs.IsNotFound()) {
        ingest_error = gs;
        return;
      }
      if (main_seq >= e.seq) return;  // host already has a newer version
    }
    batch.push_back(e);
    batch_bytes += e.key.size() + 8 + e.value.logical_size();
    if (batch_bytes >= (64ull << 20)) flush_batch();
  });
  flush_batch();
  if (status.ok()) status = ingest_error;
  if (tracer != nullptr) {
    tracer->Complete(track, "rollback.drain", start, owner_->sim_env()->Now(),
                     drained_bytes);
  }
  if (status.ok()) status = dev->ResetUpTo(snapshot_seq);
  if (tracer != nullptr) tracer->Instant(track, "rollback.reset");
  // Tell the backup its mirrored intents are now covered by Main-LSM data.
  // Rollback ingests bypass the WAL stream, so without this signal the
  // backup's mirror would grow without bound.
  if (status.ok() && options_.rollback_shipper) options_.rollback_shipper();
  KvaccelStats& ks = const_cast<KvaccelStats&>(owner_->kv_stats());
  ks.rollbacks++;
  ks.rollback_entries += merged;
  ks.rollback_total_ns += owner_->sim_env()->Now() - start;
  if (tracer != nullptr) {
    tracer->Complete(track, "rollback", start, owner_->sim_env()->Now());
  }
  in_progress_ = false;
  return status;
}

}  // namespace kvaccel::core
