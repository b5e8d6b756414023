#include "core/replicated_kvaccel_db.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>

#include "fs/simfs.h"
#include "sim/backoff.h"
#include "sim/fault.h"

namespace kvaccel::core {

namespace {
bool IsStaleEpoch(const Status& s) {
  return s.IsAborted() &&
         s.ToString().find("stale epoch") != std::string::npos;
}
// Fixed per-record framing overhead charged to the link (type, seq range,
// counts, checksum).
constexpr uint64_t kRecordHeaderBytes = 16;
// Per-entry framing of a redirect intent or a catch-up entry (key and value
// lengths, sequence, tombstone).
constexpr uint64_t kEntryFramingBytes = 24;
// Catch-up wire chunk and ingest batch.
constexpr uint64_t kCatchUpChunkBytes = 256u << 10;
constexpr size_t kCatchUpBatchEntries = 512;
// Jitter-seed offset so the backup node's retry streams decorrelate from the
// primary's (same spirit as the sharded router's per-shard offsets).
constexpr uint64_t kBackupSeedOffset = 0x51DEC0DE;
// Every retry delay of the pair's sender (kNetRetry, and kDevRetry for the
// backup's intent apply) is drawn from one stream with this seed.
constexpr uint64_t kNetJitterSeed = 0x4E7B0FF;
}  // namespace

// ---------------- Durable fencing epoch ----------------

uint64_t ReadFenceEpoch(fs::SimFs* fs) {
  uint64_t size = 0;
  std::string buf;
  if (fs == nullptr || !fs->GetFileSize("FENCE", &size).ok() || size == 0 ||
      size > 32 || !fs::ReadFileToString(fs, "FENCE", &buf).ok()) {
    return 0;
  }
  return strtoull(buf.c_str(), nullptr, 10);
}

Status WriteFenceEpoch(fs::SimFs* fs, uint64_t epoch) {
  if (fs == nullptr) return Status::InvalidArgument("fence: null fs");
  return fs::ReplaceFileAtomically(fs, "FENCE", std::to_string(epoch));
}

ReplicatedKvaccelDB::ReplicatedKvaccelDB(const ReplOptions& options,
                                         const ReplNode& backup_node,
                                         sim::SimEnv* env)
    : options_(options),
      backup_node_(backup_node),
      env_(env),
      net_rng_(kNetJitterSeed) {}

ReplicatedKvaccelDB::~ReplicatedKvaccelDB() { assert(closed_); }

Status ReplicatedKvaccelDB::Open(const lsm::DbOptions& main_options,
                                 const KvaccelOptions& kv_options,
                                 const ReplOptions& repl_options,
                                 const ReplNode& primary,
                                 const ReplNode& backup, sim::SimEnv* env,
                                 std::unique_ptr<ReplicatedKvaccelDB>* db) {
  if (primary.ssd == nullptr || primary.fs == nullptr ||
      primary.host_cpu == nullptr || backup.ssd == nullptr ||
      backup.fs == nullptr || backup.host_cpu == nullptr) {
    return Status::InvalidArgument("repl: both nodes need ssd/fs/cpu");
  }
  auto impl = std::unique_ptr<ReplicatedKvaccelDB>(
      new ReplicatedKvaccelDB(repl_options, backup, env));
  impl->link_ = std::make_unique<sim::NetLink>(
      env, "netlink", repl_options.net_bytes_per_sec,
      repl_options.net_latency);

  // Adopt the durable fencing epoch: the max of the configured epoch and the
  // FENCE files on either node (a rejoined ex-primary carries the bumped
  // epoch of the promotion that deposed it), persisted back to both nodes so
  // a later split finds it even on a wiped peer.
  impl->epoch_ = std::max(repl_options.epoch,
                          std::max(ReadFenceEpoch(primary.fs),
                                   ReadFenceEpoch(backup.fs)));
  Status s = WriteFenceEpoch(primary.fs, impl->epoch_);
  if (s.ok()) s = WriteFenceEpoch(backup.fs, impl->epoch_);
  if (!s.ok()) {
    impl->Close();
    return s;
  }

  // Backup first, so the primary's very first shipped record has a home.
  // The standby runs passive: no redirection (its Dev-LSM is a mirror fed by
  // the replication stream, not by its own Detector), no rollback actor (it
  // drains only on the primary's kRollback signal), synced WAL in both ack
  // modes so applied => durable => served after promotion.
  lsm::DbOptions bopts = main_options;
  bopts.wal_sync = true;
  bopts.wal_shipper = nullptr;
  bopts.manifest_shipper = nullptr;
  bopts.io_retry_jitter_seed += kBackupSeedOffset;
  KvaccelOptions bkv = kv_options;
  bkv.redirection_enabled = false;
  bkv.rollback = RollbackScheme::kDisabled;
  bkv.scrub.enabled = false;
  bkv.kv_device = nullptr;
  bkv.external_dev = backup.dev;
  bkv.redirect_admission = nullptr;
  bkv.redirect_arbiter = nullptr;
  bkv.redirect_shipper = nullptr;
  bkv.rollback_shipper = nullptr;
  bkv.ndp_device = backup.ndp;
  bkv.dev_retry_jitter_seed += kBackupSeedOffset;
  lsm::DbEnv benv;
  benv.env = env;
  benv.ssd = backup.ssd;
  benv.fs = backup.fs;
  benv.host_cpu = backup.host_cpu;
  s = KvaccelDB::Open(bopts, bkv, benv, &impl->backup_);
  if (!s.ok()) {
    impl->Close();
    return s;
  }

  if (repl_options.ack == ReplAck::kAsync) {
    ReplicatedKvaccelDB* self = impl.get();
    impl->shipper_ = env->Spawn("repl-shipper", [self] { self->ShipperLoop(); });
  }

  // Primary with the shipping hooks installed. Its Open drains any surviving
  // Dev-LSM residue into its Main-LSM first (§VI-D); Bootstrap below then
  // streams the merged state across, so hook order doesn't lose anything.
  ReplicatedKvaccelDB* self = impl.get();
  lsm::DbOptions popts = main_options;
  popts.wal_shipper = [self](const lsm::WriteBatch& group,
                             uint64_t first_seq) {
    return self->ShipWalBatch(group, first_seq);
  };
  popts.manifest_shipper = [self](const std::string& edit,
                                  uint64_t last_seq) {
    self->ShipManifestEdit(edit, last_seq);
  };
  KvaccelOptions pkv = kv_options;
  pkv.external_dev = primary.dev;
  pkv.redirect_shipper = [self](const std::vector<VersionedEntry>& entries) {
    return self->ShipRedirectIntent(entries);
  };
  pkv.rollback_shipper = [self] { self->ShipRollback(); };
  pkv.ndp_device = primary.ndp;
  lsm::DbEnv penv;
  penv.env = env;
  penv.ssd = primary.ssd;
  penv.fs = primary.fs;
  penv.host_cpu = primary.host_cpu;
  s = KvaccelDB::Open(popts, pkv, penv, &impl->primary_);
  if (!s.ok()) {
    impl->Close();
    return s;
  }

  // A re-formed pair's primary can trail its backup's clock (a clock
  // advanced by RejoinNode is not logged): start it past every sequence the
  // backup holds, so Bootstrap's fresh sequences and every later write
  // shadow the backup's versions.
  AdvanceSequenceTo(impl->primary_->main(),
                    impl->backup_->main()->LastSequence());
  s = impl->Bootstrap();
  if (!s.ok()) {
    impl->Close();
    return s;
  }
  // After bootstrap the backup holds everything up to the primary's current
  // sequence clock: that is the initial applied watermark and the WAL
  // high-water mark late/duplicate records are compared against.
  impl->applied_seq_ = impl->primary_->main()->LastSequence();
  impl->backup_wal_seq_ = impl->backup_->main()->LastSequence();

  // Lease starts fresh; the heartbeat actor keeps it renewed while idle.
  impl->lease_expiry_ = env->Now() + repl_options.lease_duration;
  impl->backup_last_applied_ns_ = env->Now();
  if (repl_options.heartbeat_period > 0) {
    impl->heartbeat_.Start(env, "repl-heartbeat",
                           repl_options.heartbeat_period,
                           [self] { self->Heartbeat(); });
  }
  *db = std::move(impl);
  return Status::OK();
}

// ---------------- Fencing ----------------

void ReplicatedKvaccelDB::NoteLeaseState() {
  if (env_->Now() >= lease_expiry_ && !lease_lapsed_noted_) {
    lease_lapsed_noted_ = true;
    stats_.lease_expirations++;
  }
}

void ReplicatedKvaccelDB::RenewLease() {
  if (deposed_) return;
  Nanos fresh = env_->Now() + options_.lease_duration;
  if (fresh > lease_expiry_) lease_expiry_ = fresh;
  lease_lapsed_noted_ = false;
}

Status ReplicatedKvaccelDB::CheckFence() {
  NoteLeaseState();
  if (!fenced()) return Status::OK();
  stats_.fenced_write_rejects++;
  return Status::Busy(deposed_
                          ? "repl: primary deposed (stale fencing epoch)"
                          : "repl: primary fenced (lease expired)");
}

void ReplicatedKvaccelDB::Heartbeat() {
  NoteLeaseState();
  if (sim::SimCrashed(env_) || deposed_) return;
  Record rec;
  rec.type = Record::Type::kHeartbeat;
  rec.bytes = kRecordHeaderBytes;
  rec.epoch = epoch_;
  sim::SimLockGuard l(ship_mu_);
  // SendAndApply renews the lease on success; a partition leaves the lease
  // to lapse and a stale-epoch rejection deposes the primary.
  (void)SendAndApply(&rec, /*forever=*/false);
}

Status ReplicatedKvaccelDB::DetachBackup(bool force) {
  if (backup_ == nullptr) return Status::OK();
  if (!force && env_->Now() < backup_promote_safe_at()) {
    return Status::Busy(
        "repl: primary lease may still be live; detaching now could ack a "
        "write on both sides of the split");
  }
  detach_requested_ = true;
  if (shipper_ != nullptr) {
    // Park the shipper between records; a record stuck in transient retries
    // bails out on detach_requested_ and is counted as lost tail.
    sim::SimLockGuard l(q_mu_);
    q_cv_.NotifyAll();
    while (shipper_busy_) q_cv_.Wait(q_mu_);
  }
  // Serialize with both sync lanes and the heartbeats.
  sim::SimLockGuard wal_lane(ship_mu_);
  sim::SimLockGuard dev_lane(dev_ship_mu_);
  Status s = backup_->Close();
  backup_.reset();
  return s;
}

// ---------------- Foreground forwarding ----------------

Status ReplicatedKvaccelDB::Write(const lsm::WriteOptions& wopts,
                                  lsm::WriteBatch* batch) {
  Status s = CheckFence();
  if (!s.ok()) return s;
  return primary_->Write(wopts, batch);
}

Status ReplicatedKvaccelDB::Get(const lsm::ReadOptions& ropts,
                                const Slice& key, Value* value) {
  return primary_->Get(ropts, key, value);
}

std::unique_ptr<lsm::Iterator> ReplicatedKvaccelDB::NewIterator(
    const lsm::ReadOptions& ropts) {
  return primary_->NewIterator(ropts);
}

Status ReplicatedKvaccelDB::FlushAll() { return primary_->FlushAll(); }

Status ReplicatedKvaccelDB::WaitForCompactionIdle() {
  return primary_->WaitForCompactionIdle();
}

Status ReplicatedKvaccelDB::RollbackNow() {
  Status s = CheckFence();
  if (!s.ok()) return s;
  return primary_->RollbackNow();
}

Status ReplicatedKvaccelDB::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  heartbeat_.Stop();
  if (shipper_ != nullptr) {
    {
      sim::SimLockGuard l(q_mu_);
      stopping_ = true;
      paused_ = false;
      q_cv_.NotifyAll();
    }
    // The loop drains the remaining queue before exiting; once the pair has
    // crashed each leftover record fails fast and is counted as lost tail.
    env_->Join(shipper_);
    shipper_ = nullptr;
  }
  Status first;
  if (primary_ != nullptr) first = primary_->Close();
  if (backup_ != nullptr) {
    Status s = backup_->Close();
    if (first.ok()) first = s;
  }
  return first;
}

// ---------------- Primary-side hooks ----------------

Status ReplicatedKvaccelDB::ShipWalBatch(const lsm::WriteBatch& group,
                                         uint64_t first_seq) {
  Record rec;
  rec.type = Record::Type::kWalBatch;
  rec.batch.Append(group);
  rec.batch.SetSequence(first_seq);
  rec.first_seq = first_seq;
  rec.count = group.Count();
  rec.last_seq = first_seq + rec.count - 1;
  rec.bytes = group.Contents().size() + kRecordHeaderBytes;
  stats_.wal_records++;
  stats_.wal_entries += rec.count;
  last_assigned_seq_ = std::max(last_assigned_seq_, rec.last_seq);
  return Ship(std::move(rec));
}

Status ReplicatedKvaccelDB::ShipRedirectIntent(
    const std::vector<VersionedEntry>& entries) {
  if (entries.empty()) return Status::OK();
  Record rec;
  rec.type = Record::Type::kRedirectIntent;
  rec.entries = entries;
  rec.first_seq = entries.front().seq;
  rec.count = static_cast<uint32_t>(entries.size());
  rec.last_seq = entries.back().seq;
  rec.bytes = kRecordHeaderBytes;
  for (const auto& e : entries) {
    rec.bytes += e.key.size() + e.value.logical_size() + kEntryFramingBytes;
  }
  stats_.intent_records++;
  stats_.intent_entries += rec.count;
  last_assigned_seq_ = std::max(last_assigned_seq_, rec.last_seq);
  return Ship(std::move(rec));
}

void ReplicatedKvaccelDB::ShipRollback() {
  Record rec;
  rec.type = Record::Type::kRollback;
  rec.bytes = kRecordHeaderBytes;
  stats_.rollback_records++;
  // Best-effort by design: a lost rollback signal only delays the backup's
  // mirror drain (the mirror is a superset; promote drains it by sequence
  // comparison anyway).
  (void)Ship(std::move(rec));
}

void ReplicatedKvaccelDB::ShipManifestEdit(const std::string& edit,
                                           uint64_t last_seq) {
  (void)last_seq;
  Record rec;
  rec.type = Record::Type::kManifestEdit;
  rec.bytes = edit.size() + kRecordHeaderBytes;
  rec.epoch = epoch_;
  stats_.manifest_records++;
  if (options_.ack == ReplAck::kSync) {
    // Advisory: charge the wire inline but never fail the version install.
    sim::SimLockGuard l(ship_mu_);
    if (SendOverLink(rec.bytes).ok()) {
      stats_.records_applied++;
    } else {
      stats_.manifest_drops++;
    }
    return;
  }
  // Async: never block a version install on queue pressure — drop instead.
  sim::SimLockGuard l(q_mu_);
  if (stopping_ || QueueFullLocked()) {
    stats_.manifest_drops++;
    return;
  }
  EnqueueLocked(std::move(rec));
}

// ---------------- Shipping machinery ----------------

Status ReplicatedKvaccelDB::Ship(Record rec) {
  rec.epoch = epoch_;
  if (options_.ack == ReplAck::kSync) {
    Nanos t0 = env_->Now();
    // Two FIFO lanes, one record on each at a time: redirect intents and
    // rollback signals never wait for a backup WAL sync, nor WAL batches for
    // an intent or a mirror drain.
    const bool dev_lane = rec.type == Record::Type::kRedirectIntent ||
                          rec.type == Record::Type::kRollback;
    sim::SimLockGuard l(dev_lane ? dev_ship_mu_ : ship_mu_);
    Status s = SendAndApply(&rec, /*forever=*/false);
    stats_.sync_ship_ns += env_->Now() - t0;
    if (!s.ok()) stats_.ship_failures++;
    return s;
  }
  sim::SimLockGuard l(q_mu_);
  while (QueueFullLocked() && !stopping_) {
    if (sim::SimCrashed(env_)) {
      return Status::IOError("repl: pair down");
    }
    // Timed wait: the crash latch can be set by any thread, so poll it.
    q_cv_.WaitFor(q_mu_, FromMicros(200));
  }
  if (stopping_) return Status::IOError("repl: shutting down");
  EnqueueLocked(std::move(rec));
  return Status::OK();
}

bool ReplicatedKvaccelDB::QueueFullLocked() const {
  return queue_.size() >= options_.async_queue_cap ||
         queue_bytes_ >= options_.async_queue_max_bytes;
}

void ReplicatedKvaccelDB::EnqueueLocked(Record rec) {
  queue_bytes_ += rec.bytes;
  queue_.push_back(std::move(rec));
  stats_.async_queue_peak =
      std::max(stats_.async_queue_peak, static_cast<uint64_t>(queue_.size()));
  stats_.async_queue_bytes_peak =
      std::max(stats_.async_queue_bytes_peak, queue_bytes_);
  q_cv_.NotifyAll();
}

void ReplicatedKvaccelDB::ShipperLoop() {
  sim::SimLockGuard l(q_mu_);
  for (;;) {
    while (!stopping_ && (paused_ || queue_.empty())) {
      q_cv_.Wait(q_mu_);
    }
    if (queue_.empty()) {
      if (stopping_) break;
      continue;
    }
    Record rec = std::move(queue_.front());
    queue_.pop_front();
    queue_bytes_ -= rec.bytes;
    // net.reorder: a later queued record overtakes this one on the wire.
    bool swapped = false;
    Record held;
    if (!queue_.empty() && sim::FaultAt(env_, "net.reorder")) {
      stats_.reorder_swaps++;
      swapped = true;
      held = std::move(rec);
      rec = std::move(queue_.front());
      queue_.pop_front();
      queue_bytes_ -= rec.bytes;
    }
    shipper_busy_ = true;
    q_cv_.NotifyAll();  // backpressured producers may refill the freed slot
    q_mu_.Unlock();
    Status s = SendAndApply(&rec, /*forever=*/true);
    Status hs = Status::OK();
    if (swapped) hs = SendAndApply(&held, /*forever=*/true);
    q_mu_.Lock();
    shipper_busy_ = false;
    if (!s.ok()) {
      stats_.ship_failures++;
      RecordLoss(rec);
    }
    if (swapped && !hs.ok()) {
      stats_.ship_failures++;
      RecordLoss(held);
    }
    q_cv_.NotifyAll();
  }
}

void ReplicatedKvaccelDB::RecordLoss(const Record& rec) {
  if (rec.type == Record::Type::kManifestEdit ||
      rec.type == Record::Type::kRollback ||
      rec.type == Record::Type::kHeartbeat) {
    if (rec.type == Record::Type::kManifestEdit) stats_.manifest_drops++;
    return;
  }
  stats_.lost_entries += rec.count;
  if (stats_.lost_seq_min == 0 || rec.first_seq < stats_.lost_seq_min) {
    stats_.lost_seq_min = rec.first_seq;
  }
}

Status ReplicatedKvaccelDB::SendAndApply(Record* rec, bool forever) {
  // Async keeps cycling until the pair crashes or the backup detaches: a
  // transient must not punch a hole in the applied prefix.
  const sim::RetryPolicy policy{forever ? sim::kRetryUnbounded : 0,
                                kNetRetry.base, kNetRetry.cap};
  Status s = sim::RetryTransient(
      env_, &net_rng_, policy,
      [this] { return sim::SimCrashed(env_) || detach_requested_; },
      /*retries=*/nullptr, [&] { return SendAndApplyOnce(rec); });
  if (IsStaleEpoch(s)) {
    // The peer (or its durable FENCE file) is at a newer fencing epoch:
    // this primary was deposed while partitioned. Permanent, by design.
    stats_.fenced_records++;
    deposed_ = true;
  }
  return s;
}

Status ReplicatedKvaccelDB::SendAndApplyOnce(Record* rec) {
  Status s = SendOverLink(rec->bytes);
  if (s.ok()) s = ApplyOnBackup(rec);
  if (!s.ok()) return s;
  // The record is on the peer even if the ack below is lost: the applied
  // watermark and the promote-safety clock advance before the ack draw.
  if (rec->last_seq > 0) {
    applied_seq_ = std::max(applied_seq_, rec->last_seq);
  }
  backup_last_applied_ns_ = env_->Now();
  if (sim::FaultAt(env_, "net.partition.ack")) {
    stats_.ack_losses++;
    return Status::IOError("repl: ack lost (partitioned)");
  }
  if (sim::FaultAt(env_, "net.dup")) {
    // Duplicate delivery: the record charges the wire and applies a second
    // time; exact-sequence application makes the copy a no-op.
    stats_.dup_records++;
    if (SendOverLink(rec->bytes).ok()) (void)ApplyOnBackup(rec);
  }
  if (rec->type == Record::Type::kHeartbeat) {
    stats_.heartbeat_records++;
  } else {
    stats_.records_applied++;
  }
  RenewLease();
  return s;
}

Status ReplicatedKvaccelDB::SendOverLink(uint64_t bytes) {
  Status s = sim::RetryTransient(
      env_, &net_rng_, kNetRetry, [this] { return sim::SimCrashed(env_); },
      &stats_.net_retries, [&] { return link_->Send(bytes); });
  if (s.ok()) stats_.repl_bytes += bytes;
  return s;
}

Status ReplicatedKvaccelDB::ApplyOnBackup(Record* rec) {
  if (backup_ == nullptr) {
    // The backup node was detached for promotion. Its durable FENCE epoch is
    // the fencing authority: once promotion bumped it, any record from this
    // (now stale) primary is rejected and the sender deposes itself.
    if (rec->epoch < ReadFenceEpoch(backup_node_.fs)) {
      return Status::Aborted("repl: fenced: stale epoch");
    }
    return Status::Aborted("repl: backup detached");
  }
  if (rec->epoch < epoch_) {
    return Status::Aborted("repl: fenced: stale epoch");
  }
  switch (rec->type) {
    case Record::Type::kWalBatch: {
      if (rec->first_seq <= backup_wal_seq_) {
        // Duplicate or reordered delivery: the backup WAL must stay
        // sequence-ascending, so a late record takes the WAL-bypassing
        // exact-sequence ingest path instead (idempotent — newer versions
        // of the same key already applied keep winning by sequence).
        std::vector<VersionedEntry> ing;
        ing.reserve(rec->count);
        uint64_t seq = rec->first_seq;
        Status ps = rec->batch.ForEach(
            [&](lsm::ValueType type, const Slice& key, const Value& value) {
              ing.push_back({key.ToString(), value,
                             type != lsm::ValueType::kValue, seq++});
            });
        if (!ps.ok()) return ps;
        return IngestOnBackup(std::move(ing));
      }
      lsm::WriteOptions wo;
      wo.sync = true;
      wo.replicated_seq = rec->first_seq;
      Status s = backup_->main()->Write(wo, &rec->batch);
      if (!s.ok()) return s;
      backup_wal_seq_ = std::max(backup_wal_seq_, rec->last_seq);
      // An older mirrored version's record goes, as the primary's direct
      // path deletes its own; a newer one stays.
      MetadataManager* md = backup_->metadata();
      uint64_t seq = rec->first_seq;
      return rec->batch.ForEach(
          [&](lsm::ValueType, const Slice& key, const Value&) {
            if (!md->Empty()) md->DeleteIfNotNewer(key, seq);
            seq++;
          });
    }
    case Record::Type::kRedirectIntent:
      return ApplyIntentOnBackup(rec);
    case Record::Type::kRollback:
      // Mirror the primary's drain: the backup's metadata names exactly the
      // mirrored versions that are newest, so the trusted drain moves them
      // into its Main-LSM and resets the mirror, as the primary did.
      return backup_->RollbackNow();
    case Record::Type::kManifestEdit:
      return Status::OK();  // advisory; bytes were the payload
    case Record::Type::kHeartbeat:
      return Status::OK();  // the round trip is the payload
  }
  return Status::OK();
}

Status ReplicatedKvaccelDB::ApplyIntentOnBackup(Record* rec) {
  Detector* det = backup_->detector();
  devlsm::DevLsm* dev = backup_->dev();
  if (det->device_healthy(env_->Now())) {
    // Mirror into the backup's own Dev-LSM, through the same transient-retry
    // + circuit-breaker discipline the primary's Controller uses, so a
    // backup-side device fault degrades exactly like a primary-side one.
    Status s = sim::RetryTransient(
        env_, &net_rng_, kDevRetry, [this] { return sim::SimCrashed(env_); },
        /*retries=*/nullptr, [&] { return dev->PutCompound(rec->entries); });
    if (s.ok()) {
      det->ReportDeviceSuccess();
      std::vector<std::pair<std::string, uint64_t>> recs;
      recs.reserve(rec->entries.size());
      for (const auto& e : rec->entries) recs.emplace_back(e.key, e.seq);
      backup_->metadata()->InsertBatch(recs);
      return s;
    }
    if (s.IsTransient()) det->ReportDeviceFailure(env_->Now());
    if (sim::SimCrashed(env_)) return s;
    // Fall through: device unhealthy — degrade to the host path below. The
    // half-open probe (device_healthy after the cooldown) routes a later
    // intent back through the device automatically.
  }
  // Host-path degrade: ingest at the original sequences. Device-path data
  // never rides the WAL (same rule as the rollback drain), which also keeps
  // the backup WAL's sequence order intact — intent sequences can be older
  // than WAL batches already applied.
  Status s = IngestOnBackup(rec->entries);
  if (s.ok()) stats_.backup_dev_fallbacks++;
  return s;
}

Status ReplicatedKvaccelDB::IngestOnBackup(std::vector<VersionedEntry> ing) {
  // Ingest wants strictly ascending keys; within-batch duplicates keep the
  // newest version (the older one was invisible anyway).
  std::stable_sort(ing.begin(), ing.end(),
                   [](const VersionedEntry& a, const VersionedEntry& b) {
                     return a.key < b.key || (a.key == b.key && a.seq < b.seq);
                   });
  std::vector<VersionedEntry> dedup;
  dedup.reserve(ing.size());
  for (auto& e : ing) {
    if (!dedup.empty() && dedup.back().key == e.key) {
      dedup.back() = std::move(e);
    } else {
      dedup.push_back(std::move(e));
    }
  }
  Status s = backup_->main()->IngestSortedBatch(dedup);
  if (!s.ok()) return s;
  MetadataManager* md = backup_->metadata();
  for (const auto& e : dedup) {
    if (!md->Empty()) md->DeleteIfNotNewer(e.key, e.seq);
  }
  return s;
}

// ---------------- Test hooks ----------------

void ReplicatedKvaccelDB::PauseShipping(bool paused) {
  sim::SimLockGuard l(q_mu_);
  paused_ = paused;
  q_cv_.NotifyAll();
}

void ReplicatedKvaccelDB::DrainShipping() {
  sim::SimLockGuard l(q_mu_);
  while (!queue_.empty() || shipper_busy_) {
    q_cv_.Wait(q_mu_);
  }
}

// ---------------- Catch-up (re-pair, rejoin) ----------------

void AdvanceSequenceTo(lsm::DB* db, uint64_t seq) {
  while (db->LastSequence() < seq) {
    uint64_t gap = seq - db->LastSequence();
    db->AllocateSequence(static_cast<uint32_t>(
        std::min<uint64_t>(gap, std::numeric_limits<uint32_t>::max())));
  }
}

Status ReplicatedKvaccelDB::Bootstrap() {
  CatchUpOptions opts;
  opts.send = [this](uint64_t bytes) { return SendOverLink(bytes); };
  CatchUpStats unused;
  return CatchUp(primary_->main(), backup_->main(), opts, &unused);
}

Status CatchUp(lsm::DB* source, lsm::DB* target,
               const CatchUpOptions& options, CatchUpStats* stats) {
  lsm::ReadOptions ro;
  lsm::WriteOptions wo;
  // Sends what is pending once a chunk fills, or whatever is left on drain.
  uint64_t pending_bytes = 0;
  auto charge = [&](uint64_t b, bool drain = false) -> Status {
    pending_bytes += b;
    if (pending_bytes == 0 || (!drain && pending_bytes < kCatchUpChunkBytes)) {
      return Status::OK();
    }
    Status s = options.send(pending_bytes);
    pending_bytes = 0;
    return s;
  };
  std::vector<VersionedEntry> batch;
  auto flush_batch = [&]() -> Status {
    if (batch.empty()) return Status::OK();
    Status s = target->IngestSortedBatch(batch);
    batch.clear();
    return s;
  };
  // Ships one entry: a put of `value`, or a tombstone when `value` is null.
  // It takes the source's sequence when that is newer than the target's
  // version, otherwise a fresh one from the source's clock.
  auto ship = [&](std::string key, const Value* value,
                  lsm::SequenceNumber source_seq,
                  lsm::SequenceNumber target_seq) -> Status {
    uint64_t payload = key.size() + kEntryFramingBytes;
    if (value != nullptr) payload += value->logical_size();
    stats->entries++;
    stats->bytes += payload;
    Status s = charge(payload);
    if (!s.ok()) return s;
    if (options.through_write_path) {
      stats->write_path_bytes += payload;
      return value != nullptr ? target->Put(wo, key, *value)
                              : target->Delete(wo, key);
    }
    lsm::SequenceNumber seq = source_seq > target_seq
                                  ? source_seq
                                  : source->AllocateSequence(1);
    batch.push_back({std::move(key), value != nullptr ? *value : Value(),
                     value == nullptr, seq});
    return batch.size() >= kCatchUpBatchEntries ? flush_batch()
                                                : Status::OK();
  };

  // Forward pass: every live source key whose value differs on the target.
  auto it = source->NewIterator(ro);
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    std::string key = it->key().ToString();
    Value sv;
    lsm::SequenceNumber sseq = 0;
    Status s = source->GetWithSequence(ro, key, &sv, &sseq);
    if (s.IsNotFound()) continue;  // raced a deletion; reverse pass's job
    if (!s.ok()) return s;
    Value tv;
    lsm::SequenceNumber tseq = 0;
    Status ts = target->GetWithSequence(ro, key, &tv, &tseq);
    if (!ts.ok() && !ts.IsNotFound()) return ts;
    if (ts.ok() && tv == sv) continue;  // converged
    if (tseq > options.frontier) stats->diverged_keys++;
    s = ship(std::move(key), &sv, sseq, tseq);
    if (!s.ok()) return s;
  }
  if (!it->status().ok()) return it->status();
  Status s = flush_batch();
  if (!s.ok()) return s;

  // Reverse pass: keys live on the target but gone on the source become
  // tombstones. Collected first, applied after: the target's iterator must
  // not see its own DB mutate underneath it.
  struct PendingDelete {
    std::string key;
    lsm::SequenceNumber source_seq;  // source tombstone's seq (0 = elided)
    lsm::SequenceNumber target_seq;  // version being buried
  };
  std::vector<PendingDelete> deletes;
  auto tit = target->NewIterator(ro);
  for (tit->SeekToFirst(); tit->Valid(); tit->Next()) {
    std::string key = tit->key().ToString();
    Value sv;
    lsm::SequenceNumber sseq = 0;
    s = source->GetWithSequence(ro, key, &sv, &sseq);
    if (s.ok()) continue;  // forward pass covered it
    if (!s.IsNotFound()) return s;
    Value tv;
    lsm::SequenceNumber tseq = 0;
    Status ts = target->GetWithSequence(ro, key, &tv, &tseq);
    if (!ts.ok() && !ts.IsNotFound()) return ts;
    if (tseq > options.frontier) stats->diverged_keys++;
    deletes.push_back(PendingDelete{std::move(key), sseq, tseq});
  }
  if (!tit->status().ok()) return tit->status();
  for (PendingDelete& d : deletes) {
    // Target iterator order: the tombstone batches are already sorted.
    s = ship(std::move(d.key), nullptr, d.source_seq, d.target_seq);
    if (!s.ok()) return s;
  }
  s = flush_batch();
  if (!s.ok()) return s;
  return charge(0, /*drain=*/true);
}

}  // namespace kvaccel::core
