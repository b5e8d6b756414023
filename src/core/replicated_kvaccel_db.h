// ReplicatedKvaccelDB: a two-node HA pair (DESIGN.md §12). The primary is a
// full KVACCEL stack serving all traffic; the backup is a warm standby on its
// own SSD/file system/CPU that receives the primary's commit stream over a
// simulated interconnect (sim::NetLink) and applies it at the primary's
// sequence numbers, so a failover promotes a byte-consistent replica instead
// of replaying from scratch.
//
// Four record types ride the link. Sync acks ship them in two FIFO lanes:
// WAL batches and heartbeats in one, redirect intents and rollback signals
// in the other, so neither waits for the other's backup apply (DESIGN.md
// §12). Async acks ship all four through one queue. The backup builds its
// own versions from the WAL batches it applies, so no manifest edit ships.
//
//   kWalBatch       every group-commit WAL batch, shipped by the leader after
//                   local WAL sync and applied on the backup as a
//                   replicated-sequence write (lsm::WriteOptions::
//                   replicated_seq) — the RDMA-index-replication idea from
//                   PAPERS.md: stream the already-ordered commit stream, do
//                   not re-run the write path.
//   kRedirectIntent the KVACCEL twist: a redirected batch's Dev-LSM intent
//                   (keys, values, host sequence range, tombstone marks),
//                   shipped before the compound command goes to the
//                   PRIMARY's device and before the metadata flip acks it.
//                   The backup mirrors the intent into its OWN Dev-LSM and
//                   records its keys in its own Metadata Manager (or
//                   degrades to its host path when its device is unhealthy),
//                   so an acked redirected write survives failover even
//                   though the primary's device KV region is gone.
//   kRollback       the primary finished a rollback drain: its Dev-LSM data
//                   is now in its Main-LSM (via WAL-bypassing ingest), so
//                   the backup drains its mirror the same way, trusting its
//                   metadata as the primary does.
//   kHeartbeat      an empty lease-renewal record from a background beater;
//                   its round trip is what keeps the primary's lease fresh
//                   when no client writes flow.
//
// Ack modes (--repl_ack):
//   sync    a write is acknowledged only after its record is applied on the
//           backup; every acked write survives failover.
//   async   records queue (bounded by entries AND bytes) and ship from a
//           background actor; acks don't wait. On a crash the un-applied
//           tail — bounded by the queue capacity — is lost, and reported via
//           ReplStats.
//
// Partitions, leases and fencing epochs (DESIGN.md §12): every record carries
// the pair's fencing epoch. The primary holds a virtual-time lease renewed by
// each successful record round trip (heartbeats keep it fresh when idle);
// when a partition cuts the link the lease lapses and the primary self-fences
// into read-only — client writes fail with Busy, so no write is ever acked on
// both sides of a split. The backup may be detached for promotion only after
// the lease plus a safety margin has verifiably lapsed (DetachBackup refuses
// earlier). Promotion bumps the durable fencing epoch (a synced FENCE file on
// the node's file system); when the partition heals, the deposed primary's
// next record is rejected with a stale-epoch error and it deposes itself
// permanently. Reconciliation (quarantine the diverged tail, delta resync,
// rejoin as backup) lives in check::RejoinNode beside PromoteNode: core
// cannot depend on the checker layer.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/random.h"
#include "core/kvaccel_db.h"
#include "sim/backoff.h"
#include "sim/net_link.h"
#include "sim/periodic.h"

namespace kvaccel::fs {
class SimFs;
}

namespace kvaccel::core {

enum class ReplAck { kSync, kAsync };

// One node's caller-owned world. Both nodes share the one SimEnv (one
// simulation clock); each has its own SSD, file system and host CPU so a
// crash protocol can wipe exactly one side.
struct ReplNode {
  ssd::HybridSsd* ssd = nullptr;
  fs::SimFs* fs = nullptr;
  sim::CpuPool* host_cpu = nullptr;
  devlsm::DevLsm* dev = nullptr;  // external (device-owned) Dev-LSM
  // Per-node NDP engine (offloaded compaction runs on the node's OWN ssd);
  // a shared KvaccelOptions::ndp_device would bind both nodes to one device,
  // so the replicated Open overrides it from here. nullptr = host-only.
  ndp::NdpDevice* ndp = nullptr;
};

// Slack past the primary's lease before its backup may be promoted.
constexpr Nanos kPromoteSafetyMargin = FromMillis(10);

// Transient link sends (net.send.transient) are retried 3 times before the
// send fails, 100 us to 10 ms apart; an async record that still fails keeps
// cycling at the same delays until the pair crashes or the backup detaches.
constexpr sim::RetryPolicy kNetRetry{3, FromMicros(100), FromMillis(10)};

struct ReplOptions {
  ReplAck ack = ReplAck::kSync;
  // Interconnect: defaults model a 10 GbE-class link.
  double net_bytes_per_sec = 1.25e9;
  Nanos net_latency = FromMicros(30);
  // Async mode: records queued ahead of the shipper; producers block when
  // full — by entry count or by bytes (backpressure is what bounds the loss
  // tail in both dimensions).
  size_t async_queue_cap = 64;
  uint64_t async_queue_max_bytes = 4ull << 20;
  // Virtual-time lease + fencing (DESIGN.md §12). Every successful record
  // round trip (heartbeats included) extends the primary's write lease by
  // lease_duration; a primary whose lease has lapsed rejects client writes.
  // The backup may only be detached for promotion once the primary's lease
  // has verifiably lapsed: last applied record + lease +
  // kPromoteSafetyMargin.
  Nanos lease_duration = FromMillis(50);
  Nanos heartbeat_period = FromMillis(10);
  // Fencing epoch the pair starts at. Open adopts the max of this and the
  // durable FENCE epochs found on either node, and persists it to both.
  uint64_t epoch = 1;
};

struct ReplStats {
  uint64_t wal_records = 0;
  uint64_t wal_entries = 0;
  uint64_t intent_records = 0;
  uint64_t intent_entries = 0;
  uint64_t rollback_records = 0;
  uint64_t repl_bytes = 0;      // bytes charged to the link
  uint64_t records_applied = 0;
  uint64_t net_retries = 0;     // link send retries after a transient
  uint64_t ship_failures = 0;   // records dropped; async: the lost tail
  uint64_t lost_entries = 0;    // entries in dropped wal/intent records
  uint64_t lost_seq_min = 0;    // first seq of the earliest dropped record
  uint64_t backup_dev_fallbacks = 0;  // intents degraded to the host path
  uint64_t async_queue_peak = 0;
  uint64_t async_queue_bytes_peak = 0;
  Nanos sync_ship_ns = 0;       // foreground time spent shipping (sync mode)
  // Partition/fencing surface.
  uint64_t heartbeat_records = 0;     // lease renewals applied on the backup
  uint64_t fenced_write_rejects = 0;  // client writes refused while fenced
  uint64_t lease_expirations = 0;     // fresh -> lapsed transitions
  uint64_t fenced_records = 0;        // records rejected: stale epoch
  uint64_t ack_losses = 0;            // net.partition.ack fires (applied,
                                      // ack lost, write NOT acked)
  uint64_t dup_records = 0;           // net.dup fires (record applied twice)
  uint64_t reorder_swaps = 0;         // net.reorder fires (async swap)
};

// Durable fencing epoch: a small synced "FENCE" file on the node's file
// system, written via the tmp-then-rename idiom. 0 = no fence recorded.
uint64_t ReadFenceEpoch(fs::SimFs* fs);
Status WriteFenceEpoch(fs::SimFs* fs, uint64_t epoch);

// Catching a node up (DESIGN.md §12). A forming pair's Bootstrap streams the
// primary to its backup this way, and check::RejoinNode the serving node to
// a healed one.
struct CatchUpOptions {
  // Charges `bytes` to the wire: once per full 256 KiB chunk and once for
  // the remainder at the end.
  std::function<Status(uint64_t bytes)> send;
  // Target versions above this sequence are the target's diverged tail.
  uint64_t frontier = UINT64_MAX;
};

struct CatchUpStats {
  uint64_t entries = 0;           // puts + tombstones shipped
  uint64_t bytes = 0;             // payload charged to the wire
  uint64_t diverged_keys = 0;     // shipped over a version above the frontier
};

// Advances `db`'s sequence clock to at least `seq`, unlogged, as
// AllocateSequence does. Both nodes of a pair share one sequence space.
void AdvanceSequenceTo(lsm::DB* db, uint64_t seq);

// Makes `target`'s live key space equal `source`'s. Every live source key
// whose value differs on the target ships at the source's sequence, or at a
// fresh source sequence when the target's version is newer; every key live
// only on the target is buried by a tombstone chosen the same way. Shipped
// entries land through the WAL-bypassing IngestSortedBatch in 512-entry
// batches, so the target's WAL never sees a regressing sequence. Each entry
// costs its key and value bytes plus 24 B of framing on the wire.
Status CatchUp(lsm::DB* source, lsm::DB* target,
               const CatchUpOptions& options, CatchUpStats* stats);

class ReplicatedKvaccelDB : public lsm::Store {
 public:
  static Status Open(const lsm::DbOptions& main_options,
                     const KvaccelOptions& kv_options,
                     const ReplOptions& repl_options, const ReplNode& primary,
                     const ReplNode& backup, sim::SimEnv* env,
                     std::unique_ptr<ReplicatedKvaccelDB>* db);
  ~ReplicatedKvaccelDB() override;

  // Foreground interface: everything serves from the primary. Writes are
  // rejected with Busy while the primary is fenced (lease lapsed or deposed);
  // reads keep serving — fencing makes the node read-only, not dead.
  Status Write(const lsm::WriteOptions& wopts,
               lsm::WriteBatch* batch) override;
  Status Get(const lsm::ReadOptions& ropts, const Slice& key,
             Value* value) override;
  std::unique_ptr<lsm::Iterator> NewIterator(
      const lsm::ReadOptions& ropts) override;
  Status FlushAll() override;
  Status WaitForCompactionIdle() override;
  Status GetBackgroundError() override {
    return primary_->GetBackgroundError();
  }
  Status RollbackNow();
  // Drains the async queue (fail-fast per record once the pair has crashed),
  // stops the shipper, closes primary then backup. Errors are collected but
  // both nodes always end closed.
  Status Close() override;

  // Split-brain prevention, promotion side: releases the backup node so the
  // caller can PromoteNode it under a bumped epoch. Refuses with Busy until
  // backup_promote_safe_at() — the instant the primary's lease (granted at
  // the last record the backup applied) has certainly lapsed, plus the
  // safety margin — unless forced. After detach the pair keeps serving reads
  // (and rejects writes once its own lease lapses); a healed ship attempt
  // reads the backup node's durable FENCE epoch and deposes the primary.
  Status DetachBackup(bool force = false);

  // ---- Introspection ----
  KvaccelDB* primary() { return primary_.get(); }
  KvaccelDB* backup() { return backup_.get(); }
  sim::NetLink* link() { return link_.get(); }
  const ReplStats& repl_stats() const { return stats_; }
  ReplAck ack() const { return options_.ack; }
  // Verification frontier: every acked write with first_seq <= this is
  // applied on the backup. No losses => the highest sequence handed to the
  // replication stream; with a dropped record it stops just short of the
  // earliest hole.
  uint64_t applied_frontier() const {
    return stats_.lost_seq_min == 0 ? last_assigned_seq_
                                    : stats_.lost_seq_min - 1;
  }
  // True applied watermark: the highest sequence actually applied on the
  // backup (ack-lost records count — they ARE on the backup). This is the
  // divergence frontier RejoinNode quarantines the deposed tail against.
  uint64_t applied_seq() const { return applied_seq_; }
  // Fencing surface.
  uint64_t epoch() const { return epoch_; }
  bool deposed() const { return deposed_; }
  bool fenced() const { return deposed_ || env_->Now() >= lease_expiry_; }
  Nanos backup_promote_safe_at() const {
    return backup_last_applied_ns_ + options_.lease_duration +
           kPromoteSafetyMargin;
  }
  // Async queue occupancy in bytes (the ha.repl.queue_bytes gauge).
  uint64_t queue_bytes() const { return queue_bytes_; }

  // ---- Test hooks (async mode) ----
  // Holds the shipper so a test can build a known queue backlog.
  void PauseShipping(bool paused);
  // Blocks until the queue is empty and no record is mid-apply.
  void DrainShipping();

 private:
  struct Record {
    enum class Type { kWalBatch, kRedirectIntent, kRollback, kHeartbeat };
    Type type = Type::kWalBatch;
    lsm::WriteBatch batch;  // kWalBatch payload
    std::vector<VersionedEntry> entries;  // kRedirectIntent payload
    uint64_t first_seq = 0;
    uint64_t last_seq = 0;  // highest sequence carried (0 when none)
    uint32_t count = 0;  // entries carried (0 for rollback/heartbeat)
    uint64_t bytes = 0;  // serialized size charged to the link
    uint64_t epoch = 0;  // fencing epoch stamped at ship time
  };

  ReplicatedKvaccelDB(const ReplOptions& options, const ReplNode& backup_node,
                      sim::SimEnv* env);

  // Primary-side hooks (installed into the primary's options at Open).
  Status ShipWalBatch(const lsm::WriteBatch& group, uint64_t first_seq);
  Status ShipRedirectIntent(const std::vector<VersionedEntry>& entries);
  void ShipRollback();

  // One record end to end: link transfer (+bounded transient retries), then
  // apply on the backup, then the protocol-level net.* adversaries (ack
  // loss, duplication). `forever` (async) keeps cycling on transient
  // failures until the pair crashes or the backup detaches; a drop is
  // recorded as lost tail. A stale-epoch rejection deposes the primary
  // permanently (non-transient).
  Status SendAndApply(Record* rec, bool forever);
  // One attempt of SendAndApply, with its bookkeeping on success.
  Status SendAndApplyOnce(Record* rec);
  Status SendOverLink(uint64_t bytes);
  Status ApplyOnBackup(Record* rec);
  Status ApplyIntentOnBackup(Record* rec);
  // WAL-bypassing exact-sequence ingest on the backup (sorts + dedups).
  Status IngestOnBackup(std::vector<VersionedEntry> ing);
  void RecordLoss(const Record& rec);

  // Fencing internals.
  Status CheckFence();   // Busy while fenced; counts the reject
  void RenewLease();     // on any successful round trip
  void NoteLeaseState(); // counts fresh -> lapsed transitions
  void Heartbeat();      // one heartbeat_ tick

  // Sync: applies inline in the record's lane (FIFO). Async: enqueues with
  // backpressure; fails only if the pair crashes while waiting.
  Status Ship(Record rec);
  void ShipperLoop();
  // Async queue, q_mu_ held: at its record or byte cap.
  bool QueueFullLocked() const;

  // Streams the primary's existing contents to a freshly attached backup
  // (promote -> re-pair lifecycle) with CatchUp over the pair's link.
  Status Bootstrap();

  ReplOptions options_;
  ReplNode backup_node_;
  sim::SimEnv* env_;

  std::unique_ptr<sim::NetLink> link_;
  std::unique_ptr<KvaccelDB> primary_;
  std::unique_ptr<KvaccelDB> backup_;

  // Sync-mode lanes, one record in flight on each. The WAL lane carries WAL
  // batches and heartbeats; the device lane redirect intents and rollback
  // signals. Only DetachBackup holds both (WAL lane first).
  sim::SimMutex ship_mu_;
  sim::SimMutex dev_ship_mu_;
  Random64 net_rng_;

  // Async shipper state (all under q_mu_).
  sim::SimMutex q_mu_;
  sim::SimCondVar q_cv_;
  std::deque<Record> queue_;
  uint64_t queue_bytes_ = 0;
  bool shipper_busy_ = false;
  bool paused_ = false;
  bool stopping_ = false;
  sim::SimEnv::Thread* shipper_ = nullptr;

  // Lease renewals, every heartbeat_period; the ship rides the WAL lane.
  sim::PeriodicActor heartbeat_;

  // Fencing state. Cooperative scheduler: mutated only between yield points.
  uint64_t epoch_ = 1;
  Nanos lease_expiry_ = 0;
  bool lease_lapsed_noted_ = false;
  bool deposed_ = false;
  bool detach_requested_ = false;  // bails a shipper stuck in retries
  Nanos backup_last_applied_ns_ = 0;
  uint64_t applied_seq_ = 0;
  uint64_t backup_wal_seq_ = 0;  // highest seq applied via the backup's WAL

  ReplStats stats_;
  uint64_t last_assigned_seq_ = 0;
  bool closed_ = false;
};

}  // namespace kvaccel::core
