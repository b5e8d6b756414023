#include "check/failover.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "sim/net_link.h"

namespace kvaccel::check {

namespace {
// Per-entry framing overhead on the resync wire (matches the replication
// shipper's kIntentEntryBytes: seq + sizes + type).
constexpr uint64_t kResyncEntryBytes = 24;
constexpr uint64_t kResyncChunkBytes = 256u << 10;

// A pair node's options and world for running it on its own: replication
// hooks cleared (a promoted or rejoining node is single until it re-pairs)
// and its device-owned Dev-LSM attached.
struct StandaloneNode {
  lsm::DbOptions db;
  core::KvaccelOptions kv;
  lsm::DbEnv env;
};

StandaloneNode Standalone(const lsm::DbOptions& main_options,
                          const core::KvaccelOptions& kv_options,
                          const core::ReplNode& node, sim::SimEnv* env) {
  StandaloneNode n{main_options, kv_options,
                   lsm::DbEnv{env, node.ssd, node.fs, node.host_cpu}};
  n.db.wal_shipper = nullptr;
  n.db.manifest_shipper = nullptr;
  n.kv.external_dev = node.dev;
  n.kv.redirect_shipper = nullptr;
  n.kv.rollback_shipper = nullptr;
  return n;
}
}  // namespace

Status PromoteNode(const lsm::DbOptions& main_options,
                   const core::KvaccelOptions& kv_options,
                   const core::ReplNode& node, sim::SimEnv* env,
                   FailoverReport* report,
                   std::unique_ptr<core::KvaccelDB>* promoted,
                   uint64_t new_epoch) {
  FailoverReport local;
  FailoverReport* rep = report != nullptr ? report : &local;
  *rep = FailoverReport{};
  Nanos t0 = env->Now();

  // Partition promotions fence the deposed primary by bumping the durable
  // epoch BEFORE this node serves a single write: once the FENCE file holds
  // the new epoch, any record the old primary ships after heal is rejected
  // as stale and deposes it permanently (DESIGN.md §12).
  uint64_t epoch = core::ReadFenceEpoch(node.fs);
  if (new_epoch > epoch) {
    Status fs = core::WriteFenceEpoch(node.fs, new_epoch);
    if (!fs.ok()) {
      rep->first_error = fs.ToString();
      return fs;
    }
    epoch = new_epoch;
  }
  rep->fence_epoch = epoch;

  // Step 1: offline verification, repair on errors, then re-check. A torn
  // WAL tail or orphan SST is a warning (legal after a crash); anything the
  // repair cannot clear fails the promotion.
  StandaloneNode n = Standalone(main_options, kv_options, node, env);
  DbChecker checker(n.db, n.env);
  CheckReport cr = checker.Check();
  if (cr.errors() > 0) {
    rep->repaired = true;
    Status rs = checker.Repair(&cr);
    if (!rs.ok()) {
      rep->checker_errors = cr.errors();
      rep->first_error = rs.ToString();
      return rs;
    }
    cr = checker.Check();
  }
  rep->checker_errors = cr.errors();
  rep->checker_warnings = cr.warnings();
  if (cr.errors() > 0) {
    rep->first_error = cr.FirstError();
    return Status::Corruption("promote: checker errors after repair: " +
                              rep->first_error);
  }

  // Step 2: open. KvaccelDB::Open replays the WAL and then drains a
  // non-empty attached Dev-LSM (the replicated mirror) into the Main-LSM by
  // sequence comparison — this is where redirected writes that died with the
  // primary's device get re-hosted.
  std::unique_ptr<core::KvaccelDB> db;
  Status s = core::KvaccelDB::Open(n.db, n.kv, n.env, &db);
  if (!s.ok()) {
    rep->first_error = s.ToString();
    return s;
  }
  rep->drained_entries = db->kv_stats().rollback_entries;

  // Step 3: live dual-interface invariant on the promoted node.
  CheckReport live;
  DbChecker::CheckDualInterface(db.get(), &live);
  rep->checker_errors += live.errors();
  rep->checker_warnings += live.warnings();
  if (live.errors() > 0) {
    rep->first_error = live.FirstError();
    (void)db->Close();
    return Status::Corruption("promote: dual-interface errors: " +
                              rep->first_error);
  }

  rep->promote_ns = env->Now() - t0;
  *promoted = std::move(db);
  return Status::OK();
}

namespace {

// The reconciliation body proper; split out so RejoinNode can wrap it with
// the scrub-deferral bracket and the always-close of the rejoining DB.
Status RejoinBody(const lsm::DbOptions& main_options,
                  const core::KvaccelOptions& kv_options,
                  const core::ReplNode& node, core::KvaccelDB* serving,
                  const RejoinOptions& options, sim::SimEnv* env,
                  RejoinReport* rep, std::unique_ptr<core::KvaccelDB>* out) {
  StandaloneNode n = Standalone(main_options, kv_options, node, env);
  // Step 1: quarantine the diverged tail. Repair always runs here — even a
  // checker-clean node can hold unacked entries above the frontier (they
  // committed locally before the partition fenced the node), and only the
  // frontier cut removes them. Then the node must re-check clean.
  DbChecker checker(n.db, n.env);
  CheckReport cr = checker.Check();
  rep->repaired = true;
  Status s = checker.Repair(&cr, options.frontier);
  if (!s.ok()) {
    rep->checker_errors = cr.errors();
    rep->first_error = s.ToString();
    return s;
  }
  cr = checker.Check();
  rep->checker_errors = cr.errors();
  rep->checker_warnings = cr.warnings();
  if (cr.errors() > 0) {
    rep->first_error = cr.FirstError();
    return Status::Corruption("rejoin: checker errors after repair: " +
                              rep->first_error);
  }

  // Step 2: adopt the serving side's fencing epoch durably, so a node that
  // crashes mid-rejoin still comes back fenced against its own stale past.
  uint64_t epoch = core::ReadFenceEpoch(node.fs);
  if (options.new_epoch > epoch) {
    s = core::WriteFenceEpoch(node.fs, options.new_epoch);
    if (!s.ok()) {
      rep->first_error = s.ToString();
      return s;
    }
    epoch = options.new_epoch;
  }
  rep->fence_epoch = epoch;

  // Step 3: make the serving Main-LSM authoritative before diffing — drain
  // its Dev-LSM residue (same order the replicated Open uses) and, in delta
  // mode, flush so what ships really is SST-resident state, not memtable
  // contents replayed through a write path.
  s = serving->RollbackNow();
  if (!s.ok()) {
    rep->first_error = s.ToString();
    return s;
  }
  if (options.mode == ResyncMode::kDelta) {
    s = serving->FlushAll();
    if (!s.ok()) {
      rep->first_error = s.ToString();
      return s;
    }
  }

  std::unique_ptr<core::KvaccelDB> db;
  s = core::KvaccelDB::Open(n.db, n.kv, n.env, &db);
  if (!s.ok()) {
    rep->first_error = s.ToString();
    return s;
  }
  core::KvaccelDB* node_db = db.get();
  *out = std::move(db);

  // Both nodes must agree on one sequence space after the rejoin (the next
  // re-pair's watermarks assume it). Advance the serving clock past anything
  // the rejoining node still holds; IngestSortedBatch advances the rejoining
  // node's clock past the sequences shipped to it.
  uint64_t node_last = node_db->main()->LastSequence();
  while (serving->main()->LastSequence() < node_last) {
    uint64_t gap = node_last - serving->main()->LastSequence();
    serving->main()->AllocateSequence(static_cast<uint32_t>(
        std::min<uint64_t>(gap, std::numeric_limits<uint32_t>::max())));
  }

  // The resync interconnect: every shipped byte pays wire time, in 256 KiB
  // chunks, optionally queued through the caller's FairShareArbiter client
  // so reconciliation traffic shares bandwidth instead of starving serving
  // I/O (Acquire blocks the simulated thread until granted).
  sim::NetLink link(env, "resync", options.net_bytes_per_sec,
                    options.net_latency);
  // Charges `b` more bytes and sends what is pending once a chunk fills, or
  // whatever is left when `drain`.
  uint64_t pending_bytes = 0;
  auto charge = [&](uint64_t b, bool drain = false) -> Status {
    rep->resync_bytes += b;
    pending_bytes += b;
    if (pending_bytes == 0 || (!drain && pending_bytes < kResyncChunkBytes)) {
      return Status::OK();
    }
    if (options.arbiter != nullptr && options.arbiter_client >= 0) {
      options.arbiter->Acquire(options.arbiter_client, pending_bytes);
    }
    Status cs = link.Send(pending_bytes);
    pending_bytes = 0;
    return cs;
  };

  const bool delta = options.mode == ResyncMode::kDelta;
  lsm::ReadOptions ro;
  lsm::WriteOptions wo;
  std::vector<lsm::IngestEntry> batch;
  auto flush_batch = [&]() -> Status {
    if (batch.empty()) return Status::OK();
    Status fs = node_db->main()->IngestSortedBatch(batch);
    batch.clear();
    return fs;
  };

  // Step 4, forward pass: every serving key whose version differs on the
  // rejoining node ships across. Delta mode lands it through the
  // WAL-bypassing ingest path at its exact serving sequence; WAL-replay mode
  // re-runs it through the full write path for comparison.
  auto it = serving->main()->NewIterator(ro);
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    std::string key = it->key().ToString();
    Value sv;
    lsm::SequenceNumber sseq = 0;
    s = serving->main()->GetWithSequence(ro, key, &sv, &sseq);
    if (s.IsNotFound()) continue;  // raced a deletion; reverse pass's job
    if (!s.ok()) return s;
    Value nv;
    lsm::SequenceNumber nseq = 0;
    Status ns = node_db->main()->GetWithSequence(ro, key, &nv, &nseq);
    if (!ns.ok() && !ns.IsNotFound()) return ns;
    if (ns.ok() && nv == sv) continue;  // converged
    if (nseq > options.frontier) rep->quarantined_keys++;

    uint64_t payload = key.size() + sv.logical_size() + kResyncEntryBytes;
    rep->resync_entries++;
    rep->wal_replay_bytes += payload;
    s = charge(payload);
    if (!s.ok()) return s;
    if (delta) {
      lsm::IngestEntry e;
      e.key = key;
      e.value = sv;
      // The serving version's own sequence, unless the node holds a newer
      // (diverged, value-different) sequence that would shadow it.
      e.seq = sseq > nseq ? sseq : serving->main()->AllocateSequence(1);
      batch.push_back(std::move(e));
      if (batch.size() >= 512) {
        s = flush_batch();
        if (!s.ok()) return s;
      }
    } else {
      // Straight into the Main-LSM write path (WAL + memtable): replay must
      // not take the stall-redirect detour into the Dev-LSM mirror, which
      // the convergence walk below would never see.
      rep->write_path_bytes += payload;
      s = node_db->main()->Put(wo, key, sv);
      if (!s.ok()) return s;
    }
  }
  if (!it->status().ok()) return it->status();
  s = flush_batch();
  if (!s.ok()) return s;

  // Step 4, reverse pass: keys live on the rejoining node but gone on the
  // serving one become tombstones. Collected first, applied after — the
  // node's iterator must not see its own DB mutate underneath it.
  struct PendingDelete {
    std::string key;
    lsm::SequenceNumber serving_seq;  // serving tombstone's seq (0 = elided)
    lsm::SequenceNumber node_seq;     // version being buried
  };
  std::vector<PendingDelete> deletes;
  auto nit = node_db->main()->NewIterator(ro);
  for (nit->SeekToFirst(); nit->Valid(); nit->Next()) {
    std::string key = nit->key().ToString();
    Value sv;
    lsm::SequenceNumber sseq = 0;
    s = serving->main()->GetWithSequence(ro, key, &sv, &sseq);
    if (s.ok()) continue;  // forward pass covered it
    if (!s.IsNotFound()) return s;
    Value nv;
    lsm::SequenceNumber nseq = 0;
    Status ns = node_db->main()->GetWithSequence(ro, key, &nv, &nseq);
    if (!ns.ok() && !ns.IsNotFound()) return ns;
    if (nseq > options.frontier) rep->quarantined_keys++;
    deletes.push_back(PendingDelete{std::move(key), sseq, nseq});
  }
  if (!nit->status().ok()) return nit->status();
  for (auto& d : deletes) {
    uint64_t payload = d.key.size() + kResyncEntryBytes;
    rep->resync_entries++;
    rep->wal_replay_bytes += payload;
    s = charge(payload);
    if (!s.ok()) return s;
    if (delta) {
      lsm::IngestEntry e;
      e.key = std::move(d.key);
      e.tombstone = true;
      // The serving tombstone's sequence when it still exists and buries the
      // node's version; otherwise a fresh one from the shared clock.
      e.seq = (d.serving_seq > d.node_seq)
                  ? d.serving_seq
                  : serving->main()->AllocateSequence(1);
      batch.push_back(std::move(e));  // node iterator order: already sorted
      if (batch.size() >= 512) {
        s = flush_batch();
        if (!s.ok()) return s;
      }
    } else {
      rep->write_path_bytes += payload;
      s = node_db->main()->Delete(wo, d.key);
      if (!s.ok()) return s;
    }
  }
  s = flush_batch();
  if (!s.ok()) return s;
  s = charge(0, /*drain=*/true);
  if (!s.ok()) return s;

  // Step 5: convergence proof — lockstep walk of both live key spaces, byte
  // comparison of every key and value. This is the acceptance bar: after
  // reconciliation the nodes are indistinguishable.
  auto si = serving->main()->NewIterator(ro);
  auto vi = node_db->main()->NewIterator(ro);
  si->SeekToFirst();
  vi->SeekToFirst();
  while (si->Valid() && vi->Valid()) {
    if (si->key() != vi->key()) {
      rep->first_error = "diverged key: serving=" + si->key().ToString() +
                         " node=" + vi->key().ToString();
      return Status::Corruption("rejoin: " + rep->first_error);
    }
    if (si->value() != vi->value()) {
      rep->first_error = "diverged value at key " + si->key().ToString();
      return Status::Corruption("rejoin: " + rep->first_error);
    }
    si->Next();
    vi->Next();
  }
  if (si->Valid() != vi->Valid()) {
    rep->first_error = si->Valid()
                           ? "node is missing keys from " + si->key().ToString()
                           : "node has extra keys from " + vi->key().ToString();
    return Status::Corruption("rejoin: " + rep->first_error);
  }
  if (!si->status().ok()) return si->status();
  if (!vi->status().ok()) return vi->status();
  return Status::OK();
}

}  // namespace

Status RejoinNode(const lsm::DbOptions& main_options,
                  const core::KvaccelOptions& kv_options,
                  const core::ReplNode& node, core::KvaccelDB* serving,
                  const RejoinOptions& options, sim::SimEnv* env,
                  RejoinReport* report) {
  RejoinReport local;
  RejoinReport* rep = report != nullptr ? report : &local;
  *rep = RejoinReport{};
  Nanos t0 = env->Now();

  // Bracket the whole reconciliation with scrub deferral on the serving
  // node: resync reads and serving traffic already share the device; the
  // background scrubber should not pile on (satellite: DESIGN.md §12).
  core::Scrubber* scrub = serving->scrubber();
  uint64_t scrub_base = scrub != nullptr ? scrub->stats().deferred_for_resync
                                         : 0;
  if (scrub != nullptr) scrub->SetResyncDeferred(true);

  std::unique_ptr<core::KvaccelDB> db;
  Status s = RejoinBody(main_options, kv_options, node, serving, options, env,
                        rep, &db);
  if (db != nullptr) {
    Status cs = db->Close();
    if (s.ok()) s = cs;
  }
  if (scrub != nullptr) {
    rep->scrub_deferred = scrub->stats().deferred_for_resync - scrub_base;
    scrub->SetResyncDeferred(false);
  }
  if (!s.ok() && rep->first_error.empty()) rep->first_error = s.ToString();
  rep->rejoin_ns = env->Now() - t0;
  return s;
}

}  // namespace kvaccel::check
