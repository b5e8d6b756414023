// KvaccelDB: the KVACCEL system facade (paper Fig. 7b) — RocksDB-equivalent
// Main-LSM on the block interface + Dev-LSM write buffer on the key-value
// interface of the same hybrid SSD, glued by the four software modules:
//
//   Detector          polls Main-LSM stall signals every 0.1 s
//   Controller        per-op path decision (this class's Put/Get/Delete)
//   Metadata Manager  hash table: which keys' newest version is device-side
//   Rollback Manager  drains Dev-LSM back into Main-LSM when calm
//
// Unlike the baselines, KVACCEL's Main-LSM runs with the slowdown mechanism
// OFF (paper §VI-B: "KVACCEL does not employ any slowdown mechanisms"):
// imminent stalls redirect writes to the device instead of throttling them,
// and a write the Main-LSM would hold at a stop trigger between two
// Detector polls escapes to the device too (DESIGN.md §29).
#pragma once

#include <memory>

#include "common/random.h"
#include "core/config.h"
#include "core/detector.h"
#include "core/metadata_manager.h"
#include "core/scrubber.h"
#include "devlsm/dev_lsm.h"
#include "lsm/db.h"
#include "lsm/db_impl.h"
#include "ndp/offload_planner.h"
#include "sim/periodic.h"

namespace kvaccel::core {

class RollbackManager;

class KvaccelDB : public lsm::Store {
 public:
  static Status Open(const lsm::DbOptions& main_options,
                     const KvaccelOptions& kv_options, const lsm::DbEnv& env,
                     std::unique_ptr<KvaccelDB>* db);
  ~KvaccelDB() override;

  // ---- Point operations (Controller write/read paths, paper §V-C) ----
  // All foreground writes funnel through Write: the Controller makes its
  // path decision once per batch, so a redirected group costs one compound
  // device command instead of N point commands.
  Status Write(const lsm::WriteOptions& wopts,
               lsm::WriteBatch* batch) override;
  Status Get(const lsm::ReadOptions& ropts, const Slice& key,
             Value* value) override;

  // ---- Range queries (paper §V-F, Fig. 10) ----
  std::unique_ptr<lsm::Iterator> NewIterator(
      const lsm::ReadOptions& ropts) override;

  // ---- Maintenance ----
  Status FlushAll() override { return main_->FlushAll(); }
  Status WaitForCompactionIdle() override {
    return main_->WaitForCompactionIdle();
  }
  Status GetBackgroundError() override { return main_->GetBackgroundError(); }
  // Forces a full rollback immediately (lazy-after-workload runs, tests).
  Status RollbackNow();
  // §VI-D recovery: lose the volatile metadata table, then restore
  // consistency by rolling every Dev-LSM pair back into Main-LSM.
  // Reports the recovery duration.
  Status CrashMetadataAndRecover(Nanos* recovery_duration);
  Status Close() override;

  // ---- Introspection ----
  sim::SimEnv* sim_env() { return env_; }
  lsm::DB* main() { return main_.get(); }
  devlsm::DevLsm* dev() { return dev_; }
  Detector* detector() { return detector_.get(); }
  MetadataManager* metadata() { return md_.get(); }
  // Null unless KvaccelOptions::scrub.enabled.
  Scrubber* scrubber() { return scrubber_.get(); }
  // Null unless an NdpDevice was attached with planner mode != kOff.
  ndp::OffloadPlanner* offload_planner() { return planner_.get(); }
  const KvaccelStats& kv_stats() const { return kv_stats_; }
  // Unified foreground-op stats (both paths) for the figures.
  const lsm::DbStats& stats() const { return agg_stats_; }

 private:
  KvaccelDB(const KvaccelOptions& kv_options, const lsm::DbEnv& env);

  // Asks the sharded engine's capacity budget (if any) for a redirect of
  // `batch`; a refusal is counted and the batch takes the host path.
  bool AdmitRedirect(const lsm::WriteBatch& batch);
  // Main-LSM write plus the direct path's bookkeeping. An Incomplete (a
  // no_slowdown write the Main-LSM refused) wrote and records nothing.
  Status WriteMain(const lsm::WriteOptions& wopts, lsm::WriteBatch* batch);
  // Serves `batch` from the Dev-LSM as one compound command, falling back
  // to a waiting Main-LSM write with `wopts` if the device fails it.
  // `escape` marks a batch the Main-LSM refused at a stop trigger.
  Status Redirect(const lsm::WriteOptions& wopts, lsm::WriteBatch* batch,
                  bool escape);
  // Dev-LSM compound put with transient-error retries; on budget exhaustion
  // latches the device unhealthy via the Detector and returns the error so
  // the caller falls back to the host path.
  Status DevPutWithRetry(const std::vector<VersionedEntry>& entries);
  // `batch` reached the Main-LSM: a pending redirect of one of its keys
  // older than the batch records nothing, and when `drop`, each key's
  // metadata record goes unless a redirected write newer than the batch
  // wrote it.
  void DropSupersededRecords(const lsm::WriteBatch& batch, bool drop);

  KvaccelOptions options_;
  lsm::DbEnv denv_;
  sim::SimEnv* env_;

  std::unique_ptr<lsm::DB> main_;
  // dev_ points at owned_dev_ unless options_.external_dev attached a
  // device that outlives this KvaccelDB (crash/reopen tests).
  devlsm::DevLsm* dev_ = nullptr;
  std::unique_ptr<devlsm::DevLsm> owned_dev_;
  std::unique_ptr<MetadataManager> md_;
  std::unique_ptr<Detector> detector_;
  std::unique_ptr<RollbackManager> rollback_;
  std::unique_ptr<Scrubber> scrubber_;
  std::unique_ptr<ndp::OffloadPlanner> planner_;

  KvaccelStats kv_stats_;
  lsm::DbStats agg_stats_;
  // Decorrelated-jitter stream for DevPutWithRetry backoff (sim/backoff.h).
  Random64 dev_retry_rng_;
  bool closed_ = false;
};

// Rollback Manager (paper §V-E): returns cached Dev-LSM pairs to Main-LSM
// when the Detector reports no write stall, using the iterator-based bulky
// range scan, then resets the Dev-LSM.
class RollbackManager {
 public:
  RollbackManager(KvaccelDB* owner, const KvaccelOptions& options)
      : owner_(owner), options_(options) {}

  void Start(sim::SimEnv* env);
  void Stop() { actor_.Stop(); }

  // Drains the Dev-LSM into Main-LSM. When `trust_metadata` is true (normal
  // rollback), entries whose metadata record was superseded by a newer
  // Main-LSM write are skipped; recovery after metadata loss replays all.
  Status Execute(bool trust_metadata);

 private:
  // One detector period: drains once the Detector reports a long enough
  // calm streak.
  void Tick();

  KvaccelDB* owner_;
  KvaccelOptions options_;
  sim::PeriodicActor actor_;
  bool in_progress_ = false;
};

}  // namespace kvaccel::core
