// ShardedKvaccelDB: shard-per-core engine (DESIGN.md §11).
//
// Routes one key space across N full KVACCEL stacks — each shard owns its
// own WAL, memtable, version set, Metadata Manager, Detector and Dev-LSM
// namespace — while every shard runs against the *same* SimEnv/HybridSsd:
// one PCIe link, one NAND array, one firmware core, one KV region. That
// shared-device contention is the point; two mechanisms arbitrate it:
//
//   FairShareArbiter   deep-compaction I/O and redirect DMA of all shards
//                      reserve bandwidth on one SFQ token bucket, so a
//                      compaction-heavy shard queues behind a light shard's
//                      redirects instead of starving them (sim/arbiter.h).
//   Redirect budget    shards compete for Dev-LSM capacity under a global or
//                      per-shard policy; the global split follows the
//                      Detector picture (stalled shards divide the budget).
//
// Determinism: shards are opened, written, iterated and closed in index
// order, and the arbiter's grant order is a pure function of the call
// sequence — same seed, byte-identical reports.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/kvaccel_db.h"
#include "fs/simfs.h"
#include "sim/arbiter.h"

namespace kvaccel::core {

enum class ShardPartition {
  kHash,   // Hash64(key) % N — uniform regardless of key shape
  kRange,  // first 8 key bytes, big-endian, multiply-shift split
};

enum class RedirectBudgetPolicy {
  // One budget for the whole device; while several shards stall, each may
  // hold at most budget / (number of stalled shards) — the Detector picture
  // feeds the split.
  kGlobal,
  // Static budget / N slice per shard, regardless of who is stalling.
  kPerShard,
};

struct ShardingOptions {
  int num_shards = 1;
  ShardPartition partition = ShardPartition::kHash;
  RedirectBudgetPolicy redirect_policy = RedirectBudgetPolicy::kGlobal;
  // Serving rate of the fair-share arbiter as a fraction of the device NAND
  // bandwidth. 1.0 = arbitrate at full device speed (ordering fairness only
  // kicks in under contention); < 1 additionally caps the background +
  // redirect traffic; 0 disables the arbiter entirely (each shard falls back
  // to its own compaction_rate_limit bucket, redirects unarbitrated).
  double arbiter_share = 1.0;
  uint64_t arbiter_burst_bytes = 1ull << 20;
  // Total Dev-LSM redirect budget in logical bytes across all shards.
  // 0 = derive: 90% of the device's aggregate KV-region capacity.
  uint64_t redirect_budget_bytes = 0;
  // Externally owned per-shard resources (crash/reopen tests): when
  // non-empty, must hold exactly num_shards entries; shard i uses entry i.
  // The file systems and Dev-LSMs then survive a Close/reopen of the router
  // (the device outlives the simulated host).
  std::vector<fs::SimFs*> external_fs;
  std::vector<devlsm::DevLsm*> external_devs;
};

// The shared world a sharded engine runs in. Per-shard file systems and
// Dev-LSMs are created (or attached) by Open, one per SSD namespace, so the
// SsdConfig must declare num_namespaces >= num_shards.
struct ShardEnv {
  sim::SimEnv* env = nullptr;
  ssd::HybridSsd* ssd = nullptr;
  sim::CpuPool* host_cpu = nullptr;
};

class ShardedKvaccelDB : public lsm::Store {
 public:
  static Status Open(const lsm::DbOptions& main_options,
                     const KvaccelOptions& kv_options,
                     const ShardingOptions& sharding, const ShardEnv& env,
                     std::unique_ptr<ShardedKvaccelDB>* db);
  ~ShardedKvaccelDB() override;

  // ---- Point operations (routed by ShardOf) ----
  // A multi-shard batch is split into per-shard sub-batches applied in shard
  // index order; atomicity is per shard, not across shards (an error may
  // leave earlier shards committed — callers treat the batch as ambiguous,
  // exactly like a torn crash).
  Status Write(const lsm::WriteOptions& wopts,
               lsm::WriteBatch* batch) override;
  Status Get(const lsm::ReadOptions& ropts, const Slice& key,
             Value* value) override;

  // Cross-shard range query: K-way merge over per-shard hybrid iterators.
  // Shards hold disjoint key sets, so the merge is a strict global order.
  std::unique_ptr<lsm::Iterator> NewIterator(
      const lsm::ReadOptions& ropts) override;

  // ---- Maintenance (all loops run in shard index order) ----
  Status FlushAll() override;
  Status WaitForCompactionIdle() override;
  // The lowest-index shard's latched error, if any shard has one.
  Status GetBackgroundError() override;
  Status RollbackNow();
  Status RollbackShardNow(int shard);
  // §VI-D recovery across the fleet: every shard loses its volatile
  // metadata table, then drains its Dev-LSM namespace back into its
  // Main-LSM. Reports the total (sequential) recovery duration.
  Status CrashMetadataAndRecover(Nanos* recovery_duration);
  Status Close() override;

  // ---- Routing ----
  int ShardOf(const Slice& key) const;
  int num_shards() const { return static_cast<int>(shards_.size()); }

  // ---- Introspection ----
  KvaccelDB* shard(int i) { return shards_[i].db.get(); }
  fs::SimFs* shard_fs(int i) { return shards_[i].fs; }
  sim::FairShareArbiter* arbiter() { return arbiter_.get(); }
  const ShardingOptions& sharding() const { return sharding_; }
  uint64_t redirect_budget_bytes() const { return redirect_budget_bytes_; }
  sim::SimEnv* sim_env() { return env_; }

  // Aggregate views across shards (counters summed, histograms and
  // per-second series merged, stall/slowdown regions unioned). Recomputed on
  // every call; the returned reference stays valid until the next call.
  const lsm::DbStats& AggregateStats() const;
  const lsm::DbStats& AggregateMainStats() const;
  KvaccelStats AggregateKvStats() const;
  lsm::BlockCacheStats AggregateBlockCacheStats() const;
  devlsm::DevLsmStats AggregateDevStats() const;

 private:
  struct Shard {
    std::unique_ptr<fs::SimFs> owned_fs;
    std::unique_ptr<devlsm::DevLsm> owned_dev;
    fs::SimFs* fs = nullptr;
    devlsm::DevLsm* dev = nullptr;
    std::unique_ptr<KvaccelDB> db;
  };

  ShardedKvaccelDB(const ShardingOptions& sharding, const ShardEnv& env);

  // Dev-LSM capacity admission for shard `shard` wanting `bytes` more.
  bool AdmitRedirect(int shard, uint64_t bytes) const;
  void AggregateDbStats(bool main_side, lsm::DbStats* out) const;

  ShardingOptions sharding_;
  sim::SimEnv* env_;
  ssd::HybridSsd* ssd_;
  uint64_t redirect_budget_bytes_ = 0;

  // Declared before shards_: shards close/destroy first, so their arbiter
  // callbacks never outlive the arbiter.
  std::unique_ptr<sim::FairShareArbiter> arbiter_;
  std::vector<Shard> shards_;

  mutable lsm::DbStats agg_fg_;    // AggregateStats cache
  mutable lsm::DbStats agg_main_;  // AggregateMainStats cache
  bool closed_ = false;
};

}  // namespace kvaccel::core
