// SystemUnderTest: a uniform facade over the three LSM-KVS the paper
// compares — stock RocksDB-equivalent, ADOC (RocksDB + tuner), and KVACCEL —
// so one workload driver exercises them all.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "adoc/adoc_tuner.h"
#include "common/flags.h"
#include "core/kvaccel_db.h"
#include "core/replicated_kvaccel_db.h"
#include "core/sharded_kvaccel_db.h"
#include "harness/presets.h"
#include "lsm/db.h"

namespace kvaccel::harness {

enum class SystemKind { kRocksDB, kAdoc, kKvaccel };

// Display names (run names, the report's config block) and the flag and
// report names of SutConfig's enumerated fields.
inline constexpr EnumName<SystemKind> kSystemNames[] = {
    {"RocksDB", SystemKind::kRocksDB},
    {"ADOC", SystemKind::kAdoc},
    {"KVAccel", SystemKind::kKvaccel}};
inline constexpr EnumName<SystemKind> kSystemFlagNames[] = {
    {"rocksdb", SystemKind::kRocksDB},
    {"adoc", SystemKind::kAdoc},
    {"kvaccel", SystemKind::kKvaccel}};
inline constexpr EnumName<core::RollbackScheme> kRollbackNames[] = {
    {"lazy", core::RollbackScheme::kLazy},
    {"eager", core::RollbackScheme::kEager},
    {"disabled", core::RollbackScheme::kDisabled}};
inline constexpr EnumName<core::ShardPartition> kShardPartitionNames[] = {
    {"hash", core::ShardPartition::kHash},
    {"range", core::ShardPartition::kRange}};
inline constexpr EnumName<core::RedirectBudgetPolicy> kRedirectPolicyNames[] =
    {{"global", core::RedirectBudgetPolicy::kGlobal},
     {"per_shard", core::RedirectBudgetPolicy::kPerShard}};
inline constexpr EnumName<ndp::OffloadMode> kNdpModeNames[] = {
    {"off", ndp::OffloadMode::kOff},
    {"auto", ndp::OffloadMode::kAuto},
    {"force", ndp::OffloadMode::kForce}};

struct SutConfig {
  SystemKind kind = SystemKind::kRocksDB;
  int compaction_threads = 1;
  bool enable_slowdown = true;  // RocksDB/ADOC variants (Figs 2-3)
  core::RollbackScheme rollback = core::RollbackScheme::kLazy;
  double scale = 1.0;
  // Subcompaction width cap (DESIGN.md §10); 0 keeps the DbOptions default.
  // 1 disables range-partitioned subcompactions entirely.
  int max_subcompactions = 0;
  // Deep-compaction I/O cap as a fraction of device NAND bandwidth; 0 = off.
  double compaction_rate_limit = 0;
  // Sharded engine (KVACCEL only, DESIGN.md §11): > 1 opens a
  // ShardedKvaccelDB with one namespace/WAL/memtable/Detector per shard.
  int shards = 1;
  core::ShardPartition shard_partition = core::ShardPartition::kHash;
  core::RedirectBudgetPolicy redirect_policy =
      core::RedirectBudgetPolicy::kGlobal;
  // Fair-share arbiter serving rate as a fraction of NAND bandwidth; 0 = off.
  double arbiter_share = 1.0;
  // Device-offloaded compaction (KVACCEL only, DESIGN.md §13). The runner
  // creates one world-owned NdpDevice per SSD when mode != kOff; HA pairs
  // carry per-node devices in ha_primary.ndp / ha_backup.ndp instead.
  ndp::OffloadMode ndp_mode = ndp::OffloadMode::kOff;
  int ndp_cores = 2;  // 0 = share the device's firmware core
  ndp::NdpDevice* ndp_device = nullptr;
  // Two-node HA pair (KVACCEL only, shards == 1, DESIGN.md §12): the runner
  // builds both node worlds and the SUT opens a ReplicatedKvaccelDB over
  // them. All traffic serves from the primary.
  bool ha = false;
  bool repl_ack_async = false;  // false = sync acks, true = async
  double net_mbps = 1250;       // interconnect bandwidth (10 GbE-class)
  double net_latency_us = 30;
  // Lease fencing knobs (0 = ReplOptions defaults: 50 ms lease renewed by
  // 10 ms heartbeats). The primary self-fences when the lease lapses; the
  // backup may only be promoted once the lease has verifiably lapsed.
  double lease_ms = 0;
  double heartbeat_ms = 0;
  // Fencing epoch the pair starts at (0 = default 1; Open adopts the max of
  // this and the durable FENCE epochs found on either node).
  uint64_t fence_epoch = 0;
  core::ReplNode ha_primary;
  core::ReplNode ha_backup;
  // Partition window (HA only): net_partition_start_s seconds into the
  // measurement window the interconnect takes a symmetric cut for
  // net_partition_dur_s seconds. The primary self-fences when its lease
  // lapses (writers ride out the Busy window and resume on heal), and the
  // post-run failover becomes a full partition drill: promote under a bumped
  // epoch, then reconcile the deposed node back with check::RejoinNode.
  // 0 duration = no partition.
  double net_partition_start_s = 0;
  double net_partition_dur_s = 0;
  // Reconciliation transport for the post-run rejoin measurement:
  // 1 = delta resync (flushed state via the ingest path, zero write-path
  // bytes), 0 = WAL replay (every entry re-runs the write path).
  int resync_mode = 1;
  // Ablation hook: adjust the DbOptions after the preset is built.
  std::function<void(lsm::DbOptions&)> db_tweak;
};

class SystemUnderTest {
 public:
  // The DbOptions / KvaccelOptions a given SutConfig opens with. Exposed so
  // the runner can rebuild the exact same options for post-run workflows
  // (e.g. promoting the HA backup after the pair is closed).
  static lsm::DbOptions BuildDbOptions(const SutConfig& config) {
    lsm::DbOptions db_opts = PaperDbOptions(
        config.compaction_threads, config.enable_slowdown, config.scale);
    if (config.max_subcompactions > 0) {
      db_opts.max_subcompactions = config.max_subcompactions;
    }
    if (config.compaction_rate_limit > 0) {
      db_opts.compaction_rate_limit = config.compaction_rate_limit;
    }
    if (config.db_tweak) config.db_tweak(db_opts);
    return db_opts;
  }
  static core::KvaccelOptions BuildKvOptions(const SutConfig& config) {
    core::KvaccelOptions kv_opts =
        PaperKvaccelOptions(config.rollback, config.scale);
    // Paper §VI-C: for the write-only workload, rollback and Dev-LSM
    // compaction are both disabled (lazy rollback after the workload).
    if (config.rollback == core::RollbackScheme::kDisabled) {
      kv_opts.dev.compaction_enabled = false;
    }
    kv_opts.ndp_planner.mode = config.ndp_mode;
    kv_opts.ndp_device = config.ndp_device;
    return kv_opts;
  }

  static Status Open(const SutConfig& config, const lsm::DbEnv& env,
                     std::unique_ptr<SystemUnderTest>* sut) {
    auto s = std::unique_ptr<SystemUnderTest>(new SystemUnderTest());
    s->config_ = config;
    lsm::DbOptions db_opts = BuildDbOptions(config);
    Status st;
    switch (config.kind) {
      case SystemKind::kRocksDB:
      case SystemKind::kAdoc: {
        // ADOC(n): starts at 1 thread, may scale up to n (Table III budget).
        if (config.kind == SystemKind::kAdoc) db_opts.compaction_threads = 1;
        std::unique_ptr<lsm::DB> db;
        st = lsm::DB::Open(db_opts, env, &db);
        if (!st.ok()) break;
        s->db_ = db.get();
        s->store_ = std::move(db);
        if (config.kind == SystemKind::kAdoc) {
          s->tuner_ = std::make_unique<adoc::AdocTuner>(
              s->db_, env.env, db_opts,
              PaperAdocOptions(config.compaction_threads, config.scale));
          s->tuner_->Start();
        }
        break;
      }
      case SystemKind::kKvaccel: {
        core::KvaccelOptions kv_opts = BuildKvOptions(config);
        if (config.ha) {
          if (config.shards > 1) {
            return Status::InvalidArgument("HA pair requires shards == 1");
          }
          core::ReplOptions ro;
          ro.ack = config.repl_ack_async ? core::ReplAck::kAsync
                                         : core::ReplAck::kSync;
          if (config.net_mbps > 0) ro.net_bytes_per_sec = config.net_mbps * 1e6;
          if (config.net_latency_us > 0) {
            ro.net_latency = FromMicros(static_cast<Nanos>(config.net_latency_us));
          }
          if (config.lease_ms > 0) {
            ro.lease_duration = FromMicros(
                static_cast<Nanos>(config.lease_ms * 1000));
          }
          if (config.heartbeat_ms > 0) {
            ro.heartbeat_period = FromMicros(
                static_cast<Nanos>(config.heartbeat_ms * 1000));
          }
          if (config.fence_epoch > 0) ro.epoch = config.fence_epoch;
          std::unique_ptr<core::ReplicatedKvaccelDB> pair;
          st = core::ReplicatedKvaccelDB::Open(db_opts, kv_opts, ro,
                                               config.ha_primary,
                                               config.ha_backup, env.env,
                                               &pair);
          s->pair_ = pair.get();
          s->store_ = std::move(pair);
        } else if (config.shards > 1) {
          core::ShardingOptions sharding;
          sharding.num_shards = config.shards;
          sharding.partition = config.shard_partition;
          sharding.redirect_policy = config.redirect_policy;
          sharding.arbiter_share = config.arbiter_share;
          core::ShardEnv senv{env.env, env.ssd, env.host_cpu};
          std::unique_ptr<core::ShardedKvaccelDB> sharded;
          st = core::ShardedKvaccelDB::Open(db_opts, kv_opts, sharding, senv,
                                            &sharded);
          s->sharded_ = sharded.get();
          s->store_ = std::move(sharded);
        } else {
          std::unique_ptr<core::KvaccelDB> kv;
          st = core::KvaccelDB::Open(db_opts, kv_opts, env, &kv);
          s->kvaccel_ = kv.get();
          s->store_ = std::move(kv);
        }
        break;
      }
    }
    if (!st.ok()) return st;
    *sut = std::move(s);
    return Status::OK();
  }

  Status Put(const Slice& key, const Value& value) {
    return store_->Put({}, key, value);
  }
  // Batched write: the whole batch takes one trip down the write pipeline
  // (one Controller decision for KVACCEL, one group-commit slot otherwise).
  Status Write(lsm::WriteBatch* batch) { return store_->Write({}, batch); }
  Status Delete(const Slice& key) { return store_->Delete({}, key); }
  Status Get(const Slice& key, Value* value) {
    return store_->Get({}, key, value);
  }
  std::unique_ptr<lsm::Iterator> NewIterator(
      const lsm::ReadOptions& ropts = {}) {
    return store_->NewIterator(ropts);
  }

  Status FlushAll() { return store_->FlushAll(); }
  Status WaitForCompactionIdle() { return store_->WaitForCompactionIdle(); }
  Status Close() {
    if (tuner_ != nullptr) tuner_->Stop();
    return store_->Close();
  }

  // Foreground-op stats (unified view for KVACCEL; DB stats otherwise).
  // For a sharded SUT this is the cross-shard aggregate, recomputed per call.
  const lsm::DbStats& stats() const {
    if (sharded_) return sharded_->AggregateStats();
    core::KvaccelDB* kv = kvaccel();
    return kv ? kv->stats() : db_->stats();
  }
  // The Main-LSM's internal stats (stall/slowdown regions, background work).
  const lsm::DbStats& main_stats() const {
    if (sharded_) return sharded_->AggregateMainStats();
    core::KvaccelDB* kv = kvaccel();
    return kv ? kv->main()->stats() : db_->stats();
  }
  bool is_kvaccel() const { return config_.kind == SystemKind::kKvaccel; }
  // Facade-level KVACCEL counters: single shard's, or the fleet aggregate.
  core::KvaccelStats kvaccel_stats() const {
    if (sharded_) return sharded_->AggregateKvStats();
    core::KvaccelDB* kv = kvaccel();
    return kv ? kv->kv_stats() : core::KvaccelStats{};
  }
  lsm::BlockCacheStats cache_stats() {
    if (sharded_) return sharded_->AggregateBlockCacheStats();
    return db()->GetBlockCacheStats();
  }
  devlsm::DevLsmStats devlsm_stats() const {
    if (sharded_) return sharded_->AggregateDevStats();
    core::KvaccelDB* kv = kvaccel();
    return kv ? kv->dev()->stats() : devlsm::DevLsmStats{};
  }

  SystemKind kind() const { return config_.kind; }
  std::string name() const {
    std::string n = std::string(NameOf(kSystemNames, config_.kind)) + "(" +
                    std::to_string(config_.compaction_threads) + ")";
    if (config_.shards > 1) n += "x" + std::to_string(config_.shards);
    if (pair_) {
      n += pair_->ack() == core::ReplAck::kSync ? "+HA(sync)" : "+HA(async)";
    }
    return n;
  }

  // Typed views of store_ for introspection; null when the SUT is another
  // kind. db() is the representative Main-LSM: shard 0 when sharded, the
  // primary's for an HA pair. kvaccel() is the KvaccelDB serving foreground
  // traffic: the standalone node, or the HA pair's primary.
  lsm::DB* db() {
    if (sharded_) return sharded_->shard(0)->main();
    core::KvaccelDB* kv = kvaccel();
    return kv ? kv->main() : db_;
  }
  core::KvaccelDB* kvaccel() const {
    return pair_ ? pair_->primary() : kvaccel_;
  }
  core::ShardedKvaccelDB* sharded() { return sharded_; }
  core::ReplicatedKvaccelDB* pair() { return pair_; }
  adoc::AdocTuner* tuner() { return tuner_.get(); }

 private:
  SystemUnderTest() = default;

  SutConfig config_;
  std::unique_ptr<lsm::Store> store_;
  lsm::DB* db_ = nullptr;  // RocksDB / ADOC
  core::KvaccelDB* kvaccel_ = nullptr;
  core::ShardedKvaccelDB* sharded_ = nullptr;
  core::ReplicatedKvaccelDB* pair_ = nullptr;
  std::unique_ptr<adoc::AdocTuner> tuner_;
};

}  // namespace kvaccel::harness
