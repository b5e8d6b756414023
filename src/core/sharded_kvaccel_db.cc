#include "core/sharded_kvaccel_db.h"

#include <algorithm>
#include <cassert>

#include "common/hash.h"
#include "lsm/iterator.h"

namespace kvaccel::core {

namespace {

// Burst allowance of the fair-share device-bandwidth arbiter.
constexpr uint64_t kArbiterBurstBytes = 1ull << 20;

// Cross-shard merge order: plain user-key order. Shards partition the key
// space, so no two children ever surface the same key.
struct KeyOrder {
  int Compare(const Slice& a, const Slice& b) const { return a.compare(b); }
};

// Union of possibly-overlapping intervals, replayed into `out` in time order
// so the aggregate recorder looks like one DB that stalled whenever any
// shard did.
void UnionIntervals(std::vector<sim::IntervalRecorder::Interval> ivs,
                    sim::IntervalRecorder* out) {
  std::sort(ivs.begin(), ivs.end(),
            [](const sim::IntervalRecorder::Interval& a,
               const sim::IntervalRecorder::Interval& b) {
              return a.start != b.start ? a.start < b.start : a.end < b.end;
            });
  bool open = false;
  Nanos cur_start = 0, cur_end = 0;
  for (const auto& iv : ivs) {
    if (!open) {
      open = true;
      cur_start = iv.start;
      cur_end = iv.end;
    } else if (iv.start <= cur_end) {
      cur_end = std::max(cur_end, iv.end);
    } else {
      out->Begin(cur_start);
      out->End(cur_end);
      cur_start = iv.start;
      cur_end = iv.end;
    }
  }
  if (open) {
    out->Begin(cur_start);
    out->End(cur_end);
  }
}

void CollectClosed(const sim::IntervalRecorder& r, Nanos now,
                   std::vector<sim::IntervalRecorder::Interval>* out) {
  sim::IntervalRecorder copy = r;
  copy.CloseAt(now);
  out->insert(out->end(), copy.intervals().begin(), copy.intervals().end());
}

}  // namespace

ShardedKvaccelDB::ShardedKvaccelDB(const ShardEnv& env)
    : env_(env.env),
      ssd_(env.ssd),
      arbiter_(env.env, "device-bw", env.ssd->config().nand_bytes_per_sec,
               kArbiterBurstBytes) {}

ShardedKvaccelDB::~ShardedKvaccelDB() = default;

Status ShardedKvaccelDB::Open(const lsm::DbOptions& main_options,
                              const KvaccelOptions& kv_options,
                              const ShardingOptions& sharding,
                              const ShardEnv& env,
                              std::unique_ptr<ShardedKvaccelDB>* db) {
  db->reset();
  if (env.env == nullptr || env.ssd == nullptr || env.host_cpu == nullptr) {
    return Status::InvalidArgument("sharded open: incomplete environment");
  }
  const int n = sharding.num_shards;
  if (n < 1) return Status::InvalidArgument("num_shards must be >= 1");
  ssd::HybridSsd* kv_ssd =
      kv_options.kv_device != nullptr ? kv_options.kv_device : env.ssd;
  if (sharding.external_devs.empty() &&
      n > kv_ssd->config().num_namespaces) {
    return Status::InvalidArgument(
        "num_shards exceeds the device's namespace count");
  }
  if (sharding.external_fs.empty() && n > env.ssd->config().num_namespaces) {
    return Status::InvalidArgument(
        "num_shards exceeds the device's namespace count");
  }
  if (!sharding.external_fs.empty() &&
      static_cast<int>(sharding.external_fs.size()) != n) {
    return Status::InvalidArgument("external_fs size != num_shards");
  }
  if (!sharding.external_devs.empty() &&
      static_cast<int>(sharding.external_devs.size()) != n) {
    return Status::InvalidArgument("external_devs size != num_shards");
  }
  if (kv_options.external_dev != nullptr && n > 1) {
    return Status::InvalidArgument(
        "use ShardingOptions::external_devs for sharded external devices");
  }

  auto sdb = std::unique_ptr<ShardedKvaccelDB>(new ShardedKvaccelDB(env));

  // Redirect budget across all shards, in logical bytes: 90% of the
  // device's aggregate KV-region capacity.
  uint64_t kv_pages = 0;
  for (int i = 0; i < n; i++) kv_pages += kv_ssd->KvCapacityPages(i);
  sdb->redirect_budget_bytes_ = kv_pages * kv_ssd->config().page_size * 9 / 10;

  sdb->shards_.resize(static_cast<size_t>(n));
  ShardedKvaccelDB* self = sdb.get();
  for (int i = 0; i < n; i++) {
    Shard& sh = sdb->shards_[static_cast<size_t>(i)];
    if (!sharding.external_fs.empty()) {
      sh.fs = sharding.external_fs[static_cast<size_t>(i)];
    } else {
      sh.owned_fs = std::make_unique<fs::SimFs>(env.ssd, /*nsid=*/i);
      sh.fs = sh.owned_fs.get();
    }
    if (!sharding.external_devs.empty()) {
      sh.dev = sharding.external_devs[static_cast<size_t>(i)];
    } else {
      sh.owned_dev =
          std::make_unique<devlsm::DevLsm>(kv_ssd, /*nsid=*/i, kv_options.dev);
      sh.dev = sh.owned_dev.get();
    }

    lsm::DbOptions shard_main = main_options;
    KvaccelOptions shard_kv = kv_options;
    shard_kv.external_dev = sh.dev;
    // Distinct jitter streams per shard: co-located retriers spreading over
    // decorrelated schedules is the whole point of the jittered backoff.
    shard_main.io_retry_jitter_seed += static_cast<uint64_t>(i) * 0x9E3779B9;
    shard_kv.dev_retry_jitter_seed += static_cast<uint64_t>(i) * 0x9E3779B9;
    shard_kv.redirect_admission = [self, i](uint64_t bytes) {
      return self->AdmitRedirect(i, bytes);
    };
    sim::FairShareArbiter* arb = &sdb->arbiter_;
    int client = arb->RegisterClient("shard" + std::to_string(i));
    shard_kv.redirect_arbiter = [arb, client](uint64_t bytes) {
      return arb->Acquire(client, bytes);
    };
    shard_main.compaction_io_arbiter = [arb, client](uint64_t bytes) {
      return arb->Acquire(client, bytes);
    };

    lsm::DbEnv denv;
    denv.env = env.env;
    denv.ssd = env.ssd;
    denv.fs = sh.fs;
    denv.host_cpu = env.host_cpu;
    Status s = KvaccelDB::Open(shard_main, shard_kv, denv, &sh.db);
    if (!s.ok()) {
      // Close the shards that did open so their destructors are happy.
      for (int j = 0; j < i; j++) {
        sdb->shards_[static_cast<size_t>(j)].db->Close();
      }
      return s;
    }
  }

  *db = std::move(sdb);
  return Status::OK();
}

int ShardedKvaccelDB::ShardOf(const Slice& key) const {
  const uint64_t n = static_cast<uint64_t>(shards_.size());
  if (n <= 1) return 0;
  return static_cast<int>(HashSlice64(key) % n);
}

Status ShardedKvaccelDB::Write(const lsm::WriteOptions& wopts,
                               lsm::WriteBatch* batch) {
  if (shards_.size() == 1) return shards_[0].db->Write(wopts, batch);
  if (batch->Count() == 0) return Status::OK();

  // Single probe pass: most batches (and every 1-entry batch) stay whole.
  int first_shard = -1;
  bool multi = false;
  Status s = batch->ForEach(
      [this, &first_shard, &multi](lsm::ValueType, const Slice& key,
                                   const Value&) {
        int sh = ShardOf(key);
        if (first_shard < 0) {
          first_shard = sh;
        } else if (sh != first_shard) {
          multi = true;
        }
      });
  if (!s.ok()) return s;
  if (!multi) return shards_[static_cast<size_t>(first_shard)].db->Write(
      wopts, batch);

  std::vector<lsm::WriteBatch> parts(shards_.size());
  s = batch->ForEach([this, &parts](lsm::ValueType type, const Slice& key,
                                    const Value& value) {
    lsm::WriteBatch& part = parts[static_cast<size_t>(ShardOf(key))];
    if (type == lsm::ValueType::kValue) {
      part.Put(key, value);
    } else {
      part.Delete(key);
    }
  });
  if (!s.ok()) return s;
  for (size_t i = 0; i < parts.size(); i++) {
    if (parts[i].Count() == 0) continue;
    s = shards_[i].db->Write(wopts, &parts[i]);
    if (!s.ok()) return s;  // earlier shards stay committed (torn batch)
  }
  return Status::OK();
}

Status ShardedKvaccelDB::Get(const lsm::ReadOptions& ropts, const Slice& key,
                             Value* value) {
  return shards_[static_cast<size_t>(ShardOf(key))].db->Get(ropts, key, value);
}

std::unique_ptr<lsm::Iterator> ShardedKvaccelDB::NewIterator(
    const lsm::ReadOptions& ropts) {
  std::vector<std::unique_ptr<lsm::Iterator>> children;
  children.reserve(shards_.size());
  for (auto& sh : shards_) children.push_back(sh.db->NewIterator(ropts));
  return std::make_unique<lsm::MergingIterator<KeyOrder>>(KeyOrder{},
                                                          std::move(children));
}

Status ShardedKvaccelDB::FlushAll() {
  for (auto& sh : shards_) {
    Status s = sh.db->FlushAll();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status ShardedKvaccelDB::WaitForCompactionIdle() {
  for (auto& sh : shards_) {
    Status s = sh.db->WaitForCompactionIdle();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status ShardedKvaccelDB::GetBackgroundError() {
  for (auto& sh : shards_) {
    Status s = sh.db->GetBackgroundError();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status ShardedKvaccelDB::RollbackNow() {
  Status first;
  for (auto& sh : shards_) {
    Status s = sh.db->RollbackNow();
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

Status ShardedKvaccelDB::RollbackShardNow(int shard) {
  if (shard < 0 || shard >= num_shards()) {
    return Status::InvalidArgument("no such shard");
  }
  return shards_[static_cast<size_t>(shard)].db->RollbackNow();
}

Status ShardedKvaccelDB::CrashMetadataAndRecover(Nanos* recovery_duration) {
  Nanos total = 0;
  Status first;
  for (auto& sh : shards_) {
    Nanos d = 0;
    Status s = sh.db->CrashMetadataAndRecover(&d);
    total += d;
    if (!s.ok() && first.ok()) first = s;
  }
  if (recovery_duration != nullptr) *recovery_duration = total;
  return first;
}

Status ShardedKvaccelDB::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  Status first;
  for (auto& sh : shards_) {
    Status s = sh.db->Close();
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

bool ShardedKvaccelDB::AdmitRedirect(int shard, uint64_t bytes) const {
  const uint64_t budget = redirect_budget_bytes_;
  if (budget == 0) return true;
  const uint64_t mine =
      shards_[static_cast<size_t>(shard)].dev->LogicalBytes();
  // The fleet shares one pool, but while several shards are stalling
  // simultaneously each may hold at most an equal split of it — the
  // Detector picture decides how many ways the budget divides.
  uint64_t total = 0;
  uint64_t stalled = 0;
  for (const auto& sh : shards_) {
    total += sh.dev->LogicalBytes();
    if (sh.db->detector()->stall_detected()) stalled++;
  }
  if (total + bytes > budget) return false;
  uint64_t ways = std::max<uint64_t>(stalled, 1);
  return mine + bytes <= budget / ways;
}

void ShardedKvaccelDB::AggregateDbStats(bool main_side,
                                        lsm::DbStats* out) const {
  *out = lsm::DbStats{};
  const Nanos now = env_->Now();
  std::vector<sim::IntervalRecorder::Interval> stalls, slowdowns;
  for (const auto& sh : shards_) {
    const lsm::DbStats& s =
        main_side ? sh.db->main()->stats() : sh.db->stats();
    obs::AddStats(s, out);
    out->writes_completed.MergeFrom(s.writes_completed);
    out->reads_completed.MergeFrom(s.reads_completed);
    CollectClosed(s.stall_regions, now, &stalls);
    CollectClosed(s.slowdown_regions, now, &slowdowns);
  }
  UnionIntervals(std::move(stalls), &out->stall_regions);
  UnionIntervals(std::move(slowdowns), &out->slowdown_regions);
}

const lsm::DbStats& ShardedKvaccelDB::AggregateStats() const {
  AggregateDbStats(/*main_side=*/false, &agg_fg_);
  return agg_fg_;
}

const lsm::DbStats& ShardedKvaccelDB::AggregateMainStats() const {
  AggregateDbStats(/*main_side=*/true, &agg_main_);
  return agg_main_;
}

KvaccelStats ShardedKvaccelDB::AggregateKvStats() const {
  KvaccelStats out;
  for (const auto& sh : shards_) obs::AddStats(sh.db->kv_stats(), &out);
  return out;
}

lsm::BlockCacheStats ShardedKvaccelDB::AggregateBlockCacheStats() const {
  lsm::BlockCacheStats out;
  for (const auto& sh : shards_) {
    obs::AddStats(sh.db->main()->GetBlockCacheStats(), &out);
  }
  return out;
}

devlsm::DevLsmStats ShardedKvaccelDB::AggregateDevStats() const {
  devlsm::DevLsmStats out;
  for (const auto& sh : shards_) obs::AddStats(sh.dev->stats(), &out);
  return out;
}

ndp::PlannerStats ShardedKvaccelDB::AggregatePlannerStats() const {
  ndp::PlannerStats out;
  for (const auto& sh : shards_) {
    if (sh.db->offload_planner() != nullptr) {
      obs::AddStats(sh.db->offload_planner()->stats(), &out);
    }
  }
  return out;
}

}  // namespace kvaccel::core
