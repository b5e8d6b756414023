#include "core/sharded_kvaccel_db.h"

#include <algorithm>
#include <cassert>

#include "common/hash.h"
#include "lsm/iterator.h"

namespace kvaccel::core {

namespace {

// Cross-shard merge order: plain user-key order. Shards partition the key
// space, so no two children ever surface the same key.
struct KeyOrder {
  int Compare(const Slice& a, const Slice& b) const { return a.compare(b); }
};

// Big-endian value of the first 8 key bytes, zero-padded on the right so
// that prefixes sort below their extensions ("ab" < "ab\x01...").
uint64_t RangePoint(const Slice& key) {
  uint64_t v = 0;
  size_t n = std::min<size_t>(key.size(), 8);
  for (size_t i = 0; i < n; i++) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(key.data()[i]))
         << (56 - 8 * i);
  }
  return v;
}

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

ShardedKvaccelDB::ShardedKvaccelDB(const ShardingOptions& sharding,
                                   const ShardEnv& env)
    : sharding_(sharding), env_(env.env), ssd_(env.ssd) {}

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

  auto sdb = std::unique_ptr<ShardedKvaccelDB>(
      new ShardedKvaccelDB(sharding, env));

  // Redirect budget: explicit, or 90% of the device's aggregate KV capacity.
  if (sharding.redirect_budget_bytes > 0) {
    sdb->redirect_budget_bytes_ = sharding.redirect_budget_bytes;
  } else {
    uint64_t kv_pages = 0;
    for (int i = 0; i < n; i++) kv_pages += kv_ssd->KvCapacityPages(i);
    sdb->redirect_budget_bytes_ =
        kv_pages * kv_ssd->config().page_size * 9 / 10;
  }

  if (sharding.arbiter_share > 0) {
    double rate =
        sharding.arbiter_share * env.ssd->config().nand_bytes_per_sec;
    sdb->arbiter_ = std::make_unique<sim::FairShareArbiter>(
        env.env, "device-bw", rate, sharding.arbiter_burst_bytes);
  }

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
    if (sdb->arbiter_ != nullptr) {
      sim::FairShareArbiter* arb = sdb->arbiter_.get();
      int client = arb->RegisterClient("shard" + std::to_string(i));
      shard_kv.redirect_arbiter = [arb, client](uint64_t bytes) {
        return arb->Acquire(client, bytes);
      };
      shard_main.compaction_io_arbiter = [arb, client](uint64_t bytes) {
        return arb->Acquire(client, bytes);
      };
    }

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
  if (sharding_.partition == ShardPartition::kHash) {
    return static_cast<int>(HashSlice64(key) % n);
  }
  // Multiply-shift maps [0, 2^64) onto [0, n) in n equal, ordered slices.
  unsigned __int128 v = RangePoint(key);
  return static_cast<int>((v * n) >> 64);
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
  // Shards quiesced above: release their arbiter slots so a departed
  // client's stale start tag can't distort fairness for whatever registers
  // next (clients were registered 0..N-1 in shard order at Open).
  if (arbiter_ != nullptr) {
    for (int i = 0; i < static_cast<int>(shards_.size()); i++) {
      arbiter_->DeregisterClient(i);
    }
  }
  return first;
}

bool ShardedKvaccelDB::AdmitRedirect(int shard, uint64_t bytes) const {
  const uint64_t budget = redirect_budget_bytes_;
  if (budget == 0) return true;
  const uint64_t mine =
      shards_[static_cast<size_t>(shard)].dev->LogicalBytes();
  if (sharding_.redirect_policy == RedirectBudgetPolicy::kPerShard) {
    return mine + bytes <= budget / shards_.size();
  }
  // Global policy: the fleet shares one pool, but while several shards are
  // stalling simultaneously each may hold at most an equal split of it —
  // the Detector picture decides how many ways the budget divides.
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
    out->writes_completed.MergeFrom(s.writes_completed);
    out->reads_completed.MergeFrom(s.reads_completed);
    out->seeks_completed.MergeFrom(s.seeks_completed);
    out->put_latency.Merge(s.put_latency);
    out->get_latency.Merge(s.get_latency);
    out->seek_latency.Merge(s.seek_latency);
    out->stall_events += s.stall_events;
    out->slowdown_events += s.slowdown_events;
    out->flush_count += s.flush_count;
    out->flush_bytes += s.flush_bytes;
    out->compaction_count += s.compaction_count;
    out->compaction_bytes_read += s.compaction_bytes_read;
    out->compaction_bytes_written += s.compaction_bytes_written;
    out->split_compactions += s.split_compactions;
    out->subcompaction_count += s.subcompaction_count;
    out->intra_l0_compactions += s.intra_l0_compactions;
    out->compaction_throttle_ns += s.compaction_throttle_ns;
    out->orphan_files_removed += s.orphan_files_removed;
    out->ndp_compactions += s.ndp_compactions;
    out->ndp_bytes_written += s.ndp_bytes_written;
    out->ndp_fallbacks += s.ndp_fallbacks;
    out->writes_total += s.writes_total;
    out->write_bytes_total += s.write_bytes_total;
    out->reads_total += s.reads_total;
    out->seeks_total += s.seeks_total;
    out->io_retries += s.io_retries;
    out->background_errors += s.background_errors;
    out->write_groups += s.write_groups;
    out->group_commit_size.Merge(s.group_commit_size);
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
  for (const auto& sh : shards_) {
    const KvaccelStats& s = sh.db->kv_stats();
    out.detector_checks += s.detector_checks;
    out.redirected_writes += s.redirected_writes;
    out.direct_writes += s.direct_writes;
    out.redirected_batches += s.redirected_batches;
    out.redirect_batch_latency.Merge(s.redirect_batch_latency);
    out.redirect_admission_rejects += s.redirect_admission_rejects;
    out.redirect_arbiter_wait_ns += s.redirect_arbiter_wait_ns;
    out.dev_reads += s.dev_reads;
    out.main_reads += s.main_reads;
    out.rollbacks += s.rollbacks;
    out.rollback_entries += s.rollback_entries;
    out.rollback_total_ns += s.rollback_total_ns;
    out.md_inserts += s.md_inserts;
    out.md_checks += s.md_checks;
    out.md_deletes += s.md_deletes;
    out.dev_retries += s.dev_retries;
    out.fallback_writes += s.fallback_writes;
    out.device_unhealthy_events += s.device_unhealthy_events;
  }
  return out;
}

lsm::BlockCacheStats ShardedKvaccelDB::AggregateBlockCacheStats() const {
  lsm::BlockCacheStats out;
  for (const auto& sh : shards_) {
    lsm::BlockCacheStats s = sh.db->main()->GetBlockCacheStats();
    out.hits += s.hits;
    out.misses += s.misses;
    out.usage_bytes += s.usage_bytes;
    out.capacity_bytes += s.capacity_bytes;
  }
  return out;
}

devlsm::DevLsmStats ShardedKvaccelDB::AggregateDevStats() const {
  devlsm::DevLsmStats out;
  for (const auto& sh : shards_) {
    const devlsm::DevLsmStats& s = sh.dev->stats();
    out.puts += s.puts;
    out.gets += s.gets;
    out.deletes += s.deletes;
    out.compound_cmds += s.compound_cmds;
    out.compound_entries += s.compound_entries;
    out.flushes += s.flushes;
    out.compactions += s.compactions;
    out.bulk_scans += s.bulk_scans;
    out.scan_chunks += s.scan_chunks;
    out.resets += s.resets;
    out.read_cache_hits += s.read_cache_hits;
    out.read_cache_misses += s.read_cache_misses;
  }
  return out;
}

}  // namespace kvaccel::core
