#include "sim/fault.h"

#include "sim/sim_env.h"

namespace kvaccel::sim {

void FaultInjector::Arm(const std::string& site, const FaultRule& rule) {
  SiteState& st = sites_[site];
  st.rule = rule;
  st.armed = true;
  st.hits = 0;
  st.fires = 0;
}

void FaultInjector::Disarm(const std::string& site) {
  auto it = sites_.find(site);
  if (it != sites_.end()) it->second.armed = false;
}

void FaultInjector::Clear() {
  for (auto& [name, st] : sites_) st.armed = false;
  crashed_ = false;
}

bool FaultInjector::ShouldFail(const std::string& site) {
  auto it = sites_.find(site);
  if (it == sites_.end() || !it->second.armed) return false;
  SiteState& st = it->second;
  const FaultRule& r = st.rule;
  if (r.window_start != 0 || r.window_end != 0) {
    Nanos now = env_->Now();
    if (now < r.window_start || now >= r.window_end) return false;
  }
  st.hits++;
  if (r.max_fires >= 0 && st.fires >= static_cast<uint64_t>(r.max_fires)) {
    return false;
  }
  bool fire;
  if (r.nth_hit != 0) {
    fire = (st.hits == r.nth_hit);
  } else {
    fire = (r.probability > 0.0 && rng_.NextDouble() < r.probability);
  }
  if (!fire) return false;
  st.fires++;
  total_fires_++;
  if (site.compare(0, 6, "crash.") == 0) crashed_ = true;
  return true;
}

uint64_t FaultInjector::hits(const std::string& site) const {
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.hits;
}

uint64_t FaultInjector::fires(const std::string& site) const {
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.fires;
}

const std::vector<FaultSiteInfo>& KnownFaultSites() {
  static const std::vector<FaultSiteInfo> kSites = {
      {"ssd.block.write.transient", "BlockWrite fails with IOError"},
      {"ssd.block.read.transient", "BlockRead fails with IOError"},
      {"ssd.block.flush.transient", "BlockFlush fails with IOError"},
      {"ssd.block.read.timeout", "BlockRead stalls ~10ms then IOError"},
      {"devlsm.put.transient", "Dev-LSM PutCompound fails"},
      {"devlsm.get.transient", "Dev-LSM Get fails"},
      {"simfs.read.bitflip", "one bit of the returned payload flips"},
      {"simfs.read.short", "read returns a prefix of the request"},
      {"simfs.powercut.torn",
       "DropAllDirty tears a suffix of unflushed bytes"},
      {"net.send.transient", "NetLink::Send drops the message"},
      {"net.partition.sym",
       "symmetric partition: the wire is cut in both directions"},
      {"net.partition.ack",
       "asymmetric partition: record applied on the peer, ack lost"},
      {"net.delay", "a seeded 100us-1ms delay spike rides on this message"},
      {"net.dup", "the record is delivered (and applied) twice"},
      {"net.reorder", "two queued async records swap places on the wire"},
      {"ndp.compact.transient",
       "device rejects a COMPACT command; job falls back to host"},
      {"crash.wal.post_append", "after WAL append, before sync"},
      {"crash.wal.post_sync", "after WAL sync, before memtable apply"},
      {"crash.flush.mid", "mid-way through an L0 flush"},
      {"crash.manifest.pre_sync", "MANIFEST record appended, not synced"},
      {"crash.manifest.post_sync", "MANIFEST synced, version not applied"},
      {"crash.compaction.mid", "mid-way through a compaction"},
      {"crash.subcompaction.mid", "mid-way through one compaction sub-range"},
      {"crash.rollback.mid", "mid-way through a rollback drain"},
      {"crash.redirect.mid",
       "redirected batch durable on device, metadata not flipped"},
      {"crash.net.send.mid",
       "pair-wide power loss with a replication record in flight"},
      {"crash.ndp.merge.mid", "mid-way through a device-offloaded merge"},
      {"crash.ndp.submerge.mid",
       "mid-way through one offloaded compaction sub-range"},
      {"crash.ndp.result.pre",
       "offloaded merge done, output metadata still in flight to the host"},
  };
  return kSites;
}

bool FaultAt(SimEnv* env, const std::string& site) {
  if (env == nullptr) return false;
  FaultInjector* f = env->fault_injector();
  if (f == nullptr) return false;
  return f->ShouldFail(site);
}

bool SimCrashed(SimEnv* env) {
  if (env == nullptr) return false;
  FaultInjector* f = env->fault_injector();
  return f != nullptr && f->crashed();
}

}  // namespace kvaccel::sim
