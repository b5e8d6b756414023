#include "check/nemesis.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/failover.h"
#include "check/model_db.h"
#include "common/random.h"
#include "common/value.h"
#include "core/kvaccel_db.h"
#include "core/replicated_kvaccel_db.h"
#include "core/sharded_kvaccel_db.h"
#include "devlsm/dev_lsm.h"
#include "fs/simfs.h"
#include "lsm/db.h"
#include "ndp/ndp_device.h"
#include "ndp/offload_planner.h"
#include "sim/cpu_pool.h"
#include "sim/fault.h"
#include "sim/sim_env.h"
#include "ssd/hybrid_ssd.h"

namespace kvaccel::check {

namespace {

// Crash sites armed round the schedule, with the nth-hit ceiling matched to
// how often each site is hit per cycle (WAL sites fire per write; flush,
// manifest and compaction sites only every few thousand written bytes;
// rollback and redirect sites only when those paths actually run).
struct CrashSite {
  const char* name;
  uint64_t max_nth;
};
constexpr CrashSite kCrashSites[] = {
    {"crash.wal.post_append", 40}, {"crash.wal.post_sync", 40},
    {"crash.flush.mid", 6},        {"crash.manifest.pre_sync", 4},
    {"crash.manifest.post_sync", 4}, {"crash.compaction.mid", 4},
    {"crash.subcompaction.mid", 8}, {"crash.rollback.mid", 8},
    {"crash.redirect.mid", 3},
};
constexpr uint64_t kNumCrashSites = std::size(kCrashSites);

// Offload kill points, armed only for --ndp schedules (DESIGN.md §13): mid
// device merge, mid device subcompaction merge, and after the merge finished
// but before the result capsule reaches the host (outputs become uninstalled
// strays the reopen must reap).
constexpr CrashSite kNdpCrashSites[] = {
    {"crash.ndp.merge.mid", 4},
    {"crash.ndp.submerge.mid", 8},
    {"crash.ndp.result.pre", 3},
};

// The interconnect kill point, armed only for HA schedules. The injector is
// env-global, so every single-node site can also trip inside the backup's
// apply path, killing the pair mid-replication.
constexpr CrashSite kNetCrashSites[] = {{"crash.net.send.mid", 6}};

std::string NemKey(uint64_t n) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key%010llu", static_cast<unsigned long long>(n));
  return buf;
}

std::string U64(uint64_t v) { return std::to_string(v); }

// The two states an in-flight (error-returning) write op may have left a key
// in; recovery must surface exactly one of them.
struct Ambiguous {
  bool had_pre = false;  // key existed before the op
  Value pre;
  bool post_is_delete = false;
  Value post;
};

// One state an async-acked key legitimately passed through.
struct KeyVersion {
  bool present = false;
  Value v;
};

// Aggressive Main-LSM shape: tiny memtable and low L0 triggers so flushes,
// compactions, stall pressure (and therefore redirection) all happen inside
// a 150-op cycle.
lsm::DbOptions NemesisDbOptions() {
  lsm::DbOptions o;
  o.write_buffer_size = 64 << 10;
  o.max_bytes_for_level_base = 512 << 10;
  o.target_file_size = 64 << 10;
  o.block_size = 4 << 10;
  o.block_cache_capacity = 1 << 20;
  o.l0_compaction_trigger = 4;
  o.l0_slowdown_writes_trigger = 4;
  o.l0_stop_writes_trigger = 5;
  // Two workers with an aggressive split threshold so range-partitioned
  // subcompactions (and crash.subcompaction.mid) are exercised every cycle.
  o.compaction_threads = 2;
  o.max_subcompactions = 2;
  o.max_subcompaction_input = 64 << 10;
  o.wal_sync = true;  // acknowledged <=> durable: the oracle's ground truth
  return o;
}

core::KvaccelOptions NemesisKvOptions() {
  core::KvaccelOptions o;
  o.detector_period = FromMillis(1);
  // A small device memtable and fan-in so redirected pairs flush and the
  // background merge runs, and crashes, resets and reclaims land mid-merge
  // (DESIGN.md §27).
  o.dev.memtable_bytes = 16 << 10;
  o.dev.l0_run_trigger = 2;
  o.dev.dma_chunk = 64 << 10;
  // Rollbacks happen only at the op stream's explicit rollback draws, so
  // the schedule stays a pure function of the seed.
  o.rollback = core::RollbackScheme::kDisabled;
  return o;
}

// The HA runners drive one unsharded pair without NDP, and partitions are
// verified under sync acks only; a request they would silently narrow is
// refused instead.
std::string Unsupported(const NemesisOptions& opt) {
  const bool pair = opt.ha || opt.net_partition;
  if (pair && opt.shards > 1) return "ha with shards > 1";
  if (pair && opt.ndp) return "ha with ndp";
  if (opt.net_partition && opt.repl_ack == 1) {
    return "net_partition with async acks";
  }
  return "";
}

// How the op stream treats a failed op.
enum class OpMode {
  kCrash,      // the cycle's armed crash: its keys turn ambiguous, the
               // cycle ends, and a get error or a scan mismatch under the
               // crash latch counts as the crash too
  kFaultFree,  // any failure is a divergence
  kFlapping,   // failed writes are expected; their keys turn ambiguous
};

// The op stream's one per-topology hook: where a rollback op lands. It may
// draw from the schedule RNG and annotate the op's trace line.
using RollbackOp = std::function<Status(std::ostream& trace)>;

// One machine's device-side state: the SSD, its host CPU, and per namespace
// the file system and Dev-LSM. All of it outlives every simulated host
// reboot; only page caches die.
struct Machine {
  std::unique_ptr<ssd::HybridSsd> ssd;
  std::unique_ptr<sim::CpuPool> cpu;
  std::vector<std::unique_ptr<fs::SimFs>> fs;
  std::vector<std::unique_ptr<devlsm::DevLsm>> devs;
  std::unique_ptr<ndp::NdpDevice> ndp;

  core::ReplNode node() const {
    return {ssd.get(), fs[0].get(), cpu.get(), devs[0].get()};
  }
};

class Nemesis {
 public:
  explicit Nemesis(const NemesisOptions& opt);
  NemesisResult Run();

 private:
  // ---- Per-topology runners: only what differs. ----
  void RunSingle();     // crash cycles; recover by reopening
  void RunHa();         // crash cycles; recover by promoting the backup
  void RunPartition();  // partition scripts; fence, promote, rejoin

  // ---- The core. ----
  void Diverge(const std::string& what);
  // Arms this cycle's crash schedule, runs the op stream until a site
  // trips, disarms, and traces the outcome.
  void CrashCycle(lsm::Store* db, int cycle, const RollbackOp& rollback);
  // Seeded op stream: 50% put, 10% delete, 10% atomic batch (2-8 mixed
  // puts/deletes), 15% get-verify, 10% seek+scan-verify, 5% rollback.
  // Returns whether a failure ended it as the crash (kCrash only).
  bool RunOps(lsm::Store* db, int n, OpMode mode, int cycle,
              const RollbackOp& rollback);
  // Full-keyspace sweep against the oracle, then (with `walk`) a full
  // iterator walk in model order. Resolves every ambiguous key.
  void Verify(lsm::Store* db, int cycle, const std::string& who,
              bool walk = true);
  void Recovered(int cycle, const std::string& extra = "");
  std::vector<KeyVersion>* ChainOf(const std::string& key);
  // A client write outside the op stream (partition probes).
  Status ProbePut(lsm::Store* db, std::string* key, Value* value);
  // Writes into a partition: each must fail (no write is acked on both
  // sides of a split) and leaves its key ambiguous.
  void DoomedPuts(lsm::Store* db, int n, int cycle,
                  const std::string& partition);
  bool ExpectRejected(lsm::Store* db, int cycle, const std::string& what);
  Status OpenPair(const core::ReplOptions& repl_opts, int primary,
                  std::unique_ptr<core::ReplicatedKvaccelDB>* pair);

  const NemesisOptions& opt_;
  const int shards_;
  const bool pair_;   // ha or net_partition: two machines
  const bool async_;  // HA crash schedule under async acks
  // Site table drawn alongside kCrashSites, and the transient fault sites
  // (with probabilities) armed together on transient cycles.
  std::span<const CrashSite> extra_sites_;
  // HA schedules: the HA kill sites that have not killed the pair yet, in
  // a per-seed order. Each cycle arms the front one; a site that kills the
  // pair leaves the queue, one that does not goes to the back (it may need
  // state the pair has not reached yet, like a first compaction). Once the
  // queue is empty, cycles draw their site.
  std::deque<const CrashSite*> ha_unfired_;
  std::vector<std::pair<const char*, double>> transients_;
  lsm::DbOptions db_opts_ = NemesisDbOptions();
  core::KvaccelOptions kv_opts_ = NemesisKvOptions();

  NemesisResult result_;
  std::ostringstream trace_;
  sim::SimEnv env_;
  sim::FaultInjector inj_;
  std::vector<Machine> machines_;
  Random64 rng_;
  ModelDb model_;
  uint64_t next_seed_ = 1;
  std::map<std::string, Ambiguous> ambiguous_;
  // Async acks: per key touched this pair generation, its start state and
  // then each acked write (errored-op post states ride in ambiguous_).
  std::map<std::string, std::vector<KeyVersion>> chain_;
  uint64_t rolled_back_ = 0;  // chain keys the last Verify rolled back
};

std::string At(int cycle) { return "cycle " + std::to_string(cycle) + " "; }

Nemesis::Nemesis(const NemesisOptions& opt)
    : opt_(opt),
      shards_(std::max(1, opt.shards)),
      pair_(opt.ha || opt.net_partition),
      async_(opt.ha && opt.repl_ack == 1),
      inj_(&env_, opt.seed),
      rng_(opt.seed) {
  transients_.push_back({"devlsm.put.transient", 0.02});
  if (opt.ndp) {
    extra_sites_ = kNdpCrashSites;
    // COMPACT rejections under the same cycles: the planner must fall back
    // to the host merge and recovery must still match the oracle.
    transients_.push_back({"ndp.compact.transient", 0.25});
  } else if (pair_) {
    extra_sites_ = kNetCrashSites;
    transients_.push_back({"net.send.transient", 0.02});
  }

  // The machines. HA runs build two, each with a full device + host world;
  // only the one SimEnv clock and the fault injector are shared.
  static const char* kPairHosts[] = {"host-a", "host-b"};
  ssd::SsdConfig ssd_config;
  ssd_config.capacity_bytes = 2ull << 30;
  ssd_config.num_namespaces = shards_;
  for (int m = 0; m < (pair_ ? 2 : 1); m++) {
    Machine& mc = machines_.emplace_back();
    mc.ssd = std::make_unique<ssd::HybridSsd>(&env_, ssd_config);
    mc.cpu = std::make_unique<sim::CpuPool>(
        &env_, pair_ ? kPairHosts[m] : "host", 8);
    for (int ns = 0; ns < shards_; ns++) {
      mc.fs.push_back(std::make_unique<fs::SimFs>(mc.ssd.get(), ns));
      mc.devs.push_back(std::make_unique<devlsm::DevLsm>(mc.ssd.get(), ns,
                                                         kv_opts_.dev));
    }
    // The NDP engine is device silicon: host-side planners re-attach to it
    // on every reopen.
    if (opt.ndp) mc.ndp = std::make_unique<ndp::NdpDevice>(mc.ssd.get());
  }
  env_.set_fault_injector(&inj_);
}

NemesisResult Nemesis::Run() {
  trace_ << "nemesis-trace-v1 seed=" << opt_.seed << " cycles=" << opt_.cycles
         << " ops_per_cycle=" << opt_.ops_per_cycle
         << " key_space=" << opt_.key_space
         << " value_size=" << opt_.value_size
         << " corrupt_model_at_cycle=" << opt_.corrupt_model_at_cycle
         << " shards=" << shards_;
  if (pair_) {
    trace_ << " ha=1 repl_ack=" << (async_ ? 1 : 0);
    if (opt_.net_partition) trace_ << " net_partition=1";
  } else {
    trace_ << " ndp=" << (opt_.ndp ? 1 : 0);
  }
  trace_ << "\n";

  env_.Spawn("nemesis", [this] {
    if (opt_.net_partition) {
      RunPartition();
    } else if (opt_.ha) {
      RunHa();
    } else {
      RunSingle();
    }
  });
  env_.Run();

  for (const Machine& mc : machines_) {
    for (const auto& dev : mc.devs) {
      result_.dev_merges += dev->stats().compactions;
      result_.dev_merges_discarded += dev->stats().merge_discarded;
    }
  }
  result_.trace = trace_.str();
  if (!result_.ok && !opt_.trace_dump_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opt_.trace_dump_dir, ec);
    std::string path =
        opt_.trace_dump_dir + "/nemesis-" + U64(opt_.seed) + ".trace";
    std::ofstream out(path, std::ios::trunc);
    if (out) {
      out << result_.trace;
      out.close();
      result_.trace_path = path;
    }
  }
  return result_;
}

void Nemesis::Diverge(const std::string& what) {
  result_.ok = false;
  if (result_.error.empty()) result_.error = what;
  trace_ << "DIVERGENCE: " << what << "\n";
}

void Nemesis::Recovered(int cycle, const std::string& extra) {
  trace_ << "recover cycle=" << cycle << " live=" << model_.size() << extra
         << "\n";
  result_.cycles_run++;
}

std::vector<KeyVersion>* Nemesis::ChainOf(const std::string& key) {
  if (!async_) return nullptr;
  auto it = chain_.find(key);
  if (it != chain_.end()) return &it->second;
  KeyVersion start;
  start.present = model_.Get(key, &start.v);
  return &chain_.emplace(key, std::vector<KeyVersion>{start}).first->second;
}

// Per cycle the schedule draws, in order: the kill site (NDP schedules
// first rotate through every offload site without a draw; HA schedules
// first take the sites of ha_unfired_, shuffled in cycle 0, so any seed
// kills the pair at each of the ten and seeds differ in which come first),
// its nth hit, the dual site's nth (sharded cycles that arm the rollback
// site), and the transient coin.
void Nemesis::CrashCycle(lsm::Store* db, int cycle,
                         const RollbackOp& rollback) {
  const uint64_t num_sites = kNumCrashSites + extra_sites_.size();
  auto site_at = [this](uint64_t i) {
    return i < kNumCrashSites ? &kCrashSites[i]
                              : &extra_sites_[i - kNumCrashSites];
  };
  if (opt_.ha && cycle == 0) {
    // Fisher-Yates on the schedule's own stream (std::shuffle's algorithm
    // differs between standard libraries, and digests must not).
    for (uint64_t i = 0; i < num_sites; i++) ha_unfired_.push_back(site_at(i));
    for (size_t i = ha_unfired_.size(); i > 1; i--) {
      std::swap(ha_unfired_[i - 1], ha_unfired_[rng_.Uniform(i)]);
    }
  }
  const bool ha_queue = opt_.ha && !ha_unfired_.empty();
  const CrashSite* site;
  if (opt_.ndp && static_cast<size_t>(cycle) < extra_sites_.size()) {
    site = &extra_sites_[static_cast<size_t>(cycle)];
  } else if (ha_queue) {
    site = ha_unfired_.front();
    ha_unfired_.pop_front();
  } else {
    site = site_at(rng_.Uniform(num_sites));
  }
  sim::FaultRule rule;
  rule.nth_hit = 1 + rng_.Uniform(site->max_nth);
  rule.max_fires = 1;
  inj_.Arm(site->name, rule);
  // Sharded runs arm a second kill site alongside the rollback one: the
  // sites are env-global, so with several shards flushing independently the
  // machine can die while one shard is mid-rollback and another is
  // mid-flush — whichever site trips first kills the whole box.
  const bool dual =
      shards_ > 1 && strcmp(site->name, "crash.rollback.mid") == 0;
  uint64_t dual_nth = 0;
  if (dual) {
    sim::FaultRule second;
    second.nth_hit = dual_nth = 1 + rng_.Uniform(6);
    second.max_fires = 1;
    inj_.Arm("crash.flush.mid", second);
  }
  // Some cycles also see transient faults, exercising the retry/fallback
  // paths underneath the crash schedule.
  const bool transient = rng_.Uniform(4) == 0;
  if (transient) {
    for (const auto& [name, probability] : transients_) {
      sim::FaultRule t;
      t.probability = probability;
      inj_.Arm(name, t);
    }
  }
  trace_ << "cycle=" << cycle << " site=" << site->name
         << " nth=" << rule.nth_hit << " transient=" << (transient ? 1 : 0);
  if (dual) trace_ << " dual=crash.flush.mid nth2=" << dual_nth;
  trace_ << "\n";

  ambiguous_.clear();
  chain_.clear();
  const bool crashed =
      RunOps(db, opt_.ops_per_cycle, OpMode::kCrash, cycle, rollback);
  inj_.Disarm(site->name);
  if (dual) inj_.Disarm("crash.flush.mid");
  if (transient) {
    for (const auto& t : transients_) inj_.Disarm(t.first);
  }
  if (!result_.ok) return;
  if (crashed) result_.crashes++;
  if (ha_queue && !crashed) ha_unfired_.push_back(site);
  trace_ << (crashed ? "crash" : "clean") << " cycle=" << cycle << "\n";
}

bool Nemesis::RunOps(lsm::Store* db, int n, OpMode mode, int cycle,
                     const RollbackOp& rollback) {
  bool crashed = false;
  for (int op = 0; op < n && result_.ok && !crashed; op++) {
    result_.ops_executed++;
    uint64_t draw = rng_.Uniform(100);
    if (draw < 70) {
      // Put, delete, or atomic batch: one Write either way, so a failure
      // leaves every key of it in flight (batches all-pre or all-post).
      const bool is_batch = draw >= 60;
      const int entries = is_batch ? 2 + static_cast<int>(rng_.Uniform(7)) : 1;
      lsm::WriteBatch batch;
      std::map<std::string, Ambiguous> in_flight;  // last op per key wins
      std::string what = "batch";  // names the op in a fault-free failure
      trace_ << "op=" << op;
      if (is_batch) trace_ << " batch n=" << entries;
      for (int e = 0; e < entries; e++) {
        std::string key = NemKey(rng_.Uniform(opt_.key_space));
        Ambiguous a;
        a.had_pre = model_.Get(key, &a.pre);
        a.post_is_delete = is_batch ? rng_.Uniform(5) == 0 : draw >= 50;
        if (a.post_is_delete) {
          batch.Delete(key);
          trace_ << (is_batch ? " del:" : " del k=") << key;
        } else {
          uint64_t seed = next_seed_++;
          a.post = Value::Synthetic(seed, opt_.value_size);
          batch.Put(key, a.post);
          trace_ << (is_batch ? " put:" : " put k=") << key
                 << (is_batch ? ":" : " s=") << seed;
        }
        if (!is_batch) what = (a.post_is_delete ? "del " : "put ") + key;
        in_flight[key] = a;
      }
      Status ws = db->Write({}, &batch);
      trace_ << " -> " << (ws.ok() ? "ok" : "err") << "\n";
      if (ws.ok()) {
        // Replay into the model in batch order (later entries win).
        (void)batch.ForEach([&](lsm::ValueType type, const Slice& k,
                                const Value& value) {
          std::string key = k.ToString();
          const bool put = type == lsm::ValueType::kValue;
          if (auto* c = ChainOf(key)) {
            c->push_back({put, put ? value : Value()});
          }
          if (put) {
            model_.Put(key, value);
          } else {
            model_.Delete(key);
          }
          ambiguous_.erase(key);
        });
      } else if (mode == OpMode::kFaultFree) {
        Diverge(At(cycle) + "fault-free " + what + " failed: " +
                ws.ToString());
      } else {
        // A failed sync ship also leaves the entry in the WAL but not the
        // memtable: the key reads as its pre-state until a later reopen.
        for (auto& [key, a] : in_flight) {
          (void)ChainOf(key);  // its start state becomes acceptable
          ambiguous_[key] = a;
        }
        crashed = mode == OpMode::kCrash;
      }
    } else if (draw < 85) {
      std::string key = NemKey(rng_.Uniform(opt_.key_space));
      Value got, want;
      bool want_present = model_.Get(key, &want);
      Status gs = db->Get({}, key, &got);
      trace_ << "op=" << op << " get k=" << key << " -> "
             << (gs.ok() ? "hit" : gs.IsNotFound() ? "miss" : "err") << "\n";
      if (!gs.ok() && !gs.IsNotFound()) {
        if (mode == OpMode::kCrash) {
          crashed = true;  // a read error only happens under the crash latch
        } else {
          Diverge(At(cycle) + "get " + key + " errored: " + gs.ToString());
        }
      } else if (ambiguous_.count(key) != 0) {
        // In flight: the sweep resolves it.
      } else if (gs.ok() && !want_present) {
        Diverge(At(cycle) + "get " + key +
                ": present but model says deleted/absent");
      } else if (gs.ok() && got != want) {
        Diverge(At(cycle) + "get " + key + ": value mismatch (got seed " +
                U64(got.seed()) + ", want seed " + U64(want.seed()) + ")");
      } else if (gs.IsNotFound() && want_present) {
        Diverge(At(cycle) + "get " + key + ": NotFound but model holds seed " +
                U64(want.seed()));
      }
    } else if (draw < 95) {
      std::string start = NemKey(rng_.Uniform(opt_.key_space));
      auto it = db->NewIterator({});
      it->Seek(start);
      if (mode == OpMode::kFlapping || !ambiguous_.empty()) {
        // Keys with in-flight ambiguity make exact scan comparison unsound;
        // walk for the I/O but verify via gets and the sweep. (In crash
        // mode keys turn ambiguous only at the op that ends the cycle.)
        int walked = 0;
        for (int e = 0; e < 10 && it->Valid(); e++, it->Next()) walked++;
        trace_ << "op=" << op << " scan k=" << start << " n=" << walked
               << " -> unverified\n";
      } else {
        auto mit = model_.live().lower_bound(start);
        int matched = 0;
        bool scan_ok = true;
        for (int e = 0; e < 10; e++) {
          if (mit == model_.live().end()) {
            if (it->Valid()) scan_ok = false;
            break;
          }
          if (!it->Valid() || it->key().ToString() != mit->first ||
              Value::DecodeOrDie(it->value()) != mit->second.value) {
            scan_ok = false;
            break;
          }
          matched++;
          it->Next();
          ++mit;
        }
        trace_ << "op=" << op << " scan k=" << start << " n=" << matched
               << " -> " << (scan_ok ? "ok" : "mismatch") << "\n";
        if (!scan_ok) {
          if (mode == OpMode::kCrash &&
              (inj_.crashed() || !it->status().ok())) {
            crashed = true;  // device died mid-scan, not a model divergence
          } else {
            Diverge(At(cycle) + "scan from " + start + " diverged after " +
                    U64(matched) + " entries");
          }
        }
      }
    } else {
      // Forced rollback (drain Dev-LSM into Main-LSM). State-preserving
      // either way: a mid-drain crash leaves every unreset pair on the
      // device for the reopen drain.
      trace_ << "op=" << op << " rollback";
      Status rs = rollback(trace_);
      trace_ << " -> " << (rs.ok() ? "ok" : "err") << "\n";
      if (!rs.ok() && mode == OpMode::kCrash) {
        crashed = true;
      } else if (!rs.ok() && mode == OpMode::kFaultFree) {
        Diverge(At(cycle) + "fault-free rollback failed: " + rs.ToString());
      }
    }
    if (mode == OpMode::kCrash &&
        (inj_.crashed() || !db->GetBackgroundError().ok())) {
      crashed = true;  // a background thread hit the kill point
    }
  }
  return crashed;
}

void Nemesis::Verify(lsm::Store* db, int cycle, const std::string& who,
                     bool walk) {
  const std::string at = At(cycle) + who + " ";
  if (cycle == opt_.corrupt_model_at_cycle) {
    // Self-test: force the oracle out of sync; the sweep below MUST catch
    // it. The key leaves the acceptance sets so no rule can adopt it.
    std::string key =
        model_.size() > 0 ? model_.live().begin()->first : NemKey(0);
    model_.Put(key, Value::Synthetic(0xDEADBEEF, opt_.value_size));
    ambiguous_.erase(key);
    chain_.erase(key);
    trace_ << "inject-model-corruption k=" << key << "\n";
  }

  rolled_back_ = 0;
  for (uint64_t k = 0; k < opt_.key_space && result_.ok; k++) {
    std::string key = NemKey(k);
    Value got;
    Status gs = db->Get({}, key, &got);
    if (!gs.ok() && !gs.IsNotFound()) {
      Diverge(at + "get " + key + " failed: " + gs.ToString());
      break;
    }
    const bool present = gs.ok();
    auto amb = ambiguous_.find(key);
    auto chain = chain_.find(key);
    if (chain != chain_.end()) {
      // Async acks: the lost tail is a suffix of the ship queue, so a
      // touched key may roll back to any acked state of its chain, or hold
      // the in-flight op's post state. The model adopts reality so the next
      // cycle verifies exactly.
      bool accepted = amb != ambiguous_.end() &&
                      (present ? !amb->second.post_is_delete &&
                                     got == amb->second.post
                               : amb->second.post_is_delete);
      for (const KeyVersion& v : chain->second) {
        accepted = accepted || (present ? v.present && got == v.v : !v.present);
      }
      if (!accepted) {
        Diverge(at + "key " + key + " recovered to alien state" +
                (present ? " (seed " + U64(got.seed()) + ")" : " (absent)"));
        continue;
      }
      Value want;
      bool want_present = model_.Get(key, &want);
      if (present ? !(want_present && got == want) : want_present) {
        rolled_back_++;
      }
      if (present) {
        model_.Put(key, got);
      } else {
        model_.Delete(key);
      }
      continue;
    }
    if (amb != ambiguous_.end()) {
      // In flight: either state is legal; adopt what the store holds so the
      // oracle tracks reality from here on.
      const Ambiguous& a = amb->second;
      if (present && !a.post_is_delete && got == a.post) {
        model_.Put(key, a.post);
      } else if (present && !(a.had_pre && got == a.pre)) {
        Diverge(at + "ambiguous key " + key +
                " recovered to alien value (seed " + U64(got.seed()) + ")");
      } else if (!present && a.post_is_delete) {
        model_.Delete(key);
      } else if (!present && a.had_pre) {
        Diverge(at + "ambiguous key " + key +
                " lost both pre and post state");
      }
      continue;
    }
    Value want;
    if (model_.Get(key, &want)) {
      if (!present) {
        Diverge(at + "acked key " + key + " lost (model seed " +
                U64(want.seed()) + ")");
      } else if (got != want) {
        Diverge(at + "key " + key + " holds wrong value (got seed " +
                U64(got.seed()) + ", want seed " + U64(want.seed()) + ")");
      }
    } else if (present) {
      Diverge(at + "deleted/absent key " + key + " resurrected (seed " +
              U64(got.seed()) + ")");
    }
  }
  ambiguous_.clear();
  if (!result_.ok || !walk) return;

  // Exact key order and values. Sharded stores walk the cross-shard merging
  // iterator, so this verifies global order across every shard.
  auto it = db->NewIterator({});
  it->SeekToFirst();
  auto mit = model_.live().begin();
  for (uint64_t pos = 0; result_.ok; pos++) {
    if (mit == model_.live().end()) {
      if (it->Valid()) {
        Diverge(at + "iterator has extra key " + it->key().ToString() +
                " past model end");
      }
      break;
    }
    if (!it->Valid()) {
      Diverge(at + "iterator ended at entry " + U64(pos) +
              ", model still holds " + mit->first);
      break;
    }
    if (it->key().ToString() != mit->first) {
      Diverge(at + "iterator order: got " + it->key().ToString() + ", want " +
              mit->first);
      break;
    }
    if (Value::DecodeOrDie(it->value()) != mit->second.value) {
      Diverge(at + "iterator value mismatch at " + mit->first);
      break;
    }
    it->Next();
    ++mit;
  }
  if (result_.ok && !it->status().ok()) {
    Diverge(at + "iterator error: " + it->status().ToString());
  }
}

Status Nemesis::ProbePut(lsm::Store* db, std::string* key, Value* value) {
  *key = NemKey(rng_.Uniform(opt_.key_space));
  *value = Value::Synthetic(next_seed_++, opt_.value_size);
  return db->Put({}, *key, *value);
}

// Symmetric cut: the record never reaches the backup (pre-state
// everywhere). Ack-loss cut: the record APPLIES on the backup but the ack is
// lost, so the promoted node serves the post-state although the client saw
// an error. The model keeps pre; the sweep adopts whichever recovered.
void Nemesis::DoomedPuts(lsm::Store* db, int n, int cycle,
                         const std::string& partition) {
  for (int i = 0; i < n && result_.ok; i++) {
    std::string key;
    Ambiguous a;
    Status s = ProbePut(db, &key, &a.post);
    a.had_pre = model_.Get(key, &a.pre);
    trace_ << "doomed put k=" << key << " -> " << (s.ok() ? "ok" : "err")
           << "\n";
    if (s.ok()) {
      Diverge(At(cycle) + "write acked across a " + partition + " partition");
      return;
    }
    ambiguous_[key] = a;
  }
}

bool Nemesis::ExpectRejected(lsm::Store* db, int cycle,
                             const std::string& what) {
  std::string key;
  Value value;
  if (!ProbePut(db, &key, &value).ok()) return true;
  Diverge(At(cycle) + what);
  return false;
}

Status Nemesis::OpenPair(const core::ReplOptions& repl_opts, int primary,
                         std::unique_ptr<core::ReplicatedKvaccelDB>* pair) {
  return core::ReplicatedKvaccelDB::Open(
      db_opts_, kv_opts_, repl_opts, machines_[primary].node(),
      machines_[1 - primary].node(), &env_, pair);
}

// Crash cycles against one machine: the crash protocol (close, drop every
// shard's page cache, clear the latch) then a reopen, which drains every
// shard's device, and the sweep.
void Nemesis::RunSingle() {
  Machine& m = machines_[0];
  if (opt_.ndp) {
    kv_opts_.ndp_device = m.ndp.get();
    kv_opts_.ndp_mode = ndp::OffloadMode::kForce;
  }
  std::unique_ptr<lsm::Store> db;
  RollbackOp rollback;
  auto open = [&]() -> Status {
    Status s;
    if (shards_ > 1) {
      core::ShardingOptions sharding;
      sharding.num_shards = shards_;
      for (auto& f : m.fs) sharding.external_fs.push_back(f.get());
      for (auto& d : m.devs) sharding.external_devs.push_back(d.get());
      std::unique_ptr<core::ShardedKvaccelDB> sharded;
      s = core::ShardedKvaccelDB::Open(
          db_opts_, kv_opts_, sharding,
          core::ShardEnv{&env_, m.ssd.get(), m.cpu.get()}, &sharded);
      // One seeded-random shard rolls back, so concurrent drains on the
      // others keep running under the armed kill sites.
      core::ShardedKvaccelDB* router = sharded.get();
      rollback = [this, router](std::ostream& trace) {
        int shard = static_cast<int>(rng_.Uniform(shards_));
        trace << " shard=" << shard;
        return router->RollbackShardNow(shard);
      };
      db = std::move(sharded);
      return s;
    }
    core::KvaccelOptions kv = kv_opts_;
    kv.external_dev = m.devs[0].get();
    std::unique_ptr<core::KvaccelDB> node;
    s = core::KvaccelDB::Open(
        db_opts_, kv,
        lsm::DbEnv{&env_, m.ssd.get(), m.fs[0].get(), m.cpu.get()}, &node);
    core::KvaccelDB* raw = node.get();
    rollback = [raw](std::ostream&) { return raw->RollbackNow(); };
    db = std::move(node);
    return s;
  };

  Status s = open();
  if (!s.ok()) {
    Diverge("initial open failed: " + s.ToString());
    return;
  }
  for (int cycle = 0; cycle < opt_.cycles && result_.ok; cycle++) {
    CrashCycle(db.get(), cycle, rollback);
    if (!result_.ok) break;
    (void)db->Close();
    db.reset();
    for (auto& f : m.fs) f->DropAllDirty();
    inj_.ClearCrash();
    s = open();
    if (!s.ok()) {
      Diverge(At(cycle) + "recovery open failed: " + s.ToString());
      break;
    }
    Verify(db.get(), cycle, "recovered");
    if (!result_.ok) break;
    Recovered(cycle);
  }
  if (db != nullptr) (void)db->Close();
}

// Two-node crash schedule: drive the pair, kill it, promote the backup,
// verify it against the oracle, wipe the dead node, swap roles, re-pair.
// Sync acks verify exactly (plus the in-flight ambiguity); async acks
// verify that each key recovered to SOME state of its acked-write chain,
// with the total loss bounded by the queue capacity.
void Nemesis::RunHa() {
  core::ReplOptions repl_opts;
  repl_opts.ack = async_ ? core::ReplAck::kAsync : core::ReplAck::kSync;
  repl_opts.async_queue_cap = 8;  // small cap => tight loss bound
  // Worst case lost tail: the full queue plus the record mid-flight and the
  // record mid-enqueue, each carrying at most one 8-entry batch.
  const uint64_t loss_bound = (repl_opts.async_queue_cap + 2) * 8;

  int pri = 0;  // machines_[pri] is the current primary
  std::unique_ptr<core::ReplicatedKvaccelDB> pair;
  Status s = OpenPair(repl_opts, pri, &pair);
  if (!s.ok()) {
    Diverge("initial pair open failed: " + s.ToString());
    return;
  }
  for (int cycle = 0; cycle < opt_.cycles && result_.ok; cycle++) {
    core::ReplicatedKvaccelDB* p = pair.get();
    CrashCycle(p, cycle, [p](std::ostream&) { return p->RollbackNow(); });
    if (!result_.ok) break;

    // The pair is dead. Close drains the async queue (each record fails
    // fast under the crash latch and is recorded as lost tail), then both
    // nodes lose their page caches.
    (void)pair->Close();
    core::ReplStats st = pair->repl_stats();
    pair.reset();
    for (auto& m : machines_) m.fs[0]->DropAllDirty();
    inj_.ClearCrash();
    if (st.lost_entries > loss_bound) {
      Diverge(At(cycle) + "async loss " + U64(st.lost_entries) +
              " exceeds bound " + U64(loss_bound));
      break;
    }
    if (!async_ && st.lost_entries > 0) {
      Diverge(At(cycle) + "sync mode lost " + U64(st.lost_entries) +
              " acked entries");
      break;
    }

    FailoverReport frep;
    std::unique_ptr<core::KvaccelDB> promoted;
    s = PromoteNode(db_opts_, kv_opts_, machines_[1 - pri].node(), &env_,
                    &frep, &promoted);
    if (!s.ok()) {
      Diverge(At(cycle) + "promote failed: " + s.ToString() +
              (frep.first_error.empty() ? "" : " (" + frep.first_error + ")"));
      break;
    }
    result_.failovers++;
    result_.ha_lost_entries += st.lost_entries;
    result_.ha_drained_entries += frep.drained_entries;
    result_.ha_backup_dev_fallbacks += st.backup_dev_fallbacks;
    trace_ << "failover cycle=" << cycle << " lost=" << st.lost_entries
           << " drained=" << frep.drained_entries
           << " repaired=" << (frep.repaired ? 1 : 0)
           << " warnings=" << frep.checker_warnings << "\n";
    Verify(promoted.get(), cycle, "promoted");
    (void)promoted->Close();
    promoted.reset();
    if (!result_.ok) break;
    Recovered(cycle, " rolled_back=" + U64(rolled_back_));

    // Wipe the dead node (its file system and device KV region are gone)
    // and re-form the pair with roles swapped; Bootstrap streams the
    // promoted node's state to the fresh backup.
    Machine& dead = machines_[pri];
    dead.fs[0] = std::make_unique<fs::SimFs>(dead.ssd.get(), 0);
    (void)dead.devs[0]->Reset();
    pri = 1 - pri;
    s = OpenPair(repl_opts, pri, &pair);
    if (!s.ok()) {
      Diverge(At(cycle) + "re-pair open failed: " + s.ToString());
      break;
    }
  }
  if (pair != nullptr) (void)pair->Close();
}

// Partition nemesis (DESIGN.md §12): rotates four partition scenarios over
// the HA pair instead of crash sites, always under sync acks. Kinds by
// cycle % 4:
//   0  symmetric partition -> lease lapse -> self-fence -> promote under a
//      bumped epoch -> heal -> stale-epoch depose -> RejoinNode -> re-pair
//   1  asymmetric (ack-loss) partition: doomed writes APPLY on the backup
//      but are never acked (the split-brain trap), then the cut goes full
//      and the same failover/reconcile flow runs
//   2  brief partition healed before the lease lapses: no promotion, the
//      pair carries on, the applied watermark must not regress
//   3  flapping link: delay spikes, duplicates and transient drops under
//      live traffic; the pair must neither fence permanently nor diverge
// Both nodes are held to the model oracle: the serving node by sweep and
// iterator walk, the rejoined node first by RejoinNode's byte-identical
// convergence proof and then, after re-pairing, by a sweep of the backup.
void Nemesis::RunPartition() {
  core::ReplOptions repl_opts;  // sync acks: partitions must never lose
  const Nanos fence_wait =
      2 * repl_opts.lease_duration + 2 * core::kPromoteSafetyMargin;

  int pri = 0;  // machines_[pri] is the current primary
  std::unique_ptr<core::ReplicatedKvaccelDB> pair;
  std::unique_ptr<core::KvaccelDB> promoted;
  const RollbackOp pair_rollback = [&pair](std::ostream&) {
    return pair->RollbackNow();
  };
  const RollbackOp promoted_rollback = [&promoted](std::ostream&) {
    return promoted->RollbackNow();
  };
  Status s = OpenPair(repl_opts, pri, &pair);
  if (!s.ok()) {
    Diverge("initial pair open failed: " + s.ToString());
    return;
  }

  for (int cycle = 0; cycle < opt_.cycles && result_.ok; cycle++) {
    const int kind = cycle % 4;
    static const char* kKindName[] = {"sym", "ack", "blip", "flap"};
    trace_ << "cycle=" << cycle << " kind=" << kKindName[kind] << "\n";

    // Phase A: fault-free traffic on the healthy pair.
    RunOps(pair.get(), opt_.ops_per_cycle / 2, OpMode::kFaultFree, cycle,
           pair_rollback);
    if (!result_.ok) break;

    if (kind == 3) {
      // Flapping link. Duplicates must be idempotent (exact-sequence
      // apply) and a transient ship failure must fail the write cleanly.
      for (const auto& [site, probability] :
           {std::pair{"net.delay", 0.10}, std::pair{"net.dup", 0.05},
            std::pair{"net.send.transient", 0.05}}) {
        sim::FaultRule rule;
        rule.probability = probability;
        inj_.Arm(site, rule);
      }
      RunOps(pair.get(), opt_.ops_per_cycle, OpMode::kFlapping, cycle,
             pair_rollback);
      inj_.Disarm("net.delay");
      inj_.Disarm("net.dup");
      inj_.Disarm("net.send.transient");
      if (!result_.ok) break;
      if (pair->deposed()) {
        Diverge(At(cycle) + "flapping link deposed the pair");
        break;
      }
      // Let heartbeats renew any transiently-lapsed lease, then the quiet
      // link must take a write.
      env_.SleepFor(2 * repl_opts.heartbeat_period);
      std::string key;
      Value value;
      Status hs = ProbePut(pair.get(), &key, &value);
      trace_ << "heal probe k=" << key << " -> " << (hs.ok() ? "ok" : "err")
             << "\n";
      if (!hs.ok()) {
        Diverge(At(cycle) + "healed pair refused a write: " + hs.ToString());
        break;
      }
      model_.Put(key, value);
      ambiguous_.erase(key);
      Verify(pair.get(), cycle, "pair");
      if (!result_.ok) break;
      Recovered(cycle);
      continue;
    }

    sim::FaultRule cut;
    cut.probability = 1.0;
    if (kind == 2) {
      // Brief partition healed before the lease lapses: no promotion, no
      // fencing, and the applied watermark must be monotone through it.
      const uint64_t applied_before = pair->applied_seq();
      inj_.Arm("net.partition.sym", cut);
      result_.partitions++;
      trace_ << "partition cycle=" << cycle << " type=blip\n";
      DoomedPuts(pair.get(), 4, cycle, "symmetric");
      inj_.Disarm("net.partition.sym");
      if (!result_.ok) break;
      env_.SleepFor(2 * repl_opts.heartbeat_period);
      RunOps(pair.get(), opt_.ops_per_cycle / 2, OpMode::kFaultFree, cycle,
             pair_rollback);
      if (!result_.ok) break;
      if (pair->deposed()) {
        Diverge(At(cycle) + "healed blip deposed the pair");
        break;
      }
      if (pair->applied_seq() < applied_before) {
        Diverge(At(cycle) + "applied watermark regressed: " +
                U64(pair->applied_seq()) + " < " + U64(applied_before));
        break;
      }
      Verify(pair.get(), cycle, "pair");
      if (!result_.ok) break;
      Recovered(cycle);
      continue;
    }

    // ---- kinds 0/1: full partition -> fence -> promote -> heal ->
    //      reconcile -> re-pair with roles swapped ----
    const bool sym = kind == 0;
    inj_.Arm(sym ? "net.partition.sym" : "net.partition.ack", cut);
    result_.partitions++;
    trace_ << "partition cycle=" << cycle << " type=" << (sym ? "sym" : "ack")
           << "\n";

    // Split-brain guard: detaching while the primary's lease may still be
    // live MUST refuse — promoting now could ack a write on both sides.
    Status ds = pair->DetachBackup();
    if (!ds.IsBusy()) {
      Diverge(At(cycle) + "DetachBackup under a live lease did not refuse (" +
              ds.ToString() + ")");
      break;
    }
    DoomedPuts(pair.get(), 8, cycle, sym ? "symmetric" : "ack");
    if (!result_.ok) break;
    if (!sym) {
      // The one-way cut degrades to a full cut (heartbeats were still
      // landing on the backup, which keeps the detach guard conservative);
      // from here the backup's applied clock freezes and the lease lapses.
      inj_.Arm("net.partition.sym", cut);
    }

    // Lease lapse -> self-fence: no write may be acked by the partitioned
    // primary from here on.
    env_.SleepFor(fence_wait);
    if (!pair->fenced()) {
      Diverge(At(cycle) + "lease did not lapse under a full partition");
      break;
    }
    std::string key;
    Value value;
    Status fenced = ProbePut(pair.get(), &key, &value);
    trace_ << "fenced probe k=" << key << " -> "
           << (fenced.ok() ? "ok" : "rejected") << "\n";
    if (fenced.ok()) {
      Diverge(At(cycle) + "fenced primary acked a write");
      break;
    }
    if (!fenced.IsBusy()) {
      Diverge(At(cycle) + "fenced write failed with the wrong status: " +
              fenced.ToString());
      break;
    }

    const uint64_t frontier = pair->applied_seq();
    const uint64_t next_epoch = pair->epoch() + 1;
    // The lease has verifiably lapsed: detach must now be allowed.
    ds = pair->DetachBackup();
    if (!ds.ok()) {
      Diverge(At(cycle) + "DetachBackup after lease lapse refused: " +
              ds.ToString());
      break;
    }

    FailoverReport frep;
    s = PromoteNode(db_opts_, kv_opts_, machines_[1 - pri].node(), &env_,
                    &frep, &promoted, next_epoch);
    if (!s.ok()) {
      Diverge(At(cycle) + "promote failed: " + s.ToString() +
              (frep.first_error.empty() ? "" : " (" + frep.first_error + ")"));
      break;
    }
    result_.failovers++;
    result_.ha_drained_entries += frep.drained_entries;
    trace_ << "failover cycle=" << cycle << " epoch=" << frep.fence_epoch
           << " drained=" << frep.drained_entries
           << " repaired=" << (frep.repaired ? 1 : 0) << "\n";

    // The promoted node against the oracle: doomed keys resolve to pre
    // (symmetric) or post (ack-loss) and the model adopts reality.
    Verify(promoted.get(), cycle, "promoted");
    if (!result_.ok) break;

    // Phase C: serve from the promoted node while the old primary is still
    // partitioned; its writes must keep failing.
    RunOps(promoted.get(), opt_.ops_per_cycle / 4, OpMode::kFaultFree, cycle,
           promoted_rollback);
    if (!result_.ok) break;
    if (!ExpectRejected(pair.get(), cycle,
                        "partitioned old primary acked a write during "
                        "phase C")) {
      break;
    }

    // Heal. The old primary's next heartbeat finds the bumped durable epoch
    // on the backup node and deposes itself permanently.
    inj_.Disarm("net.partition.sym");
    if (!sym) inj_.Disarm("net.partition.ack");
    env_.SleepFor(3 * repl_opts.heartbeat_period);
    if (!pair->deposed()) {
      Diverge(At(cycle) + "healed primary did not depose on the stale epoch");
      break;
    }
    if (!ExpectRejected(pair.get(), cycle, "deposed primary acked a write")) {
      break;
    }

    core::ReplStats st = pair->repl_stats();
    (void)pair->Close();
    pair.reset();
    result_.ha_fenced_rejects += st.fenced_write_rejects;
    if (st.lost_entries > 0) {
      Diverge(At(cycle) + "sync mode lost " + U64(st.lost_entries) +
              " acked entries");
      break;
    }
    if (st.fenced_records == 0) {
      Diverge(At(cycle) + "no stale-epoch rejection recorded after heal");
      break;
    }
    trace_ << "fence cycle=" << cycle << " rejects=" << st.fenced_write_rejects
           << " lease_expirations=" << st.lease_expirations
           << " stale_epoch=" << st.fenced_records << "\n";

    // Reconcile the deposed node against the promoted one and hold it to
    // the byte-identical convergence proof inside RejoinNode.
    RejoinOptions ro;
    ro.frontier = frontier;
    ro.new_epoch = next_epoch;
    RejoinReport rrep;
    s = RejoinNode(db_opts_, kv_opts_, machines_[pri].node(), promoted.get(),
                   ro, &env_, &rrep);
    if (!s.ok()) {
      Diverge(At(cycle) + "rejoin failed: " + s.ToString() +
              (rrep.first_error.empty() ? "" : " (" + rrep.first_error + ")"));
      break;
    }
    result_.rejoins++;
    result_.ha_resync_entries += rrep.resync_entries;
    result_.ha_resync_bytes += rrep.resync_bytes;
    result_.ha_quarantined_keys += rrep.quarantined_keys;
    trace_ << "rejoin cycle=" << cycle << " entries=" << rrep.resync_entries
           << " bytes=" << rrep.resync_bytes
           << " quarantined=" << rrep.quarantined_keys << "\n";

    // Re-pair with roles swapped: the promoted node is the new primary, the
    // reconciled node its backup. Open adopts the bumped epoch from the
    // durable FENCE files.
    (void)promoted->Close();
    promoted.reset();
    pri = 1 - pri;
    s = OpenPair(repl_opts, pri, &pair);
    if (!s.ok()) {
      Diverge(At(cycle) + "re-pair open failed: " + s.ToString());
      break;
    }
    if (pair->epoch() != next_epoch) {
      Diverge(At(cycle) + "re-paired at epoch " + U64(pair->epoch()) +
              ", want " + U64(next_epoch));
      break;
    }
    // Both nodes to the oracle: the serving primary through the pair, the
    // reconciled backup directly (a sweep; a walk would add I/O that moves
    // the schedule).
    Verify(pair.get(), cycle, "pair");
    if (!result_.ok) break;
    Verify(pair->backup(), cycle, "backup", /*walk=*/false);
    if (!result_.ok) break;
    Recovered(cycle);
  }
  if (promoted != nullptr) (void)promoted->Close();
  if (pair != nullptr) (void)pair->Close();
}

}  // namespace

NemesisResult RunNemesis(const NemesisOptions& opt) {
  if (std::string why = Unsupported(opt); !why.empty()) {
    NemesisResult rejected;
    rejected.ok = false;
    rejected.error = "unsupported: " + why;
    return rejected;
  }
  return Nemesis(opt).Run();
}

Status ParseNemesisTrace(const std::string& path, NemesisOptions* out) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open trace: " + path);
  std::string header;
  if (!std::getline(in, header)) {
    return Status::Corruption("empty trace: " + path);
  }
  std::istringstream tokens(header);
  std::string tok;
  if (!(tokens >> tok) || tok != "nemesis-trace-v1") {
    return Status::Corruption("not a nemesis trace: " + path);
  }
  while (tokens >> tok) {
    size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      return Status::Corruption("bad trace header token: " + tok);
    }
    std::string name = tok.substr(0, eq);
    const char* first = tok.data() + eq + 1;
    const char* last = tok.data() + tok.size();
    // The whole value must parse, in range of its field's type.
    auto field = [&](auto* dst) {
      auto [end, ec] = std::from_chars(first, last, *dst);
      return ec == std::errc() && end == last;
    };
    int flag = 0;
    bool ok = true;
    if (name == "seed") {
      ok = field(&out->seed);
    } else if (name == "cycles") {
      ok = field(&out->cycles);
    } else if (name == "ops_per_cycle") {
      ok = field(&out->ops_per_cycle);
    } else if (name == "key_space") {
      ok = field(&out->key_space);
    } else if (name == "value_size") {
      ok = field(&out->value_size);
    } else if (name == "corrupt_model_at_cycle") {
      ok = field(&out->corrupt_model_at_cycle);
    } else if (name == "shards") {
      ok = field(&out->shards);
    } else if (name == "repl_ack") {
      ok = field(&out->repl_ack);
    } else if (name == "ndp" || name == "ha" || name == "net_partition") {
      ok = field(&flag);
      bool& dst = name == "ndp" ? out->ndp
                  : name == "ha" ? out->ha
                                 : out->net_partition;
      dst = flag != 0;
    }  // unknown keys: forward compatibility, ignore
    if (!ok) return Status::Corruption("bad trace header value: " + tok);
  }
  return Status::OK();
}

FlagTable NemesisFlags(NemesisOptions* o, std::string* replay) {
  FlagTable t;
  t.Int("nemesis_seed", &o->seed, 0, "schedule seed (default 0x5EED)");
  t.Int("cycles", &o->cycles, 1, "crash-recovery cycles (default 30)");
  t.Int("ops_per_cycle", &o->ops_per_cycle, 1,
        "operations attempted per cycle (default 150)");
  t.Int("key_space", &o->key_space, 1, "key draw range (default 400)");
  t.Int("value_size", &o->value_size, 1, "value bytes (default 4096)");
  t.Int("shards", &o->shards, 1,
        "run against a ShardedKvaccelDB with N shards (default 1)");
  t.Set("ha", &o->ha, true,
        "drive a two-node replicated pair; every cycle fails over");
  t.Enum("repl_ack", &o->repl_ack, kReplAckNames,
         "HA ack discipline (default sync)");
  t.Action("net_partition",
           [o] {
             o->net_partition = true;
             o->ha = true;
           },
           "partition nemesis (implies --ha)");
  t.Set("ndp", &o->ndp, true,
        "force every compaction through the device COMPACT path");
  t.Action("list_fault_sites",
           [] {
             for (const auto& site : sim::KnownFaultSites()) {
               printf("%-28s %s\n", site.site, site.what);
             }
             exit(0);
           },
           "print every registered fault/crash site and exit");
  t.String("trace_dump_dir", &o->trace_dump_dir, "DIR",
           "dump the op trace here on divergence");
  t.String("replay", replay, "FILE",
           "load the schedule from a dumped trace's header");
  return t;
}

}  // namespace kvaccel::check
