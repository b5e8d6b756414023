#include "harness/workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>

#include "check/failover.h"
#include "common/random.h"
#include "devlsm/dev_lsm.h"
#include "fs/simfs.h"
#include "harness/fault_profiles.h"
#include "harness/flags.h"
#include "obs/trace.h"
#include "sim/cpu_pool.h"
#include "sim/fault.h"
#include "sim/sim_env.h"
#include "ssd/hybrid_ssd.h"

namespace kvaccel::harness {

std::string MakeKey(uint64_t v, size_t key_size) {
  std::string key(key_size, '\0');
  for (size_t i = 0; i < key_size; i++) {
    key[key_size - 1 - i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  return key;
}

namespace {

bool ParseMixField(const std::string& field, TenantProfile* prof,
                   std::string* err) {
  const size_t eq = field.find('=');
  if (eq == std::string::npos) {
    if (err != nullptr) *err = "expected k=v, got '" + field + "'";
    return false;
  }
  const std::string k = field.substr(0, eq);
  const std::string v = field.substr(eq + 1);
  char* end = nullptr;
  const double num = strtod(v.c_str(), &end);
  const bool numeric = end != v.c_str() && *end == '\0';
  if (k == "dist") {
    if (!ValueOf(kKeyDistNames, v, &prof->dist)) {
      if (err != nullptr) *err = "unknown dist '" + v + "'";
      return false;
    }
    return true;
  }
  if (!numeric || num < 0) {
    if (err != nullptr) *err = "bad value for '" + k + "': '" + v + "'";
    return false;
  }
  if (k == "put") {
    prof->mix.put_pct = num;
  } else if (k == "get") {
    prof->mix.get_pct = num;
  } else if (k == "del") {
    prof->mix.delete_pct = num;
  } else if (k == "scan") {
    prof->mix.scan_pct = num;
  } else if (k == "scanlen") {
    prof->mix.scan_len = static_cast<int>(num);
  } else if (k == "theta") {
    if (num <= 0 || num >= 1) {
      if (err != nullptr) *err = "theta must be in (0, 1)";
      return false;
    }
    prof->zipf_theta = num;
    prof->dist = KeyDist::kZipfian;
  } else if (k == "hot_frac") {
    prof->hotspot_frac = num;
    prof->dist = KeyDist::kHotspot;
  } else if (k == "hot_ops") {
    prof->hotspot_opfrac = num;
    prof->dist = KeyDist::kHotspot;
  } else {
    if (err != nullptr) *err = "unknown mix field '" + k + "'";
    return false;
  }
  return true;
}

}  // namespace

bool ParseWorkloadMix(const std::string& spec,
                      std::vector<TenantProfile>* profiles, std::string* err) {
  profiles->clear();
  size_t seg_start = 0;
  while (seg_start <= spec.size()) {
    size_t seg_end = spec.find(';', seg_start);
    if (seg_end == std::string::npos) seg_end = spec.size();
    const std::string seg = spec.substr(seg_start, seg_end - seg_start);
    if (seg.empty()) {
      if (err != nullptr) *err = "empty mix segment";
      return false;
    }
    TenantProfile prof;
    bool preset_seeded = false;
    bool pcts_zeroed = false;
    size_t f_start = 0;
    bool first = true;
    bool ok = true;
    while (f_start <= seg.size() && ok) {
      size_t f_end = seg.find(',', f_start);
      if (f_end == std::string::npos) f_end = seg.size();
      const std::string field = seg.substr(f_start, f_end - f_start);
      // A leading preset name seeds the profile; k=v fields override it.
      if (first && field.find('=') == std::string::npos) {
        if (LookupMixPreset(field, &prof.mix)) {
          preset_seeded = true;
        } else {
          if (err != nullptr) *err = "unknown mix preset '" + field + "'";
          ok = false;
        }
      } else {
        // The first explicit percentage replaces the default pure-put mix
        // wholesale (so "get=100" means reads only, not 100+100).
        const std::string k = field.substr(0, field.find('='));
        if (!preset_seeded && !pcts_zeroed &&
            (k == "put" || k == "get" || k == "del" || k == "scan")) {
          prof.mix = OpMix{0, 0, 0, 0, prof.mix.scan_len};
          pcts_zeroed = true;
        }
        ok = ParseMixField(field, &prof, err);
      }
      first = false;
      f_start = f_end + 1;
    }
    if (!ok) return false;
    const double total = prof.mix.put_pct + prof.mix.get_pct +
                         prof.mix.delete_pct + prof.mix.scan_pct;
    if (total <= 0 || total > 100.0001) {
      if (err != nullptr) {
        *err = "mix percentages must sum to (0, 100]";
      }
      return false;
    }
    profiles->push_back(prof);
    seg_start = seg_end + 1;
  }
  return true;
}

namespace {

// Parses "A:B" into two numbers in [min, max].
bool ParsePair(const char* v, double min, double max, double* a, double* b,
               std::string* err) {
  const char* colon = strchr(v, ':');
  if (colon == nullptr) {
    *err = std::string("'") + v + "' (expected two numbers split by ':')";
    return false;
  }
  return ParseDouble(std::string(v, colon).c_str(), min, max, a, err) &&
         ParseDouble(colon + 1, min, max, b, err);
}

}  // namespace

FlagTable DbbenchFlags(DbbenchArgs* args) {
  BenchConfig* c = &args->config;
  SutConfig* sut = &c->sut;
  WorkloadConfig* wl = &c->workload;
  TenantProfile* prof = &wl->default_profile;
  FlagTable t;
  t.Enum("system", &sut->kind, kSystemFlagNames,
         "system under test (default rocksdb)");
  t.Enum("workload", &wl->type, kWorkloadNames,
         "workload (default fillrandom; mixed = the workload matrix)");
  t.Custom("seconds", "F",
           [wl](const char* v, std::string* err) {
             double secs = 0;
             if (!ParseDouble(v, 0, HUGE_VAL, &secs, err)) return false;
             wl->duration = FromSecs(secs);
             return true;
           },
           "measurement window, virtual seconds (default 60)");
  t.Double("scale", &c->scale, 0, kMaxScale,
           "size scale; 1.0 = paper scale (default 0.125)");
  t.Int("threads", &sut->compaction_threads, 1, "compaction threads");
  t.Int("value_size", &wl->value_size, 1, "value bytes (default 4096)");
  t.Int("key_space", &wl->key_space, 1, "key draw range (default 2^31)");
  t.Int("read_threads", &wl->read_threads, 0, "readwhilewriting readers");
  t.Int("writer_threads", &wl->writer_threads, 1, "writer actors");
  t.Int("batch_size", &wl->batch_size, 1, "entries per WriteBatch");
  t.Enum("rollback", &sut->rollback, kRollbackNames,
         "KVACCEL rollback scheme (default lazy)");
  t.Set("no_slowdown", &sut->enable_slowdown, false,
        "disable the baselines' delayed writes");
  t.Int("seed", &wl->seed, 0, "workload seed (default 42)");
  t.String("fault_profile", &c->fault_profile, "P",
           "flaky-nvme, bitrot, power-cut or devlsm-dead (default none)");
  t.Int("fault_seed", &c->fault_seed, 0, "fault injector seed (default 1)");
  t.Set("series", &args->series, true, "print the per-second series");
  t.String("trace_out", &c->trace_out, "FILE", "write a Chrome trace");
  t.String("json_out", &args->json_out, "FILE",
           "write the kvaccel-run-v1 report");
  t.Int("nemesis_seed", &c->nemesis_seed, 0,
        "nemesis seed echoed into the report (0 = none)");
  t.String("trace_dump_dir", &c->trace_dump_dir, "DIR",
           "nemesis dump directory echoed into the report");
  t.String("db_dump_dir", &c->db_dump_dir, "DIR",
           "export the final image for kvaccel_check");
  t.Int("max_subcompactions", &sut->max_subcompactions, 0,
        "subcompactions per job (0 = default; 1 = no splitting)");
  t.Double("compaction_rate_limit", &sut->compaction_rate_limit, 0, 1,
           "deep-compaction I/O cap, a fraction of NAND bandwidth");
  t.Double("nand_mbps", &c->nand_mbps, 0, HUGE_VAL,
           "NAND bandwidth in MB/s (0 = preset 630)");
  t.Int("shards", &sut->shards, 1, "KVACCEL only: shards (default 1)");
  t.Int("tenants", &wl->tenants, 1, "key-space slices (default 1)");
  t.Enum("shard_partition", &sut->shard_partition, kShardPartitionNames,
         "key-to-shard mapping (default hash)");
  t.Enum("redirect_policy", &sut->redirect_policy, kRedirectPolicyNames,
         "Dev-LSM redirect budget split (default global)");
  t.Double("arbiter_share", &sut->arbiter_share, 0, 1,
           "arbiter rate, a fraction of NAND bandwidth (0 = off)");
  t.Enum("ndp", &sut->ndp_mode, kNdpModeNames,
         "KVACCEL only: device-offloaded compaction (default off)");
  t.Int("ndp_cores", &sut->ndp_cores, 0, "NDP cores (default 2)");
  t.Set("ha", &sut->ha, true, "KVACCEL only: two-node replicated pair");
  t.Enum("repl_ack", &sut->repl_ack_async, check::kReplAckNames,
         "HA ack discipline (default sync)");
  t.Double("net_mbps", &sut->net_mbps, 0, HUGE_VAL,
           "HA link MB/s (default 1250)");
  t.Double("net_latency_us", &sut->net_latency_us, 0, HUGE_VAL,
           "HA link latency (default 30)");
  t.Double("lease_ms", &sut->lease_ms, 0, HUGE_VAL, "HA lease (default 50)");
  t.Double("heartbeat_ms", &sut->heartbeat_ms, 0, HUGE_VAL,
           "HA heartbeat period (default 10)");
  t.Int("fence_epoch", &sut->fence_epoch, 0, "starting epoch (default 1)");
  t.Custom("net_partition", "START:DUR",
           [sut](const char* v, std::string* err) {
             return ParsePair(v, 0, HUGE_VAL, &sut->net_partition_start_s,
                              &sut->net_partition_dur_s, err);
           },
           "HA only: cut the link START s into the window for DUR s");
  t.Enum("resync_mode", &sut->resync_mode, check::kResyncModeNames,
         "HA rejoin transport (default delta)");
  t.Custom("workload_mix", "SPEC",
           [wl](const char* v, std::string* err) {
             wl->mix_spec = v;
             wl->type = WorkloadConfig::Type::kMixed;
             return ParseWorkloadMix(v, &wl->profiles, err);
           },
           "per-tenant op streams (implies --workload=mixed)");
  t.Enum("arrival", &wl->arrival, kArrivalNames,
         "arrival process (default closed)");
  t.Double("arrival_rate", &wl->arrival_rate, 1, HUGE_VAL,
           "scheduled ops/s across tenants (default 20000)");
  t.Custom("zipf_theta", "F",
           [args, prof](const char* v, std::string* err) {
             if (!ParseDouble(v, 0, 1, &prof->zipf_theta, err)) return false;
             if (prof->zipf_theta == 0 || prof->zipf_theta == 1) {
               *err = std::string(v) + " (must be in (0, 1))";
               return false;
             }
             prof->dist = KeyDist::kZipfian;
             args->zipf = true;
             return true;
           },
           "Zipfian key popularity, theta in (0, 1)");
  t.Custom("hotspot", "FRAC:OPFRAC",
           [args, prof](const char* v, std::string* err) {
             if (!ParsePair(v, 0, 1, &prof->hotspot_frac,
                            &prof->hotspot_opfrac, err)) {
               return false;
             }
             if (prof->hotspot_frac == 0 || prof->hotspot_opfrac == 0) {
               *err = std::string(v) + " (fractions must be in (0, 1])";
               return false;
             }
             prof->dist = KeyDist::kHotspot;
             args->hotspot = true;
             return true;
           },
           "the first FRAC of each slice gets OPFRAC of the draws");
  t.Double("ttl_frac", &wl->ttl_frac, 0, 1, "fraction of puts with a TTL");
  t.Double("ttl_s", &wl->ttl_s, 0, HUGE_VAL, "TTL seconds (default 2)");
  t.Double("deadline_us", &wl->deadline_us, 0, HUGE_VAL,
           "arrival deadline (default 1000)");
  t.Action("list_fault_sites",
           [] {
             for (const auto& site : sim::KnownFaultSites()) {
               printf("%-28s %s\n", site.site, site.what);
             }
             exit(0);
           },
           "print every registered fault/crash site and exit");
  return t;
}

std::string DbbenchConfigError(const DbbenchArgs& args) {
  const SutConfig& sut = args.config.sut;
  const WorkloadConfig& wl = args.config.workload;
  const bool kvaccel = sut.kind == SystemKind::kKvaccel;
  if (sut.shards > 1 && !kvaccel) {
    return "--shards>1 requires --system=kvaccel";
  }
  if (sut.ha && !kvaccel) return "--ha requires --system=kvaccel";
  if (sut.ha && sut.shards > 1) return "--ha requires --shards=1";
  if (sut.ndp_mode != ndp::OffloadMode::kOff && !kvaccel) {
    return "--ndp requires --system=kvaccel";
  }
  if (args.zipf && args.hotspot) {
    return "--zipf_theta and --hotspot are mutually exclusive";
  }
  const bool mixed = wl.type == WorkloadConfig::Type::kMixed;
  if (wl.arrival != Arrival::kClosed && !mixed) {
    return std::string("--arrival=") + NameOf(kArrivalNames, wl.arrival) +
           " requires --workload=mixed";
  }
  if (wl.ttl_frac > 0 && !mixed) return "--ttl_frac requires --workload=mixed";
  return "";
}

namespace {

// Reservoir of recently written keys so read threads hit live data.
class KeyReservoir {
 public:
  explicit KeyReservoir(size_t capacity) : capacity_(capacity) {}

  // Algorithm R: uniform sample over the whole write history, so reads hit
  // keys at every depth of the tree (as db_bench's uniform key draw does).
  void Offer(uint64_t key, Random64* rng) {
    seen_++;
    if (keys_.size() < capacity_) {
      keys_.push_back(key);
    } else if (rng->Uniform(seen_) < capacity_) {
      keys_[rng->Uniform(keys_.size())] = key;
    }
  }

  bool Sample(Random64* rng, uint64_t* key) const {
    if (keys_.empty()) return false;
    *key = keys_[rng->Uniform(keys_.size())];
    return true;
  }

  bool empty() const { return keys_.empty(); }

 private:
  size_t capacity_;
  uint64_t seen_ = 0;
  std::vector<uint64_t> keys_;
};

// Per-tenant foreground accounting. `service` measures issue -> completion;
// `arrival` measures scheduled-arrival -> completion (open-loop modes), the
// coordinated-omission-free number (DESIGN.md §14).
struct TenantState {
  Histogram service;
  Histogram arrival;
  uint64_t ops = 0;
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t deletes = 0;
  uint64_t scans = 0;
  uint64_t ttl_deletes = 0;
  uint64_t scheduled = 0;
  uint64_t deadline_misses = 0;
  uint64_t abandoned = 0;
};

struct Shared {
  SystemUnderTest* sut = nullptr;
  sim::SimEnv* env = nullptr;
  Nanos window_start = 0;
  Nanos window_end = 0;
  uint64_t writes_done = 0;
  uint64_t reads_done = 0;
  uint64_t scan_ops_done = 0;
  KeyReservoir reservoir{1 << 16};
  // Per-tenant foreground accounting (index = tenant id; size >= 1).
  std::vector<TenantState> tenants;
  bool stop = false;
  // Partition runs: a fenced primary refuses writes (Busy) until the link
  // heals and the lease renews; writers back off and retry instead of
  // treating the window as end-of-run. Non-recoverable errors still end
  // the writer.
  bool ride_out_write_errors = false;
  uint64_t write_errors_ridden = 0;
};

// Tenant key span: slice width (tenants carve key_space into equal
// contiguous slices; one tenant owns the whole space).
uint64_t TenantSpan(const WorkloadConfig& wl) {
  return std::max<uint64_t>(1, wl.key_space / std::max(1, wl.tenants));
}

// Draws key offsets in [0, span) shaped by a tenant profile. The uniform
// path draws from the caller's RNG with the exact historical sequence, so
// default-profile runs stay byte-identical to the pre-matrix harness.
class KeyChooser {
 public:
  KeyChooser(const TenantProfile& prof, uint64_t span, uint64_t seed)
      : span_(span) {
    if (prof.dist == KeyDist::kZipfian) {
      zipf_ = std::make_unique<ZipfianGenerator>(span, prof.zipf_theta, seed);
    } else if (prof.dist == KeyDist::kHotspot) {
      hot_ = std::make_unique<HotspotGenerator>(span, prof.hotspot_frac,
                                                prof.hotspot_opfrac, seed);
    }
  }

  uint64_t Next(Random64* rng) {
    if (zipf_ != nullptr) {
      // Scramble the rank so the hot set spreads across the whole slice
      // (YCSB's scrambled Zipfian) instead of piling onto its front — the
      // contiguous-hot-range case is what kHotspot is for.
      return Mix(zipf_->Next()) % span_;
    }
    if (hot_ != nullptr) return hot_->Next();
    return rng->Uniform(span_);
  }

 private:
  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  uint64_t span_;
  std::unique_ptr<ZipfianGenerator> zipf_;
  std::unique_ptr<HotspotGenerator> hot_;
};

// Lazily generates absolute arrival ticks for one actor: a Poisson process
// (exponential gaps) whose instantaneous rate follows the configured curve.
// Virtual-time-driven and per-actor-seeded, so schedules are deterministic.
class ArrivalSchedule {
 public:
  ArrivalSchedule(const WorkloadConfig& wl, Nanos start, double rate_ops,
                  uint64_t seed)
      : wl_(wl),
        start_(start),
        rate_(std::max(rate_ops, 1e-3)),
        rng_(seed),
        next_(start) {}

  Nanos Next() {
    const double r = RateAt(next_);
    // Exponential gap with mean 1/r; log1p(-u) keeps precision near u=0.
    const double gap_s = -std::log1p(-rng_.NextDouble()) / r;
    next_ += std::max<Nanos>(1, FromSecs(gap_s));
    return next_;
  }

 private:
  double RateAt(Nanos t) const {
    constexpr double kPi = 3.14159265358979323846;
    const double s = ToSecs(t - start_);
    switch (wl_.arrival) {
      case Arrival::kDiurnal: {
        // One "day" per period: trough (min_frac * rate) at t=0, peak (rate)
        // mid-period.
        const double phase = 2.0 * kPi * s / wl_.diurnal_period_s;
        const double f =
            wl_.diurnal_min_frac +
            (1.0 - wl_.diurnal_min_frac) * 0.5 * (1.0 - std::cos(phase));
        return rate_ * f;
      }
      case Arrival::kSpike:
        return std::fmod(s, wl_.spike_every_s) < wl_.spike_dur_s
                   ? rate_ * wl_.spike_mult
                   : rate_;
      default:
        return rate_;
    }
  }

  const WorkloadConfig& wl_;
  Nanos start_;
  double rate_;
  Random64 rng_;
  Nanos next_;
};

void WriterLoop(const WorkloadConfig& wl, Shared* sh, uint64_t thread_seed,
                int tenant) {
  Random64 rng(thread_seed);
  uint64_t value_seed = thread_seed << 32;
  const int batch_size = std::max(1, wl.batch_size);
  // Tenant t draws from its contiguous key-space slice; with one tenant the
  // slice is the whole space and the draw sequence is unchanged.
  const uint64_t span = TenantSpan(wl);
  const uint64_t base = static_cast<uint64_t>(tenant) * span;
  // Skewed popularity applies to the classic workloads too; the default
  // uniform profile reproduces the historical draw sequence exactly.
  KeyChooser chooser(wl.ProfileFor(tenant), span, thread_seed + 104729);
  TenantState& ts = sh->tenants[static_cast<size_t>(tenant)];
  lsm::WriteBatch batch;
  std::vector<uint64_t> drawn;
  drawn.reserve(batch_size);
  while (!sh->stop && sh->env->Now() < sh->window_end) {
    batch.Clear();
    drawn.clear();
    for (int i = 0; i < batch_size; i++) {
      uint64_t k = base + chooser.Next(&rng);
      batch.Put(MakeKey(k, wl.key_size),
                Value::Synthetic(value_seed++, wl.value_size));
      drawn.push_back(k);
    }
    Nanos op_start = sh->env->Now();
    Status s = sh->sut->Write(&batch);
    if (!s.ok()) {
      if (sh->ride_out_write_errors &&
          (s.IsBusy() || s.IsIOError() || s.IsTryAgain())) {
        sh->write_errors_ridden++;
        sh->env->SleepFor(FromMillis(1));
        continue;
      }
      break;  // e.g. file system full: end of useful run
    }
    ts.ops += static_cast<uint64_t>(batch_size);
    ts.puts += static_cast<uint64_t>(batch_size);
    ts.service.Add(static_cast<uint64_t>(sh->env->Now() - op_start));
    sh->writes_done += static_cast<uint64_t>(batch_size);
    for (uint64_t k : drawn) sh->reservoir.Offer(k, &rng);
  }
}

// One actor of the mixed workload matrix (DESIGN.md §14): an open-loop (or
// closed, with arrival == kClosed) stream of put/get/delete/scan ops over the
// actor's tenant slice, with optional TTL churn. Open-loop, the actor is a
// single server draining its own arrival schedule: it sleeps until the next
// scheduled tick when idle and issues immediately (late) when backlogged, so
// queueing delay behind a stall lands in the arrival-latency histogram
// instead of silently stretching the schedule (coordinated omission).
void MixedLoop(const WorkloadConfig& wl, Shared* sh, uint64_t thread_seed,
               int tenant, double rate_ops) {
  Random64 rng(thread_seed);
  uint64_t value_seed = thread_seed << 32;
  const TenantProfile& prof = wl.ProfileFor(tenant);
  const uint64_t span = TenantSpan(wl);
  const uint64_t base = static_cast<uint64_t>(tenant) * span;
  KeyChooser chooser(prof, span, thread_seed + 104729);
  const bool open_loop = wl.arrival != Arrival::kClosed;
  ArrivalSchedule sched(wl, sh->window_start, rate_ops,
                        thread_seed + 15485863);
  const Nanos deadline = FromMicros(wl.deadline_us);
  TenantState& ts = sh->tenants[static_cast<size_t>(tenant)];
  // Keys this actor wrote with a TTL, with their expiry ticks. TTLs are
  // constant, so the front is always the earliest expiry.
  std::deque<std::pair<Nanos, uint64_t>> ttl_due;
  lsm::ReadOptions scan_ropts;
  scan_ropts.readahead_blocks = 16;

  while (!sh->stop) {
    Nanos sched_at = 0;
    if (open_loop) {
      sched_at = sched.Next();
      if (sched_at >= sh->window_end) break;
      ts.scheduled++;
      if (sh->env->Now() >= sh->window_end) {
        // The window closed with this arrival still queued behind the
        // backlog: a latency casualty, not an omission. Keep draining the
        // schedule so every missed in-window arrival is counted.
        ts.abandoned++;
        ts.deadline_misses++;
        continue;
      }
      if (sh->env->Now() < sched_at) sh->env->SleepUntil(sched_at);
    } else if (sh->env->Now() >= sh->window_end) {
      break;
    }

    // TTL churn: delete entries whose TTL lapsed by now.
    while (!ttl_due.empty() && ttl_due.front().first <= sh->env->Now()) {
      const uint64_t k = ttl_due.front().second;
      ttl_due.pop_front();
      if (sh->sut->Delete(MakeKey(k, wl.key_size)).ok()) {
        ts.ttl_deletes++;
        sh->writes_done++;
      }
    }

    const Nanos issue = sh->env->Now();
    if (!open_loop) sched_at = issue;
    const double pick = rng.NextDouble() * 100.0;
    Status s;
    if (pick < prof.mix.put_pct) {
      const uint64_t k = base + chooser.Next(&rng);
      s = sh->sut->Put(MakeKey(k, wl.key_size),
                       Value::Synthetic(value_seed++, wl.value_size));
      if (s.ok()) {
        ts.puts++;
        sh->writes_done++;
        sh->reservoir.Offer(k, &rng);
        if (wl.ttl_frac > 0 && rng.NextDouble() < wl.ttl_frac) {
          ttl_due.emplace_back(issue + FromSecs(wl.ttl_s), k);
        }
      }
    } else if (pick < prof.mix.put_pct + prof.mix.get_pct) {
      const uint64_t k = base + chooser.Next(&rng);
      Value v;
      (void)sh->sut->Get(MakeKey(k, wl.key_size), &v);
      ts.gets++;
      sh->reads_done++;
    } else if (pick <
               prof.mix.put_pct + prof.mix.get_pct + prof.mix.delete_pct) {
      // Churn: deletes follow the same popularity shape as writes, so hot
      // data is also what gets tombstoned.
      const uint64_t k = base + chooser.Next(&rng);
      s = sh->sut->Delete(MakeKey(k, wl.key_size));
      if (s.ok()) {
        ts.deletes++;
        sh->writes_done++;
      }
    } else {
      const uint64_t k = base + chooser.Next(&rng);
      auto it = sh->sut->NewIterator(scan_ropts);
      it->Seek(MakeKey(k, wl.key_size));
      sh->scan_ops_done++;  // the Seek
      for (int n = 0; n < prof.mix.scan_len && it->Valid(); n++) {
        it->Next();
        sh->scan_ops_done++;
      }
      ts.scans++;
    }
    if (!s.ok()) {
      if (sh->ride_out_write_errors &&
          (s.IsBusy() || s.IsIOError() || s.IsTryAgain())) {
        sh->write_errors_ridden++;
        sh->env->SleepFor(FromMillis(1));
        continue;
      }
      break;  // e.g. file system full: end of useful run
    }
    const Nanos done = sh->env->Now();
    ts.ops++;
    ts.service.Add(static_cast<uint64_t>(done - issue));
    ts.arrival.Add(static_cast<uint64_t>(done - sched_at));
    if (done > sched_at + deadline) ts.deadline_misses++;
  }
}

void ReaderLoop(const WorkloadConfig& wl, Shared* sh, uint64_t thread_seed) {
  Random64 rng(thread_seed);
  while (!sh->stop && sh->env->Now() < sh->window_end) {
    if (sh->reservoir.empty()) {
      sh->env->SleepFor(FromMicros(100));
      continue;
    }
    uint64_t k = 0;
    sh->reservoir.Sample(&rng, &k);
    Value v;
    (void)sh->sut->Get(MakeKey(k, wl.key_size), &v);
    sh->reads_done++;
  }
}

void SeekLoop(const WorkloadConfig& wl, Shared* sh, uint64_t thread_seed) {
  Random64 rng(thread_seed);
  // Long range scans benefit from iterator readahead (RocksDB ramps
  // auto-readahead up to 256 KB on sequential access).
  lsm::ReadOptions scan_ropts;
  scan_ropts.readahead_blocks = 16;
  for (uint64_t i = 0; i < wl.seek_ops && !sh->stop; i++) {
    uint64_t k = rng.Uniform(wl.key_space);
    auto it = sh->sut->NewIterator(scan_ropts);
    it->Seek(MakeKey(k, wl.key_size));
    sh->scan_ops_done++;  // the Seek
    for (int n = 0; n < wl.nexts_per_seek && it->Valid(); n++) {
      it->Next();
      sh->scan_ops_done++;
    }
  }
}

// The offload planners' decisions, summed over every DB of the store.
ndp::PlannerStats SumPlannerStats(SystemUnderTest* sut) {
  ndp::PlannerStats ps;
  auto add = [&ps](const ndp::OffloadPlanner* p) {
    if (p == nullptr) return;
    ps.device_jobs += p->stats().device_jobs;
    ps.host_jobs += p->stats().host_jobs;
    ps.flips += p->stats().flips;
    ps.cooldown_rejects += p->stats().cooldown_rejects;
    ps.failures += p->stats().failures;
  };
  if (sut->sharded() != nullptr) {
    core::ShardedKvaccelDB* shd = sut->sharded();
    for (int i = 0; i < shd->num_shards(); i++) {
      add(shd->shard(i)->offload_planner());
    }
  } else if (sut->kvaccel() != nullptr) {
    add(sut->kvaccel()->offload_planner());
  }
  return ps;
}

// Mirrors every subsystem's existing stats structs into the registry at
// snapshot time (DESIGN.md §8 naming: <layer>.<component>.<metric>). The
// callbacks read live objects, so Snapshot() must run while the world is
// still open (before SystemUnderTest::Close()).
void RegisterWorldMetrics(obs::MetricsRegistry* registry,
                          SystemUnderTest* sut, ssd::HybridSsd* ssd,
                          sim::CpuPool* host_cpu, ndp::NdpDevice* ndp_dev,
                          sim::FaultInjector* injector, obs::Tracer* tracer) {
  registry->AddSource([sut](obs::MetricsSnapshot* snap) {
    const lsm::DbStats& ms = sut->main_stats();
    snap->SetCounter("lsm.writes_total", ms.writes_total);
    snap->SetCounter("lsm.write_bytes_total", ms.write_bytes_total);
    snap->SetCounter("lsm.reads_total", ms.reads_total);
    snap->SetCounter("lsm.seeks_total", ms.seeks_total);
    snap->SetCounter("lsm.flush.count", ms.flush_count);
    snap->SetCounter("lsm.flush.bytes", ms.flush_bytes);
    snap->SetCounter("lsm.compaction.count", ms.compaction_count);
    snap->SetCounter("lsm.compaction.bytes_read", ms.compaction_bytes_read);
    snap->SetCounter("lsm.compaction.bytes_written",
                     ms.compaction_bytes_written);
    snap->SetCounter("lsm.compaction.split_jobs", ms.split_compactions);
    snap->SetCounter("lsm.compaction.subcompactions", ms.subcompaction_count);
    snap->SetCounter("lsm.compaction.intra_l0", ms.intra_l0_compactions);
    snap->SetCounter("lsm.compaction.throttle_ns", ms.compaction_throttle_ns);
    snap->SetCounter("lsm.orphan_files_removed", ms.orphan_files_removed);
    snap->SetGauge("lsm.compaction.queue_depth",
                   sut->db()->GetStallSignals().compaction_queue_depth);
    snap->SetCounter("lsm.stall.events", ms.stall_events);
    snap->SetCounter("lsm.slowdown.events", ms.slowdown_events);
    snap->SetCounter("lsm.io_retries", ms.io_retries);
    snap->SetCounter("lsm.background_errors", ms.background_errors);
    snap->SetCounter("lsm.write_groups", ms.write_groups);
    snap->SetHistogram("lsm.group_commit_size", ms.group_commit_size);
    const lsm::DbStats& fg = sut->stats();
    snap->SetHistogram("db.put_latency_ns", fg.put_latency);
    snap->SetHistogram("db.get_latency_ns", fg.get_latency);
    snap->SetHistogram("db.seek_latency_ns", fg.seek_latency);
    lsm::BlockCacheStats cache = sut->db()->GetBlockCacheStats();
    snap->SetCounter("lsm.block_cache.hits", cache.hits);
    snap->SetCounter("lsm.block_cache.misses", cache.misses);
    snap->SetCounter("lsm.block_cache.usage_bytes", cache.usage_bytes);
    snap->SetCounter("lsm.block_cache.capacity_bytes", cache.capacity_bytes);
    snap->SetGauge("lsm.block_cache.hit_rate", cache.hit_rate());
  });

  registry->AddSource([ssd](obs::MetricsSnapshot* snap) {
    snap->SetCounter("ssd.link.busy_ns",
                     static_cast<uint64_t>(ssd->pcie().busy_ns()));
    snap->SetCounter("ssd.nand.busy_ns",
                     static_cast<uint64_t>(ssd->nand().busy_ns()));
    snap->SetCounter("ssd.nand.bytes_read", ssd->nand().bytes_read());
    snap->SetCounter("ssd.nand.bytes_written", ssd->nand().bytes_written());
    snap->SetCounter("ssd.nand.blocks_erased", ssd->nand().blocks_erased());
    const ssd::Ftl& ftl = ssd->block_ftl(0);
    snap->SetCounter("ssd.ftl.valid_pages", ftl.valid_pages());
    snap->SetCounter("ssd.ftl.free_blocks", ftl.free_blocks());
    snap->SetCounter("ssd.ftl.relocated_pages", ftl.relocated_pages());
    snap->SetCounter("ssd.ftl.erased_blocks", ftl.erased_blocks());
    snap->SetCounter("ssd.ftl.gc_runs", ftl.gc_runs());
    snap->SetGauge("ssd.ftl.write_amplification", ftl.write_amplification());
    snap->SetGauge("ssd.firmware.busy_seconds",
                   ssd->firmware()->busy_seconds());
  });

  if (sut->is_kvaccel()) {
    registry->AddSource([sut](obs::MetricsSnapshot* snap) {
      // Single shard: the facade's own counters. Sharded: fleet aggregates
      // under the same names, so dashboards read both the same way.
      core::KvaccelStats ks = sut->kvaccel_stats();
      snap->SetCounter("kvaccel.detector.checks", ks.detector_checks);
      snap->SetCounter("kvaccel.redirect.writes", ks.redirected_writes);
      snap->SetCounter("kvaccel.redirect.batches", ks.redirected_batches);
      snap->SetCounter("kvaccel.direct.writes", ks.direct_writes);
      snap->SetCounter("kvaccel.rollback.count", ks.rollbacks);
      snap->SetCounter("kvaccel.rollback.entries", ks.rollback_entries);
      snap->SetCounter("kvaccel.rollback.total_ns", ks.rollback_total_ns);
      snap->SetCounter("kvaccel.read.dev", ks.dev_reads);
      snap->SetCounter("kvaccel.read.main", ks.main_reads);
      snap->SetCounter("kvaccel.md.inserts", ks.md_inserts);
      snap->SetCounter("kvaccel.md.checks", ks.md_checks);
      snap->SetCounter("kvaccel.md.deletes", ks.md_deletes);
      snap->SetCounter("kvaccel.dev.retries", ks.dev_retries);
      snap->SetCounter("kvaccel.fallback_writes", ks.fallback_writes);
      snap->SetCounter("kvaccel.device_unhealthy_events",
                       ks.device_unhealthy_events);
      snap->SetHistogram("kvaccel.redirect.batch_latency_ns",
                         ks.redirect_batch_latency);
      snap->SetCounter("kvaccel.redirect.admission_rejects",
                       ks.redirect_admission_rejects);
      snap->SetCounter("kvaccel.redirect.arbiter_wait_ns",
                       ks.redirect_arbiter_wait_ns);
      // Sharded: how many shards' Detectors currently see a stall.
      double active = 0;
      if (sut->sharded() != nullptr) {
        core::ShardedKvaccelDB* shd = sut->sharded();
        for (int i = 0; i < shd->num_shards(); i++) {
          if (shd->shard(i)->detector()->stall_detected()) active += 1;
        }
      } else if (sut->kvaccel()->detector()->stall_detected()) {
        active = 1;
      }
      snap->SetGauge("kvaccel.redirect.active", active);
      core::KvaccelDB* kv = sut->kvaccel();
      if (kv != nullptr && kv->scrubber() != nullptr) {
        const core::ScrubStats& sc = kv->scrubber()->stats();
        snap->SetCounter("scrub.files_scanned", sc.files_scanned);
        snap->SetCounter("scrub.bytes_scanned", sc.bytes_scanned);
        snap->SetCounter("scrub.passes", sc.passes);
        snap->SetCounter("scrub.corruptions", sc.corruptions);
        snap->SetCounter("scrub.escalations", sc.escalations);
        snap->SetCounter("scrub.skipped_busy", sc.skipped_busy);
        snap->SetCounter("scrub.deferred_for_resync", sc.deferred_for_resync);
      }
      devlsm::DevLsmStats ds = sut->devlsm_stats();
      snap->SetCounter("devlsm.puts", ds.puts);
      snap->SetCounter("devlsm.gets", ds.gets);
      snap->SetCounter("devlsm.deletes", ds.deletes);
      snap->SetCounter("devlsm.compound_cmds", ds.compound_cmds);
      snap->SetCounter("devlsm.compound_entries", ds.compound_entries);
      snap->SetCounter("devlsm.flushes", ds.flushes);
      snap->SetCounter("devlsm.compactions", ds.compactions);
      snap->SetCounter("devlsm.bulk_scans", ds.bulk_scans);
      snap->SetCounter("devlsm.scan_chunks", ds.scan_chunks);
      snap->SetCounter("devlsm.resets", ds.resets);
    });
  }

  // Device-offloaded compaction (DESIGN.md §13): the engine's own counters
  // plus the per-DB planner decisions (summed across shards).
  if (ndp_dev != nullptr) {
    registry->AddSource([sut, ndp_dev](obs::MetricsSnapshot* snap) {
      const ndp::NdpStats& ns = ndp_dev->stats();
      snap->SetCounter("ndp.commands", ns.commands);
      snap->SetCounter("ndp.rejected", ns.rejected);
      snap->SetCounter("ndp.jobs_completed", ns.jobs_completed);
      snap->SetCounter("ndp.jobs_failed", ns.jobs_failed);
      snap->SetCounter("ndp.merge_bytes", ns.merge_bytes);
      snap->SetCounter("ndp.command_bytes", ns.command_bytes);
      snap->SetCounter("ndp.result_bytes", ns.result_bytes);
      snap->SetGauge("ndp.cpu.busy_seconds", ndp_dev->cpu()->busy_seconds());
      const ndp::PlannerStats ps = SumPlannerStats(sut);
      snap->SetCounter("ndp.planner.device_jobs", ps.device_jobs);
      snap->SetCounter("ndp.planner.host_jobs", ps.host_jobs);
      snap->SetCounter("ndp.planner.flips", ps.flips);
      snap->SetCounter("ndp.planner.cooldown_rejects", ps.cooldown_rejects);
      snap->SetCounter("ndp.planner.failures", ps.failures);
      const lsm::DbStats& ms = sut->main_stats();
      snap->SetCounter("ndp.compactions", ms.ndp_compactions);
      snap->SetCounter("ndp.bytes_written", ms.ndp_bytes_written);
      snap->SetCounter("ndp.fallbacks", ms.ndp_fallbacks);
    });
  }

  // HA pair (DESIGN.md §12): replication-stream counters.
  if (sut->pair() != nullptr) {
    core::ReplicatedKvaccelDB* pair = sut->pair();
    registry->AddSource([pair](obs::MetricsSnapshot* snap) {
      const core::ReplStats& rs = pair->repl_stats();
      snap->SetCounter("repl.wal_records", rs.wal_records);
      snap->SetCounter("repl.wal_entries", rs.wal_entries);
      snap->SetCounter("repl.intent_records", rs.intent_records);
      snap->SetCounter("repl.intent_entries", rs.intent_entries);
      snap->SetCounter("repl.rollback_records", rs.rollback_records);
      snap->SetCounter("repl.manifest_records", rs.manifest_records);
      snap->SetCounter("repl.manifest_drops", rs.manifest_drops);
      snap->SetCounter("repl.bytes", rs.repl_bytes);
      snap->SetCounter("repl.records_applied", rs.records_applied);
      snap->SetCounter("repl.net_retries", rs.net_retries);
      snap->SetCounter("repl.ship_failures", rs.ship_failures);
      snap->SetCounter("repl.backup_dev_fallbacks", rs.backup_dev_fallbacks);
      snap->SetCounter("repl.async_queue_peak", rs.async_queue_peak);
      snap->SetCounter("repl.async_queue_bytes_peak",
                       rs.async_queue_bytes_peak);
      snap->SetCounter("repl.sync_ship_ns", rs.sync_ship_ns);
      snap->SetCounter("repl.heartbeats", rs.heartbeat_records);
      snap->SetCounter("repl.fenced_write_rejects", rs.fenced_write_rejects);
      snap->SetCounter("repl.lease_expirations", rs.lease_expirations);
      snap->SetCounter("repl.stale_epoch_rejects", rs.fenced_records);
      snap->SetCounter("repl.ack_losses", rs.ack_losses);
      snap->SetCounter("repl.dup_records", rs.dup_records);
      snap->SetCounter("repl.reorder_swaps", rs.reorder_swaps);
      snap->SetCounter("repl.net.messages", pair->link()->messages());
      snap->SetCounter("repl.net.drops", pair->link()->drops());
      snap->SetCounter("repl.net.partition_drops",
                       pair->link()->partition_drops());
      snap->SetCounter("repl.net.delay_spikes", pair->link()->delay_spikes());
      snap->SetGauge("ha.repl.queue_bytes",
                     static_cast<double>(pair->queue_bytes()));
      snap->SetGauge("ha.epoch", static_cast<double>(pair->epoch()));
      snap->SetGauge("ha.fenced", pair->fenced() ? 1.0 : 0.0);
    });
  }

  // Per-shard roll-up (DESIGN.md §11): dotted shard.<i>.* names so the flat
  // snapshot sorts all of one shard's metrics together.
  if (sut->sharded() != nullptr) {
    core::ShardedKvaccelDB* shd = sut->sharded();
    registry->AddSource([shd](obs::MetricsSnapshot* snap) {
      for (int i = 0; i < shd->num_shards(); i++) {
        const std::string p = "shard." + std::to_string(i) + ".";
        core::KvaccelDB* kv = shd->shard(i);
        const lsm::DbStats& fg = kv->stats();
        snap->SetCounter(p + "lsm.writes_total", fg.writes_total);
        snap->SetCounter(p + "lsm.write_bytes_total", fg.write_bytes_total);
        snap->SetCounter(p + "lsm.stall.events",
                         kv->main()->stats().stall_events);
        snap->SetHistogram(p + "db.put_latency_ns", fg.put_latency);
        const core::KvaccelStats& ks = kv->kv_stats();
        snap->SetCounter(p + "kvaccel.redirect.writes", ks.redirected_writes);
        snap->SetCounter(p + "kvaccel.redirect.admission_rejects",
                         ks.redirect_admission_rejects);
        snap->SetCounter(p + "kvaccel.redirect.arbiter_wait_ns",
                         ks.redirect_arbiter_wait_ns);
        snap->SetCounter(p + "kvaccel.rollback.count", ks.rollbacks);
        if (shd->arbiter() != nullptr) {
          const sim::FairShareArbiter::ClientStats& cs =
              shd->arbiter()->client_stats(i);
          snap->SetCounter(p + "arbiter.grants", cs.grants);
          snap->SetCounter(p + "arbiter.granted_bytes", cs.granted_bytes);
          snap->SetCounter(p + "arbiter.throttles", cs.throttles);
          snap->SetCounter(p + "arbiter.throttle_ns", cs.throttle_ns);
        }
      }
    });
  }

  registry->AddSource(
      [host_cpu, injector, tracer](obs::MetricsSnapshot* snap) {
        snap->SetGauge("host.cpu.busy_seconds", host_cpu->busy_seconds());
        if (injector != nullptr) {
          snap->SetCounter("sim.faults.injected", injector->total_fires());
        }
        if (tracer != nullptr) {
          snap->SetCounter("obs.trace.events", tracer->num_events());
          snap->SetCounter("obs.trace.dropped", tracer->dropped_events());
          snap->SetCounter("obs.trace.tracks", tracer->num_tracks());
        }
      });
}

}  // namespace

RunResult RunBenchmark(const BenchConfig& config) {
  sim::SimEnv env;
  // The tracer must attach before any component is built: HybridSsd's
  // constructor registers the PCIe/NAND busy tracks off env.tracer().
  std::unique_ptr<obs::Tracer> tracer;
  if (!config.trace_out.empty()) {
    tracer = std::make_unique<obs::Tracer>(&env);
    env.set_tracer(tracer.get());
  }
  obs::MetricsRegistry registry;
  ssd::SsdConfig ssd_config = PaperSsdConfig(config.scale);
  if (config.nand_mbps > 0) ssd_config.nand_bytes_per_sec = config.nand_mbps * 1e6;
  // Sharded engine: one SSD namespace per shard; the router builds one SimFs
  // per namespace itself, so no world-level file system exists (two SimFs on
  // one namespace would both think they own its LBA space).
  const bool sharded =
      config.sut.kind == SystemKind::kKvaccel && config.sut.shards > 1;
  if (sharded) ssd_config.num_namespaces = config.sut.shards;
  ssd::HybridSsd ssd(&env, ssd_config);
  std::unique_ptr<fs::SimFs> fs;
  if (!sharded) fs = std::make_unique<fs::SimFs>(&ssd, 0);
  sim::CpuPool host_cpu(&env, "host", 8);  // Table II: usage limited to 8
  lsm::DbEnv denv{&env, &ssd, fs.get(), &host_cpu};

  // Two-node HA pair (DESIGN.md §12): build the backup node's world — its
  // own SSD, file system and 8-core host — plus caller-owned Dev-LSM
  // instances for both nodes (the backup's must outlive the pair so the
  // post-run failover can re-attach it).
  SutConfig sut_cfg = config.sut;
  const bool ha =
      config.sut.kind == SystemKind::kKvaccel && config.sut.ha && !sharded;
  std::unique_ptr<ssd::HybridSsd> ssd_b;
  std::unique_ptr<fs::SimFs> fs_b;
  std::unique_ptr<sim::CpuPool> cpu_b;
  std::unique_ptr<devlsm::DevLsm> dev_a, dev_b;
  if (ha) {
    ssd_b = std::make_unique<ssd::HybridSsd>(&env, ssd_config);
    fs_b = std::make_unique<fs::SimFs>(ssd_b.get(), 0);
    cpu_b = std::make_unique<sim::CpuPool>(&env, "host-b", 8);
    const devlsm::DevLsmOptions dev_opts =
        SystemUnderTest::BuildKvOptions(sut_cfg).dev;
    dev_a = std::make_unique<devlsm::DevLsm>(&ssd, 0, dev_opts);
    dev_b = std::make_unique<devlsm::DevLsm>(ssd_b.get(), 0, dev_opts);
    sut_cfg.ha_primary = {&ssd, fs.get(), &host_cpu, dev_a.get()};
    sut_cfg.ha_backup = {ssd_b.get(), fs_b.get(), cpu_b.get(), dev_b.get()};
  }

  // Device-offloaded compaction (DESIGN.md §13): one NdpDevice per SSD —
  // shared by all shards of a sharded engine; one per node for an HA pair.
  std::unique_ptr<ndp::NdpDevice> ndp_dev, ndp_dev_b;
  if (config.sut.kind == SystemKind::kKvaccel &&
      config.sut.ndp_mode != ndp::OffloadMode::kOff) {
    ndp::NdpConfig nc;
    nc.cores = config.sut.ndp_cores;
    ndp_dev = std::make_unique<ndp::NdpDevice>(&ssd, nc);
    sut_cfg.ndp_device = ndp_dev.get();
    if (ha) {
      ndp_dev_b = std::make_unique<ndp::NdpDevice>(ssd_b.get(), nc);
      sut_cfg.ha_primary.ndp = ndp_dev.get();
      sut_cfg.ha_backup.ndp = ndp_dev_b.get();
    }
  }

  sim::FaultInjector injector(&env, config.fault_seed);
  if (!config.fault_profile.empty()) {
    env.set_fault_injector(&injector);
    if (!ApplyFaultProfile(&injector, config.fault_profile)) {
      fprintf(stderr, "unknown fault profile '%s'\n",
              config.fault_profile.c_str());
      exit(2);
    }
  }
  // Partition window (DESIGN.md §12): the injector must be live even without
  // a canned fault profile so the net-nemesis thread can cut the link.
  const bool partition_run = ha && sut_cfg.net_partition_dur_s > 0;
  if (partition_run) env.set_fault_injector(&injector);

  RunResult result;
  Shared sh;
  sh.env = &env;
  sh.tenants.resize(static_cast<size_t>(std::max(1, config.workload.tenants)));

  env.Spawn("bench-main", [&] {
    std::unique_ptr<SystemUnderTest> sut;
    Status s = SystemUnderTest::Open(sut_cfg, denv, &sut);
    if (!s.ok()) {
      fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
      return;
    }
    sh.sut = sut.get();
    result.name = sut->name();
    RegisterWorldMetrics(&registry, sut.get(), &ssd, &host_cpu, ndp_dev.get(),
                         config.fault_profile.empty() ? nullptr : &injector,
                         tracer.get());

    const WorkloadConfig& wl = config.workload;

    // Workload D: bulk preload, then settle compaction before measuring.
    if (wl.type == WorkloadConfig::Type::kSeekRandom) {
      uint64_t preload_bytes = static_cast<uint64_t>(
          static_cast<double>(wl.preload_bytes) * config.scale);
      uint64_t ops = preload_bytes / wl.value_size;
      Random64 rng(wl.seed);
      uint64_t value_seed = 1;
      for (uint64_t i = 0; i < ops; i++) {
        uint64_t k = rng.Uniform(wl.key_space);
        Status ps = sut->Put(MakeKey(k, wl.key_size),
                             Value::Synthetic(value_seed++, wl.value_size));
        if (!ps.ok()) break;
      }
      sut->FlushAll();
      sut->WaitForCompactionIdle();
    }

    sh.window_start = env.Now();
    sh.window_end = sh.window_start + wl.duration;

    // Net nemesis: cut the interconnect symmetrically for the configured
    // window. The primary's lease lapses, writes bounce off the fence
    // (writers back off), and after the heal the heartbeat renews the lease
    // and traffic resumes — the post-run block then measures the full
    // promote + rejoin drill.
    std::vector<sim::SimEnv::Thread*> workers;
    if (partition_run) {
      sh.ride_out_write_errors = true;
      workers.push_back(env.Spawn("net-nemesis", [&] {
        env.SleepFor(static_cast<Nanos>(sut_cfg.net_partition_start_s * 1e9));
        sim::FaultRule cut;
        cut.probability = 1.0;
        injector.Arm("net.partition.sym", cut);
        env.SleepFor(static_cast<Nanos>(sut_cfg.net_partition_dur_s * 1e9));
        injector.Disarm("net.partition.sym");
      }));
    }

    // Writer t=0 keeps the historical seed (wl.seed + 1) so a
    // --writer_threads=1 run is bit-identical to the single-writer driver;
    // extra writers get well-separated streams clear of the reader seeds.
    auto writer_seed = [&wl](int t) {
      return t == 0 ? wl.seed + 1 : wl.seed + 1 + 7919ull * t;
    };
    auto spawn_writers = [&](std::vector<sim::SimEnv::Thread*>* out) {
      // At least one writer per tenant so every tenant's stream is live.
      int writers = std::max({1, wl.writer_threads, wl.tenants});
      for (int t = 0; t < writers; t++) {
        int tenant = wl.tenants > 1 ? t % wl.tenants : 0;
        out->push_back(env.Spawn(
            "writer" + std::to_string(t),
            [&, t, tenant] { WriterLoop(wl, &sh, writer_seed(t), tenant); }));
      }
    };

    switch (wl.type) {
      case WorkloadConfig::Type::kFillRandom:
        spawn_writers(&workers);
        break;
      case WorkloadConfig::Type::kReadWhileWriting:
        spawn_writers(&workers);
        for (int t = 0; t < wl.read_threads; t++) {
          workers.push_back(env.Spawn(
              "reader" + std::to_string(t),
              [&, t] { ReaderLoop(wl, &sh, wl.seed + 2 + t); }));
        }
        break;
      case WorkloadConfig::Type::kSeekRandom:
        sh.window_end = sh.window_start + FromSecs(100000);  // op-bounded
        workers.push_back(env.Spawn(
            "seeker", [&] { SeekLoop(wl, &sh, wl.seed + 1); }));
        break;
      case WorkloadConfig::Type::kMixed: {
        // Actors mirror the writer topology (>= 1 per tenant); the open-loop
        // rate splits evenly across tenants, then across a tenant's actors.
        const int actors = std::max({1, wl.writer_threads, wl.tenants});
        std::vector<int> per_tenant(
            static_cast<size_t>(std::max(1, wl.tenants)), 0);
        for (int t = 0; t < actors; t++) {
          per_tenant[static_cast<size_t>(wl.tenants > 1 ? t % wl.tenants
                                                        : 0)]++;
        }
        const double tenant_rate = wl.arrival_rate / std::max(1, wl.tenants);
        for (int t = 0; t < actors; t++) {
          const int tenant = wl.tenants > 1 ? t % wl.tenants : 0;
          const double rate =
              tenant_rate / per_tenant[static_cast<size_t>(tenant)];
          workers.push_back(env.Spawn(
              "mixed" + std::to_string(t), [&, t, tenant, rate] {
                MixedLoop(wl, &sh, writer_seed(t), tenant, rate);
              }));
        }
        break;
      }
    }
    for (auto* w : workers) env.Join(w);
    Nanos window_end = std::min(env.Now(), sh.window_end);
    if (wl.type == WorkloadConfig::Type::kSeekRandom) window_end = env.Now();

    // ---- Harvest ----
    const Nanos t0 = sh.window_start;
    const Nanos t1 = std::max(window_end, t0 + 1);
    result.seconds = ToSecs(t1 - t0);

    const lsm::DbStats& fg = sut->stats();
    const lsm::DbStats& ms = sut->main_stats();
    result.write_kops =
        static_cast<double>(sh.writes_done) / result.seconds / 1e3;
    result.read_kops =
        static_cast<double>(sh.reads_done) / result.seconds / 1e3;
    result.scan_kops =
        static_cast<double>(sh.scan_ops_done) / result.seconds / 1e3;
    result.write_mbps = static_cast<double>(sh.writes_done) *
                        (wl.value_size + wl.key_size + 8) / result.seconds /
                        1e6;
    result.put_avg_us = fg.put_latency.Average() / 1e3;
    result.put_p99_us = fg.put_latency.Percentile(99) / 1e3;
    result.put_p999_us = fg.put_latency.Percentile(99.9) / 1e3;
    result.get_p99_us = fg.get_latency.Percentile(99) / 1e3;
    result.cpu_pct = host_cpu.UtilizationBetween(t0, t1) * 100.0;
    if (result.cpu_pct > 0) {
      result.efficiency = result.write_mbps / result.cpu_pct;
    }
    result.stall_events = ms.stall_events;
    result.slowdown_events = ms.slowdown_events;
    result.write_groups = ms.write_groups;
    result.group_commit_mean = ms.group_commit_size.Average();
    result.group_commit_max = ms.group_commit_size.Max();
    result.slowdown_periods = ms.slowdown_regions.Count() +
                              (ms.slowdown_regions.open() ? 1 : 0);

    size_t first_sec = static_cast<size_t>(t0 / kNanosPerSec);
    size_t last_sec = static_cast<size_t>((t1 - 1) / kNanosPerSec);
    for (size_t sec = first_sec; sec <= last_sec; sec++) {
      result.per_sec_write_kops.push_back(fg.writes_completed.Bucket(sec) /
                                          1e3);
      result.per_sec_read_kops.push_back(fg.reads_completed.Bucket(sec) /
                                         1e3);
      result.per_sec_pcie_mbps.push_back(
          ssd.pcie().traffic().Bucket(sec) / 1e6);
    }

    // Stall regions and derived PCIe signals (Figs 4, 5, 14).
    sim::IntervalRecorder regions = ms.stall_regions;  // copy
    regions.CloseAt(t1);
    const double nand_bps = ssd.nand().total_bytes_per_sec();
    for (const auto& iv : regions.intervals()) {
      if (iv.end <= t0 || iv.start >= t1) continue;
      Nanos a = std::max(iv.start, t0);
      Nanos b = std::min(iv.end, t1);
      result.stall_regions_sec.emplace_back(ToSecs(a - t0), ToSecs(b - t0));
      result.stalled_seconds += ToSecs(b - a);
    }
    // Sample PCIe utilisation during stalls at fine granularity (125 ms
    // buckets — the scale-adjusted equivalent of the paper's 1 s Intel PCM
    // sampling; see DESIGN.md §3).
    const sim::TimeSeries& fine = ssd.pcie().traffic_fine();
    const Nanos fine_width = fine.bucket_width();
    const double fine_capacity =
        nand_bps * (static_cast<double>(fine_width) / kNanosPerSec);
    size_t first_fine = static_cast<size_t>(t0 / fine_width);
    size_t last_fine = static_cast<size_t>((t1 - 1) / fine_width);
    for (size_t b = first_fine; b <= last_fine; b++) {
      Nanos mid = static_cast<Nanos>(b) * fine_width + fine_width / 2;
      if (!regions.Contains(mid)) continue;
      double bytes = fine.Bucket(b);
      double util = std::min(1.0, bytes / fine_capacity);
      result.stall_pcie_util.push_back(util);
      if (util < 0.002) {
        result.zero_traffic_stall_seconds +=
            static_cast<double>(fine_width) / kNanosPerSec;
      }
    }

    result.compactions = ms.compaction_count;
    result.split_compactions = ms.split_compactions;
    result.subcompactions = ms.subcompaction_count;
    result.intra_l0_compactions = ms.intra_l0_compactions;
    result.compaction_throttle_seconds =
        static_cast<double>(ms.compaction_throttle_ns) / kNanosPerSec;

    result.fault_injected = injector.total_fires();
    result.io_retries = ms.io_retries;
    result.background_errors = ms.background_errors;

    // Device-offloaded compaction (DESIGN.md §13).
    if (ndp_dev != nullptr) {
      NdpRunStats& n = result.ndp.emplace();
      n.mode = sut_cfg.ndp_mode;
      n.device = ndp_dev->stats();
      n.planner = SumPlannerStats(sut.get());
      n.cpu_busy_seconds = ndp_dev->cpu()->busy_seconds();
      n.compactions = ms.ndp_compactions;
      n.bytes_written = ms.ndp_bytes_written;
      n.fallbacks = ms.ndp_fallbacks;
    }
    if (sut->is_kvaccel()) result.kv = sut->kvaccel_stats();

    // Per-shard breakdown + fairness headline (DESIGN.md §11).
    if (sut->sharded() != nullptr) {
      core::ShardedKvaccelDB* shd = sut->sharded();
      uint64_t min_writes = 0, max_writes = 0;
      for (int i = 0; i < shd->num_shards(); i++) {
        core::KvaccelDB* kv = shd->shard(i);
        const lsm::DbStats& sfg = kv->stats();
        ShardSummary ss;
        ss.shard = i;
        ss.writes = sfg.writes_total;
        ss.write_kops =
            static_cast<double>(sfg.writes_total) / result.seconds / 1e3;
        ss.put_p50_us = sfg.put_latency.Percentile(50) / 1e3;
        ss.put_p99_us = sfg.put_latency.Percentile(99) / 1e3;
        ss.kv = kv->kv_stats();
        sim::IntervalRecorder sr = kv->main()->stats().stall_regions;
        sr.CloseAt(t1);
        for (const auto& iv : sr.intervals()) {
          if (iv.end <= t0 || iv.start >= t1) continue;
          ss.stalled_seconds +=
              ToSecs(std::min(iv.end, t1) - std::max(iv.start, t0));
        }
        if (shd->arbiter() != nullptr) {
          ss.arbiter = shd->arbiter()->client_stats(i);
        }
        if (i == 0 || ss.writes < min_writes) min_writes = ss.writes;
        if (i == 0 || ss.writes > max_writes) max_writes = ss.writes;
        result.shards.push_back(ss);
      }
      if (min_writes > 0) {
        result.shard_fairness_ratio = static_cast<double>(max_writes) /
                                      static_cast<double>(min_writes);
      }
    }

    // Per-tenant breakdown (multi-tenant runs; the mixed matrix always
    // reports its tenants, even with one).
    const bool mixed = wl.type == WorkloadConfig::Type::kMixed;
    if (mixed || wl.tenants > 1) {
      for (int t = 0; t < std::max(1, wl.tenants); t++) {
        const TenantState& st = sh.tenants[static_cast<size_t>(t)];
        TenantSummary ts;
        ts.tenant = t;
        ts.ops = st.ops;
        ts.put_p50_us = st.service.Percentile(50) / 1e3;
        ts.put_p99_us = st.service.Percentile(99) / 1e3;
        ts.put_p999_us = st.service.Percentile(99.9) / 1e3;
        ts.puts = st.puts;
        ts.gets = st.gets;
        ts.deletes = st.deletes;
        ts.scans = st.scans;
        ts.ttl_deletes = st.ttl_deletes;
        ts.scheduled_ops = st.scheduled;
        ts.deadline_misses = st.deadline_misses;
        ts.abandoned_ops = st.abandoned;
        ts.arrival_p50_us = st.arrival.Percentile(50) / 1e3;
        ts.arrival_p99_us = st.arrival.Percentile(99) / 1e3;
        ts.arrival_p999_us = st.arrival.Percentile(99.9) / 1e3;
        result.tenants.push_back(ts);
      }
    }
    // Mixed matrix rollup (the report's open_loop block).
    if (mixed) {
      result.mixed_run = 1;
      result.arrival = wl.arrival;
      Histogram all_service, all_arrival;
      for (const TenantState& st : sh.tenants) {
        all_service.Merge(st.service);
        all_arrival.Merge(st.arrival);
        result.scheduled_ops += st.scheduled;
        result.completed_ops += st.ops;
        result.abandoned_ops += st.abandoned;
        result.deadline_misses += st.deadline_misses;
        result.ttl_deletes += st.ttl_deletes;
        result.mixed_puts += st.puts;
        result.mixed_gets += st.gets;
        result.mixed_deletes += st.deletes;
        result.mixed_scans += st.scans;
      }
      result.service_p50_us = all_service.Percentile(50) / 1e3;
      result.service_p99_us = all_service.Percentile(99) / 1e3;
      result.service_p999_us = all_service.Percentile(99.9) / 1e3;
      result.arrival_p50_us = all_arrival.Percentile(50) / 1e3;
      result.arrival_p99_us = all_arrival.Percentile(99) / 1e3;
      result.arrival_p999_us = all_arrival.Percentile(99.9) / 1e3;
    }

    result.cache = sut->cache_stats();
    // Snapshot while the world is still open — the registry sources read
    // live component state.
    result.metrics = registry.Snapshot();
    sut->Close();

    // HA pair: harvest the replication counters (authoritative after Close —
    // async mode records its lost tail there), then measure an actual
    // failover: the primary node is "lost", both file systems drop unsynced
    // pages, and the backup is checked, repaired and promoted.
    if (sut->pair() != nullptr) {
      HaRunStats& ha_run = result.ha.emplace();
      ha_run.repl_ack_async = sut_cfg.repl_ack_async;
      ha_run.resync_mode = sut_cfg.resync_mode;
      ha_run.net_partition = partition_run;
      ha_run.repl = sut->pair()->repl_stats();
      // Divergence frontier and epoch for the partition drill below, read
      // before the node images change hands.
      const uint64_t frontier = sut->pair()->applied_seq();
      const uint64_t next_epoch = sut->pair()->epoch() + 1;

      // Crash failover drops both nodes' unsynced pages (the measurement is
      // "promote after losing the primary"). A partition drill crashes
      // nobody — both nodes survive the split with their caches intact, so
      // the rejoin below measures the true divergence delta, not a
      // full bootstrap.
      if (!partition_run) {
        if (fs != nullptr) fs->DropAllDirty();
        fs_b->DropAllDirty();
      }
      check::FailoverReport& frep = ha_run.failover;
      std::unique_ptr<core::KvaccelDB> promoted;
      // A partition drill promotes under a bumped durable epoch so the
      // deposed primary is fenced out; the plain failover measurement keeps
      // its historical timing (no FENCE write).
      Status fo = check::PromoteNode(SystemUnderTest::BuildDbOptions(sut_cfg),
                                     SystemUnderTest::BuildKvOptions(sut_cfg),
                                     sut_cfg.ha_backup, &env, &frep, &promoted,
                                     partition_run ? next_epoch : 0);
      if (!fo.ok()) {
        fprintf(stderr, "ha failover: %s\n", fo.ToString().c_str());
        if (frep.checker_errors == 0) frep.checker_errors = 1;
      } else {
        // Partition drill, second half: reconcile the deposed primary
        // against the promoted node and report the resync economics.
        if (partition_run) {
          check::RejoinOptions rj;
          rj.mode = sut_cfg.resync_mode != 0 ? check::ResyncMode::kDelta
                                             : check::ResyncMode::kWalReplay;
          rj.frontier = frontier;
          rj.new_epoch = next_epoch;
          check::RejoinReport& rrep = ha_run.rejoin.emplace();
          Status rj_s = check::RejoinNode(
              SystemUnderTest::BuildDbOptions(sut_cfg),
              SystemUnderTest::BuildKvOptions(sut_cfg), sut_cfg.ha_primary,
              promoted.get(), rj, &env, &rrep);
          if (!rj_s.ok()) {
            fprintf(stderr, "ha rejoin: %s\n", rj_s.ToString().c_str());
            if (rrep.checker_errors == 0) rrep.checker_errors = 1;
          }
        }
        (void)promoted->Close();
      }
    }
    // Sharded: the per-shard file systems die with the SUT, so the offline
    // image (one subdirectory per shard) must be exported before it goes.
    if (sut->sharded() != nullptr && !config.db_dump_dir.empty()) {
      core::ShardedKvaccelDB* shd = sut->sharded();
      for (int i = 0; i < shd->num_shards(); i++) {
        Status ds = shd->shard_fs(i)->DumpToHostDir(
            config.db_dump_dir + "/shard" + std::to_string(i));
        if (!ds.ok()) {
          fprintf(stderr, "db dump: %s\n", ds.ToString().c_str());
        }
      }
    }
  });

  env.Run();
  if (tracer != nullptr) {
    std::string trace_error;
    if (!tracer->WriteChromeTrace(config.trace_out, &trace_error)) {
      fprintf(stderr, "trace: %s\n", trace_error.c_str());
    }
  }
  // Export the final on-"disk" image (everything is synced after Close) so
  // kvaccel_check can verify the run's end state offline. Sharded runs
  // exported per shard inside the simulation (no world-level fs exists).
  if (!config.db_dump_dir.empty() && fs != nullptr) {
    Status ds = fs->DumpToHostDir(config.db_dump_dir);
    if (!ds.ok()) {
      fprintf(stderr, "db dump: %s\n", ds.ToString().c_str());
    }
  }
  return result;
}

}  // namespace kvaccel::harness
