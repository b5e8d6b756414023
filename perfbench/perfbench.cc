// kvaccel_perfbench: one repetition of one benchmark workload.
//
// Builds a fresh simulated world, opens KVACCEL through the harness facade
// (harness::SystemUnderTest), writes every key of a bounded key space once,
// lets the workload run for a settle period, then measures a fixed window of
// virtual time. It prints one JSON report on stdout with four parts:
//
//   modelled  raw counts and virtual-time latencies of the ops the benchmark
//             sent in the window; exact for a given seed
//   counters  per-layer counter deltas over the window, read through the
//             stores' public stats accessors
//   real      wall-clock and getrusage costs of this process
//   gates     correctness checks
//
// perfbench/run.py derives the published metrics from these reports, so
// this program reports raw quantities only.
//
//   kvaccel_perfbench --workload=ingest|read-write|ha-sync|mixed-open
//                     --seed=N --window_s=F [--trace] [--cpu=N]
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/db_checker.h"
#include "check/failover.h"
#include "common/random.h"
#include "devlsm/dev_lsm.h"
#include "fs/simfs.h"
#include "harness/presets.h"
#include "harness/sut.h"
#include "harness/workload.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "sim/cpu_pool.h"
#include "sim/sim_env.h"
#include "ssd/hybrid_ssd.h"

namespace kvaccel::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kLaunch = Clock::now();

// Scale 0.0625 of the paper's sizes: 8 MiB memtables, a 16 MiB L1, a 4 MiB
// block cache and a 12 GiB block region. The bounded key space (2^16 keys
// of 4 KB, 256 MiB live, 64x the block cache) lets overwrites give
// compaction a steady shape and can never fill the device, however fast a
// later version of the store runs.
constexpr double kScale = 0.0625;
constexpr uint64_t kKeys = 1ull << 16;
constexpr size_t kKeySize = 4;
constexpr uint32_t kValueSize = 4096;
constexpr int kPreloadBatch = 64;
constexpr uint64_t kReadbackKeys = 2000;
// mixed-open: the `balanced` mix over Zipfian keys at a fixed arrival rate
// the store completes without abandoning arrivals.
constexpr double kMixedRate = 2000;
constexpr double kZipfTheta = 0.99;
constexpr int kScanLen = 64;
constexpr double kDeadlineUs = 1000;
constexpr Nanos kDrain = 10 * kNanosPerSec;

enum class Kind { kIngest, kReadWrite, kHaSync, kMixedOpen };

struct Workload {
  const char* name;
  Kind kind;
  int writers;      // write actors (mixed-open: mixed-op actors)
  int batch;        // entries per Write call
  int readers;      // read-only actors
  double settle_s;  // virtual seconds between preload and the window
};

const Workload kWorkloads[] = {
    {"ingest", Kind::kIngest, 4, 4, 0, 20},
    {"read-write", Kind::kReadWrite, 1, 1, 2, 10},
    {"ha-sync", Kind::kHaSync, 4, 4, 0, 10},
    {"mixed-open", Kind::kMixedOpen, 4, 1, 0, 5},
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double window_s = 10;
  bool trace = false;
  int cpu = -1;  // >= 0: run every thread on this CPU
};

// Independent RNG streams per (seed, role, actor).
uint64_t StreamSeed(uint64_t seed, uint64_t role, uint64_t actor) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ull + role * 0xbf58476d1ce4e5b9ull +
               actor * 0x94d049bb133111ebull + 1;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t Scramble(uint64_t x) { return StreamSeed(x, 0, 0); }

// A value names its key and version: seed = key << 32 | version.
uint64_t ValueSeed(uint64_t key, uint32_t version) {
  return (key << 32) | version;
}

uint64_t DecodeKey(const Slice& s) {
  uint64_t v = 0;
  for (size_t i = 0; i < s.size(); i++) {
    v = (v << 8) | static_cast<uint8_t>(s.data()[i]);
  }
  return v;
}

// Ground truth per key. Each key has one owning actor, the only one that
// writes it, so the owner's last acknowledged version is the key's state.
struct KeyTruth {
  static constexpr uint8_t kDeleted = 1;
  static constexpr uint8_t kUnknown = 2;  // a write failed: state ambiguous
  static constexpr uint8_t kEverDeleted = 4;
  std::vector<uint32_t> acked;    // last acknowledged version
  std::vector<uint32_t> started;  // last version handed to the store
  std::vector<uint8_t> flags;
};

enum SpanKind {
  kSpanWrite,
  kSpanGet,
  kSpanNewIterator,
  kSpanSeek,
  kSpanNext,
  kSpanReadback,
  kSpanChecker,
  kSpanPromote,
  kNumSpans
};
const char* const kSpanNames[kNumSpans] = {
    "write", "get", "new_iterator", "seek", "next", "readback_get",
    "checker", "promote"};

// Benchmark-side span totals around each call into the store.
struct Span {
  uint64_t count = 0;
  uint64_t virt_ns = 0;
  uint64_t wall_ns = 0;
};

struct Rusage {
  double user_s = 0;
  double sys_s = 0;
  uint64_t switches = 0;
};

Rusage ReadRusage() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  Rusage r;
  r.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
  r.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  r.switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return r;
}

// Peak resident set of this process image. Not ru_maxrss: that survives
// execve, so it would include the memory of whatever process forked us.
uint64_t PeakRssKb() {
  FILE* f = fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kb = 0;
  while (fgets(line, sizeof(line), f) != nullptr) {
    if (sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  fclose(f);
  return kb;
}

double WallSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

using Counters = std::map<std::string, double>;

// The simulated world: one node, or two for the HA pair.
struct World {
  sim::SimEnv env;
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<ssd::HybridSsd> ssd, ssd_b;
  std::unique_ptr<fs::SimFs> fs, fs_b;
  std::unique_ptr<sim::CpuPool> cpu, cpu_b;
  std::unique_ptr<devlsm::DevLsm> dev_a, dev_b;
  harness::SutConfig cfg;
};

class Bench {
 public:
  explicit Bench(const Args& args) : args_(args), wl_(*args.workload) {
    truth_.acked.assign(kKeys, 0);
    truth_.started.assign(kKeys, 0);
    truth_.flags.assign(kKeys, 0);
  }

  int Run();

 private:
  void BuildWorld();
  void Main();
  Status Preload();
  void WriterLoop(int actor, int actors);
  void ReaderLoop(int reader);
  void MixedLoop(int actor, int actors);
  void Scan(int actor, int actors, uint64_t start_key, bool counted);
  void Readback(const std::function<Status(const Slice&, Value*)>& get,
                const core::KvaccelStats* single);
  Counters Snapshot();
  void WindowClock();
  void HarvestWindow();
  void PostWindow();
  void ParseTrace();
  void Print();

  bool Counted(Nanos sent) const { return sent >= t0_ && sent < t1_; }
  uint64_t OwnedKey(int actor, int actors, uint64_t slot) const {
    return static_cast<uint64_t>(actor) +
           static_cast<uint64_t>(actors) * slot;
  }
  void NoteFailure(bool counted, uint64_t ops, const Status& s);
  void Wrong(const std::string& what);
  // Checks a value read for `key`: it must name the key and a version the
  // store was given. A version older than `lo`, the one acknowledged when
  // the read was sent, is stale: counted, not failed, because the store
  // at this commit serves such reads (see perfbench/catalogue.json).
  void CheckValue(uint64_t key, const Value& v, uint32_t lo, bool counted);
  void Stale(bool counted);

  template <typename F>
  auto Timed(SpanKind kind, bool counted, Nanos* virt, F&& f) {
    const Nanos v0 = world_.env.Now();
    const Clock::time_point w0 = Clock::now();
    auto r = f();
    const Nanos dv = world_.env.Now() - v0;
    if (virt != nullptr) *virt = dv;
    if (counted) {
      Span& s = spans_[kind];
      s.count++;
      s.virt_ns += static_cast<uint64_t>(dv);
      s.wall_ns += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               w0)
              .count());
    }
    return r;
  }

  const Args& args_;
  const Workload& wl_;
  World world_;
  std::unique_ptr<harness::SystemUnderTest> sut_;
  KeyTruth truth_;

  Nanos actors_start_ = 0;
  Nanos t0_ = 0;
  Nanos t1_ = 0;

  // Modelled accounting of ops sent (open loop: scheduled) in the window.
  // Virtual-time latencies: per write call and Get from submission, every op
  // from submission (svc), and open loop only, from the scheduled arrival and the
  // wait before submission.
  std::vector<uint64_t> put_ns_, get_ns_, svc_ns_, arrival_ns_, queue_ns_;
  uint64_t write_calls_ = 0;
  uint64_t write_entries_ = 0;
  uint64_t deletes_ = 0;
  uint64_t gets_ = 0;
  uint64_t scans_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t scheduled_ = 0;
  uint64_t completed_ = 0;
  uint64_t abandoned_ = 0;
  uint64_t deadline_misses_ = 0;
  double host_cpu_util_ = 0;
  double stall_s_ = 0;
  double zero_traffic_stall_s_ = 0;
  Span spans_[kNumSpans];

  // Gates.
  uint64_t setup_failures_ = 0;
  uint64_t wrong_values_ = 0;
  uint64_t stale_reads_ = 0;  // in-window reads older than the last ack
  uint64_t stale_readbacks_ = 0;  // the same, after the store went quiet
  uint64_t stale_readbacks_dev_ = 0;  // ... of which served by the Dev-LSM
  std::string first_failure_;
  std::string first_wrong_;
  std::string open_error_;
  std::string background_error_;
  uint64_t readback_checked_ = 0;
  int checker_errors_ = -1;  // -1: the check did not run
  uint64_t lost_entries_ = 0;
  uint64_t promote_ns_ = 0;
  uint64_t promote_drained_ = 0;

  Counters c0_, c1_;
  Counters gauges_;  // state at t1
  double setup_wall_s_ = 0;
  double window_wall_s_ = 0;
  Clock::time_point w0_;
  Rusage r0_, r1_;

  // Traced repetition: span time per event name, clipped to the window.
  std::map<std::string, double> trace_s_;
  std::map<std::string, uint64_t> trace_count_;
  uint64_t trace_parsed_ = 0;
  std::vector<uint64_t> put_compound_ns_;  // in-window command durations
};

void Bench::NoteFailure(bool counted, uint64_t ops, const Status& s) {
  if (counted) {
    failed_ += ops;
  } else {
    setup_failures_ += ops;
  }
  if (first_failure_.empty()) first_failure_ = s.ToString();
}

void Bench::Wrong(const std::string& what) {
  wrong_values_++;
  if (first_wrong_.empty()) first_wrong_ = what;
}

void Bench::CheckValue(uint64_t key, const Value& v, uint32_t lo,
                       bool counted) {
  if (truth_.flags[key] & KeyTruth::kUnknown) return;
  const uint64_t seed = v.seed();
  const uint32_t ver = static_cast<uint32_t>(seed & 0xffffffffu);
  if ((seed >> 32) != key || ver == 0 || ver > truth_.started[key] ||
      v.logical_size() != kValueSize) {
    Wrong("key " + std::to_string(key) + " read version " +
          std::to_string(ver) + " of key " + std::to_string(seed >> 32) +
          ", store was given 1.." + std::to_string(truth_.started[key]));
  } else if (ver < lo) {
    Stale(counted);
  }
}

void Bench::Stale(bool counted) {
  if (counted) stale_reads_++;
}

void Bench::BuildWorld() {
  if (args_.trace) {
    // Attached before any component is built: the SSD registers its busy
    // tracks in its constructor. Sized so setup plus window never drop.
    world_.tracer = std::make_unique<obs::Tracer>(&world_.env, 1u << 23);
    world_.env.set_tracer(world_.tracer.get());
  }
  const ssd::SsdConfig sc = harness::PaperSsdConfig(kScale);
  world_.ssd = std::make_unique<ssd::HybridSsd>(&world_.env, sc);
  world_.fs = std::make_unique<fs::SimFs>(world_.ssd.get(), 0);
  world_.cpu = std::make_unique<sim::CpuPool>(&world_.env, "host", 8);

  harness::SutConfig& cfg = world_.cfg;
  cfg.kind = harness::SystemKind::kKvaccel;
  cfg.scale = kScale;
  if (wl_.kind == Kind::kHaSync) {
    cfg.ha = true;
    cfg.repl_ack_async = false;
    world_.ssd_b = std::make_unique<ssd::HybridSsd>(&world_.env, sc);
    world_.fs_b = std::make_unique<fs::SimFs>(world_.ssd_b.get(), 0);
    world_.cpu_b = std::make_unique<sim::CpuPool>(&world_.env, "host-b", 8);
    const devlsm::DevLsmOptions dev_opts =
        harness::SystemUnderTest::BuildKvOptions(cfg).dev;
    world_.dev_a =
        std::make_unique<devlsm::DevLsm>(world_.ssd.get(), 0, dev_opts);
    world_.dev_b =
        std::make_unique<devlsm::DevLsm>(world_.ssd_b.get(), 0, dev_opts);
    cfg.ha_primary = {world_.ssd.get(), world_.fs.get(), world_.cpu.get(),
                      world_.dev_a.get()};
    cfg.ha_backup = {world_.ssd_b.get(), world_.fs_b.get(),
                     world_.cpu_b.get(), world_.dev_b.get()};
  }
}

int Bench::Run() {
  BuildWorld();
  world_.env.Spawn("perfbench-main", [this] { Main(); });
  world_.env.Run();
  if (!open_error_.empty()) {
    fprintf(stderr, "perfbench: %s\n", open_error_.c_str());
    return 1;
  }
  if (world_.tracer != nullptr) ParseTrace();
  Print();
  return 0;
}

// Writes every key once, in key order, so reads always find their key and
// the window starts from a full tree.
Status Bench::Preload() {
  lsm::WriteBatch batch;
  for (uint64_t k = 0; k < kKeys;) {
    batch.Clear();
    const uint64_t end = std::min<uint64_t>(kKeys, k + kPreloadBatch);
    for (uint64_t i = k; i < end; i++) {
      truth_.started[i] = 1;
      batch.Put(harness::MakeKey(i, kKeySize),
                Value::Synthetic(ValueSeed(i, 1), kValueSize));
    }
    Status s = sut_->Write(&batch);
    if (!s.ok()) return s;
    for (uint64_t i = k; i < end; i++) truth_.acked[i] = 1;
    k = end;
  }
  Status s = sut_->FlushAll();
  if (s.ok()) s = sut_->WaitForCompactionIdle();
  if (!s.ok()) return s;
  // Drain whatever stalls redirected to the device, so the settle period
  // starts with an empty Dev-LSM. Busy: a background rollback is running.
  while (true) {
    s = sut_->pair() != nullptr ? sut_->pair()->RollbackNow()
                                : sut_->kvaccel()->RollbackNow();
    if (!s.IsBusy()) return s;
    world_.env.SleepFor(FromMillis(100));
  }
}

void Bench::WriterLoop(int actor, int actors) {
  Random64 rng(StreamSeed(args_.seed, 1, static_cast<uint64_t>(actor)));
  const uint64_t per = kKeys / static_cast<uint64_t>(actors);
  lsm::WriteBatch batch;
  std::vector<uint64_t> drawn;
  sim::SimEnv& env = world_.env;
  while (env.Now() < t1_) {
    batch.Clear();
    drawn.clear();
    for (int i = 0; i < wl_.batch; i++) {
      const uint64_t k = OwnedKey(actor, actors, rng.Uniform(per));
      const uint32_t ver = ++truth_.started[k];
      batch.Put(harness::MakeKey(k, kKeySize),
                Value::Synthetic(ValueSeed(k, ver), kValueSize));
      drawn.push_back(k);
    }
    const Nanos sent = env.Now();
    const bool counted = Counted(sent);
    Nanos lat = 0;
    Status s = Timed(kSpanWrite, counted, &lat,
                     [&] { return sut_->Write(&batch); });
    for (uint64_t k : drawn) {
      if (s.ok()) {
        truth_.acked[k] = truth_.started[k];
        truth_.flags[k] = 0;
      } else {
        truth_.flags[k] |= KeyTruth::kUnknown;
      }
    }
    if (!s.ok()) NoteFailure(counted, drawn.size(), s);
    if (!counted) continue;
    attempted_ += drawn.size();
    write_calls_++;
    write_entries_ += drawn.size();
    put_ns_.push_back(static_cast<uint64_t>(lat));
    svc_ns_.push_back(static_cast<uint64_t>(lat));
  }
}

// read-write readers: uniform Gets over the key space. Every key was
// written by the preload, so every Get must find it.
void Bench::ReaderLoop(int reader) {
  Random64 rng(StreamSeed(args_.seed, 2, static_cast<uint64_t>(reader)));
  sim::SimEnv& env = world_.env;
  while (env.Now() < t1_) {
    const uint64_t k = rng.Uniform(kKeys);
    const uint32_t lo = truth_.acked[k];
    const Nanos sent = env.Now();
    const bool counted = Counted(sent);
    Value v;
    Nanos lat = 0;
    Status s = Timed(kSpanGet, counted, &lat, [&] {
      return sut_->Get(harness::MakeKey(k, kKeySize), &v);
    });
    if (s.ok()) {
      CheckValue(k, v, lo, counted);
    } else if (s.IsNotFound()) {
      Wrong("get of preloaded key " + std::to_string(k) + " found nothing");
    } else {
      NoteFailure(counted, 1, s);
    }
    if (!counted) continue;
    attempted_++;
    gets_++;
    get_ns_.push_back(static_cast<uint64_t>(lat));
    svc_ns_.push_back(static_cast<uint64_t>(lat));
  }
}

void Bench::Scan(int actor, int actors, uint64_t start_key, bool counted) {
  lsm::ReadOptions ropts;
  ropts.readahead_blocks = 16;
  std::unique_ptr<lsm::Iterator> it = Timed(
      kSpanNewIterator, counted, nullptr,
      [&] { return sut_->NewIterator(ropts); });
  Timed(kSpanSeek, counted, nullptr, [&] {
    it->Seek(harness::MakeKey(start_key, kKeySize));
    return 0;
  });
  std::vector<uint64_t> seen;
  for (int n = 0; n < kScanLen && it->Valid(); n++) {
    const uint64_t k = DecodeKey(it->key());
    if (!seen.empty() && k <= seen.back()) {
      Wrong("scan out of order at key " + std::to_string(k));
    }
    seen.push_back(k);
    if (k >= kKeys) {
      Wrong("scan returned unknown key " + std::to_string(k));
      break;
    }
    const Value v = Value::DecodeOrDie(it->value());
    const bool own = k % static_cast<uint64_t>(actors) ==
                     static_cast<uint64_t>(actor);
    if (own && (truth_.flags[k] & KeyTruth::kDeleted)) {
      // A version from before this actor's acknowledged delete.
      CheckValue(k, v, 0, counted);
      if (!(truth_.flags[k] & KeyTruth::kUnknown)) Stale(counted);
    } else {
      // This actor owns `k` and is not writing it, so its version is exact.
      CheckValue(k, v, own ? truth_.acked[k] : 0, counted);
    }
    Timed(kSpanNext, counted, nullptr, [&] {
      it->Next();
      return 0;
    });
  }
  if (!it->status().ok()) NoteFailure(counted, 1, it->status());
  // Completeness: every live key this actor owns inside the scanned range
  // must have been returned.
  if (!seen.empty()) {
    for (uint64_t k = start_key; k <= seen.back(); k++) {
      if (k % static_cast<uint64_t>(actors) != static_cast<uint64_t>(actor) ||
          (truth_.flags[k] & (KeyTruth::kDeleted | KeyTruth::kUnknown))) {
        continue;
      }
      if (std::binary_search(seen.begin(), seen.end(), k)) continue;
      // Hidden by an older delete of the key: stale. Never deleted: lost.
      if (truth_.flags[k] & KeyTruth::kEverDeleted) {
        Stale(counted);
      } else {
        Wrong("scan skipped live key " + std::to_string(k));
      }
    }
  }
}

// mixed-open actors: a Poisson arrival stream drawn ahead of time, so a
// stall delays later arrivals instead of thinning them. Latency is measured
// from the scheduled arrival. Arrivals scheduled in the window are served
// even after it closes; one still queued kDrain after the window is
// abandoned, which only an overloaded store does.
void Bench::MixedLoop(int actor, int actors) {
  Random64 rng(StreamSeed(args_.seed, 3, static_cast<uint64_t>(actor)));
  Random64 arrivals(StreamSeed(args_.seed, 4, static_cast<uint64_t>(actor)));
  const uint64_t per = kKeys / static_cast<uint64_t>(actors);
  ZipfianGenerator zipf(per, kZipfTheta,
                        StreamSeed(args_.seed, 5, static_cast<uint64_t>(actor)));
  const harness::OpMix mix{50, 40, 5, 5, kScanLen};  // `balanced`
  const double rate = kMixedRate / actors;
  const Nanos deadline = FromMicros(kDeadlineUs);
  sim::SimEnv& env = world_.env;
  Nanos next = actors_start_;
  while (true) {
    next += std::max<Nanos>(
        1, FromSecs(-std::log1p(-arrivals.NextDouble()) / rate));
    if (next >= t1_) break;
    const bool counted = next >= t0_;
    if (counted) scheduled_++;
    if (env.Now() >= t1_ + kDrain) {
      if (counted) {
        abandoned_++;
        deadline_misses_++;
      }
      continue;
    }
    if (env.Now() < next) env.SleepUntil(next);
    const Nanos sent = env.Now();
    // Hot ranks are scattered over the actor's keys, not packed together.
    const uint64_t k =
        OwnedKey(actor, actors, Scramble(zipf.Next()) % per);
    const std::string key = harness::MakeKey(k, kKeySize);
    const double pick = rng.NextDouble() * 100.0;
    Nanos lat = 0;
    if (pick < mix.put_pct + mix.delete_pct) {
      const bool del = pick >= mix.put_pct;
      const uint32_t ver = ++truth_.started[k];
      Status s = Timed(kSpanWrite, counted, &lat, [&] {
        return del ? sut_->Delete(key)
                   : sut_->Put(key, Value::Synthetic(ValueSeed(k, ver),
                                                     kValueSize));
      });
      if (s.ok()) {
        truth_.acked[k] = ver;
        truth_.flags[k] = del ? KeyTruth::kDeleted | KeyTruth::kEverDeleted
                              : truth_.flags[k] & KeyTruth::kEverDeleted;
      } else {
        truth_.flags[k] |= KeyTruth::kUnknown;
        NoteFailure(counted, 1, s);
      }
      if (counted) {
        write_calls_++;
        write_entries_++;
        if (del) deletes_++;
        put_ns_.push_back(static_cast<uint64_t>(lat));
      }
    } else if (pick < mix.put_pct + mix.delete_pct + mix.get_pct) {
      Value v;
      Status s = Timed(kSpanGet, counted, &lat,
                       [&] { return sut_->Get(key, &v); });
      const uint8_t f = truth_.flags[k];
      if (!s.ok() && !s.IsNotFound()) {
        NoteFailure(counted, 1, s);
      } else if (f & KeyTruth::kUnknown) {
        // Ambiguous after a failed write; nothing to check.
      } else if (s.ok()) {
        // After an acknowledged delete, any earlier version is stale.
        CheckValue(k, v, (f & KeyTruth::kDeleted) ? 0 : truth_.acked[k],
                   counted);
        if (f & KeyTruth::kDeleted) Stale(counted);
      } else if (!(f & KeyTruth::kDeleted)) {
        if (f & KeyTruth::kEverDeleted) {
          Stale(counted);
        } else {
          Wrong("get of live key " + std::to_string(k) + " found nothing");
        }
      }
      if (counted) {
        gets_++;
        get_ns_.push_back(static_cast<uint64_t>(lat));
      }
    } else {
      Scan(actor, actors, k, counted);
      if (counted) scans_++;
    }
    if (!counted) continue;
    attempted_++;
    completed_++;
    const Nanos done = env.Now();
    arrival_ns_.push_back(static_cast<uint64_t>(done - next));
    svc_ns_.push_back(static_cast<uint64_t>(done - sent));
    queue_ns_.push_back(static_cast<uint64_t>(sent - next));
    if (done - next > deadline) deadline_misses_++;
  }
}

// Reads a sample of keys back after the window. A version older than the
// last acknowledged one is a lost write (run.py fails the run), unless the
// node is a single KvaccelDB, whose stats are `single`, and the Get went
// through its Dev-LSM path: the store at this commit serves such stale reads
// (see perfbench/catalogue.json), so they are counted apart.
void Bench::Readback(const std::function<Status(const Slice&, Value*)>& get,
                     const core::KvaccelStats* single) {
  Random64 rng(StreamSeed(args_.seed, 6, 0));
  for (uint64_t i = 0; i < kReadbackKeys; i++) {
    const uint64_t k = rng.Uniform(kKeys);
    if (truth_.flags[k] & KeyTruth::kUnknown) continue;
    Value v;
    const uint64_t dev_reads = single != nullptr ? single->dev_reads : 0;
    Status s = Timed(kSpanReadback, true, nullptr, [&] {
      return get(harness::MakeKey(k, kKeySize), &v);
    });
    const bool via_dev = single != nullptr && single->dev_reads != dev_reads;
    auto stale = [&] {
      stale_readbacks_++;
      if (via_dev) stale_readbacks_dev_++;
    };
    readback_checked_++;
    const uint8_t f = truth_.flags[k];
    const uint32_t ver = static_cast<uint32_t>(v.seed() & 0xffffffffu);
    if (!s.ok() && !s.IsNotFound()) {
      Wrong("readback: key " + std::to_string(k) + ": " + s.ToString());
    } else if (s.IsNotFound()) {
      // Deleted: correct. Live but deleted once: an older state. Live and
      // never deleted: an acknowledged write is lost.
      if (f & KeyTruth::kDeleted) continue;
      if (f & KeyTruth::kEverDeleted) {
        stale();
      } else {
        Wrong("readback: acknowledged key " + std::to_string(k) + " is gone");
      }
    } else if ((v.seed() >> 32) != k || ver == 0 ||
               ver > truth_.started[k]) {
      Wrong("readback: key " + std::to_string(k) + " holds version " +
            std::to_string(ver) + " of key " + std::to_string(v.seed() >> 32));
    } else if ((f & KeyTruth::kDeleted) || ver != truth_.acked[k]) {
      stale();
    }
  }
}

// Cumulative per-layer counters; the window reports t1 - t0.
Counters Bench::Snapshot() {
  Counters c;
  const lsm::DbStats& ms = sut_->main_stats();
  c["lsm.writes_total"] = static_cast<double>(ms.writes_total);
  c["lsm.write_bytes_total"] = static_cast<double>(ms.write_bytes_total);
  c["lsm.reads_total"] = static_cast<double>(ms.reads_total);
  c["lsm.flush.count"] = static_cast<double>(ms.flush_count);
  c["lsm.flush.bytes"] = static_cast<double>(ms.flush_bytes);
  c["lsm.compaction.count"] = static_cast<double>(ms.compaction_count);
  c["lsm.compaction.bytes_read"] =
      static_cast<double>(ms.compaction_bytes_read);
  c["lsm.compaction.bytes_written"] =
      static_cast<double>(ms.compaction_bytes_written);
  c["lsm.compaction.throttle_ns"] =
      static_cast<double>(ms.compaction_throttle_ns);
  c["lsm.stall.events"] = static_cast<double>(ms.stall_events);
  c["lsm.slowdown.events"] = static_cast<double>(ms.slowdown_events);
  c["lsm.write_groups"] = static_cast<double>(ms.write_groups);
  c["lsm.group_commit.entries"] =
      ms.group_commit_size.Average() *
      static_cast<double>(ms.group_commit_size.Count());
  c["lsm.io_retries"] = static_cast<double>(ms.io_retries);
  c["lsm.background_errors"] = static_cast<double>(ms.background_errors);
  const lsm::BlockCacheStats cache = sut_->cache_stats();
  c["lsm.block_cache.hits"] = static_cast<double>(cache.hits);
  c["lsm.block_cache.misses"] = static_cast<double>(cache.misses);

  const core::KvaccelStats ks = sut_->kvaccel_stats();
  c["core.detector_checks"] = static_cast<double>(ks.detector_checks);
  c["core.redirected_writes"] = static_cast<double>(ks.redirected_writes);
  c["core.direct_writes"] = static_cast<double>(ks.direct_writes);
  c["core.redirected_batches"] = static_cast<double>(ks.redirected_batches);
  c["core.redirect_batch_ns"] =
      ks.redirect_batch_latency.Average() *
      static_cast<double>(ks.redirect_batch_latency.Count());
  c["core.dev_reads"] = static_cast<double>(ks.dev_reads);
  c["core.main_reads"] = static_cast<double>(ks.main_reads);
  c["core.rollbacks"] = static_cast<double>(ks.rollbacks);
  c["core.rollback_entries"] = static_cast<double>(ks.rollback_entries);
  c["core.rollback_ns"] = static_cast<double>(ks.rollback_total_ns);
  c["core.md_checks"] = static_cast<double>(ks.md_checks);
  c["core.dev_retries"] = static_cast<double>(ks.dev_retries);
  c["core.fallback_writes"] = static_cast<double>(ks.fallback_writes);

  const devlsm::DevLsmStats ds = sut_->devlsm_stats();
  c["devlsm.puts"] = static_cast<double>(ds.puts);
  c["devlsm.gets"] = static_cast<double>(ds.gets);
  c["devlsm.compound_cmds"] = static_cast<double>(ds.compound_cmds);
  c["devlsm.compound_entries"] = static_cast<double>(ds.compound_entries);
  c["devlsm.flushes"] = static_cast<double>(ds.flushes);
  c["devlsm.compactions"] = static_cast<double>(ds.compactions);
  c["devlsm.bulk_scans"] = static_cast<double>(ds.bulk_scans);
  c["devlsm.scan_chunks"] = static_cast<double>(ds.scan_chunks);

  ssd::HybridSsd& ssd = *world_.ssd;
  c["ssd.pcie.busy_ns"] = static_cast<double>(ssd.pcie().busy_ns());
  c["ssd.nand.busy_ns"] = static_cast<double>(ssd.nand().busy_ns());
  c["ssd.nand.bytes_read"] = static_cast<double>(ssd.nand().bytes_read());
  c["ssd.nand.bytes_written"] =
      static_cast<double>(ssd.nand().bytes_written());
  c["ssd.firmware.busy_ns"] = ssd.firmware()->busy_seconds() * 1e9;
  c["ssd.ftl.gc_runs"] = static_cast<double>(ssd.block_ftl(0).gc_runs());
  c["host.cpu.busy_ns"] = world_.cpu->busy_seconds() * 1e9;

  if (core::ReplicatedKvaccelDB* pair = sut_->pair()) {
    const core::ReplStats& rs = pair->repl_stats();
    c["repl.wal_records"] = static_cast<double>(rs.wal_records);
    c["repl.wal_entries"] = static_cast<double>(rs.wal_entries);
    c["repl.intent_records"] = static_cast<double>(rs.intent_records);
    c["repl.intent_entries"] = static_cast<double>(rs.intent_entries);
    c["repl.bytes"] = static_cast<double>(rs.repl_bytes);
    c["repl.sync_ship_ns"] = static_cast<double>(rs.sync_ship_ns);
    c["repl.records_applied"] = static_cast<double>(rs.records_applied);
    c["repl.net.messages"] = static_cast<double>(pair->link()->messages());
  }
  return c;
}

// Marks the window edges in wall time and snapshots the counters there.
void Bench::WindowClock() {
  world_.env.SleepUntil(t0_);
  c0_ = Snapshot();
  r0_ = ReadRusage();
  w0_ = Clock::now();
  setup_wall_s_ = std::chrono::duration<double>(w0_ - kLaunch).count();
  world_.env.SleepUntil(t1_);
  window_wall_s_ = WallSince(w0_);
  r1_ = ReadRusage();
  c1_ = Snapshot();
  HarvestWindow();
}

// Window-clipped figures that need live state at t1.
void Bench::HarvestWindow() {
  host_cpu_util_ = world_.cpu->UtilizationBetween(t0_, t1_);
  const fs::SimFs& fs = *world_.fs;
  gauges_["fs.used_bytes"] =
      static_cast<double>(fs.total_sectors() - fs.free_sectors()) *
      static_cast<double>(world_.ssd->config().page_size);
  gauges_["ssd.nand.channels"] = world_.ssd->nand().channels();
  gauges_["ssd.ftl.write_amplification"] =
      world_.ssd->block_ftl(0).write_amplification();
  sim::IntervalRecorder regions = sut_->main_stats().stall_regions;
  regions.CloseAt(t1_);
  for (const auto& iv : regions.intervals()) {
    if (iv.end <= t0_ || iv.start >= t1_) continue;
    stall_s_ += ToSecs(std::min(iv.end, t1_) - std::max(iv.start, t0_));
  }
  // Stall time with an idle PCIe link, at the 125 ms resolution the
  // harness uses for the paper's Fig. 14.
  ssd::HybridSsd& ssd = *world_.ssd;
  const sim::TimeSeries& fine = ssd.pcie().traffic_fine();
  const Nanos width = fine.bucket_width();
  const double capacity = ssd.nand().total_bytes_per_sec() *
                          static_cast<double>(width) / kNanosPerSec;
  for (size_t b = static_cast<size_t>(t0_ / width);
       b <= static_cast<size_t>((t1_ - 1) / width); b++) {
    const Nanos mid = static_cast<Nanos>(b) * width + width / 2;
    if (!regions.Contains(mid)) continue;
    if (std::min(1.0, fine.Bucket(b) / capacity) < 0.002) {
      zero_traffic_stall_s_ += static_cast<double>(width) / kNanosPerSec;
    }
  }
}

void Bench::Main() {
  sim::SimEnv& env = world_.env;
  Status s = harness::SystemUnderTest::Open(
      world_.cfg, {&env, world_.ssd.get(), world_.fs.get(), world_.cpu.get()},
      &sut_);
  if (!s.ok()) {
    open_error_ = "open: " + s.ToString();
    return;
  }
  s = Preload();
  if (!s.ok()) {
    open_error_ = "preload: " + s.ToString();
    (void)sut_->Close();
    return;
  }
  actors_start_ = env.Now();
  t0_ = actors_start_ + FromSecs(wl_.settle_s);
  t1_ = t0_ + FromSecs(args_.window_s);

  std::vector<sim::SimEnv::Thread*> actors;
  actors.push_back(env.Spawn("window-clock", [this] { WindowClock(); }));
  for (int a = 0; a < wl_.writers; a++) {
    const std::string name = "actor" + std::to_string(a);
    if (wl_.kind == Kind::kMixedOpen) {
      actors.push_back(
          env.Spawn(name, [this, a] { MixedLoop(a, wl_.writers); }));
    } else {
      actors.push_back(
          env.Spawn(name, [this, a] { WriterLoop(a, wl_.writers); }));
    }
  }
  for (int r = 0; r < wl_.readers; r++) {
    actors.push_back(env.Spawn("reader" + std::to_string(r),
                               [this, r] { ReaderLoop(r); }));
  }
  for (sim::SimEnv::Thread* t : actors) env.Join(t);
  PostWindow();
}

void Bench::PostWindow() {
  sim::SimEnv& env = world_.env;
  const Status bg = sut_->db()->GetBackgroundError();
  if (!bg.ok()) background_error_ = bg.ToString();
  const lsm::DbOptions db_opts =
      harness::SystemUnderTest::BuildDbOptions(world_.cfg);

  if (core::ReplicatedKvaccelDB* pair = sut_->pair()) {
    (void)sut_->Close();
    lost_entries_ = pair->repl_stats().lost_entries;
    // Lose the primary: both nodes drop unsynced pages, then the backup is
    // checked, repaired if needed and promoted.
    world_.fs->DropAllDirty();
    world_.fs_b->DropAllDirty();
    check::FailoverReport rep;
    std::unique_ptr<core::KvaccelDB> promoted;
    Status ps = Timed(kSpanPromote, true, nullptr, [&] {
      return check::PromoteNode(
          db_opts, harness::SystemUnderTest::BuildKvOptions(world_.cfg),
          world_.cfg.ha_backup, &env, &rep, &promoted);
    });
    promote_ns_ = static_cast<uint64_t>(rep.promote_ns);
    promote_drained_ = rep.drained_entries;
    checker_errors_ = rep.checker_errors;
    if (!ps.ok()) {
      checker_errors_ = std::max(checker_errors_, 1);
      if (first_wrong_.empty()) first_wrong_ = "promote: " + ps.ToString();
      return;
    }
    // Every acknowledged write must survive the failover.
    Readback([&](const Slice& k, Value* v) { return promoted->Get({}, k, v); },
             nullptr);
    (void)promoted->Close();
    return;
  }

  Readback([&](const Slice& k, Value* v) { return sut_->Get(k, v); },
           &sut_->kvaccel()->kv_stats());
  Status cs = sut_->Close();
  if (!cs.ok() && background_error_.empty()) {
    background_error_ = "close: " + cs.ToString();
  }
  // The same offline check as kvaccel_check, on the closed image.
  check::DbChecker checker(db_opts, {&env, world_.ssd.get(), world_.fs.get(),
                                     world_.cpu.get()});
  check::CheckReport report =
      Timed(kSpanChecker, true, nullptr, [&] { return checker.Check(); });
  checker_errors_ = report.errors();
  if (!report.ok() && first_wrong_.empty()) {
    first_wrong_ = "checker: " + report.ToString();
  }
}

// Reads the traced repetition's events back through the tracer's own
// Chrome-trace writer and sums span time per event name, clipped to the
// window. Begin/End pairs (stall windows) are matched per track and name.
void Bench::ParseTrace() {
  char* buf = nullptr;
  size_t len = 0;
  FILE* f = open_memstream(&buf, &len);
  if (f == nullptr) return;
  world_.tracer->WriteChromeTrace(f);
  fclose(f);
  std::map<std::pair<unsigned, std::string>, Nanos> open;
  auto add = [&](const std::string& name, Nanos a, Nanos b) {
    const Nanos lo = std::max(a, t0_);
    const Nanos hi = std::min(b, t1_);
    if (b < t0_ || a >= t1_) return;
    trace_count_[name]++;
    if (hi > lo) trace_s_[name] += ToSecs(hi - lo);
    if (name == "dev.put_compound" && a >= t0_) {
      put_compound_ns_.push_back(static_cast<uint64_t>(b - a));
    }
  };
  char* save = nullptr;
  for (char* line = strtok_r(buf, "\n", &save); line != nullptr;
       line = strtok_r(nullptr, "\n", &save)) {
    char ph = 0;
    unsigned tid = 0;
    double ts = 0, dur = 0;
    char name[96];
    if (sscanf(line,
               "{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%lf,\"dur\":%lf,"
               "\"cat\":\"sim\",\"name\":\"%95[^\"]\"",
               &tid, &ts, &dur, name) == 4) {
      const Nanos a = std::llround(ts * 1000.0);
      add(name, a, a + std::llround(dur * 1000.0));
      trace_parsed_++;
    } else if (sscanf(line,
                      "{\"ph\":\"%c\",\"pid\":1,\"tid\":%u,\"ts\":%lf,"
                      "\"cat\":\"sim\",\"name\":\"%95[^\"]\"",
                      &ph, &tid, &ts, name) == 4 &&
               (ph == 'B' || ph == 'E')) {
      trace_parsed_++;
      const Nanos t = std::llround(ts * 1000.0);
      if (ph == 'B') {
        open.emplace(std::make_pair(tid, std::string(name)), t);
      } else {
        auto it = open.find({tid, name});
        if (it != open.end()) {
          add(name, it->second, t);
          open.erase(it);
        }
      }
    }
  }
  // Spans still open at the end of the run extend past the window.
  for (const auto& [key, start] : open) add(key.second, start, t1_);
  free(buf);
}

void Bench::Print() {
  obs::JsonWriter w;
  // Latency samples in submission order; run.py pools them across
  // repetitions.
  auto samples = [&w](const std::string& key, const std::vector<uint64_t>& v) {
    w.Key(key);
    w.BeginArray();
    for (uint64_t x : v) w.Uint(x);
    w.EndArray();
  };
  w.BeginObject();
  w.Field("workload", wl_.name);
  w.Field("seed", args_.seed);
  w.Field("traced", args_.trace ? 1 : 0);

  w.Key("modelled");
  w.BeginObject();
  w.Field("window_s", args_.window_s);
  w.Field("keys", kKeys);
  w.Field("value_bytes", kValueSize + kKeySize);
  w.Field("write_calls", write_calls_);
  w.Field("write_entries", write_entries_);
  w.Field("deletes", deletes_);
  w.Field("gets", gets_);
  w.Field("scans", scans_);
  w.Field("attempted", attempted_ + abandoned_);
  w.Field("failed", failed_ + abandoned_);
  w.Field("scheduled", scheduled_);
  w.Field("completed", completed_);
  w.Field("abandoned", abandoned_);
  w.Field("deadline_misses", deadline_misses_);
  w.Field("stale_reads", stale_reads_);
  samples("put_ns", put_ns_);
  samples("get_ns", get_ns_);
  samples("svc_ns", svc_ns_);
  samples("arrival_ns", arrival_ns_);
  samples("queue_ns", queue_ns_);
  w.Field("host_cpu_util", host_cpu_util_);
  w.Field("stall_s", stall_s_);
  w.Field("zero_traffic_stall_s", zero_traffic_stall_s_);
  w.Field("promote_ns", promote_ns_);
  w.Field("promote_drained", promote_drained_);
  for (int i = 0; i < kNumSpans; i++) {
    const std::string span = std::string("span.") + kSpanNames[i];
    w.Field(span + ".count", spans_[i].count);
    w.Field(span + ".virt_ns", spans_[i].virt_ns);
  }
  w.EndObject();

  w.Key("counters");
  w.BeginObject();
  for (const auto& [name, v1] : c1_) {
    w.Field(name, v1 - (c0_.count(name) ? c0_.at(name) : 0.0));
  }
  w.EndObject();

  w.Key("gauges");
  w.BeginObject();
  for (const auto& [name, v] : gauges_) w.Field(name, v);
  w.EndObject();

  w.Key("real");
  w.BeginObject();
  w.Field("setup_wall_s", setup_wall_s_);
  w.Field("setup_cpu_s", r0_.user_s + r0_.sys_s);
  w.Field("window_wall_s", window_wall_s_);
  w.Field("window_user_s", r1_.user_s - r0_.user_s);
  w.Field("window_sys_s", r1_.sys_s - r0_.sys_s);
  w.Field("window_switches", r1_.switches - r0_.switches);
  w.Field("peak_rss_kb", PeakRssKb());
  for (int i = 0; i < kNumSpans; i++) {
    w.Field(std::string("span.") + kSpanNames[i] + ".wall_ns",
            spans_[i].wall_ns);
  }
  w.EndObject();

  if (world_.tracer != nullptr) {
    w.Key("trace");
    w.BeginObject();
    w.Field("events", world_.tracer->num_events());
    w.Field("dropped", world_.tracer->dropped_events());
    w.Field("parsed", trace_parsed_);
    samples("put_compound_ns", put_compound_ns_);
    for (const auto& [name, s] : trace_s_) w.Field("span_s." + name, s);
    for (const auto& [name, n] : trace_count_) w.Field("count." + name, n);
    w.EndObject();
  }

  w.Key("gates");
  w.BeginObject();
  w.Field("setup_failures", setup_failures_);
  w.Field("wrong_values", wrong_values_);
  w.Field("first_failure", first_failure_);
  w.Field("first_wrong", first_wrong_);
  w.Field("background_error", background_error_);
  w.Field("readback_checked", readback_checked_);
  w.Field("stale_readbacks", stale_readbacks_);
  w.Field("stale_readbacks_dev", stale_readbacks_dev_);
  w.Field("checker_errors", checker_errors_);
  w.Field("lost_entries", lost_entries_);
  w.EndObject();
  w.EndObject();
  printf("%s\n", w.str().c_str());
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; i++) {
    const char* arg = argv[i];
    const char* eq = strchr(arg, '=');
    const std::string key(arg, eq != nullptr ? eq - arg : strlen(arg));
    const char* val = eq != nullptr ? eq + 1 : "";
    char* end = nullptr;
    if (key == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (strcmp(w.name, val) == 0) a->workload = &w;
      }
      if (a->workload == nullptr) return false;
    } else if (key == "--seed") {
      a->seed = strtoull(val, &end, 10);
      if (*val == '\0' || *end != '\0') return false;
    } else if (key == "--window_s") {
      a->window_s = strtod(val, &end);
      if (*val == '\0' || *end != '\0' || !(a->window_s > 0) ||
          a->window_s > 3600) {
        return false;
      }
    } else if (key == "--trace" && eq == nullptr) {
      a->trace = true;
    } else if (key == "--cpu") {
      const long v = strtol(val, &end, 10);
      if (*val == '\0' || *end != '\0' || v < 0 || v >= CPU_SETSIZE) return false;
      a->cpu = static_cast<int>(v);
    } else {
      return false;
    }
  }
  return a->workload != nullptr;
}

}  // namespace
}  // namespace kvaccel::perfbench

int main(int argc, char** argv) {
  // One malloc arena: only one simulated thread runs at a time, and with
  // per-thread arenas the peak RSS depends on which OS threads happened to
  // contend, so it would vary between identical runs.
  mallopt(M_ARENA_MAX, 1);
  kvaccel::perfbench::Args args;
  if (!kvaccel::perfbench::ParseArgs(argc, argv, &args)) {
    fprintf(stderr,
            "usage: %s --workload=ingest|read-write|ha-sync|mixed-open "
            "--seed=N --window_s=F [--trace] [--cpu=N]\n",
            argv[0]);
    return 2;
  }
  if (args.cpu >= 0) {
    // Pinned, every handoff between simulated threads is a switch on one
    // core rather than a cross-core wake-up, whose cost depends on what
    // else the machine is doing.
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(args.cpu, &set);
    if (sched_setaffinity(0, sizeof(set), &set) != 0) {
      perror("sched_setaffinity");
      return 1;
    }
  }
  return kvaccel::perfbench::Bench(args).Run();
}
