// Model-oracle simulation testing (DESIGN.md §9): the nemesis harness runs
// seeded crash-recovery cycles against the full KVACCEL stack and verifies
// key-for-key, scan-for-scan equivalence with an in-memory oracle. These
// tests pin the seeds; a failure message carries everything needed to replay
// the exact schedule (see kNemesisSeed below and the dumped trace header).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "check/nemesis.h"

namespace kvaccel {
namespace {

using check::NemesisOptions;
using check::NemesisResult;
using check::ParseNemesisTrace;
using check::RunNemesis;

// The pinned schedule seed. To reproduce a failure locally:
//   kvaccel_nemesis --nemesis_seed=0x4E454D17 --cycles=30
// Its 30 cycles run 1,454 ops. Once the nemesis's Dev-LSM merged (DESIGN.md
// §27), 0x4E454D15 and 0x4E454D16 ran 954 and 987, under the floor below.
constexpr uint64_t kNemesisSeed = 0x4E454D17;

// Seed 5 scans a key deleted on the host path after a redirected put: the
// hybrid iterator used to resurrect the stale device copy (cycle 6).
TEST(NemesisTest, ThirtyCrashRecoveryCyclesMatchOracle) {
  for (uint64_t seed : {kNemesisSeed, uint64_t{5}}) {
    NemesisOptions opt;
    opt.seed = seed;
    opt.cycles = 30;
    NemesisResult r = RunNemesis(opt);
    EXPECT_TRUE(r.ok) << "seed=" << opt.seed << " cycle=" << r.cycles_run
                      << ": " << r.error;
    EXPECT_EQ(r.cycles_run, 30) << "seed=" << opt.seed;
    // The schedule must actually kill the DB a meaningful number of times,
    // or the recovery equivalence above verified nothing interesting.
    EXPECT_GE(r.crashes, 10) << "seed=" << opt.seed
                             << ": crash schedule went quiet";
    EXPECT_GE(r.ops_executed, 1000u) << "seed=" << opt.seed;
  }
}

// A cycle count too wide for int must not wrap into a run of no cycles that
// reports success, and a zero key space must not reach a modulo by zero.
TEST(NemesisTest, FlagTableRejectsWrappedAndZeroValues) {
  auto parse = [](const char* arg) {
    NemesisOptions opt;
    std::string replay;
    const char* argv[] = {"kvaccel_nemesis", arg};
    check::NemesisFlags(&opt, &replay).Parse(2, const_cast<char**>(argv));
  };
  EXPECT_EXIT(parse("--cycles=4294967296"), ::testing::ExitedWithCode(2),
              "--cycles");
  EXPECT_EXIT(parse("--key_space=0"), ::testing::ExitedWithCode(2),
              "--key_space");
}

TEST(NemesisTest, SameSeedReplaysIdenticalTrace) {
  NemesisOptions opt;
  opt.seed = kNemesisSeed;
  opt.cycles = 8;
  NemesisResult a = RunNemesis(opt);
  NemesisResult b = RunNemesis(opt);
  ASSERT_TRUE(a.ok) << "seed=" << opt.seed << ": " << a.error;
  ASSERT_TRUE(b.ok) << "seed=" << opt.seed << ": " << b.error;
  // Determinism is the whole reproducibility story: same seed, same ops,
  // same fault schedule, same virtual-time interleaving, byte-equal trace.
  EXPECT_EQ(a.trace, b.trace) << "seed=" << opt.seed
                              << ": nondeterministic schedule";
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.ops_executed, b.ops_executed);
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t digest = 14695981039346656037ull;
  for (unsigned char c : bytes) digest = (digest ^ c) * 1099511628211ull;
  return digest;
}

// Pins every topology's schedule, not just its self-consistency: the trace
// is the op stream, fault schedule and recovery outcome in order, so a
// change that moves one RNG draw or one virtual-time event changes the
// digest. The configurations are tools/ci.sh's nemesis smokes plus a
// 4-shard run.
TEST(NemesisTest, EveryTopologyReplaysItsPinnedSchedule) {
  struct Pinned {
    const char* name;
    uint64_t seed;
    int cycles;
    void (*configure)(NemesisOptions*);
    uint64_t digest;
  };
  const Pinned kPinned[] = {
      {"single", 1317456661, 30, [](NemesisOptions*) {}, 0x41ebf0f3dfc57f32},
      {"ndp", 7, 12, [](NemesisOptions* o) { o->ndp = true; },
       0xedecb60f7fbe36e9},
      {"shards=4", 1317456661, 12, [](NemesisOptions* o) { o->shards = 4; },
       0xd2b72839153fca99},
      {"ha sync", 50, 12, [](NemesisOptions* o) { o->ha = true; },
       0x94cc45bb099ee2be},
      {"ha async", 99, 6,
       [](NemesisOptions* o) {
         o->ha = true;
         o->repl_ack = 1;
       },
       0x06eaac3725c56b07},
      {"partition delta", 24301, 8,
       [](NemesisOptions* o) {
         o->ha = true;
         o->net_partition = true;
       },
       0x5221158cc25636f7},
  };
  for (const Pinned& p : kPinned) {
    NemesisOptions opt;
    opt.seed = p.seed;
    opt.cycles = p.cycles;
    p.configure(&opt);
    NemesisResult r = RunNemesis(opt);
    EXPECT_TRUE(r.ok) << p.name << " seed=" << p.seed << ": " << r.error;
    EXPECT_EQ(Fnv1a(r.trace), p.digest)
        << p.name << " seed=" << p.seed << " cycles=" << p.cycles
        << ": the schedule changed";
  }
}

// One reproducer per divergence class that compaction's tombstone elision
// caused: it dropped a tombstone while a memtable, or a file the job did
// not pick, still held an older version of the key, and the deleted
// version came back. Each of these schedules used to fail against the
// oracle. In seed 55's, an L1 -> L2 job dropped a rolled-back tombstone
// while an L1 file outside its inputs held the key's older put.
TEST(NemesisTest, TombstoneElisionReproducersMatchOracle) {
  struct Reproducer {
    const char* divergence;
    uint64_t seed;
    int cycles;
    void (*configure)(NemesisOptions*);
  };
  auto partition = [](NemesisOptions* o) {
    o->ha = true;
    o->net_partition = true;
  };
  const Reproducer kReproducers[] = {
      {"partition delta: rejoined backup resurrects", 88, 8, partition},
      {"partition delta: promoted node resurrects", 4, 8, partition},
      {"single: Get resurrects", 74, 30, [](NemesisOptions*) {}},
      {"single: iterator order", 34, 30, [](NemesisOptions*) {}},
      {"single: same-level file outside the job", 55, 30,
       [](NemesisOptions*) {}},
      {"ndp: Get resurrects", 58, 12,
       [](NemesisOptions* o) { o->ndp = true; }},
  };
  for (const Reproducer& rp : kReproducers) {
    NemesisOptions opt;
    opt.seed = rp.seed;
    opt.cycles = rp.cycles;
    rp.configure(&opt);
    NemesisResult r = RunNemesis(opt);
    EXPECT_TRUE(r.ok) << rp.divergence << " seed=" << rp.seed << ": "
                      << r.error;
    EXPECT_EQ(r.cycles_run, rp.cycles) << rp.divergence;
  }
}

TEST(NemesisTest, InjectedDivergenceIsCaughtAndDumpReplays) {
  NemesisOptions opt;
  opt.seed = kNemesisSeed;
  opt.cycles = 5;
  opt.corrupt_model_at_cycle = 2;  // force the oracle out of sync
  opt.trace_dump_dir = ::testing::TempDir() + "nemesis_dump";
  NemesisResult r = RunNemesis(opt);
  // The harness MUST notice the planted divergence...
  ASSERT_FALSE(r.ok) << "seed=" << opt.seed
                     << ": planted divergence went undetected";
  EXPECT_NE(r.error.find("cycle 2"), std::string::npos) << r.error;
  EXPECT_LT(r.cycles_run, opt.cycles);
  // ...and dump a replayable trace.
  ASSERT_FALSE(r.trace_path.empty());
  std::ifstream dumped(r.trace_path);
  ASSERT_TRUE(dumped.good()) << r.trace_path;

  // The dump's header alone reproduces the failing schedule.
  NemesisOptions replay;
  ASSERT_TRUE(ParseNemesisTrace(r.trace_path, &replay).ok());
  EXPECT_EQ(replay.seed, opt.seed);
  EXPECT_EQ(replay.cycles, opt.cycles);
  EXPECT_EQ(replay.corrupt_model_at_cycle, 2);
  NemesisResult again = RunNemesis(replay);
  EXPECT_FALSE(again.ok);
  EXPECT_EQ(again.error, r.error) << "replay reached a different divergence";
  std::remove(r.trace_path.c_str());
}

TEST(NemesisTest, ParseRejectsNonTraceFiles) {
  NemesisOptions out;
  EXPECT_TRUE(ParseNemesisTrace("/nonexistent/nemesis.trace", &out)
                  .IsNotFound());
  std::string path = ::testing::TempDir() + "not_a_trace";
  std::ofstream(path) << "something else entirely\n";
  EXPECT_TRUE(ParseNemesisTrace(path, &out).IsCorruption());
  // A header value replays only if all of it parses, in range of its field.
  for (const char* bad :
       {"seed=12abc", "cycles=x3", "cycles=", "seed=-1",
        "seed=18446744073709551616", "value_size=4294967296", "ha=yes"}) {
    std::ofstream(path) << "nemesis-trace-v1 " << bad << "\n";
    EXPECT_TRUE(ParseNemesisTrace(path, &out).IsCorruption()) << bad;
  }
  // Seeds at and above 2^63 replay exactly.
  for (uint64_t seed : {9223372036854775808ull, 18446744073709551615ull}) {
    std::ofstream(path) << "nemesis-trace-v1 seed=" << seed << " cycles=3\n";
    ASSERT_TRUE(ParseNemesisTrace(path, &out).ok()) << seed;
    EXPECT_EQ(out.seed, seed);
    EXPECT_EQ(out.cycles, 3);
  }
  std::remove(path.c_str());
}

// The HA runners drive one unsharded pair without NDP, and the partition
// script runs under sync acks only: a request they would narrow is refused
// before any world is built, so nothing runs and nothing is traced.
TEST(NemesisTest, RejectsCombinationsNoRunnerDrives) {
  struct Case {
    const char* name;
    void (*configure)(NemesisOptions*);
  };
  const Case kCases[] = {
      {"ha shards=4",
       [](NemesisOptions* o) {
         o->ha = true;
         o->shards = 4;
       }},
      {"ha ndp",
       [](NemesisOptions* o) {
         o->ha = true;
         o->ndp = true;
       }},
      {"partition shards=4",
       [](NemesisOptions* o) {
         o->net_partition = true;
         o->shards = 4;
       }},
      {"partition ndp",
       [](NemesisOptions* o) {
         o->net_partition = true;
         o->ndp = true;
       }},
      {"partition async",
       [](NemesisOptions* o) {
         o->ha = true;
         o->net_partition = true;
         o->repl_ack = 1;
       }},
  };
  for (const Case& c : kCases) {
    NemesisOptions opt;
    opt.cycles = 2;
    c.configure(&opt);
    NemesisResult r = RunNemesis(opt);
    EXPECT_FALSE(r.ok) << c.name;
    EXPECT_EQ(r.error.rfind("unsupported: ", 0), 0u) << c.name << ": "
                                                    << r.error;
    EXPECT_TRUE(r.trace.empty()) << c.name;
    EXPECT_EQ(r.ops_executed, 0u) << c.name;
  }
}

}  // namespace
}  // namespace kvaccel

