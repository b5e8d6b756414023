// kvaccel_nemesis: command-line driver for the model-oracle nemesis harness.
//
//   build/tools/kvaccel_nemesis --cycles=30 --nemesis_seed=1317456661
//   build/tools/kvaccel_nemesis --replay=/tmp/dumps/nemesis-1317456661.trace
//
// Runs seeded crash-recovery cycles against a full KVACCEL stack and checks
// every recovery against the in-memory model oracle (see src/check/nemesis.h
// and DESIGN.md §9). The same seed replays the identical schedule, so a CI
// failure is reproducible from the printed header alone; --replay does it
// from a dumped divergence trace in one command.
//
// Flags:
//   --nemesis_seed=N    schedule seed (default 0x5EED)
//   --cycles=N          crash-recovery cycles (default 30)
//   --ops_per_cycle=N   operations attempted per cycle (default 150)
//   --key_space=N       key draw range (default 400)
//   --value_size=N      value bytes (default 4096)
//   --shards=N          run against a ShardedKvaccelDB with N shards; crash
//                       cycles may arm dual kill sites (mid-rollback on one
//                       shard, mid-flush on another) and recovery checks
//                       cross-shard iterator order (default 1 = plain stack)
//   --ha                drive a two-node replicated pair: every cycle kills
//                       the pair, promotes the backup, verifies it against
//                       the oracle, wipes the dead node and swaps roles
//                       (one shard, no NDP: --shards > 1 and --ndp are
//                       refused with exit status 2)
//   --repl_ack=MODE     sync (default: every acked write must survive
//                       failover) or async (bounded, reported loss tail)
//   --net_partition     partition nemesis (implies --ha; --repl_ack=async
//                       is refused with exit status 2): rotate
//                       symmetric cuts, asymmetric ack-loss cuts, brief
//                       healed blips and flapping links; verify fencing
//                       (no write acked on both sides of a split), epoch
//                       bumps, stale-epoch depose and delta-resync rejoin
//   --resync_mode=MODE  reconciliation transport for the rejoin step:
//                       delta (default: flushed state via the ingest path,
//                       zero write-path bytes) or wal (full replay)
//   --ndp               force every compaction through the device COMPACT
//                       path and arm the crash.ndp.* kill points (the first
//                       cycles rotate through all of them) plus transient
//                       COMPACT rejections (DESIGN.md §13)
//   --list_fault_sites  print every registered fault/crash site and exit
//   --trace_dump_dir=D  dump the op trace here on divergence
//   --replay=FILE       load the schedule from a dumped trace's header
//                       (overrides the schedule flags above)
//
// Exit status: 0 = every cycle matched the oracle, 1 = divergence,
// 2 = usage trouble, including a flag combination no runner drives.
#include <cstdio>
#include <cstring>
#include <string>

#include "check/nemesis.h"
#include "harness/flags.h"
#include "sim/fault.h"

using namespace kvaccel;
using harness::ParseFlagInt;
using harness::ParseFlagUint64;

namespace {

void Usage() {
  fprintf(stderr,
          "usage: kvaccel_nemesis [--nemesis_seed=N] [--cycles=N]\n"
          "  [--ops_per_cycle=N] [--key_space=N] [--value_size=N]\n"
          "  [--shards=N] [--ha] [--repl_ack=sync|async]\n"
          "  [--net_partition] [--resync_mode=delta|wal] [--ndp]\n"
          "  [--list_fault_sites] [--trace_dump_dir=DIR]\n"
          "  [--replay=TRACE_FILE]\n");
}

}  // namespace

int main(int argc, char** argv) {
  check::NemesisOptions opts;
  std::string replay;
  std::string trace_dump_dir;
  for (int i = 1; i < argc; i++) {
    const char* arg = argv[i];
    if (strncmp(arg, "--nemesis_seed=", 15) == 0) {
      opts.seed = ParseFlagUint64(arg + 15, "--nemesis_seed");
    } else if (strncmp(arg, "--cycles=", 9) == 0) {
      opts.cycles =
          static_cast<int>(ParseFlagInt(arg + 9, "--cycles", /*min_value=*/1));
    } else if (strncmp(arg, "--ops_per_cycle=", 16) == 0) {
      opts.ops_per_cycle = static_cast<int>(
          ParseFlagInt(arg + 16, "--ops_per_cycle", /*min_value=*/1));
    } else if (strncmp(arg, "--key_space=", 12) == 0) {
      opts.key_space = ParseFlagUint64(arg + 12, "--key_space");
    } else if (strncmp(arg, "--value_size=", 13) == 0) {
      opts.value_size = static_cast<uint32_t>(
          ParseFlagInt(arg + 13, "--value_size", /*min_value=*/1));
    } else if (strncmp(arg, "--shards=", 9) == 0) {
      opts.shards =
          static_cast<int>(ParseFlagInt(arg + 9, "--shards", /*min_value=*/1));
    } else if (strcmp(arg, "--ha") == 0) {
      opts.ha = true;
    } else if (strcmp(arg, "--ndp") == 0) {
      opts.ndp = true;
    } else if (strncmp(arg, "--repl_ack=", 11) == 0) {
      const char* mode = arg + 11;
      if (strcmp(mode, "sync") == 0) {
        opts.repl_ack = 0;
      } else if (strcmp(mode, "async") == 0) {
        opts.repl_ack = 1;
      } else {
        fprintf(stderr, "--repl_ack must be sync or async, got %s\n", mode);
        return 2;
      }
    } else if (strcmp(arg, "--net_partition") == 0) {
      opts.net_partition = true;
      opts.ha = true;
    } else if (strncmp(arg, "--resync_mode=", 14) == 0) {
      const char* mode = arg + 14;
      if (strcmp(mode, "delta") == 0) {
        opts.resync_mode = 1;
      } else if (strcmp(mode, "wal") == 0) {
        opts.resync_mode = 0;
      } else {
        fprintf(stderr, "--resync_mode must be delta or wal, got %s\n", mode);
        return 2;
      }
    } else if (strcmp(arg, "--list_fault_sites") == 0) {
      for (const auto& site : sim::KnownFaultSites()) {
        printf("%-28s %s\n", site.site, site.what);
      }
      return 0;
    } else if (strncmp(arg, "--trace_dump_dir=", 17) == 0) {
      trace_dump_dir = arg + 17;
    } else if (strncmp(arg, "--replay=", 9) == 0) {
      replay = arg + 9;
    } else if (strcmp(arg, "--help") == 0) {
      Usage();
      return 0;
    } else {
      fprintf(stderr, "unknown flag: %s\n", arg);
      Usage();
      return 2;
    }
  }
  if (!replay.empty()) {
    Status s = check::ParseNemesisTrace(replay, &opts);
    if (!s.ok()) {
      fprintf(stderr, "replay %s: %s\n", replay.c_str(),
              s.ToString().c_str());
      return 2;
    }
    printf("replaying schedule from %s\n", replay.c_str());
  }
  opts.trace_dump_dir = trace_dump_dir;

  printf("nemesis: seed=%llu cycles=%d ops_per_cycle=%d key_space=%llu "
         "value_size=%u shards=%d ha=%d repl_ack=%s net_partition=%d "
         "resync_mode=%s ndp=%d\n",
         static_cast<unsigned long long>(opts.seed), opts.cycles,
         opts.ops_per_cycle, static_cast<unsigned long long>(opts.key_space),
         opts.value_size, opts.shards, opts.ha ? 1 : 0,
         opts.repl_ack == 1 ? "async" : "sync", opts.net_partition ? 1 : 0,
         opts.resync_mode != 0 ? "delta" : "wal", opts.ndp ? 1 : 0);

  // Both streams often land in one log (tools/ci.sh): keep them in order.
  fflush(stdout);

  check::NemesisResult r = check::RunNemesis(opts);
  if (r.trace.empty()) {
    // Refused before any world was built (see RunNemesis).
    fprintf(stderr, "%s\n", r.error.c_str());
    return 2;
  }
  printf("cycles=%d crashes=%d ops=%llu\n", r.cycles_run, r.crashes,
         static_cast<unsigned long long>(r.ops_executed));
  if (opts.ha) {
    printf("failovers=%d lost_entries=%llu drained=%llu dev_fallbacks=%llu\n",
           r.failovers, static_cast<unsigned long long>(r.ha_lost_entries),
           static_cast<unsigned long long>(r.ha_drained_entries),
           static_cast<unsigned long long>(r.ha_backup_dev_fallbacks));
  }
  if (opts.net_partition) {
    printf("partitions=%d rejoins=%d fenced_rejects=%llu "
           "quarantined_keys=%llu\n",
           r.partitions, r.rejoins,
           static_cast<unsigned long long>(r.ha_fenced_rejects),
           static_cast<unsigned long long>(r.ha_quarantined_keys));
    printf("resync: entries=%llu bytes=%llu write_path_bytes=%llu "
           "wal_replay_bytes=%llu\n",
           static_cast<unsigned long long>(r.ha_resync_entries),
           static_cast<unsigned long long>(r.ha_resync_bytes),
           static_cast<unsigned long long>(r.ha_write_path_bytes),
           static_cast<unsigned long long>(r.ha_wal_replay_bytes));
  }
  if (r.ok) {
    printf("every recovery matched the model oracle\n");
    return 0;
  }
  fflush(stdout);
  fprintf(stderr, "DIVERGENCE: %s\n", r.error.c_str());
  if (!r.trace_path.empty()) {
    fprintf(stderr, "trace dumped to %s — replay with --replay=%s\n",
            r.trace_path.c_str(), r.trace_path.c_str());
  } else {
    fprintf(stderr, "re-run with --trace_dump_dir=DIR to dump the trace\n");
  }
  return 1;
}
