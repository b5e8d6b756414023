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
// `--help` lists every flag; the table is check::NemesisFlags
// (src/check/nemesis.cc). --ha with --shards>1 or --ndp, and
// --net_partition with --repl_ack=async, are refused with exit status 2;
// --replay=FILE overrides the schedule flags with a dumped trace's header.
//
// Exit status: 0 = every cycle matched the oracle, 1 = divergence,
// 2 = usage trouble, including a flag combination no runner drives.
#include <cstdio>
#include <string>

#include "check/failover.h"
#include "check/nemesis.h"

using namespace kvaccel;

int main(int argc, char** argv) {
  check::NemesisOptions opts;
  std::string replay;
  check::NemesisFlags(&opts, &replay).Parse(argc, argv);
  if (!replay.empty()) {
    Status s = check::ParseNemesisTrace(replay, &opts);
    if (!s.ok()) {
      fprintf(stderr, "replay %s: %s\n", replay.c_str(),
              s.ToString().c_str());
      return 2;
    }
    printf("replaying schedule from %s\n", replay.c_str());
  }

  printf("nemesis: seed=%llu cycles=%d ops_per_cycle=%d key_space=%llu "
         "value_size=%u shards=%d ha=%d repl_ack=%s net_partition=%d "
         "ndp=%d\n",
         static_cast<unsigned long long>(opts.seed), opts.cycles,
         opts.ops_per_cycle, static_cast<unsigned long long>(opts.key_space),
         opts.value_size, opts.shards, opts.ha ? 1 : 0,
         NameOf(check::kReplAckNames, opts.repl_ack),
         opts.net_partition ? 1 : 0, opts.ndp ? 1 : 0);

  // Both streams often land in one log (tools/ci.sh): keep them in order.
  fflush(stdout);

  check::NemesisResult r = check::RunNemesis(opts);
  if (r.trace.empty()) {
    // Refused before any world was built (see RunNemesis).
    fprintf(stderr, "%s\n", r.error.c_str());
    return 2;
  }
  printf("cycles=%d crashes=%d ops=%llu dev_merges=%llu discarded=%llu\n",
         r.cycles_run, r.crashes,
         static_cast<unsigned long long>(r.ops_executed),
         static_cast<unsigned long long>(r.dev_merges),
         static_cast<unsigned long long>(r.dev_merges_discarded));
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
    printf("resync: entries=%llu bytes=%llu\n",
           static_cast<unsigned long long>(r.ha_resync_entries),
           static_cast<unsigned long long>(r.ha_resync_bytes));
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
