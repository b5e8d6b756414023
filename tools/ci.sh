#!/usr/bin/env bash
# Tier-1 verification, twice: a plain build and an ASan+UBSan build
# (-DKVACCEL_SANITIZE=ON). Both must pass for a change to land.
#
#   tools/ci.sh            # run both passes
#   tools/ci.sh plain      # plain pass only
#   tools/ci.sh sanitize   # sanitized pass only
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"

# nemesis_smoke BUILD_DIR NAME FLAGS...: one kvaccel_nemesis run, its output
# kept in BUILD_DIR/obs-artifacts/nemesis-NAME.log; on failure the log's tail
# is printed and the pass fails.
nemesis_smoke() {
  local dir="$1" name="$2"; shift 2
  local artifacts="${dir}/obs-artifacts"
  local log="${artifacts}/nemesis-${name}.log"
  mkdir -p "${artifacts}"
  if ! "${dir}/tools/kvaccel_nemesis" "$@" --trace_dump_dir="${artifacts}" \
      > "${log}" 2>&1; then
    echo "nemesis smoke ${name} failed; tail of ${log}:"
    tail -n 20 "${log}"
    exit 1
  fi
}

# expect_exit CODE CMD...: CMD must exit with status CODE.
expect_exit() {
  local want="$1" rc=0; shift
  "$@" > /dev/null 2>&1 || rc=$?
  if [ "${rc}" -ne "${want}" ]; then
    echo "$* exited ${rc}, want ${want}"
    exit 1
  fi
}

run_pass() {
  local name="$1" dir="$2"; shift 2
  echo "==== ${name}: configure + build (${dir}) ===="
  cmake -B "${dir}" -S . "$@"
  cmake --build "${dir}" -j "${JOBS}"
  # Command-line probe, no simulation: every tool and bench binary answers
  # --help and rejects an unknown flag, and a cycle count too wide for its
  # field and a zero key space exit 2 instead of running.
  echo "==== ${name}: command-line probe ===="
  local bin
  for bin in $(find "${dir}/tools" "${dir}/bench" -maxdepth 1 -type f \
      -perm -u+x | sort); do
    expect_exit 0 "${bin}" --help
    expect_exit 2 "${bin}" --no_such_flag
  done
  expect_exit 2 "${dir}/tools/kvaccel_nemesis" --cycles=4294967296
  expect_exit 2 "${dir}/tools/kvaccel_dbbench" --workload=seekrandom \
    --key_space=0
  echo "==== ${name}: ctest ===="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
  # Fault-injection suite, explicitly: all seeds are fixed in the tests, so
  # this is deterministic in both the plain and sanitized builds.
  echo "==== ${name}: ctest -L faults ===="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L faults
  # Compaction suite, explicitly: subcompaction output equivalence,
  # crash.subcompaction.mid recovery, report determinism with splits on,
  # worker park/resume accounting and the priority-scheduler unit tests.
  echo "==== ${name}: ctest -L compaction ===="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L compaction
  # Faulty-run smoke: the bench must complete under an armed fault profile.
  echo "==== ${name}: dbbench fault smoke ===="
  "${dir}/tools/kvaccel_dbbench" --system=kvaccel --workload=fillrandom \
    --seconds=5 --fault_profile=flaky-nvme --fault_seed=7 > /dev/null
  # Observability suite, explicitly (tracer, metrics registry, run reports).
  echo "==== ${name}: ctest -L obs ===="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L obs
  # Integrity suite, explicitly (model-oracle nemesis, consistency checker,
  # online scrubber) — deterministic in both builds, all seeds pinned.
  echo "==== ${name}: ctest -L check ===="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L check
  # Shard suite, explicitly: routing invariants (boundary keys in exactly one
  # shard), cross-shard iterator order, per-shard crash recovery, arbiter
  # fairness, sharded report determinism and the sharded nemesis smoke.
  echo "==== ${name}: ctest -L shard ===="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L shard
  # HA suite, explicitly: NetLink wire/latency accounting (incl. partition
  # and delay fault sites), replicated-sequence application, sync failover
  # serving every acked write, async backlog drain with the byte-bounded
  # queue, lease fencing / split-brain prevention / stale-epoch depose,
  # delta-vs-WAL-replay rejoin convergence, backup-side circuit-breaker
  # recovery, and the two-node crash + partition nemesis tests.
  echo "==== ${name}: ctest -L ha ===="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L ha
  # NDP suite, explicitly: COMPACT command lifecycle, planner host-vs-device
  # choice under CPU pressure (with hysteresis and the stall veto), device
  # failure cooldown, off-vs-force data equivalence and same-seed --ndp=auto
  # report byte-identity.
  echo "==== ${name}: ctest -L ndp ===="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L ndp
  # Workload-matrix suite, explicitly: Zipfian boundary/shape/zeta-cache
  # regressions, hotspot shape, mix-spec parsing, open-loop arrival curves
  # (spike deadline misses, diurnal trough, TTL churn) and same-seed report
  # byte-identity for the mixed multi-tenant engine.
  echo "==== ${name}: ctest -L workload ===="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L workload
  # Nemesis smokes on pinned seeds; every recovery is verified against the
  # model oracle. A failure prints the log tail: the DIVERGENCE line and the
  # dumped trace, replayable with --replay.
  # Single node: 30 crash-recovery cycles.
  echo "==== ${name}: nemesis smoke (30 cycles) ===="
  nemesis_smoke "${dir}" single --cycles=30 --nemesis_seed=1317456661
  # NDP: every compaction forced through the device COMPACT path, the first
  # cycles armed at each crash.ndp.* kill point in turn, and transient
  # COMPACT rejections mixed in.
  echo "==== ${name}: NDP nemesis smoke (12 cycles) ===="
  nemesis_smoke "${dir}" ndp --ndp --cycles=12 --nemesis_seed=7
  # Two-node HA, both ack modes: each cycle kills the pair at a kill site
  # drawn from the HA crash table (the single-node sites plus
  # crash.net.send.mid; seed 50's 12 sync cycles arm all ten), promotes the
  # backup and holds it to the oracle — sync must serve every acked write,
  # async loss must stay under the queue-cap bound.
  echo "==== ${name}: HA nemesis smokes (sync + async) ===="
  nemesis_smoke "${dir}" ha-sync --ha --cycles=12 --nemesis_seed=50
  nemesis_smoke "${dir}" ha-async --ha --repl_ack=async --cycles=6 \
    --nemesis_seed=99
  # Partitions: cycles rotate network-fault kinds (symmetric cut and
  # ack-loss cut with verified failover + rejoin, transient blip, flapping
  # link). The harness holds both nodes to the model oracle and asserts no
  # sync-acked write is lost, no write is acked by a fenced primary, and
  # reconciliation converges byte-identically — in delta mode with zero
  # write-path bytes, in wal mode through the full write path.
  echo "==== ${name}: HA partition nemesis smokes (delta + wal resync) ===="
  nemesis_smoke "${dir}" partition-delta --ha --net_partition --cycles=8 \
    --nemesis_seed=24301
  nemesis_smoke "${dir}" partition-wal --ha --net_partition \
    --resync_mode=wal --cycles=4 --nemesis_seed=777
  # Run-artifact smoke: a traced KVACCEL run must produce a parseable Chrome
  # trace containing flush, compaction and stall events, plus a parseable
  # kvaccel-run-v1 JSON report. The report is validated with json.tool; the
  # trace (tens of MB) goes through check_trace.py, whose json.load is a
  # strict parse without json.tool's minutes-long pretty-printing.
  echo "==== ${name}: dbbench trace/report artifacts ===="
  local obs_dir="${dir}/obs-artifacts"
  mkdir -p "${obs_dir}"
  "${dir}/tools/kvaccel_dbbench" --system=kvaccel --workload=fillrandom \
    --seconds=10 --scale=0.0625 \
    --trace_out="${obs_dir}/kvaccel_trace.json" \
    --json_out="${obs_dir}/kvaccel_report.json" \
    --db_dump_dir="${obs_dir}/kvaccel_db_image" > /dev/null
  python3 -m json.tool "${obs_dir}/kvaccel_report.json" > /dev/null
  python3 tools/check_trace.py "${obs_dir}/kvaccel_trace.json"
  # The dumped end-of-run image must pass the offline consistency checker:
  # manifest/SST cross-checks, block CRCs, L1+ non-overlap, WAL tail sanity.
  echo "==== ${name}: kvaccel_check over dumped DB image ===="
  "${dir}/tools/kvaccel_check" --db_dir="${obs_dir}/kvaccel_db_image"
}

# The benchmark's own tests: perfbench/run.py's metric derivations, gates
# and output, checked against fixture reports. They need no build.
perfbench_tests() {
  echo "==== perfbench: unit tests ===="
  PYTHONDONTWRITEBYTECODE=1 python3 -m unittest discover -s perfbench
}

# Short fillrandom on each system; the merged BENCH_smoke.json records the
# throughput / stall / P99 signals CI tracks across commits.
bench_smoke() {
  local dir="$1" out_dir="$1/obs-artifacts"
  echo "==== bench smoke: fillrandom x {rocksdb, adoc, kvaccel} ===="
  mkdir -p "${out_dir}"
  local sys
  for sys in rocksdb adoc kvaccel; do
    "${dir}/tools/kvaccel_dbbench" --system="${sys}" --workload=fillrandom \
      --seconds=10 --scale=0.0625 \
      --json_out="${out_dir}/smoke_${sys}.json" > /dev/null
  done
  # Subcompaction A/B at 4 compaction threads: same seed and workload, split
  # width 4 vs 1. The deterministic simulation makes this a hard gate, not a
  # statistical one: with splitting on, total write-stall virtual time must
  # be strictly lower (ISSUE acceptance for the range-partitioned path).
  echo "==== bench smoke: subcompaction A/B (threads=4) ===="
  local sub
  for sub in 1 4; do
    "${dir}/tools/kvaccel_dbbench" --system=rocksdb --workload=fillrandom \
      --seconds=20 --scale=0.0625 --threads=4 --writer_threads=4 \
      --batch_size=8 --max_subcompactions="${sub}" \
      --json_out="${out_dir}/smoke_sub${sub}.json" > /dev/null
  done
  python3 - "${out_dir}/smoke_sub1.json" "${out_dir}/smoke_sub4.json" <<'EOF'
import json, sys
off = json.load(open(sys.argv[1]))["runs"][0]["summary"]
on = json.load(open(sys.argv[2]))["runs"][0]["summary"]
assert on["split_compactions"] > 0, "subcompaction run never split a job"
assert on["stalled_seconds"] < off["stalled_seconds"], (
    f"subcompactions on stalled {on['stalled_seconds']}s, "
    f"off {off['stalled_seconds']}s — no strict win")
print(f"subcompaction A/B: stalled {off['stalled_seconds']:.2f}s -> "
      f"{on['stalled_seconds']:.2f}s with {on['split_compactions']} split jobs")
EOF
  # KVACCEL-vs-seed guard: the fresh kvaccel run's stall-time fraction must
  # not regress past the committed BENCH_smoke.json (tolerant: skipped when
  # no baseline entry exists, e.g. on a schema change).
  python3 - "${out_dir}/smoke_kvaccel.json" BENCH_smoke.json <<'EOF'
import json, sys, os
fresh = json.load(open(sys.argv[1]))
run = fresh["runs"][0]
frac = run["summary"]["stalled_seconds"] / max(run["seconds"], 1e-9)
if not os.path.exists(sys.argv[2]):
    print("no committed BENCH_smoke.json; skipping stall-fraction guard")
    sys.exit(0)
base = json.load(open(sys.argv[2]))
entry = base.get("systems", {}).get(run["name"])
if entry is None or "stalled_seconds" not in entry:
    print(f"no baseline for {run['name']}; skipping stall-fraction guard")
    sys.exit(0)
base_frac = entry["stalled_seconds"] / base.get("config", {}).get("seconds", 10)
slack = 0.02  # absolute stall-fraction slack for timing drift
assert frac <= base_frac + slack, (
    f"kvaccel stall fraction regressed: {frac:.4f} vs baseline "
    f"{base_frac:.4f} (+{slack} slack)")
print(f"kvaccel stall fraction {frac:.4f} vs baseline {base_frac:.4f}: ok")
EOF
  # Sharded-engine A/B: same seed and workload, shards=1 vs shards=4. Three
  # hard gates on the deterministic simulation: aggregate fillrandom
  # throughput with 4 shards must be >= the single-shard run, the max/min
  # per-shard throughput ratio must stay within 2x on the uniform workload,
  # and a same-seed rerun of the sharded bench must be byte-identical.
  echo "==== bench smoke: sharded A/B (shards=1 vs shards=4) ===="
  local sh
  for sh in 1 4; do
    "${dir}/tools/kvaccel_dbbench" --system=kvaccel --workload=fillrandom \
      --seconds=10 --scale=0.0625 --writer_threads=4 --batch_size=4 \
      --shards="${sh}" \
      --json_out="${out_dir}/smoke_shards${sh}.json" > /dev/null
  done
  "${dir}/tools/kvaccel_dbbench" --system=kvaccel --workload=fillrandom \
    --seconds=10 --scale=0.0625 --writer_threads=4 --batch_size=4 \
    --shards=4 --json_out="${out_dir}/smoke_shards4_rerun.json" > /dev/null
  cmp "${out_dir}/smoke_shards4.json" "${out_dir}/smoke_shards4_rerun.json" \
    || { echo "sharded bench is nondeterministic across same-seed runs"; exit 1; }
  python3 - "${out_dir}/smoke_shards1.json" "${out_dir}/smoke_shards4.json" <<'EOF'
import json, sys
one = json.load(open(sys.argv[1]))["runs"][0]
four = json.load(open(sys.argv[2]))["runs"][0]
k1, k4 = one["summary"]["write_kops"], four["summary"]["write_kops"]
assert k4 >= k1, f"shards=4 aggregate {k4} kops < shards=1 {k1} kops"
ratio = four["summary"]["shard_fairness_ratio"]
assert 1.0 <= ratio <= 2.0, f"per-shard fairness ratio {ratio} outside [1, 2]"
shards = four["shards"]
assert len(shards) == 4 and all(s["writes"] > 0 for s in shards)
print(f"sharded A/B: {k1:.1f} -> {k4:.1f} kops, fairness ratio {ratio:.2f}")
EOF
  # HA sync A/B: same seed/scale/duration as the single-node kvaccel smoke,
  # with a warm backup acked synchronously. Hard failover gates (promoted
  # backup passes the checker, sync acks never lose); the throughput cost of
  # sync replication is reported and tracked via BENCH_smoke.json.
  echo "==== bench smoke: HA sync pair vs single node ===="
  "${dir}/tools/kvaccel_dbbench" --system=kvaccel --workload=fillrandom \
    --seconds=10 --scale=0.0625 --ha --repl_ack=sync \
    --json_out="${out_dir}/smoke_ha_sync.json" > /dev/null
  python3 - "${out_dir}/smoke_ha_sync.json" "${out_dir}/smoke_kvaccel.json" <<'EOF'
import json, sys
ha_run = json.load(open(sys.argv[1]))["runs"][0]
single = json.load(open(sys.argv[2]))["runs"][0]
ha = ha_run["ha"]
assert ha["repl_ack"] == "sync", "smoke must run with sync acks"
assert ha["wal_records"] > 0, "HA run shipped no WAL batches"
assert ha["lost_entries"] == 0, "sync acks lost acked entries"
fo = ha["failover"]
assert fo["checker_errors"] == 0, "promoted backup failed the checker"
assert fo["promote_ms"] > 0, "failover reported no promotion work"
k_ha = ha_run["summary"]["write_kops"]
k_one = single["summary"]["write_kops"]
print(f"HA sync A/B: {k_one:.1f} -> {k_ha:.1f} kops "
      f"({k_ha / max(k_one, 1e-9):.3f}x, sync-replication cost), "
      f"{ha['wal_records']} wal records / {ha['repl_mb']:.2f} MB shipped; "
      f"failover {fo['promote_ms']:.1f} ms, "
      f"{fo['drained_entries']} mirror entries drained")
EOF
  # HA partition drill: the same HA pair with a 2 s symmetric partition
  # injected mid-window (partition -> lease lapse -> fenced primary ->
  # promote under a bumped epoch -> heal -> delta reconciliation). Hard
  # gates: the fenced primary rejected writes, nothing acked was lost, the
  # promoted node passes the checker at epoch >= 2, and the rejoin converges
  # with zero write-path bytes while full WAL replay would have moved more.
  echo "==== bench smoke: HA partition drill (partition -> heal -> reconcile) ===="
  "${dir}/tools/kvaccel_dbbench" --system=kvaccel --workload=fillrandom \
    --seconds=10 --scale=0.0625 --ha --repl_ack=sync \
    --net_partition=4:2 --resync_mode=delta \
    --json_out="${out_dir}/smoke_ha_partition.json" > /dev/null
  python3 - "${out_dir}/smoke_ha_partition.json" <<'EOF'
import json, sys
run = json.load(open(sys.argv[1]))["runs"][0]
ha = run["ha"]
assert ha["net_partition"] == 1, "drill ran without a partition window"
assert ha["fenced_write_rejects"] > 0, "fenced primary never rejected a write"
assert ha["lease_expirations"] >= 1, "the primary's lease never lapsed"
assert ha["lost_entries"] == 0, "sync acks lost acked entries"
fo = ha["failover"]
assert fo["checker_errors"] == 0, "promoted backup failed the checker"
assert fo["fence_epoch"] >= 2, "promotion did not bump the fencing epoch"
rj = ha["rejoin"]
assert rj["resync_mode"] == "delta", "drill must measure the delta resync"
assert rj["checker_errors"] == 0, "rejoined node failed convergence"
assert rj["write_path_bytes"] == 0, "delta resync touched the write path"
if rj["resync_entries"] > 0:
    assert rj["wal_replay_bytes"] > rj["write_path_bytes"], (
        "delta resync not strictly cheaper than WAL replay")
print(f"HA partition drill: {ha['fenced_write_rejects']} fenced rejects, "
      f"epoch {fo['fence_epoch']}, delta resync {rj['resync_entries']} "
      f"entries in {rj['rejoin_ms']:.1f} ms "
      f"({rj['write_path_bytes']} write-path vs {rj['wal_replay_bytes']} "
      f"wal-replay bytes)")
EOF
  # NDP A/B: --ndp=off vs --ndp=auto on the same seed/scale, 20 s so several
  # compaction waves land inside the window. Deterministic hard gates: the
  # planner must actually offload, host CPU% must be strictly lower, and
  # efficiency and throughput must be no worse — offloading compaction can
  # only help the foreground. A same-seed auto rerun must be byte-identical.
  echo "==== bench smoke: NDP A/B (--ndp=off vs --ndp=auto) ===="
  "${dir}/tools/kvaccel_dbbench" --system=kvaccel --workload=fillrandom \
    --seconds=20 --scale=0.0625 --ndp=off \
    --json_out="${out_dir}/smoke_ndp_off.json" > /dev/null
  "${dir}/tools/kvaccel_dbbench" --system=kvaccel --workload=fillrandom \
    --seconds=20 --scale=0.0625 --ndp=auto \
    --json_out="${out_dir}/smoke_ndp_auto.json" > /dev/null
  "${dir}/tools/kvaccel_dbbench" --system=kvaccel --workload=fillrandom \
    --seconds=20 --scale=0.0625 --ndp=auto \
    --json_out="${out_dir}/smoke_ndp_auto_rerun.json" > /dev/null
  cmp "${out_dir}/smoke_ndp_auto.json" "${out_dir}/smoke_ndp_auto_rerun.json" \
    || { echo "--ndp=auto bench is nondeterministic across same-seed runs"; exit 1; }
  python3 - "${out_dir}/smoke_ndp_off.json" "${out_dir}/smoke_ndp_auto.json" <<'EOF'
import json, sys
off = json.load(open(sys.argv[1]))["runs"][0]
auto = json.load(open(sys.argv[2]))["runs"][0]
ndp = auto["ndp"]
assert ndp["mode"] == "auto", "smoke must run the auto planner"
assert ndp["compactions"] > 0, "--ndp=auto never completed a device compaction"
s_off, s_auto = off["summary"], auto["summary"]
assert s_auto["cpu_pct"] < s_off["cpu_pct"], (
    f"host CPU not strictly lower: auto {s_auto['cpu_pct']}% "
    f"vs off {s_off['cpu_pct']}%")
assert s_auto["efficiency"] >= s_off["efficiency"], (
    f"efficiency regressed: auto {s_auto['efficiency']} "
    f"vs off {s_off['efficiency']}")
assert s_auto["write_kops"] >= s_off["write_kops"], (
    f"throughput regressed: auto {s_auto['write_kops']} kops "
    f"vs off {s_off['write_kops']} kops")
print(f"NDP A/B: cpu {s_off['cpu_pct']:.2f}% -> {s_auto['cpu_pct']:.2f}%, "
      f"efficiency {s_off['efficiency']:.2f} -> {s_auto['efficiency']:.2f}, "
      f"{s_off['write_kops']:.1f} -> {s_auto['write_kops']:.1f} kops, "
      f"{ndp['compactions']} device compactions "
      f"({ndp['mb_written']:.1f} MB written device-side)")
EOF
  # Open-loop workload-matrix smoke: a pinned-seed skewed (Zipfian 0.99),
  # spiky, two-tenant mixed run measured from scheduled arrival time. Hard
  # gates: a same-seed rerun is byte-identical, the spike drives nonzero
  # deadline misses, every scheduled arrival is accounted (completed or
  # abandoned), and the arrival-time percentiles dominate the service-time
  # ones — the queueing delay coordinated omission used to hide.
  echo "==== bench smoke: open-loop workload matrix (zipfian + spike) ===="
  local openloop_flags=(--system=kvaccel --workload=mixed
    --workload_mix="put=70,get=20,del=5,scan=5" --zipf_theta=0.99
    --arrival=spike --arrival_rate=12000 --tenants=2 --writer_threads=2
    --ttl_frac=0.05 --seconds=10 --scale=0.0625)
  "${dir}/tools/kvaccel_dbbench" "${openloop_flags[@]}" \
    --json_out="${out_dir}/smoke_openloop.json" > /dev/null
  "${dir}/tools/kvaccel_dbbench" "${openloop_flags[@]}" \
    --json_out="${out_dir}/smoke_openloop_rerun.json" > /dev/null
  cmp "${out_dir}/smoke_openloop.json" "${out_dir}/smoke_openloop_rerun.json" \
    || { echo "open-loop bench is nondeterministic across same-seed runs"; exit 1; }
  python3 - "${out_dir}/smoke_openloop.json" <<'EOF'
import json, sys
run = json.load(open(sys.argv[1]))["runs"][0]
ol = run["open_loop"]
assert ol["arrival"] == "spike", "smoke must run the spike arrival curve"
assert ol["scheduled_ops"] > 0, "open-loop run scheduled no arrivals"
assert ol["deadline_misses"] > 0, "spike overload produced no deadline misses"
assert ol["scheduled_ops"] == ol["completed_ops"] + ol["abandoned_ops"], (
    "scheduled arrivals not fully accounted as completed + abandoned")
assert ol["arrival_p99_us"] >= ol["service_p99_us"], (
    "arrival-time P99 below service-time P99 — queueing delay went missing")
tenants = run["tenants"]
assert len(tenants) == 2 and all(
    t["scheduled_ops"] > 0 and t["arrival_p999_us"] >= t["arrival_p50_us"]
    for t in tenants), "per-tenant arrival percentiles missing or inconsistent"
print(f"open-loop smoke: {ol['scheduled_ops']} arrivals, "
      f"{ol['completed_ops']} completed / {ol['abandoned_ops']} abandoned, "
      f"{ol['deadline_misses']} deadline misses, "
      f"service p99 {ol['service_p99_us']:.0f} us vs "
      f"arrival p99 {ol['arrival_p99_us']:.0f} us")
EOF
  python3 tools/merge_smoke.py BENCH_smoke.json \
    "${out_dir}/smoke_rocksdb.json" "${out_dir}/smoke_adoc.json" \
    "${out_dir}/smoke_kvaccel.json" \
    "rocksdb4-nosub=${out_dir}/smoke_sub1.json" \
    "rocksdb4-sub=${out_dir}/smoke_sub4.json" \
    "kvaccel-shards1=${out_dir}/smoke_shards1.json" \
    "kvaccel-shards4=${out_dir}/smoke_shards4.json" \
    "kvaccel-ha-sync=${out_dir}/smoke_ha_sync.json" \
    "kvaccel-ha-partition=${out_dir}/smoke_ha_partition.json" \
    "kvaccel-ndp=${out_dir}/smoke_ndp_auto.json" \
    "kvaccel-openloop=${out_dir}/smoke_openloop.json"
}

mode="${1:-all}"
case "${mode}" in
  plain)
    run_pass "plain" build
    perfbench_tests
    bench_smoke build
    ;;
  sanitize) run_pass "sanitize" build-asan -DKVACCEL_SANITIZE=ON ;;
  bench)
    cmake -B build -S .
    cmake --build build -j "${JOBS}"
    bench_smoke build
    ;;
  all)
    run_pass "plain" build
    perfbench_tests
    bench_smoke build
    run_pass "sanitize" build-asan -DKVACCEL_SANITIZE=ON
    ;;
  *)
    echo "usage: tools/ci.sh [plain|sanitize|bench|all]" >&2
    exit 2
    ;;
esac
echo "CI OK (${mode})"
