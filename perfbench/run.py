#!/usr/bin/env python3
"""KVACCEL benchmark: steady-state workloads, modelled and real metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the benchmark
binary (perfbench/perfbench.cc) against the store's libraries under
$CARGO_TARGET_DIR (default .bench_build).

Each run starts four benchmark processes side by side, each pinned to its own
CPU. Three measure the workload on sub-seeds 0, 1 and 2 of --seed; their
modelled results are pooled, which triples the samples behind every
percentile. The fourth repeats sub-seed 0, untraced with --trace 0 and
traced with --trace 1, and must reproduce sub-seed 0's modelled results,
counters and gates exactly: that is the determinism guard, and with
--trace 1 also the proof that tracing does not perturb the model. Real
metrics are medians over the processes, each of which built its own world,
so setup_s is a median of four set-ups.

Two metric families are never mixed:
  modelled  virtual-time results of the simulated system; exact per seed
  real      the simulator's own wall-clock and memory cost

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end_to_end metrics of BENCHMARK.json with --trace 0, the
per_layer metrics with --trace 1). A failed correctness gate or determinism
check prints correct: false and names the failure on stderr.
perfbench/catalogue.json describes every metric and workload, and names the
held-out seed for checking claims. The benchmark's own tests:

    python3 -m unittest discover -s perfbench
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Virtual seconds measured per --seconds, per sub-seed: each window takes
# half to all of --seconds of wall time on a 4-core x86 machine, and gives
# the modelled metrics a spread across seeds of at most a third of their
# bounds.
WINDOW_PER_SECOND = {
    "ingest": 6.0,
    "read-write": 6.0,
    "ha-sync": 4.0,
    "mixed-open": 10.0,
}
SUB_SEEDS = 3
RUN_TIMEOUT_S = 170
# Modelled figures that describe the model rather than a window: the same in
# every report, so pooling keeps one copy instead of summing them.
CONSTANTS = ("keys", "value_bytes")


def sub_seed(seed, i):
    return seed * 16 + i


# ---------------------------------------------------------------- build


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(ROOT, target, "perfbench")
    exe = os.path.join(bdir, "kvaccel_perfbench")
    configured = os.path.exists(os.path.join(bdir, "CMakeCache.txt"))
    steps = []
    if not configured:
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir] + gen)
    steps.append(["cmake", "--build", bdir, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    return exe


# ---------------------------------------------------------- derivation


def pct(samples, p):
    """Nearest-rank percentile."""
    if not samples:
        return 0.0
    s = sorted(samples)  # linear when already sorted, as pooled samples are
    rank = min(len(s), max(1, math.ceil(len(s) * p / 100)))
    return float(s[rank - 1])


def ratio(a, b):
    return a / b if b else 0.0


def pool(reports):
    """Pools sub-seed reports: sums counts, counters and window lengths,
    joins samples, keeps one copy of the model's constants."""
    out = {"n": len(reports), "modelled": {}, "counters": {}, "gauges": {},
           "stale_readbacks": sum(r["gates"]["stale_readbacks"] for r in reports)}
    for r in reports:
        for k, v in r["modelled"].items():
            if k in CONSTANTS:
                out["modelled"][k] = v
            elif isinstance(v, list):
                out["modelled"].setdefault(k, []).extend(v)
            else:
                out["modelled"][k] = out["modelled"].get(k, 0) + v
        for k, v in r["counters"].items():
            out["counters"][k] = out["counters"].get(k, 0) + v
        for k, v in r.get("gauges", {}).items():
            out["gauges"].setdefault(k, []).append(v)
    out["gauges"] = {k: statistics.median(v) for k, v in out["gauges"].items()}
    for v in out["modelled"].values():
        if isinstance(v, list):
            v.sort()
    return out


def ops(m):
    return m["write_entries"] + m["gets"] + m["scans"]


def user_bytes(m):
    return m["write_entries"] * m["value_bytes"]


def latency_us(samples, p):
    return pct(samples, p) / 1e3


def sim_kops(r):
    return ops(r["modelled"]) / r["real"]["window_wall_s"] / 1e3


def end_to_end(p, reals):
    """End-to-end metrics from a pooled report and per-process real costs."""
    m = p["modelled"]
    w = m["window_s"]
    cpu_pct = m["host_cpu_util"] / p["n"] * 100
    return {
        "write_kops": m["write_entries"] / w / 1e3,
        "op_kops": ops(m) / w / 1e3,
        "op_mean_us": statistics.fmean(m["svc_ns"]) / 1e3 if m["svc_ns"] else 0.0,
        "op_p99_us": latency_us(m["svc_ns"], 99),
        "efficiency": ratio(user_bytes(m) / w / 1e6, cpu_pct),
        "setup_s": statistics.median(r["real"]["setup_cpu_s"] for r in reals),
        "peak_rss_mb": statistics.median(r["real"]["peak_rss_kb"] / 1024 for r in reals),
    }


def per_layer(p, reals, traced=None, untraced_twin=None):
    """Per-layer metrics. Counts and busy seconds are per window of one
    sub-seed; ratios and fractions pool all sub-seeds. `traced` is the traced twin of
    `untraced_twin` and supplies the span-derived numbers."""
    m, c, g, n = p["modelled"], p["counters"], p["gauges"], p["n"]
    w = m["window_s"]
    w_ns = w * 1e9
    ub = user_bytes(m)
    arrival = m["arrival_ns"] or m["svc_ns"]  # closed loop: sent on arrival
    lsm_gets = c.get("core.dev_reads", 0) + c.get("core.main_reads", 0)
    real_kops = sum(ops(r["modelled"]) for r in reals) / 1e3

    def per_call(name):
        return ratio(sum(r["real"][f"span.{name}.wall_ns"] for r in reals),
                     sum(r["modelled"][f"span.{name}.count"] for r in reals))

    t = traced["trace"] if traced else {}

    def span(*names):
        return sum(t.get(f"span_s.{x}", 0.0) for x in names)

    return {
        # Workload-specific end-to-end figures (not on every workload, so
        # not bounded; see catalogue.json).
        "read_kops": m["gets"] / w / 1e3,
        "put_p50_us": latency_us(m["put_ns"], 50),
        "put_p999_us": latency_us(m["put_ns"], 99.9),
        "get_p50_us": latency_us(m["get_ns"], 50),
        "get_p999_us": latency_us(m["get_ns"], 99.9),
        "op_p999_us": latency_us(m["svc_ns"], 99.9),
        "arrival_p50_us": latency_us(arrival, 50),
        "arrival_p999_us": latency_us(arrival, 99.9),
        "deadline_miss_frac": ratio(m["deadline_misses"], m["scheduled"]),
        "failed_frac": ratio(m["failed"], m["attempted"]),
        "promote_ms": m["promote_ns"] / n / 1e6,
        # harness: the benchmark's own view of the store
        "harness.ops_attempted": m["attempted"] / n,
        "harness.ops_failed": m["failed"] / n,
        "harness.put_samples": len(m["put_ns"]),
        "harness.get_samples": len(m["get_ns"]),
        "harness.op_samples": len(m["svc_ns"]),
        "harness.queue_p999_us": latency_us(m["queue_ns"], 99.9),
        "harness.stale_reads": m["stale_reads"] / n,
        "harness.stale_readbacks": p["stale_readbacks"] / n,
        "harness.wall_ns_per_call.write": per_call("write"),
        "harness.wall_ns_per_call.get": per_call("get"),
        "harness.wall_ns_per_call.seek": per_call("seek"),
        "harness.wall_ns_per_call.next": per_call("next"),
        # core: KvaccelDB (Detector/Controller, Metadata Manager, rollback)
        "core.redirect_frac": ratio(c.get("core.redirected_writes", 0),
                                    c.get("core.redirected_writes", 0) + c.get("core.direct_writes", 0)),
        "core.redirect_batch_mean_us": ratio(c.get("core.redirect_batch_ns", 0),
                                             c.get("core.redirected_batches", 0)) / 1e3,
        "core.redirect_cmd_p999_us": latency_us(t.get("put_compound_ns", []), 99.9),
        "core.rollback.count": c.get("core.rollbacks", 0) / n,
        "core.rollback.entries": c.get("core.rollback_entries", 0) / n,
        "core.rollback.busy_frac": c.get("core.rollback_ns", 0) / w_ns,
        "core.read_dev_frac": ratio(c.get("core.dev_reads", 0), lsm_gets),
        "core.md.checks_per_get": ratio(c.get("core.md_checks", 0), lsm_gets),
        "core.dev_retries": c.get("core.dev_retries", 0) / n,
        "core.fallback_writes": c.get("core.fallback_writes", 0) / n,
        # repl: ReplicatedKvaccelDB and its NetLink
        "repl.sync_ship_frac": c.get("repl.sync_ship_ns", 0) / w_ns,
        "repl.entries_per_record": ratio(c.get("repl.wal_entries", 0), c.get("repl.wal_records", 0)),
        "repl.bytes_per_user_byte": ratio(c.get("repl.bytes", 0), ub),
        "repl.net.messages": c.get("repl.net.messages", 0) / n,
        "ha.promote_drained": m["promote_drained"] / n,
        # lsm: the Main-LSM
        "lsm.stall_frac": m["stall_s"] / w,
        "lsm.stall.events": c.get("lsm.stall.events", 0) / n,
        "lsm.slowdown.events": c.get("lsm.slowdown.events", 0) / n,
        "lsm.group_commit_mean": ratio(c.get("lsm.group_commit.entries", 0), c.get("lsm.write_groups", 0)),
        "lsm.write_amp": ratio(c.get("lsm.flush.bytes", 0) + c.get("lsm.compaction.bytes_written", 0), ub),
        "lsm.compaction.throttle_s": c.get("lsm.compaction.throttle_ns", 0) / n / 1e9,
        "lsm.compaction.read_s": span("compaction.read"),
        "lsm.compaction.merge_s": span("compaction.merge"),
        "lsm.compaction.write_s": span("compaction.write"),
        "lsm.flush.busy_s": span("flush"),
        "lsm.wal.busy_s": span("wal.append", "wal.sync"),
        "lsm.block_cache.hit_rate": ratio(c.get("lsm.block_cache.hits", 0),
                                          c.get("lsm.block_cache.hits", 0) + c.get("lsm.block_cache.misses", 0)),
        # devlsm: the in-device Dev-LSM
        "devlsm.entries_per_cmd": ratio(c.get("devlsm.compound_entries", 0), c.get("devlsm.compound_cmds", 0)),
        "devlsm.gets": c.get("devlsm.gets", 0) / n,
        "devlsm.bulk_scans": c.get("devlsm.bulk_scans", 0) / n,
        "devlsm.put_compound.busy_s": span("dev.put_compound"),
        "devlsm.flush.busy_s": span("dev.flush"),
        "devlsm.compact.busy_s": span("dev.compact"),
        "devlsm.scan_chunk.busy_s": span("dev.scan_chunk"),
        "core.redirect_window_s": span("stall.redirect"),
        # fs: SimFs
        "fs.space_per_user_byte": ratio(g.get("fs.used_bytes", 0), m["keys"] * m["value_bytes"]),
        # ssd: HybridSsd, NAND, FTL
        "ssd.pcie.busy_frac": c.get("ssd.pcie.busy_ns", 0) / w_ns,
        "ssd.nand.busy_frac": c.get("ssd.nand.busy_ns", 0) / (w_ns * g.get("ssd.nand.channels", 1)),
        "ssd.firmware.busy_frac": c.get("ssd.firmware.busy_ns", 0) / w_ns,
        "ssd.zero_traffic_stall_s": m["zero_traffic_stall_s"] / n,
        "ssd.nand.bytes_written_per_user_byte": ratio(c.get("ssd.nand.bytes_written", 0), ub),
        "ssd.nand.bytes_read_per_get": ratio(c.get("ssd.nand.bytes_read", 0), m["gets"]),
        "ssd.ftl.write_amplification": g.get("ssd.ftl.write_amplification", 1.0),
        "ssd.ftl.gc_runs": c.get("ssd.ftl.gc_runs", 0) / n,
        # sim: the host CPU model and the simulator's own cost
        "sim_kops_per_wall_s": statistics.median(sim_kops(r) for r in reals),
        "sim.setup_wall_s": statistics.median(r["real"]["setup_wall_s"] for r in reals),
        "host.cpu.busy_s": c.get("host.cpu.busy_ns", 0) / n / 1e9,
        "sim.os_switches_per_kop": ratio(sum(r["real"]["window_switches"] for r in reals), real_kops),
        "sim.user_s_per_kop": ratio(sum(r["real"]["window_user_s"] for r in reals), real_kops),
        "sim.sys_s_per_kop": ratio(sum(r["real"]["window_sys_s"] for r in reals), real_kops),
        # obs: the tracer, from the traced twin
        "obs.trace.events": t.get("events", 0),
        "obs.trace.dropped": t.get("dropped", 0),
        "obs.trace_overhead": ratio(traced["real"]["window_wall_s"], untraced_twin["real"]["window_wall_s"])
        if traced and untraced_twin else 0.0,
    }


# --------------------------------------------------------------- gates


def gate(r):
    """Correctness failures of one process's report (empty list = pass)."""
    g, m = r["gates"], r["modelled"]
    bad = []
    if g["setup_failures"]:
        bad.append(f"{g['setup_failures']} ops failed before the window: {g['first_failure']}")
    if g["wrong_values"]:
        bad.append(f"{g['wrong_values']} wrong values: {g['first_wrong']}")
    if g["background_error"]:
        bad.append(f"latched background error: {g['background_error']}")
    if g["readback_checked"] == 0:
        bad.append("no acknowledged key was read back")
    if g["checker_errors"] != 0:
        bad.append(f"checker: {g['checker_errors']} errors ({g['first_wrong']})")
    if g["lost_entries"]:
        bad.append(f"failover lost {g['lost_entries']} acknowledged entries")
    # Stale read-backs are lost acknowledged writes, except those a single
    # node served through its Dev-LSM path (a known store finding, see
    # catalogue.json); after a failover none is excused.
    lost = g["stale_readbacks"] - g["stale_readbacks_dev"]
    if lost:
        bad.append(f"{lost} read-backs found an older version than the last acknowledged write")
    if m["scheduled"] and m["scheduled"] != m["completed"] + m["abandoned"]:
        bad.append(f"scheduled {m['scheduled']} != completed {m['completed']} + abandoned {m['abandoned']}")
    if "trace" in r:
        t = r["trace"]
        if t["dropped"]:
            bad.append(f"tracer dropped {t['dropped']} events")
        if t["events"] and not t["parsed"]:
            bad.append("trace could not be parsed")
    return bad


def mismatches(a, b):
    """Names of modelled results or counters that differ between two runs
    of the same sub-seed."""
    out = []
    for part in ("modelled", "counters", "gauges", "gates"):
        keys = sorted(set(a.get(part, {})) | set(b.get(part, {})))
        out += [f"{part}.{k}" for k in keys if a[part].get(k) != b[part].get(k)]
    return out


# ----------------------------------------------------------------- run


def drive(exe, workload, seed, window_s, trace, cpu):
    cmd = [exe, f"--workload={workload}", f"--seed={seed}", f"--window_s={window_s}", f"--cpu={cpu}"]
    if trace:
        cmd.append("--trace")
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if r.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {r.returncode}: {r.stderr.strip()[-500:]}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WINDOW_PER_SECOND))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in (0, 60]")

    exe = build()
    if exe is None:
        return 1
    window_s = round(WINDOW_PER_SECOND[args.workload] * args.seconds, 3)
    jobs = [(sub_seed(args.seed, i), False) for i in range(SUB_SEEDS)]
    jobs.append((sub_seed(args.seed, 0), bool(args.trace)))
    # One process per CPU, pinned (see --cpu in perfbench.cc).
    cpus = sorted(os.sched_getaffinity(0))
    try:
        with ThreadPoolExecutor(len(jobs)) as ex:
            reports = list(ex.map(
                lambda i: drive(exe, args.workload, jobs[i][0], window_s, jobs[i][1], cpus[i % len(cpus)]),
                range(len(jobs))))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    measured, twin = reports[:SUB_SEEDS], reports[SUB_SEEDS]
    problems = []
    for r in reports:
        problems += [f"sub-seed {r['seed']}: {b}" for b in gate(r)]
    problems += [f"same-seed repeat differs in {k}" for k in mismatches(reports[0], twin)]
    for p in problems:
        print(f"perfbench: FAIL {p}", file=sys.stderr)

    pooled = pool(measured)
    if args.trace:
        metrics = per_layer(pooled, measured, traced=twin, untraced_twin=reports[0])
    else:
        metrics = end_to_end(pooled, reports)
    units = catalogue_units("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": not problems,
        "attempted": int(pooled["modelled"]["attempted"]),
        "failed": int(pooled["modelled"]["failed"]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def catalogue_units(section):
    with open(os.path.join(HERE, "catalogue.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


if __name__ == "__main__":
    sys.exit(main())
