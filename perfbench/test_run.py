"""Tests of the benchmark's derivations, gates and output, from fixture
reports. Needs no build:

    python3 -m unittest discover -s perfbench
"""

import contextlib
import copy
import io
import json
import os
import unittest
from unittest import mock

import run

HERE = os.path.dirname(os.path.abspath(__file__))


def fixture(name):
    with open(os.path.join(HERE, "fixtures", name)) as f:
        return json.load(f)


def load(path):
    with open(path) as f:
        return json.load(f)


class DerivationTest(unittest.TestCase):
    def setUp(self):
        self.r = fixture("report.json")
        self.p = run.pool([self.r])

    def test_end_to_end(self):
        e = run.end_to_end(self.p, [self.r])
        self.assertAlmostEqual(e["write_kops"], 0.1)
        self.assertAlmostEqual(e["op_kops"], 0.2)
        self.assertAlmostEqual(e["op_mean_us"], 5.5)
        self.assertAlmostEqual(e["op_p99_us"], 10.0)
        self.assertAlmostEqual(e["efficiency"], 0.41 / 5)
        self.assertAlmostEqual(e["setup_s"], 1.5)
        self.assertAlmostEqual(e["peak_rss_mb"], 100.0)

    def test_derived_ratios(self):
        m = run.per_layer(self.p, [self.r])
        expected = {
            "core.redirect_frac": 0.3,
            "core.redirect_batch_mean_us": 500.0,
            "core.read_dev_frac": 0.25,
            "core.md.checks_per_get": 2.0,
            "core.rollback.busy_frac": 0.1,
            "lsm.write_amp": 3.0,
            "lsm.group_commit_mean": 2.8,
            "lsm.stall_frac": 0.25,
            "lsm.block_cache.hit_rate": 0.25,
            "repl.entries_per_record": 8.0,
            "repl.bytes_per_user_byte": 0.5,
            "repl.sync_ship_frac": 0.4,
            "devlsm.entries_per_cmd": 3.0,
            "fs.space_per_user_byte": 2.0,
            "ssd.nand.busy_frac": 0.5,
            "ssd.nand.bytes_written_per_user_byte": 3.0,
            "ssd.nand.bytes_read_per_get": 10000.0,
            "deadline_miss_frac": 0.25,
            "failed_frac": 0.0,
            "promote_ms": 40.0,
            "harness.queue_p999_us": 80.0,
            "harness.wall_ns_per_call.write": 10000.0,
            "harness.wall_ns_per_call.next": 1000.0,
            "harness.stale_reads": 3,
            "harness.stale_readbacks": 1,
            "sim.os_switches_per_kop": 20000.0,
            "sim_kops_per_wall_s": 1.0,
        }
        for name, value in expected.items():
            self.assertAlmostEqual(m[name], value, msg=name)

    def test_percentiles_and_sample_counts(self):
        m = run.per_layer(self.p, [self.r])
        self.assertEqual(m["harness.put_samples"], 4)
        self.assertEqual(m["harness.get_samples"], 2)
        self.assertEqual(m["harness.op_samples"], 10)
        self.assertAlmostEqual(m["arrival_p50_us"], 5.0)
        self.assertAlmostEqual(m["arrival_p999_us"], 90.0)
        self.assertAlmostEqual(m["put_p50_us"], 2.0)
        self.assertEqual(run.pct([], 50), 0.0)
        self.assertEqual(run.pct([3, 1, 2], 100), 3.0)

    def test_closed_loop_arrival_is_submission(self):
        r = copy.deepcopy(self.r)
        r["modelled"]["arrival_ns"] = []
        m = run.per_layer(run.pool([r]), [r])
        self.assertAlmostEqual(m["arrival_p999_us"], 10.0)

    def test_pooling_sums_counts_and_joins_samples(self):
        p = run.pool([self.r, self.r])
        self.assertEqual(p["n"], 2)
        self.assertEqual(len(p["modelled"]["svc_ns"]), 20)
        self.assertEqual(p["modelled"]["value_bytes"], 4100)
        self.assertEqual(p["modelled"]["keys"], 1000)
        e = run.end_to_end(p, [self.r, self.r])
        self.assertAlmostEqual(e["write_kops"], 0.1)
        # Rates and ratios of a pool of identical reports are those of one.
        self.assertAlmostEqual(e["efficiency"], 0.41 / 5)
        m = run.per_layer(p, [self.r, self.r])
        self.assertAlmostEqual(m["core.rollback.count"], 2.0)
        self.assertAlmostEqual(m["core.rollback.busy_frac"], 0.1)
        self.assertAlmostEqual(m["lsm.write_amp"], 3.0)
        self.assertAlmostEqual(m["fs.space_per_user_byte"], 2.0)
        self.assertAlmostEqual(m["repl.bytes_per_user_byte"], 0.5)
        self.assertAlmostEqual(m["ssd.nand.bytes_written_per_user_byte"], 3.0)
        self.assertEqual(m["harness.op_samples"], 20)

    def test_trace_numbers_come_from_the_traced_twin(self):
        traced = copy.deepcopy(self.r)
        traced["real"]["window_wall_s"] = 2.2
        traced["trace"] = {"events": 10, "dropped": 0, "parsed": 10,
                           "put_compound_ns": [3000, 7000],
                           "span_s.wal.append": 1.0, "span_s.wal.sync": 0.5}
        m = run.per_layer(self.p, [self.r], traced=traced, untraced_twin=self.r)
        self.assertAlmostEqual(m["lsm.wal.busy_s"], 1.5)
        self.assertAlmostEqual(m["core.redirect_cmd_p999_us"], 7.0)
        self.assertAlmostEqual(m["obs.trace_overhead"], 1.1)


class GateTest(unittest.TestCase):
    def test_clean_report_passes(self):
        self.assertEqual(run.gate(fixture("report.json")), [])

    def test_lost_entries_and_checker_errors_fail(self):
        bad = run.gate(fixture("report_failover_lost.json"))
        self.assertTrue(any("lost 5" in b for b in bad), bad)
        self.assertTrue(any("checker: 2 errors" in b for b in bad), bad)
        self.assertTrue(any("3 read-backs found an older version" in b for b in bad), bad)

    def test_stale_read_back_fails_unless_served_by_the_dev_lsm(self):
        r = fixture("report.json")
        r["gates"]["stale_readbacks"] = 2
        bad = run.gate(r)
        self.assertTrue(any("1 read-backs found an older version" in b for b in bad), bad)
        r["gates"]["stale_readbacks_dev"] = 2
        self.assertEqual(run.gate(r), [])

    def test_each_gate(self):
        cases = [
            (("gates", "wrong_values"), 1, "wrong values"),
            (("gates", "setup_failures"), 2, "before the window"),
            (("gates", "background_error"), "IO error", "background error"),
            (("gates", "readback_checked"), 0, "read back"),
            (("modelled", "abandoned"), 5, "scheduled"),
        ]
        for (part, key), value, needle in cases:
            r = fixture("report.json")
            r[part][key] = value
            bad = run.gate(r)
            self.assertTrue(any(needle in b for b in bad), (key, bad))

    def test_dropped_trace_events_fail(self):
        r = fixture("report.json")
        r["trace"] = {"events": 10, "dropped": 1, "parsed": 10}
        self.assertTrue(any("dropped" in b for b in run.gate(r)))

    def test_mismatch_names_the_metric(self):
        a = fixture("report.json")
        b = copy.deepcopy(a)
        self.assertEqual(run.mismatches(a, b), [])
        b["counters"]["core.rollbacks"] += 1
        b["modelled"]["svc_ns"][0] += 1
        self.assertEqual(run.mismatches(a, b),
                         ["modelled.svc_ns", "counters.core.rollbacks"])


class OutputTest(unittest.TestCase):
    """main() with the benchmark binary replaced by fixture reports."""

    def run_main(self, trace, bad=None):
        """`bad` replaces the report of sub-seed 1."""
        def drive(exe, workload, seed, window_s, traced, cpu):
            r = bad if bad is not None and seed == run.sub_seed(1, 1) else fixture("report.json")
            r["seed"] = seed
            if traced:
                r["trace"] = {"events": 5, "dropped": 0, "parsed": 5}
            return r
        out = io.StringIO()
        with mock.patch.object(run, "build", return_value="exe"), \
                mock.patch.object(run, "drive", drive), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = run.main(["--workload", "ingest", "--seed", "1", "--seconds", "1",
                           "--trace", str(trace)])
        self.assertEqual(rc, 0)
        return json.loads(out.getvalue().strip().splitlines()[-1])

    def test_result_carries_every_metric_in_benchmark_json(self):
        bench = load(os.path.join(HERE, "..", "BENCHMARK.json"))
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            res = self.run_main(trace)
            self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(res["correct"])
            self.assertEqual(res["attempted"], 6000)
            want = {m["name"]: m["unit"] for m in bench[section]}
            self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, want)

    def test_failed_gate_makes_the_run_incorrect(self):
        self.assertFalse(self.run_main(0, bad=fixture("report_failover_lost.json"))["correct"])


class CatalogueTest(unittest.TestCase):
    def test_benchmark_json_repeats_the_catalogue(self):
        cat = load(os.path.join(HERE, "catalogue.json"))
        bench = load(os.path.join(HERE, "..", "BENCHMARK.json"))
        for section, keys in (("end_to_end", ("name", "unit", "better", "bound")),
                              ("per_layer", ("name", "unit", "better"))):
            self.assertEqual(bench[section], [{k: m[k] for k in keys} for m in cat[section]])
        self.assertEqual(bench["workloads"],
                         [{"name": w["name"], "why": w["why"]} for w in cat["workloads"]])
        self.assertEqual({w["name"] for w in cat["workloads"]}, set(run.WINDOW_PER_SECOND))
        for w in cat["workloads"]:
            self.assertEqual(w["window_s_per_second"], run.WINDOW_PER_SECOND[w["name"]])
        self.assertNotIn(cat["held_out_seed"], range(1, 11))

    def test_every_moved_metric_exists(self):
        cat = load(os.path.join(HERE, "catalogue.json"))
        names = {m["name"] for m in cat["end_to_end"] + cat["per_layer"]}
        workloads = {w["name"] for w in cat["workloads"]}
        for m in cat["per_layer"]:
            for mv in m["moves"]:
                self.assertIn(mv["metric"], names, m["name"])
                self.assertLessEqual(set(mv["workloads"]), workloads, m["name"])


if __name__ == "__main__":
    unittest.main()
