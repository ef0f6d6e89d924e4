#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny inputs.

    python3 perfbench/test_bench.py

Builds the benchmark like run.py does, then checks that every workload
prints every metric BENCHMARK.json names with its unit, that the
deterministic counters repeat under one seed and change under another,
that span self times add up to the traced run's wall time, and that
metrics.json documents every metric. The Rust unit tests run with
`cargo test --manifest-path perfbench/Cargo.toml`.
"""

import json
import os
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
DOC = json.load(open(os.path.join(HERE, "metrics.json")))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
DETERMINISTIC = [
    "sim_cycles_per_tuple",
    "amac_tier.sim_stalls_per_tuple",
    "amac_ops.probe.nodes_per_lookup",
    "amac.amu.issued_per_lookup",
]


def run(workload, seed, trace, spans=None):
    """Run one tiny benchmark; return (result object, stdout, wall seconds)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    if spans:
        cmd += ["--spans", spans]
    t = time.monotonic()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - t
    if p.returncode != 0:
        raise AssertionError(f"{cmd} exited {p.returncode}:\n{p.stderr[-3000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1]), p.stdout, wall


class Metrics(unittest.TestCase):
    def check_names(self, result, declared):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in declared})
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_workload_prints_every_metric_with_its_unit(self):
        for w in WORKLOADS:
            with self.subTest(workload=w, trace=0):
                self.check_names(run(w, 3, 0)[0], BENCH["end_to_end"])
            with self.subTest(workload=w, trace=1):
                with tempfile.TemporaryDirectory() as d:
                    result = run(w, 3, 1, os.path.join(d, "spans.tsv"))[0]
                self.check_names(result, BENCH["per_layer"])

    def test_deterministic_counters_repeat_per_seed(self):
        with tempfile.TemporaryDirectory() as d:
            spans = os.path.join(d, "spans.tsv")
            a = run("join-large", 5, 1, spans)[0]["metrics"]
            b = run("join-large", 5, 1, spans)[0]["metrics"]
            c = run("join-large", 6, 1, spans)[0]["metrics"]
        for name in DETERMINISTIC:
            with self.subTest(metric=name):
                self.assertEqual(a[name]["value"], b[name]["value"])
                self.assertNotEqual(a[name]["value"], c[name]["value"])

    def test_span_self_times_sum_to_the_traced_wall_time(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "spans.tsv")
            _, out, wall = run("join-large", 7, 1, path)
            rows = [line.rstrip("\n").split("\t") for line in open(path)][1:]
        spans = [(int(i), None if p == "-" else int(p), n, int(s), int(e)) for i, p, n, s, e in rows]
        own = {i: e - s for i, _, _, s, e in spans}
        for i, p, _, s, e in spans:
            if p is not None:
                own[p] -= e - s
        roots = [(s, e) for _, p, _, s, e in spans if p is None]
        self.assertEqual(len(roots), 1)
        root_ns = roots[0][1] - roots[0][0]
        self.assertTrue(all(v >= 0 for v in own.values()))
        self.assertEqual(sum(own.values()), root_ns)
        printed = [l for l in out.splitlines() if l.startswith("# wall_ns = ")]
        self.assertEqual(int(printed[0].split("=")[1]), root_ns)
        # The root span covers the run: most of the process's wall time
        # (the rest is process start, argument parsing and the build check).
        self.assertLessEqual(root_ns / 1e9, wall)
        self.assertGreater(root_ns / 1e9, 0.5 * wall)


class Documentation(unittest.TestCase):
    def test_metrics_json_documents_every_metric_and_workload(self):
        self.assertEqual(sorted(DOC["workloads"]), sorted(WORKLOADS))
        self.assertFalse(set(DOC["profiled_only"]) & set(WORKLOADS))
        for m in BENCH["end_to_end"]:
            doc = DOC["end_to_end"][m["name"]]
            self.assertTrue("all" in doc or set(WORKLOADS) <= set(doc), m["name"])
        self.assertEqual(sorted(DOC["per_layer"]), sorted(m["name"] for m in BENCH["per_layer"]))
        # A per-layer metric moves a gated or a reported end-to-end metric.
        e2e = {m["name"] for m in BENCH["end_to_end"]} | set(DOC["reported"]) - {"about"}
        for name, doc in DOC["per_layer"].items():
            self.assertIn(doc["on"], WORKLOADS + list(DOC["profiled_only"]), name)
            self.assertTrue(set(doc["moves"]) <= e2e, name)


if __name__ == "__main__":
    unittest.main()
