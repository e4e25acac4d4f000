#!/usr/bin/env python3
"""Toy-scale self-test of the benchmark (perfbench/run.py --toy).

Run from the repository root:
    python3 perfbench/tests/test_perfbench.py

Checks, on small graphs, that every metric BENCHMARK.json names is emitted
with its unit, that the output oracle rejects an injected wrong answer, that
trace spans nest, and that the traced layers plus trace.unattributed_s sum
to the traced run time.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RESULTS = ROOT / ".bench_build" / "perfbench" / "results"
TRACES = ROOT / ".bench_build" / "perfbench" / "traces"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "0.5", "--trace",
           str(trace), "--toy", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def record(workload, trace):
    tag = f"{workload}-seed{SEED}-trace{trace}-toy"
    return json.loads((RESULTS / f"{tag}.json").read_text())


class Runs:
    """Runs each workload once per trace mode and keeps the results."""
    cache = {}

    @classmethod
    def get(cls, workload, trace):
        key = (workload, trace)
        if key not in cls.cache:
            cls.cache[key] = run(workload, trace)
        return cls.cache[key]


class MetricsTest(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    code, result, err = Runs.get(w, trace)
                    self.assertEqual(code, 0, err)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]),
                                     {m["name"] for m in listed})
                    for m in listed:
                        got = result["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"], m["name"])
                        self.assertIsInstance(got["value"], (int, float))
                        if trace == 0:
                            self.assertGreater(got["value"], 0, m["name"])


class OracleTest(unittest.TestCase):
    def test_injected_wrong_answer_is_rejected(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, _ = run(w, 0, "--inject-wrong")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)


def inside(inner, outer):
    return (outer["ts"] <= inner["ts"] + 1e-3 and
            inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-3)


class TraceTest(unittest.TestCase):
    def test_spans_nest(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, _, err = Runs.get(w, 1)
                self.assertEqual(code, 0, err)
                doc = json.loads(
                    (TRACES / f"{w}-seed{SEED}-trace1-toy.json").read_text())
                events = doc["traceEvents"]
                self.assertTrue(events)
                runs = [e for e in events if e["name"] == "ScrEngine::run"]
                rounds = {e["args"]["parent"]: e for e in events
                          if e["name"] == "round"}
                for e in events:
                    self.assertGreaterEqual(e["dur"], 0)
                    r = e["args"]["parent"]
                    if e["name"] in ("process_tile", "begin_iteration",
                                     "end_iteration", "begin_round",
                                     "end_round"):
                        self.assertIn(r, rounds, e)
                        self.assertTrue(inside(e, rounds[r]), e)
                    if e["name"] == "round":
                        self.assertTrue(any(inside(e, er) for er in runs), e)
                if w == "serve-ingest":
                    names = {e["name"] for e in events}
                    self.assertTrue({"job", "client.submit", "client.ingest",
                                     "client.compact"} <= names, names)
                else:
                    self.assertTrue(runs)
                    self.assertTrue(any(e["name"] == "process_tile"
                                        for e in events))

    def test_layers_sum_to_run_time(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, _, err = Runs.get(w, 1)
                self.assertEqual(code, 0, err)
                rec = record(w, 1)
                threads = rec["provenance"]["omp_num_threads"]
                m = {k: v["value"] for k, v in rec["metrics"].items()}
                parts = (m["io.wait_s"] + m["algo.busy_s"] / threads +
                         m["algo.barrier_s"] + m["algo.hook_s"] +
                         m["store.self_s"] + m["trace.unattributed_s"])
                self.assertAlmostEqual(parts, m["trace.run_s"],
                                       delta=1e-6 + 1e-6 * m["trace.run_s"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
