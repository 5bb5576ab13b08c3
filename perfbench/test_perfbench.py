#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from anywhere:

    python3 perfbench/test_perfbench.py

They build the benchmark like run.py does, then check that the printed
names and units are the ones BENCHMARK.json declares, that one seed gives
byte-identical sim_* lines, that p99 is gated on its tail sample count,
that a tampered ledger trips the audit, and that the benchmark refuses to
run without the dicho sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                           *args], capture_output=True, text=True, cwd=cwd,
                          timeout=900)


class SpecTest(unittest.TestCase):
    def test_schema(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        names = [w["name"] for w in spec["workloads"]]
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))

    def test_p99_gate(self):
        # Histogram::Percentile interpolates at rank p/100*(n-1): with 1000
        # samples p99 sits between samples 989 and 990, leaving 10 beyond.
        self.assertEqual(run.tail_samples(1000, 99), 10)
        self.assertEqual(run.tail_samples(900, 99), 9)
        self.assertEqual(run.tail_samples(0, 99), 0)
        self.assertTrue(run.p99_supported(1000))
        self.assertFalse(run.p99_supported(900))
        layer = {"phase.read.p99_ms": 5.0, "phase.read.samples": 900,
                 "phase.order.p99_ms": 7.0, "phase.order.samples": 5000,
                 "sim_read_p99_ms": 3.0, "sim_reads": 20,
                 "consensus.round_p99_ms": 2.0, "consensus.round_samples": 1000}
        gated = run.gate_p99(dict(layer))
        self.assertEqual(gated["phase.read.p99_ms"], 0.0)
        self.assertEqual(gated["sim_read_p99_ms"], 0.0)
        self.assertEqual(gated["phase.order.p99_ms"], 7.0)
        self.assertEqual(gated["consensus.round_p99_ms"], 2.0)


class OutputTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def result(self, *args):
        proc = bench(*args)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        return lines, json.loads(lines[-1])

    def check_names(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(list(result["metrics"]), list(units))
        for name, metric in result["metrics"].items():
            self.assertRegex(name, NAME)
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertEqual(metric["unit"], units[name])
            self.assertIsInstance(metric["value"], (int, float))

    def test_end_to_end_names_match_spec(self):
        spec = load_spec()
        for workload in ("mixed-rw-tidb", "skew-occ-fabric"):
            _, result = self.result("--workload", workload, "--seed", "3",
                                    "--seconds", "1", "--trace", "0")
            self.check_names(result, spec["end_to_end"])
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, name)

    def test_per_layer_names_match_spec(self):
        _, result = self.result("--workload", "mixed-rw-tidb", "--seed", "3",
                                "--seconds", "1", "--trace", "1")
        self.check_names(result, load_spec()["per_layer"])

    def test_same_seed_gives_identical_sim_lines(self):
        runs = []
        for _ in range(2):
            lines, _ = self.result("--workload", "mixed-rw-tidb", "--seed", "4",
                                   "--seconds", "1", "--trace", "0")
            runs.append([line for line in lines if line.startswith("sim ")])
        self.assertEqual(len(runs[0]), 1)
        self.assertEqual(runs[0], runs[1])

    def test_tampered_chain_trips_audit(self):
        for workload in ("skew-occ-fabric", "large-value-harmony"):
            run.run_rep(workload, 1, 5, traced=False)
            with self.assertRaises(run.CheckFailed) as caught:
                run.run_rep(workload, 1, 5, traced=False, extra=["--tamper-check"])
            self.assertIn("ledger-verify", str(caught.exception))

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(run.ROOT, ".bench_out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "mixed-rw-tidb", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
