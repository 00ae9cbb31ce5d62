"""Self-test of the benchmark: a tiny pass of every workload, traced and
untraced; tampered expected answers that the gate must report as failed
queries; BENCHMARK.json in step with the metrics produced; and a refusal
to run without the program.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
import unittest

import run
from harness import OUT, ROOT, load_bnkit
from workloads import CLI_COMMANDS, WORKLOADS, Cli, Search, cli_key, load_goldens

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(workload, trace=False, make=None):
    return run.run(workload, 7, 0, trace, tiny=True, setup_n=1, make=make)


class TinyPasses(unittest.TestCase):
    def test_each_workload_untraced_and_traced(self):
        e2e = {m["name"] for m in SPEC["end_to_end"]}
        layers = {m["name"] for m in SPEC["per_layer"]}
        for name in WORKLOADS:
            with self.subTest(workload=name):
                line, _ = tiny(name)
                self.assertTrue(line["correct"], line)
                self.assertEqual(line["failed"], 0)
                self.assertEqual(set(line["metrics"]), e2e)
                self.assertTrue(all(m["value"] > 0 for m in line["metrics"].values()))
                line, _ = tiny(name, trace=True)
                self.assertTrue(line["correct"], line)
                self.assertEqual(set(line["metrics"]), layers)


class TamperedAnswers(unittest.TestCase):
    def test_wrong_golden_is_a_failed_query(self):
        goldens = load_goldens()
        key = cli_key(next(c for c in CLI_COMMANDS if c[1] == "json" and c[2] == 0))
        goldens[key] = goldens[key].replace("}", " }", 1)

        def make(name, bn, seed, small):
            if name == "cli":
                return Cli(bn, seed, tiny=small, goldens=goldens)
            return WORKLOADS[name](bn, seed, tiny=small)

        line, record = tiny("cli", make=make)
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 1)
        self.assertIn("differs from the golden", record["failures"][0])

    def test_wrong_oracle_count_is_a_failed_query(self):
        def make(name, bn, seed, small):
            inv = types.SimpleNamespace(
                rho=bn.invariants.rho,
                count_grd=lambda g, r, d: bn.invariants.count_grd(g, r, d) + 1,
            )
            return Search(types.SimpleNamespace(**{**vars(bn), "invariants": inv}), seed, tiny=small)

        line, record = tiny("search", make=make)
        bn = load_bnkit()
        rho_zero = [q for q in Search(bn, 7, tiny=True).queries if bn.invariants.rho(*q) == 0]
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], len(rho_zero))
        self.assertGreater(len(rho_zero), 0)


class Spec(unittest.TestCase):
    def test_names_and_units_match_the_code(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]}, run.per_layer_units())
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(WORKLOADS))

    def test_refuses_to_run_without_the_program(self):
        bare = OUT / "selftest_bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in (ROOT / "perfbench").iterdir():
            if path.is_file():
                shutil.copy(path, bare / "perfbench")
        try:
            res = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "search",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(res.returncode, 0)
        self.assertNotIn('"correct"', res.stdout)


if __name__ == "__main__":
    unittest.main()
