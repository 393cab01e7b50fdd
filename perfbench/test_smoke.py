"""Smoke test for the benchmark itself; takes a few minutes.

    python3 perfbench/test_smoke.py

Runs every workload at minimal length (`--seconds 0`: one timed pass) in both
modes. Each run must print every metric BENCHMARK.json names, with its unit,
and no run may fail its checks. The test also shows that the output check can
fail: a copy of the checkout with one pinned row corrupted must report a
failed run. A copy holding only the benchmark's own files must exit non-zero
without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 180


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S, check=False)


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_benchmark(dest: Path, with_sources: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dest / path,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


class SmokeTest(unittest.TestCase):
    def check_metrics(self, trace: int, kind: str) -> None:
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload, trace=trace):
                proc = bench(ROOT, workload, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                out = result(proc)
                self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(out["correct"])
                self.assertGreaterEqual(out["attempted"], 1)
                self.assertEqual(out["failed"], 0)
                self.assertIn("fail_ratio   value=0 ratio", proc.stdout)
                for metric in SPEC[kind]:
                    self.assertEqual(out["metrics"][metric["name"]]["unit"], metric["unit"])
                    self.assertIsInstance(out["metrics"][metric["name"]]["value"], (int, float))

    def test_end_to_end_metrics(self):
        self.check_metrics(0, "end_to_end")

    def test_per_layer_metrics(self):
        self.check_metrics(1, "per_layer")

    def test_corrupted_pinned_row_fails_a_run(self):
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp)
            copy_benchmark(copy, with_sources=True)
            pinned = copy / "perfbench" / "expected" / "heavy-traffic.csv"
            lines = pinned.read_text().split("\n")
            lines[3] = lines[3].replace(",2000,", ",1999,", 1)
            pinned.write_text("\n".join(lines))
            out = result(bench(copy, "heavy-traffic", 0))
        self.assertFalse(out["correct"])
        # the row fails in the warm-up pass and in the timed pass
        self.assertEqual(out["failed"], 2)

    def test_without_sources_exits_nonzero_and_prints_no_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp)
            copy_benchmark(copy, with_sources=False)
            proc = bench(copy, "heavy-traffic", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
