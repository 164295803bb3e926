"""Tests of the benchmark itself, each on a copy of the repository.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# what the benchmark reads besides BENCHMARK.json and perfbench/
REPOSITORY = ("src", "scripts", "examples_configs", "tests/data")


def bench(cwd, workload="scan_4q", trace=0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


class BenchmarkTest(unittest.TestCase):
    def setUp(self):
        scratch = ROOT / ".perfbench_work"
        scratch.mkdir(exist_ok=True)
        self.copy = Path(tempfile.mkdtemp(prefix="test-", dir=scratch))
        self.addCleanup(shutil.rmtree, self.copy)
        shutil.copy(ROOT / "BENCHMARK.json", self.copy)
        shutil.copytree(ROOT / "perfbench", self.copy / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))

    def copy_repository(self):
        for rel in REPOSITORY:
            shutil.copytree(ROOT / rel, self.copy / rel,
                            ignore=shutil.ignore_patterns("__pycache__"))

    def test_corrupt_golden_row_and_oracle_are_counted(self):
        self.copy_repository()
        golden = self.copy / "examples_configs/h2_scan_out/scan.csv"
        lines = golden.read_text().splitlines(keepends=True)
        self.assertTrue(lines[8].startswith("0.60,vqe,lbfgs,-"))
        lines[8] = lines[8].replace(",-", ",-9", 1)
        golden.write_text("".join(lines))
        reference = self.copy / "tests/data/reference_energies.json"
        energies = json.loads(reference.read_text())
        energies["nah_r2.000.fcidump"]["fci_energy"] += 1e-6
        reference.write_text(json.dumps(energies))

        proc = bench(self.copy)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["attempted"], 210)
        self.assertEqual(result["failed"], 2)

    def test_traced_run_reports_every_per_layer_metric(self):
        self.copy_repository()
        proc = bench(self.copy, trace=1)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in spec["per_layer"]})
        proc = bench(self.copy, trace=0)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in spec["end_to_end"]})

    def test_refuses_to_run_without_the_repository(self):
        proc = bench(self.copy)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
