#!/usr/bin/env python3
"""vqebench benchmark: end-to-end scans and a traced per-layer run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload scan_h4 --seed 1 --seconds 40 \\
        --trace 0

``--workload all`` runs every workload in turn. Each repetition is a fresh
process that calls ``vqebench.cli.main(["scan", "--config", ...])`` on
inputs generated from the seed, one process at a time (a closed loop with
one client). Repetitions continue while the next one is expected to end
within ``--seconds``; there is always at least one.

The benchmark and its workers all run on one CPU, the workers at the
lowest priority. While a worker runs, the benchmark times a fixed loop
(``probe``) every half second. The CPU's speed drifts by up to 1.4x over
tens of seconds on a shared host. So the gated time metric is
``wall_ref``: a repetition's wall time divided by its mean probe time.
``wall_s``, the plain wall time, is reported beside it.

``--trace 0`` reports the end-to-end metrics of untraced repetitions.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus the tracing overhead. Every
output row is checked (see ``checks.py``). Human-readable lines come
first; the last line of standard output is one JSON object. A full record
goes to ``.perfbench_work/results/``. The exit code is 0 when every check
passed, 1 when one failed, and 2 when the repository is not there.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True  # keep the benchmark directory clean

import checks  # noqa: E402
import inputs  # noqa: E402
from tracing import SPAN_METRICS  # noqa: E402

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
SETUP_SAMPLES = 9
THREADS = "1"
# A run must end within 180 s; no single worker may outlast this.
WORKER_TIMEOUT_S = 150.0
PROBE_EVERY_S = 0.5
REQUIRED = ("src/vqebench/cli.py", "scripts/make_reference_data.py",
            "tests/data/reference_energies.json") + tuple(
    f"examples_configs/{name}{suffix}" for name in inputs.GOLDEN_SCANS
    for suffix in (".cfg", "_out/scan.csv"))

END_TO_END = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
REPORTED = {**END_TO_END, "wall_s": "s", "max_abs_error_vs_fci_Eh": "Eh",
            "failed_share": "ratio"}


def layer_units():
    units = {metric: ("s" if metric.endswith("_s") else "count")
             for metric, _, _ in SPAN_METRICS}
    units.update({"optimize.self_s": "s",
                  "pauli.term_action_cache_hit_ratio": "ratio",
                  "trace.untraced_wall_s": "s", "trace.traced_wall_s": "s",
                  "trace.overhead_s": "s"})
    return units


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = THREADS
    return env


class Runner:
    """Spawns worker processes for one workload, one at a time."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.env = worker_env(root)
        self.count = 0

    def spawn(self, mode, scans_file=None, **job):
        """Run one worker; return its result dict (None if it failed) and
        its spawn-to-import time.

        A scan or traced worker's CPU speed is probed every
        ``PROBE_EVERY_S`` while it runs (once after it, if it ends sooner);
        the mean probe time is returned as ``probe_s``.
        """
        self.count += 1
        tag = f"{self.count:03d}-{mode}"
        job.update(mode=mode, scans=str(scans_file),
                   result=str(self.work / f"{tag}.json"), rep=self.count)
        job_file = self.work / f"{tag}.job.json"
        job_file.write_text(json.dumps(job))
        probes = []
        with open(self.work / f"{tag}.log", "w") as log:
            spawned = time.monotonic()
            # The worker runs at the lowest priority so that a probe, when
            # it wakes, runs without sharing the CPU; alone, the worker
            # runs at full speed whatever its priority.
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(job_file)],
                cwd=self.work, env=self.env, stdout=log,
                stderr=subprocess.STDOUT, preexec_fn=lambda: os.nice(19))
            try:
                while True:
                    try:
                        proc.wait(timeout=PROBE_EVERY_S)
                        break
                    except subprocess.TimeoutExpired:
                        if time.monotonic() - spawned > WORKER_TIMEOUT_S:
                            return None, None
                    if mode != "setup":
                        probes.append(probe())
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        if mode != "setup" and not probes:
            probes.append(probe())
        result_file = Path(job["result"])
        if proc.returncode != 0 or not result_file.exists():
            return None, None
        result = json.loads(result_file.read_text())
        if probes:
            result["probe_s"] = statistics.mean(probes)
        return result, result["imported_at"] - spawned


def probe() -> float:
    """Seconds a fixed loop of Python arithmetic and numpy gathers takes:
    the CPU's current speed.

    The benchmark and its workers share one CPU, and a probe runs only
    while a worker does, so it sees the speed that worker gets, including
    time the host takes the CPU away.
    """
    start = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i % 7
    amps = _PROBE_AMPS
    for _ in range(200):
        amps = amps[_PROBE_ORDER] * 0.5j
    return time.perf_counter() - start


_PROBE_ORDER = np.random.default_rng(0).permutation(4096)
_PROBE_AMPS = np.ones(4096, dtype=complex)


def environment(root: Path, seed: int) -> dict:
    revision = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                  capture_output=True, text=True)
            revision = proc.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_revision": revision, "source_sha256": digest.hexdigest(),
            "cpu_model": cpu, "nproc": os.cpu_count(),
            "load_average_at_start": list(os.getloadavg()), "seed": seed,
            "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "worker_nice": 19, "blas_omp_threads": int(THREADS),
            "pythonhashseed": 0}


def tail_percentile(samples):
    """Highest whole percentile with at least ten samples beyond it, as
    ``(percentile, value)``, once there are enough samples for one above
    the median; otherwise None."""
    n = len(samples)
    if n <= 20:
        return None
    ordered = sorted(samples)
    return int(100 * (n - 10) / n), ordered[n - 11]


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 traced: bool) -> dict:
    work = root / WORK_DIR / f"{workload}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(work, ignore_errors=True)
    env_info = environment(root, seed)
    scans = inputs.make_inputs(root, work / "inputs", workload, seed)
    scans_file = work / "scans.json"
    inputs.save_scans(scans_file, scans)
    runner = Runner(root, work)
    spans_file = work / "spans.jsonl"

    runner.spawn("setup")  # warm-up: byte-compiles the package
    setup = []
    for _ in range(SETUP_SAMPLES):
        result, setup_s = runner.spawn("setup")
        if result is not None:
            setup.append(setup_s)

    tally = checks.Tally()
    untraced, traced_reps, overheads, lengths = [], [], [], []
    start = time.monotonic()
    while True:
        begun = time.monotonic()
        for scan in scans:
            shutil.rmtree(scan.output, ignore_errors=True)
        plain, _ = runner.spawn("scan", scans_file, invariants=traced)
        csvs = checks.check_rep(tally, scans, plain)
        if plain is not None:
            untraced.append((plain, csvs))
        if traced:
            for scan in scans:
                shutil.rmtree(scan.output, ignore_errors=True)
            result, _ = runner.spawn(
                "traced", scans_file,
                spans=None if traced_reps else str(spans_file))
            checks.check_rep(tally, scans, result,
                             None if plain is None else (plain, csvs))
            if result is not None:
                traced_reps.append(result)
                if plain is not None:
                    # adjacent repetitions share the machine's state, so
                    # their difference is steadier than one of medians
                    overheads.append(result["wall_s"] - plain["wall_s"])
        # Stop before a repetition that would likely end past the budget,
        # so that every run lasts about --seconds, whatever a rep costs.
        lengths.append(time.monotonic() - begun)
        if time.monotonic() - start + statistics.median(lengths) > seconds:
            break

    walls = [r["wall_s"] for r, _ in untraced]
    wall_refs = [r["wall_s"] / r["probe_s"] for r, _ in untraced]
    reported = {}
    if walls:
        reported["wall_s"] = statistics.median(walls)
        reported["wall_ref"] = statistics.median(wall_refs)
        reported["peak_rss_mb"] = statistics.median(
            r["peak_rss_mb"] for r, _ in untraced)
        error = checks.max_abs_error(untraced[0][1])
        if error is not None:
            reported["max_abs_error_vs_fci_Eh"] = error
    if setup:
        reported["setup_s"] = statistics.median(setup)
    reported["failed_share"] = tally.failed / max(tally.attempted, 1)
    tail = tail_percentile(walls)
    if tail is not None:
        reported[f"wall_s_p{tail[0]}"] = tail[1]

    layers, rows = {}, {}
    if traced_reps:
        names = list(traced_reps[0]["layers"])
        layers = {name: statistics.median_low(r["layers"][name]
                                              for r in traced_reps)
                  for name in names}
        cache = traced_reps[0]["cache"]
        if cache is not None and sum(cache) > 0:
            layers["pauli.term_action_cache_hit_ratio"] = (
                cache[0] / (cache[0] + cache[1]))
        layers["trace.traced_wall_s"] = statistics.median(
            r["wall_s"] for r in traced_reps)
        if walls:
            layers["trace.untraced_wall_s"] = reported["wall_s"]
        if overheads:
            layers["trace.overhead_s"] = statistics.median(overheads)
        rows = traced_reps[0]["rows"]

    if untraced:
        first = untraced[0][0]
        env_info.update(python=first["python"], numpy=first["numpy"])
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(traced), "environment": env_info,
        "correct": tally.failed == 0,
        "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems[:50],
        "samples": {"wall_s": walls, "wall_ref": wall_refs,
                    "setup_s": setup,
                    "traced_wall_s": [r["wall_s"] for r in traced_reps]},
        "reported": reported, "layers": layers, "rows": rows,
        "spans": str(spans_file.relative_to(root)) if traced_reps else None,
    }
    results = root / WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{work.name}.json").write_text(json.dumps(record, indent=2))
    return record


def summary_lines(record):
    units = {**REPORTED, **layer_units()}
    samples = record["samples"]
    head = (f"{record['workload']}: seed {record['seed']}, "
            f"{len(samples['wall_s'])} untraced + "
            f"{len(samples['traced_wall_s'])} traced repetitions, "
            f"{record['failed']}/{record['attempted']} rows failed")
    lines = [head]
    for name, value in record["reported"].items():
        unit = units.get(name, "s")
        lines.append(f"  {name:<40} {value:.6g} {unit}")
    for name, value in record["layers"].items():
        lines.append(f"  {name:<40} {value:.6g} {units[name]}")
    for problem in record["problems"][:10]:
        lines.append(f"  problem: {problem}")
    return lines


def driver_metrics(record):
    """The metrics the benchmark contract names for this trace mode."""
    if record["trace"]:
        units = layer_units()
        return {name: {"value": value, "unit": units[name]}
                for name, value in record["layers"].items()}
    return {name: {"value": record["reported"][name], "unit": unit}
            for name, unit in END_TO_END.items()
            if name in record["reported"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    # One CPU for the benchmark and every worker (children inherit it).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # On SIGTERM, unwind so that a running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        print(f"error: run from the vqebench repository root; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2

    workloads = (inputs.WORKLOADS if args.workload == "all"
                 else (args.workload,))
    records = [run_workload(root, w, args.seed, args.seconds,
                            bool(args.trace)) for w in workloads]
    for record in records:
        print("\n".join(summary_lines(record)))
    correct = all(r["correct"] for r in records)
    if len(records) == 1:
        metrics = driver_metrics(records[0])
    else:
        metrics = {f"{r['workload']}.{name}": value for r in records
                   for name, value in driver_metrics(r).items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
