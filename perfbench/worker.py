"""One benchmark repetition in a fresh process.

Usage: python3 perfbench/worker.py <job.json>

The job names a mode (``setup``, ``scan`` or ``traced``), the scans to run
and where to write the result. Importing the package and its CLI module is
the first thing the process does, so the parent can time spawn-to-import
as set-up: every CLI call pays it.
"""
import time

import vqebench.cli

IMPORTED_AT = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
from vqebench import cli  # noqa: E402

sys.dont_write_bytecode = True  # for the benchmark's own modules only
from inputs import load_scans  # noqa: E402


def run_scans(scans):
    """Run each scan through the CLI entry point; wall time and exit code."""
    out = []
    for scan in scans:
        start = time.perf_counter()
        code = cli.main(["scan", "--config", str(scan.config)])
        out.append({"name": scan.name, "exit_code": code,
                    "wall_s": time.perf_counter() - start})
    return out


def invariants(scans):
    """Largest pool and FCI sector of the scanned inputs, computed directly
    (outside any timing); the traced run must report the same values."""
    sector_indices = getattr(vqebench.fci, "sector_indices", None)
    pools, sectors = [0], [0]
    for scan in scans:
        cfg = cli.parse_scan_config(scan.config.read_text(),
                                    base_dir=scan.config.parent)
        for label, path in cfg.inputs:
            ham = vqebench.load_fcidump(path, label=label)
            pools.append(len(vqebench.build_uccsd_pool(ham.n_spatial,
                                                       ham.n_electrons)))
            if sector_indices is not None:
                sectors.append(len(sector_indices(ham.n_qubits,
                                                  ham.n_electrons)))
    out = {"ansatz.pool_size": max(pools)}
    if sector_indices is not None:
        out["fci.sector_dim"] = max(sectors)
    return out


def main(job_path):
    job = json.loads(Path(job_path).read_text())
    result = {"imported_at": IMPORTED_AT,
              "python": sys.version.split()[0],
              "numpy": numpy.__version__}
    mode = job["mode"]
    if mode != "setup":
        scans = load_scans(Path(job["scans"]))
        tracer = None
        if mode == "traced":
            from tracing import Tracer, term_action_cache_info

            tracer = Tracer()
            tracer.install()
        result["scans"] = run_scans(scans)
        result["wall_s"] = sum(s["wall_s"] for s in result["scans"])
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            from tracing import layer_metrics, row_metrics

            result["layers"] = layer_metrics(tracer.spans)
            result["rows"] = row_metrics(tracer.spans)
            result["cache"] = term_action_cache_info()
            if job["spans"]:
                tracer.write_jsonl(job["spans"])
        elif job.get("invariants"):
            result["invariants"] = invariants(scans)
    Path(job["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
