"""Reported bits under one and under four BLAS threads.

A few calls on reported paths go through BLAS (the README's Numerics
lists them), whose threaded sums may round differently. Each case below
is computed in a child process under ``OPENBLAS_NUM_THREADS=1`` and under
``OPENBLAS_NUM_THREADS=4`` and must come out the same to the bit: the FCI
energy's ``float.hex`` and the sha256 of the ground space's bytes on H4
and H6, and the ``RunResult.energy`` of short VQE and ADAPT runs
(``max_iterations = 3``) on H4 with both optimizers and of ADAPT with
L-BFGS on H6. OpenBLAS uses no more threads than there are CPUs, so on
one CPU both children run alike.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).parent / "data"
INPUTS = {"h4": DATA / "h4_r1.000.fcidump",
          "h6": DATA / "h6" / "h6_r1.000.fcidump"}
RUNS = [("h4", "vqe", "nelder_mead"), ("h4", "vqe", "lbfgs"),
        ("h4", "adapt", "nelder_mead"), ("h4", "adapt", "lbfgs"),
        ("h6", "adapt", "lbfgs")]

CHILD = """
import hashlib, json, sys
from vqebench.adapt import AdaptConfig, QubitProblem, run_adapt, run_vqe
from vqebench.fcidump import load_fcidump
from vqebench.fci import solve_fci

inputs, runs = json.loads(sys.argv[1])
problems = {name: QubitProblem(load_fcidump(path))
            for name, path in inputs.items()}
bits = {}
for name, problem in problems.items():
    sol = solve_fci(problem)
    bits["fci-" + name] = [sol.energy.hex(), hashlib.sha256(
        sol.ground_space.tobytes()).hexdigest()]
for name, method, optimizer in runs:
    run = {"vqe": run_vqe, "adapt": run_adapt}[method]
    result = run(problems[name],
                 AdaptConfig(max_iterations=3, optimizer=optimizer))
    bits[f"{method}-{optimizer}-{name}"] = result.energy.hex()
print(json.dumps(bits))
"""


@pytest.fixture(scope="module")
def bits_by_threads():
    """Every case's bits, per BLAS thread count."""
    arg = json.dumps([{name: str(path) for name, path in INPUTS.items()},
                      RUNS])
    out = {}
    for threads in ("1", "4"):
        env = {**os.environ, "PYTHONPATH": str(SRC),
               "OPENBLAS_NUM_THREADS": threads}
        out[threads] = json.loads(subprocess.run(
            [sys.executable, "-c", CHILD, arg], env=env,
            capture_output=True, text=True, check=True).stdout)
    return out


@pytest.mark.parametrize("case", [
    "fci-h4",
    pytest.param("fci-h6", marks=pytest.mark.xfail(
        strict=False, reason="the dense eigh of H6's 400-state block "
        "rounds differently under 2 or more BLAS threads; ROADMAP item 2's "
        "Lanczos solver on the package's own kernels is the intended fix")),
    *(f"{method}-{optimizer}-{name}" for name, method, optimizer in RUNS),
])
def test_bits_do_not_depend_on_blas_threads(bits_by_threads, case):
    assert bits_by_threads["1"][case] == bits_by_threads["4"][case]
