"""Every package name the benchmark looks up exists.

`perfbench/tracing.py` (``Tracer.wrap``) and `perfbench/worker.py`
(``invariants``) skip a name the package no longer has, so a refactor
that drops one would zero a per-layer metric, or drop the benchmark's
``fci.sector_dim`` check, without any failure. This list is the names
they read today. ROADMAP item 1's benchmark change, which moves the
benchmark onto a trace inside the package, edits it.
"""
import operator

import pytest

from vqebench import adapt, cli, fci, optimize, pauli

NAMES = [
    *((cli, name) for name in (
        "parse_scan_config", "run_scan", "emit_report", "load_fcidump",
        "solve_fci", "infidelity_vs_fci", "run_vqe", "run_adapt")),
    *((adapt, name) for name in (
        "to_fermion_hamiltonian", "jordan_wigner", "expectation",
        "build_uccsd_pool", "prepare_state", "minimize_lbfgs",
        "minimize_nelder_mead", "screen_pool", "Objective")),
    (fci, "sector_matrix"),
    (fci, "sector_indices"),
    (optimize, "central_difference_gradient"),
    (pauli, "_basis_action.cache_info"),
]


@pytest.mark.parametrize("module, name", NAMES, ids=[
    f"{module.__name__.rpartition('.')[2]}.{name}" for module, name in NAMES])
def test_benchmark_name_exists(module, name):
    assert callable(operator.attrgetter(name)(module))
