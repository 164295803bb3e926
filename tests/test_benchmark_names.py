"""Every package name the benchmark looks up exists, and the arguments,
results and call shapes its tracer reads are still there.

`perfbench/tracing.py` (``Tracer.wrap``) and `perfbench/worker.py`
(``invariants``) skip a name the package no longer has, so a refactor
that drops one would zero a per-layer metric, or drop the benchmark's
``fci.sector_dim`` check, without any failure. This list is the names
they read today. ROADMAP item 1's benchmark change, which moves the
benchmark onto a trace inside the package, edits it.
"""
import operator
from pathlib import Path

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


def test_tracer_reads_resolve_on_h2(monkeypatch, tmp_path):
    """The arguments, results and call shapes the tracer reads, on the
    calls an H2 scan makes: one FCI solve, one `run_vqe`, one `run_adapt`.

    A record refactor that drops one of them breaks the traced runs only;
    the package's own behaviour would not change.
    """
    seen = {}

    def record(module, name):
        fn = getattr(module, name)

        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            seen.setdefault(name, []).append((args, kwargs, result))
            return result

        monkeypatch.setattr(module, name, recorded)

    for name in ("solve_fci", "run_vqe", "run_adapt"):
        record(cli, name)
    record(fci, "sector_matrix")
    record(adapt, "build_uccsd_pool")
    objective_cls, hooks = adapt.Objective, []

    def objective(fn, dimension, on_evaluation=None):
        # the tracer's replacement: the same three arguments, positional
        hooks.append(on_evaluation)
        return objective_cls(fn, dimension, on_evaluation)

    monkeypatch.setattr(adapt, "Objective", objective)
    path = Path(__file__).parent / "data" / "h2_r0.735.fcidump"
    cli.run_scan(cli.ScanConfig([("h2", path)], ["fci", "vqe", "adapt"],
                                ["lbfgs"], adapt.AdaptConfig(), tmp_path))

    assert [len(seen[name]) for name in ("solve_fci", "run_vqe",
                                         "run_adapt")] == [1, 1, 1]
    (problem,), _, _ = seen["solve_fci"][0]
    assert problem.label == "h2"
    assert len(problem.h_p) == 15 and len(seen["build_uccsd_pool"][0][2]) == 2
    for method in ("vqe", "adapt"):
        args, kwargs, result = seen[f"run_{method}"][0]
        assert args[0].label == "h2" and args[1].optimizer == "lbfgs"
        assert result.method == method
        assert result.ledger.total() > 0
    trace = seen["run_adapt"][0][2].trace
    assert [it.selected_pool_id for it in trace] == [1, None]
    (_, indices), _, _ = seen["sector_matrix"][0]
    assert len(indices) == 4
    assert hooks and all(callable(hook) for hook in hooks)
