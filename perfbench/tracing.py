"""In-process tracer: spans around each layer's public functions.

Every wrapper is installed on the module that *calls* the function, under
the name that module imported it as (``vqebench.adapt.expectation``,
``vqebench.ansatz.apply_pool_operator``, ...), or on the defining module
when that module looks the function up in its own globals at call time
(``vqebench.optimize.central_difference_gradient``). The package itself
is not edited.

The per-string hot calls (``apply_pauli_exponential``, ``term_action``)
are deliberately left unwrapped: they run hundreds of thousands of times
per scan and a wrapper would cost more than what it measures.

A span is ``[name, start, end, parent, row, extra]``; ``row`` is the scan
row ``(label, method, optimizer)`` its root call belongs to, and ``extra``
holds the counts recorded at that boundary.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict

NAME, START, END, PARENT, ROW, EXTRA = range(6)


def _ham_label(args, kwargs):
    ham = args[0] if args else kwargs["ham"]
    return ham.label


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._row = None

    def traced(self, fn, name, extra=None, row=None):
        """Return ``fn`` wrapped in a span.

        ``extra(args, kwargs, result)`` returns the counts to store on the
        span. ``row(args, kwargs)`` gives the scan row (or None) that this
        call and everything below it belong to; without it the call
        inherits the current row.
        """
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if row is not None:
                self._row = row(args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    self._row, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if extra is not None:
                span[EXTRA] = extra(args, kwargs, result)
            return result

        return traced

    def wrap(self, module, attr, name, extra=None, row=None):
        """Replace ``module.attr`` with its traced version. A function the
        package no longer has is skipped, so its metrics read 0."""
        fn = getattr(module, attr, None)
        if fn is not None:
            setattr(module, attr, self.traced(fn, name, extra, row))

    def install(self):
        """Wrap every measured boundary of the vqebench package."""
        from vqebench import adapt, ansatz, cli, fci, optimize

        w = self.wrap
        no_row = lambda a, k: None  # noqa: E731
        w(cli, "parse_scan_config", "cli.parse_scan_config", row=no_row)
        w(cli, "run_scan", "cli.run_scan", row=no_row)
        w(cli, "emit_report", "cli.emit_report", row=no_row)
        w(cli, "load_fcidump", "fcidump.load_fcidump", row=no_row)
        w(cli, "solve_fci", "fci.solve_fci",
          row=lambda a, k: (_ham_label(a, k), "fci", "-"))
        w(cli, "infidelity_vs_fci", "fci.infidelity_vs_fci")
        for method in ("vqe", "adapt"):
            w(cli, f"run_{method}", f"adapt.run_{method}",
              extra=_run_extra,
              row=lambda a, k, m=method: (_ham_label(a, k), m,
                                          a[1].optimizer))
        for module in (adapt, fci):
            w(module, "to_fermion_hamiltonian",
              "fcidump.to_fermion_hamiltonian")
        for module in (adapt, fci, ansatz):
            w(module, "jordan_wigner", "fermion.jordan_wigner",
              extra=lambda a, k, r: {"terms_out": len(r)})
        for module in (adapt, ansatz):
            w(module, "commutator", "pauli.commutator",
              extra=lambda a, k, r: {"terms_out": len(r)})
        w(adapt, "expectation", "statevector.expectation",
          extra=lambda a, k, r: {"terms": len(a[1])})
        w(ansatz, "apply_pool_operator", "statevector.apply_pool_operator")
        w(adapt, "build_uccsd_pool", "ansatz.build_uccsd_pool",
          extra=lambda a, k, r: {"pool_size": len(r)})
        w(adapt, "prepare_state", "ansatz.prepare_state")
        w(adapt, "compile_circuit", "ansatz.compile_circuit")
        w(adapt, "minimize_lbfgs", "optimize.minimize_lbfgs")
        w(adapt, "minimize_nelder_mead", "optimize.minimize_nelder_mead")
        w(optimize, "central_difference_gradient",
          "optimize.central_difference_gradient")
        w(adapt, "screen_pool", "adapt.screen_pool")
        w(fci, "sector_matrix", "fci.sector_matrix",
          extra=lambda a, k, r: {"sector_dim": len(a[1])})

        # One span per energy evaluation: the objective's function is
        # wrapped, so Objective's own bookkeeping stays optimizer time.
        objective_cls = adapt.Objective

        def traced_objective(fn, dimension, on_evaluation=None):
            return objective_cls(self.traced(fn, "optimize.objective"),
                                 dimension, on_evaluation)

        adapt.Objective = traced_objective

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": span[NAME],
                    "start": span[START], "end": span[END],
                    "parent": span[PARENT],
                    "row": None if span[ROW] is None else list(span[ROW]),
                    **(span[EXTRA] or {})}) + "\n")


def _run_extra(args, kwargs, result):
    extra = {"measurement_total": result.ledger.total()}
    if result.method == "adapt":
        extra["iterations"] = sum(1 for it in result.trace
                                  if it.selected_pool_id is not None)
    return extra


def term_action_cache_info():
    """``(hits, misses)`` of the Pauli basis-action cache, or None."""
    from vqebench import pauli

    cached = getattr(pauli, "_basis_action", None)
    info = getattr(cached, "cache_info", None)
    if info is None:
        return None
    stats = info()
    return stats.hits, stats.misses


# (metric, span name, statistic); statistic is "total" (summed duration),
# "self" (duration minus child spans), "calls" or an extra's "sum:"/"max:".
SPAN_METRICS = (
    ("cli.parse_config_s", "cli.parse_scan_config", "total"),
    ("cli.run_scan_s", "cli.run_scan", "self"),
    ("cli.emit_report_s", "cli.emit_report", "total"),
    ("fcidump.load_s", "fcidump.load_fcidump", "total"),
    ("fcidump.load_calls", "fcidump.load_fcidump", "calls"),
    ("fcidump.to_fermion_s", "fcidump.to_fermion_hamiltonian", "total"),
    ("fermion.jordan_wigner_s", "fermion.jordan_wigner", "total"),
    ("fermion.jordan_wigner_calls", "fermion.jordan_wigner", "calls"),
    ("fermion.jordan_wigner_terms_out", "fermion.jordan_wigner",
     "sum:terms_out"),
    ("pauli.commutator_s", "pauli.commutator", "total"),
    ("pauli.commutator_calls", "pauli.commutator", "calls"),
    ("pauli.commutator_terms_out", "pauli.commutator", "sum:terms_out"),
    ("statevector.expectation_s", "statevector.expectation", "total"),
    ("statevector.expectation_calls", "statevector.expectation", "calls"),
    ("statevector.expectation_terms", "statevector.expectation",
     "sum:terms"),
    ("statevector.apply_pool_operator_s", "statevector.apply_pool_operator",
     "total"),
    ("statevector.apply_pool_operator_calls",
     "statevector.apply_pool_operator", "calls"),
    ("ansatz.build_pool_s", "ansatz.build_uccsd_pool", "total"),
    ("ansatz.pool_size", "ansatz.build_uccsd_pool", "max:pool_size"),
    ("ansatz.prepare_state_s", "ansatz.prepare_state", "self"),
    ("ansatz.prepare_state_calls", "ansatz.prepare_state", "calls"),
    ("ansatz.compile_circuit_s", "ansatz.compile_circuit", "total"),
    ("optimize.objective_calls", "optimize.objective", "calls"),
    ("optimize.gradient_calls", "optimize.central_difference_gradient",
     "calls"),
    ("adapt.screen_pool_s", "adapt.screen_pool", "total"),
    ("adapt.screen_pool_calls", "adapt.screen_pool", "calls"),
    ("adapt.iterations", "adapt.run_adapt", "sum:iterations"),
    ("adapt.measurement_total", "adapt.run_adapt", "sum:measurement_total"),
    ("fci.solve_s", "fci.solve_fci", "total"),
    ("fci.sector_matrix_s", "fci.sector_matrix", "total"),
    ("fci.eigensolve_s", "fci.solve_fci", "self"),
    ("fci.sector_dim", "fci.sector_matrix", "max:sector_dim"),
    ("fci.infidelity_s", "fci.infidelity_vs_fci", "total"),
)

OPTIMIZER_SPANS = ("optimize.minimize_lbfgs", "optimize.minimize_nelder_mead",
                   "optimize.central_difference_gradient")


def layer_metrics(spans):
    """Per-layer metrics over a list of spans (a run or one row of it).

    A span's self time is its duration minus its direct children's; in a
    single thread the children never overlap, so that is the part of its
    interval no child covers.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span[PARENT] is not None:
            child_time[span[PARENT]] += span[END] - span[START]
    by_name = defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span[NAME]].append((index, span))

    def stat(name, how):
        group = by_name.get(name, [])
        if how == "calls":
            return len(group)
        if how in ("total", "self"):
            total = sum(s[END] - s[START] for _, s in group)
            if how == "self":
                total -= sum(child_time[i] for i, _ in group)
            return total
        op, key = how.split(":")
        values = [s[EXTRA][key] for _, s in group
                  if s[EXTRA] and key in s[EXTRA]]
        return sum(values) if op == "sum" else max(values, default=0)

    out = {metric: stat(name, how) for metric, name, how in SPAN_METRICS}
    out["optimize.self_s"] = sum(stat(name, "self")
                                 for name in OPTIMIZER_SPANS)
    return out


def row_metrics(spans):
    """``layer_metrics`` split by scan row; child spans keep row ids of
    their root, so each subset is closed under parent links."""
    groups = defaultdict(list)
    for index, span in enumerate(spans):
        if span[ROW] is not None:
            groups[span[ROW]].append(index)
    out = {}
    for row, indices in groups.items():
        remap = {old: new for new, old in enumerate(indices)}
        subset = []
        for old in indices:
            span = list(spans[old])
            span[PARENT] = remap.get(span[PARENT])
            subset.append(span)
        out[",".join(row)] = layer_metrics(subset)
    return out
