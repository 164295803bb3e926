"""Command-line front end: single runs, potential-energy-curve scans, and
report emission.

The scan config is a plain key-value text file::

    output = scan_out
    methods = fci, vqe, adapt
    optimizers = nelder_mead, lbfgs
    grad_norm_threshold = 1e-2
    tol_rel_energy = 1e-6
    max_iterations = 50
    input = 0.50 data/h2_r0.500.fcidump
    input = 0.70 data/h2_r0.700.fcidump

``input`` lines repeat, one per scan point, and keep file order; every
other key may be set once. A config, like the ``run`` flags, passes on
only the settings it gives: `adapt.SETTINGS` names them, and
`AdaptConfig` holds their defaults (shown above) and checks. ``scan`` and
``run`` score a method with one call. A scan writes one row per input,
method and optimizer; `COLUMNS` states the row's fields once, in order,
with the text scan.csv prints for each, and the CSV header, `ScanRow`
and scan.json are derived from it. The gradient-free optimizer is
Nelder-Mead (standing in for the reference implementation's COBYLA);
every summary report says so. The gradient-based one is L-BFGS on exact
(adjoint) gradients.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .adapt import (
    OPTIMIZERS,
    SETTINGS,
    AdaptConfig,
    ConfigError,
    QubitProblem,
    run_adapt,
    run_vqe,
)
from .fcidump import (
    FcidumpIntegrityError,
    FcidumpParseError,
    OpenShellError,
    load_fcidump,
)
from .fci import infidelity_vs_fci, solve_fci
from .pauli import ResourceLimitError

METHOD_ORDER = ("fci", "vqe", "adapt")
OPTIMIZER_ALIASES = {"nm": "nelder_mead", "nelder_mead": "nelder_mead",
                     "nelder-mead": "nelder_mead", "lbfgs": "lbfgs",
                     "l-bfgs": "lbfgs"}
CONFIG_KEYS = ("output", "methods", "optimizers", "input") + SETTINGS
GRADIENT_FREE_NOTE = ("gradient-free optimizer: Nelder-Mead (stand-in for "
                      "the reference COBYLA)")
INFIDELITY_FLOOR = 1e-15


def format_infidelity(value: float) -> str:
    """An infidelity as every report prints it: ``.6e``, and 0 below
    INFIDELITY_FLOOR, the absolute floor of double-precision overlaps."""
    return f"{0.0 if value < INFIDELITY_FLOOR else value:.6e}"


# The report columns, in order, each with the text scan.csv prints for its
# value; scan.json reads the printed decimals back as floats.
COLUMNS = {
    "label": str, "method": str, "optimizer": str,
    "energy": "{:.9f}".format, "abs_error_vs_fci": "{:.9f}".format,
    "infidelity": format_infidelity, "n_operators": str, "gate_count": str,
    "depth": str, "measurement_total": str,
    "converged": lambda converged: "true" if converged else "false",
}
CSV_HEADER = ",".join(COLUMNS)


class ScanConfig:
    __slots__ = ("inputs", "methods", "optimizers", "adapt", "output")

    def __init__(self, inputs, methods, optimizers, adapt, output):
        if not inputs:
            raise ConfigError("config needs at least one input")
        if not methods:
            raise ConfigError("config needs at least one method")
        labels = [label for label, _ in inputs]
        if len(set(labels)) != len(labels):
            raise ConfigError("input labels must be unique")
        for label in labels:
            if "," in label:
                raise ConfigError(
                    f"input label {label!r}: a comma would split its "
                    "scan.csv field")
        for method in methods:
            if method not in METHOD_ORDER:
                raise ConfigError(f"unknown method {method!r}")
        if any(m in ("vqe", "adapt") for m in methods) and not optimizers:
            raise ConfigError("vqe/adapt methods need at least one optimizer")
        self.inputs = list(inputs)
        self.methods = [m for m in METHOD_ORDER if m in methods]
        self.optimizers = [o for o in OPTIMIZERS if o in optimizers]
        self.adapt = adapt
        self.output = Path(output)


def parse_scan_config(text: str, base_dir: Path | None = None) -> ScanConfig:
    base_dir = base_dir or Path(".")
    inputs = []
    fields: dict[str, str] = {}
    set_on: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key == "input":
            parts = value.split(None, 1)
            if len(parts) != 2:
                raise ConfigError(
                    f"line {line_no}: input needs '<label> <path>'")
            inputs.append((parts[0], base_dir / parts[1]))
        elif key in set_on:
            raise ConfigError(f"line {line_no}: {key!r} already set on line "
                              f"{set_on[key]}")
        else:
            fields[key] = value
            set_on[key] = line_no

    def split_list(key, default):
        raw = fields.get(key)
        if raw is None:
            return list(default)
        return [token.strip() for token in raw.split(",") if token.strip()]

    methods = split_list("methods", METHOD_ORDER)
    optimizers = []
    for token in split_list("optimizers", OPTIMIZERS):
        canon = OPTIMIZER_ALIASES.get(token.lower())
        if canon is None:
            raise ConfigError(f"unknown optimizer {token!r}")
        optimizers.append(canon)

    settings = {}
    for key in SETTINGS:
        if key in fields:
            try:
                settings[key] = float(fields[key])
            except ValueError as exc:
                raise ConfigError(f"bad numeric value for {key}: "
                                  f"{fields[key]!r}") from exc
    adapt = AdaptConfig(**settings)
    output = fields.get("output", "scan_out")
    return ScanConfig(inputs, methods, optimizers, adapt,
                      base_dir / output)


class ScanRow:
    __slots__ = tuple(COLUMNS)

    def __init__(self, **kwargs):
        for name in self.__slots__:
            setattr(self, name, kwargs[name])

    def formatted(self) -> dict:
        return {name: text(getattr(self, name))
                for name, text in COLUMNS.items()}


def _row_from_result(label, result, fci_energy, infid) -> ScanRow:
    return ScanRow(
        label=label, method=result.method, optimizer=result.optimizer,
        energy=result.energy,
        abs_error_vs_fci=abs(result.energy - fci_energy),
        infidelity=infid, n_operators=len(result.ansatz),
        gate_count=result.resources["gate_count"],
        depth=result.resources["depth"],
        measurement_total=result.ledger.total(),
        converged=result.converged)


def _run_method(method, problem, sol, cfg):
    """Run ``vqe`` or ``adapt``: the result and its infidelity vs ``sol``."""
    runner = run_vqe if method == "vqe" else run_adapt
    result = runner(problem, cfg)
    return result, infidelity_vs_fci(result.prepared_state(), sol)


def run_scan(cfg: ScanConfig) -> list[ScanRow]:
    """Run every input x method x optimizer combination.

    All inputs are loaded up front, and loading rejects an unsupported
    one, so a bad file aborts before any computation. Each input then
    becomes one `QubitProblem` that all its rows share; FCI is solved
    first for the error and infidelity columns.
    """
    hamiltonians = [(label, load_fcidump(path, label=label))
                    for label, path in cfg.inputs]

    rows = []
    for label, ham in hamiltonians:
        problem = QubitProblem(ham)
        sol = solve_fci(problem)
        for method in cfg.methods:
            if method == "fci":
                rows.append(ScanRow(
                    label=label, method="fci", optimizer="-",
                    energy=sol.energy, abs_error_vs_fci=0.0, infidelity=0.0,
                    n_operators=0, gate_count=0, depth=0,
                    measurement_total=0, converged=True))
                continue
            for optimizer in cfg.optimizers:
                adapt_cfg = AdaptConfig(
                    optimizer=optimizer,
                    **{key: getattr(cfg.adapt, key) for key in SETTINGS})
                result, infid = _run_method(method, problem, sol, adapt_cfg)
                rows.append(_row_from_result(label, result, sol.energy,
                                             infid))
    return rows


def _atomic_write(path: Path, content: str):
    """Write through a new temporary file beside ``path``, which is
    created as ``open(path, "w")`` would create it, so the umask sets its
    mode, and then replaces ``path``."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "x") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def render_csv(texts) -> str:
    """scan.csv from each row's `ScanRow.formatted` texts."""
    return "\n".join([CSV_HEADER] + [",".join(row.values())
                                     for row in texts]) + "\n"


def render_json(rows, texts) -> str:
    """scan.json from the rows and their `ScanRow.formatted` texts: a
    float is the number its text prints, every other value is as is."""
    payload = []
    for row, row_texts in zip(rows, texts):
        payload.append({name: float(row_texts[name])
                        if isinstance(value := getattr(row, name), float)
                        else value for name in COLUMNS})
    return json.dumps(payload, indent=2) + "\n"


def _median(values) -> float:
    """The middle value, or the mean of the two middle ones, by the formula
    of ``statistics.median``, whose import would load ``decimal`` and
    ``fractions`` on every start."""
    values = sorted(values)
    half = len(values) // 2
    return values[half] if len(values) % 2 else (
        values[half - 1] + values[half]) / 2


def render_summary(rows) -> str:
    lines = ["vqebench scan summary", GRADIENT_FREE_NOTE, ""]
    methods = sorted({row.method for row in rows},
                     key=METHOD_ORDER.index)
    lines.append("per-method medians")
    for method in methods:
        sample = [row for row in rows if row.method == method]
        err = _median(row.abs_error_vs_fci for row in sample)
        infid = _median(row.infidelity for row in sample)
        lines.append(f"  {method:<6} abs_error_vs_fci {err:.9f}  "
                     f"infidelity {format_infidelity(infid)}  "
                     f"({len(sample)} rows)")
    by_key = {(row.label, row.method, row.optimizer): row for row in rows}
    have_both = [
        (label, method)
        for (label, method, _opt) in by_key
        if (label, method, "nelder_mead") in by_key
        and (label, method, "lbfgs") in by_key]
    if have_both:
        lines.append("")
        lines.append("optimizer difference, E(gradient-free) - "
                     "E(gradient-based), per label")
        non_negative = 0
        pairs = sorted(set(have_both))
        for label, method in pairs:
            gap = (by_key[(label, method, "nelder_mead")].energy
                   - by_key[(label, method, "lbfgs")].energy)
            non_negative += gap >= 0.0
            lines.append(f"  {label:<10} {method:<6} {gap:+.9f}")
        lines.append(f"gradient-based at or below gradient-free at "
                     f"{non_negative}/{len(pairs)} rows")
    return "\n".join(lines) + "\n"


def emit_report(rows, out_dir: Path) -> dict[str, Path]:
    """Write scan.csv, scan.json, and summary.txt atomically."""
    if not rows:
        raise ValueError("nothing to report")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = {"csv": out_dir / "scan.csv",
                 "json": out_dir / "scan.json",
                 "summary": out_dir / "summary.txt"}
    texts = [row.formatted() for row in rows]  # each row formatted once
    _atomic_write(artifacts["csv"], render_csv(texts))
    _atomic_write(artifacts["json"], render_json(rows, texts))
    _atomic_write(artifacts["summary"], render_summary(rows))
    return artifacts


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ConfigError, for `main` to report."""

    def error(self, message):
        raise ConfigError(f"{message}\n{self.format_usage().rstrip()}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vqebench",
        description="VQE / ADAPT-VQE statevector benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="run a potential-energy-curve scan")
    scan.add_argument("--config", required=True, type=Path)

    single = sub.add_parser("run", help="run one method on one FCIDUMP")
    single.add_argument("--fcidump", required=True, type=Path)
    single.add_argument("--method", required=True, choices=METHOD_ORDER)
    single.add_argument("--optimizer", type=str.lower,
                        choices=sorted(OPTIMIZER_ALIASES))
    single.add_argument("--grad-norm-threshold", type=float,
                        help="ADAPT stops once the pool gradient norm is "
                             "at or below this")
    single.add_argument("--tol", type=float, dest="tol_rel_energy",
                        metavar="TOL",
                        help="absolute energy change, in Hartree, at or "
                             "below which an optimizer stops")
    single.add_argument("--max-iter", type=int, dest="max_iterations",
                        metavar="MAX_ITER",
                        help="most operators ADAPT adds")

    sub.add_parser("selftest", help="run the built-in invariant suite")
    return parser


def _cmd_scan(args) -> int:
    config_path = args.config
    if not config_path.exists():
        print(f"error: config file {config_path} not found", file=sys.stderr)
        return 1
    cfg = parse_scan_config(config_path.read_text(),
                            base_dir=config_path.parent)
    try:  # before any row is computed, like the inputs
        cfg.output.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.output}: "
                          f"{exc.strerror}") from exc
    rows = run_scan(cfg)
    artifacts = emit_report(rows, cfg.output)
    print(GRADIENT_FREE_NOTE)
    print(f"{len(rows)} rows written:")
    for kind, path in artifacts.items():
        print(f"  {kind}: {path}")
    return 0


def _cmd_run(args) -> int:
    settings = {key: value for key in SETTINGS
                if (value := getattr(args, key)) is not None}
    if args.optimizer is not None:
        settings["optimizer"] = OPTIMIZER_ALIASES[args.optimizer]
    cfg = AdaptConfig(**settings)
    problem = QubitProblem(load_fcidump(args.fcidump))
    sol = solve_fci(problem)
    if args.method == "fci":
        print(f"fci energy: {sol.energy:.9f}")
        if sol.degeneracy_flag:
            print("note: degenerate ground space")
        return 0
    result, infid = _run_method(args.method, problem, sol, cfg)
    print(GRADIENT_FREE_NOTE)
    print(f"method: {result.method}  optimizer: {result.optimizer}")
    print(f"energy: {result.energy:.9f}")
    print(f"fci energy: {sol.energy:.9f}")
    print(f"abs error vs fci: {abs(result.energy - sol.energy):.9f}")
    print(f"infidelity: {format_infidelity(infid)}")
    print(f"operators: {len(result.ansatz)}")
    for pid, theta in zip(result.ansatz.ids, result.theta):
        print(f"  {result.ansatz.pool[pid].description}  theta={theta:+.9f}")
    print(f"gate count: {result.resources['gate_count']}  "
          f"depth: {result.resources['depth']}")
    ledger = result.ledger.as_dict()
    print(f"measurements: {ledger['pauli_term_measurements']} "
          f"({ledger['energy_evaluations']} energy evaluations, "
          f"{ledger['commutator_evaluations']} commutator evaluations)")
    if result.method == "adapt":
        print(f"final gradient norm: {result.final_grad_norm:.6f}")
    print(f"converged: {result.converged}")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "scan":
            return _cmd_scan(args)
        if args.command == "run":
            return _cmd_run(args)
        from .selftest import run_selftest  # only this command needs it

        return 0 if run_selftest() else 2
    except SystemExit:  # argparse exits only after printing --help
        return 0
    except (ConfigError, FcidumpParseError, FcidumpIntegrityError,
            ResourceLimitError, OpenShellError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # any other failure is ours, never a traceback
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
