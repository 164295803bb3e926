"""Correctness checks on every scan.csv a repetition writes.

A row fails when

- the worker or the scan exits non-zero (every expected row fails);
- it is missing, or it differs from the committed golden row at the same
  position (``scan_4q``: the file must match byte for byte);
- it is an FCI row more than ``FCI_TOL`` from the determinant-CI oracle;
- it is a vqe or adapt row more than ``VARIATIONAL_TOL`` below the FCI
  row of its label (energies are compared as the printed decimals);
- it comes from a traced repetition whose scan.csv is not byte-identical
  to the untraced one, or whose ``adapt.measurement_total``,
  ``ansatz.pool_size`` or ``fci.sector_dim`` disagree with it (then every
  row of that repetition fails).
"""
from __future__ import annotations

from decimal import Decimal

FCI_TOL = 1e-8
VARIATIONAL_TOL = Decimal("1e-9")


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, count, problem):
        self.failed += count
        self.problems.append(problem)


def _rows(text):
    lines = text.splitlines()
    keys = lines[0].split(",")
    return lines[1:], [dict(zip(keys, line.split(","))) for line in lines[1:]]


def _row_failures(scan, text):
    """Expected rows that fail the per-row checks, and the number of rows
    the scan wrote that were not expected."""
    lines, rows = _rows(text)
    found = {(r["label"], r["method"], r["optimizer"]): r for r in rows}
    extra = len(set(found) - set(scan.rows))
    failed = set()
    if scan.golden is not None:
        golden = scan.golden.read_text().splitlines()
        if text.splitlines()[0] != golden[0]:
            return set(scan.rows), extra
        for i, key in enumerate(scan.rows):
            if i >= len(lines) or lines[i] != golden[i + 1]:
                failed.add(key)
    for key in scan.rows:
        row = found.get(key)
        if row is None:
            failed.add(key)
            continue
        label, method, _ = key
        energy = Decimal(row["energy"])
        if method == "fci":
            if abs(float(energy) - scan.oracle[label]) > FCI_TOL:
                failed.add(key)
            continue
        fci = found.get((label, "fci", "-"))
        floor = (Decimal(fci["energy"]) if fci is not None
                 else Decimal(repr(scan.oracle[label])))
        if floor - energy > VARIATIONAL_TOL:
            failed.add(key)
    return failed, extra


def check_rep(tally, scans, result, untraced=None):
    """Check one repetition's outputs; return ``{scan name: csv text}``.

    ``untraced`` is ``(result, csvs)`` of the untraced repetition a traced
    one is compared with.
    """
    texts = {}
    mismatch = None
    if result is not None and untraced is not None:
        mismatch = _invariant_mismatch(result, *untraced)
    for k, scan in enumerate(scans):
        tally.attempted += len(scan.rows)
        if result is None:
            tally.fail(len(scan.rows), f"{scan.name}: worker failed")
            continue
        code = result["scans"][k]["exit_code"]
        csv = scan.output / "scan.csv"
        if code != 0 or not csv.is_file():
            tally.fail(len(scan.rows), f"{scan.name}: exit code {code}")
            continue
        text = csv.read_text()
        texts[scan.name] = text
        if untraced is not None and text != untraced[1].get(scan.name):
            tally.fail(len(scan.rows),
                       f"{scan.name}: traced scan.csv differs from untraced")
            continue
        if mismatch:
            tally.fail(len(scan.rows), f"{scan.name}: {mismatch}")
            continue
        failed, extra = _row_failures(scan, text)
        tally.attempted += extra
        if failed or extra:
            tally.fail(len(failed) + extra,
                       f"{scan.name}: {len(failed)} rows failed, {extra} "
                       f"unexpected rows")
    return texts


def _invariant_mismatch(traced, untraced_result, untraced_csvs):
    """Describe any count the traced run reports differently, or None."""
    layers = traced["layers"]
    expected = dict(untraced_result.get("invariants", {}))
    expected["adapt.measurement_total"] = sum(
        int(row["measurement_total"]) for text in untraced_csvs.values()
        for row in _rows(text)[1] if row["method"] == "adapt")
    wrong = [f"{name} {layers.get(name)} != {value}"
             for name, value in expected.items()
             if layers.get(name) != value]
    return "; ".join(wrong) or None


def max_abs_error(csvs):
    """Largest abs_error_vs_fci over the vqe and adapt rows, or None."""
    errors = [float(row["abs_error_vs_fci"]) for text in csvs.values()
              for row in _rows(text)[1] if row["method"] != "fci"]
    return max(errors, default=None)
