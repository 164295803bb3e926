"""Golden outputs: the committed example scans are reproduced byte for byte,
and the built-in selftest passes.

Every simulator change must leave ``examples_configs/*_out/`` unchanged
unless it says why, so the last bits of every reported number are pinned
here. The reported infidelity must not depend on the FCI eigensolver: the
scans are rerun with the earlier complex solve of the whole N-electron
block, kept here as the oracle, and must give the same bytes. Its
eigenvectors are restricted to the reference's (N, S_z) block, where the
prepared states live, after checking that they have no weight outside it.

The committed scans have 4 qubits; the 8-qubit H4 scan (fci, vqe and
adapt with Nelder-Mead and L-BFGS) is pinned by the sha256 of its
``scan.csv``, so a printed digit that moves on those longer paths shows.
A last-bit change in the simulator kernels that moves no printed digit
is left to the exact kernel oracles in ``test_statevector.py``.
"""
import hashlib
from pathlib import Path

import numpy as np
import pytest

from vqebench import cli
from vqebench.cli import emit_report, main, parse_scan_config, run_scan
from vqebench.fci import FciSolution
from vqebench.pauli import to_matrix

EXAMPLES = Path(__file__).resolve().parent.parent / "examples_configs"
DATA = Path(__file__).resolve().parent / "data"
SCANS = ["h2_scan", "nah_scan"]
H4_SCAN_CSV_SHA256 = \
    "0982eae8d3b8ec338d31d20b7519cf65cee38dbe0225bc3e681871a7315aa478"


def complex_n_block_fci(problem):
    """FCI from a complex ``eigh`` of the whole N-electron block: the
    solver `fci.solve_fci` used before it moved to the real (N, S_z)
    block of the reference. The ground vectors are returned over that
    block, which must hold all but 1e-12 of their weight."""
    n_qubits = problem.n_qubits
    basis = np.arange(1 << n_qubits)
    indices = basis[np.bitwise_count(basis) == problem.n_electrons]
    block = to_matrix(problem.h_p)[np.ix_(indices, indices)]
    eigenvalues, eigenvectors = np.linalg.eigh(block)
    n_ground = int(np.sum(eigenvalues - eigenvalues[0] < 1e-9))
    in_sector = np.isin(indices, problem.h_p.basis)
    dropped = eigenvectors[~in_sector, :n_ground]
    assert np.sum(np.abs(dropped) ** 2) < 1e-12
    return FciSolution(eigenvalues[0] + problem.core,
                       eigenvectors[in_sector, :n_ground])


def first_difference(artifact, produced, committed):
    """None when the bytes agree, else the first differing line of each."""
    if produced == committed:
        return None
    new = produced.decode().splitlines()
    old = committed.decode().splitlines()
    for number, (got, want) in enumerate(zip(new, old), 1):
        if got != want:
            return (f"{artifact} line {number}:\n  produced  {got!r}\n"
                    f"  committed {want!r}")
    return (f"{artifact}: {len(new)} lines produced, {len(old)} committed "
            f"(or trailing bytes differ)")


def assert_reproduces_committed(name, out_dir):
    config = EXAMPLES / f"{name}.cfg"
    cfg = parse_scan_config(config.read_text(), base_dir=EXAMPLES)
    emit_report(run_scan(cfg), out_dir)
    problems = [
        first_difference(artifact, (out_dir / artifact).read_bytes(),
                         (EXAMPLES / f"{name}_out" / artifact).read_bytes())
        for artifact in ("scan.csv", "scan.json", "summary.txt")]
    problems = [p for p in problems if p is not None]
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("name", SCANS)
def test_example_scan_reproduces_committed_outputs(name, tmp_path):
    assert_reproduces_committed(name, tmp_path)


@pytest.mark.parametrize("name", SCANS)
def test_committed_outputs_do_not_depend_on_the_fci_solver(
        name, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "solve_fci", complex_n_block_fci)
    assert_reproduces_committed(name, tmp_path)


def test_h4_scan_csv_is_pinned(tmp_path):
    config = tmp_path / "h4.cfg"
    config.write_text(
        "output = out\nmethods = fci, vqe, adapt\n"
        "optimizers = nelder_mead, lbfgs\nmax_iterations = 50\n"
        f"input = 1.000 {DATA / 'h4_r1.000.fcidump'}\n")
    assert main(["scan", "--config", str(config)]) == 0
    csv = (tmp_path / "out" / "scan.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == H4_SCAN_CSV_SHA256, \
        csv.decode()


def test_first_difference_names_line_and_both_versions():
    message = first_difference("scan.csv", b"a\nb\nc\n", b"a\nB\nc\n")
    assert "line 2" in message
    assert "'b'" in message and "'B'" in message
    assert first_difference("scan.csv", b"a\n", b"a\n") is None


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    assert "FAIL" not in capsys.readouterr().out
