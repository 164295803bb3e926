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
Its Nelder-Mead VQE and ADAPT rows, which prepare one state per energy
evaluation, are also pinned to the bit: the energy's hex form, the
sha256 of the angles' bytes and the ledger's counts. Any other last-bit
change in the simulator kernels that moves no printed digit is left to
the exact kernel oracles in ``test_statevector.py`` and
``test_ansatz.py``.

``vqebench run`` is pinned the same way: the sha256 of its whole stdout
for every method and optimizer on H2, for an input whose pool is empty,
and for one and for three ADAPT steps on the 12-qubit H6 chain; the
three-step run fits up to three angles with L-BFGS, so its adjoint
gradients sweep back over several operators at 12 qubits, and it is
pinned with Nelder-Mead as well. The Nelder-Mead VQE on H6 runs the
largest rotation program, all 81 pool operators, 15811 times. The whole
H6 ADAPT run with L-BFGS selects 40 operators, so its adjoint gradients
sweep back over up to 40 angles, and its ledger reports a
``measurement_total`` of 26213476.
"""
import hashlib
from pathlib import Path

import numpy as np
import pytest

from vqebench import cli
from vqebench.adapt import AdaptConfig, QubitProblem, run_adapt, run_vqe
from vqebench.cli import emit_report, main, parse_scan_config, run_scan
from vqebench.fcidump import load_fcidump
from vqebench.fci import FciSolution
from vqebench.pauli import to_matrix

EXAMPLES = Path(__file__).resolve().parent.parent / "examples_configs"
DATA = Path(__file__).resolve().parent / "data"
SCANS = ["h2_scan", "nah_scan"]
H4_SCAN_CSV_SHA256 = \
    "0982eae8d3b8ec338d31d20b7519cf65cee38dbe0225bc3e681871a7315aa478"
EMPTY_POOL = None  # a one-orbital, two-electron dump written per test
RUN_PINS = [
    pytest.param(
        "h2_r0.735.fcidump", "fci", [],
        "10b7ab73e8ddb8441ddf64b2d27481782699fbb9762abe1e82c1c322416b455b",
        id="h2-fci"),
    pytest.param(
        "h2_r0.735.fcidump", "vqe", ["--optimizer", "nm"],
        "00a8f3d433988ac1d13687c1e74707f614244f68be3b3a94abd99eaf839d0c03",
        id="h2-vqe-nm"),
    pytest.param(
        "h2_r0.735.fcidump", "vqe", ["--optimizer", "lbfgs"],
        "5d6dbf85617175b6da29c930fc8ffbff02e48e650283714791714e6469b6d9d6",
        id="h2-vqe-lbfgs"),
    pytest.param(
        "h2_r0.735.fcidump", "adapt", ["--optimizer", "nm"],
        "b1903cb3e856f29903bd4aeb645648f98ae96a0e075ba8e523a1d000d39bfa24",
        id="h2-adapt-nm"),
    pytest.param(
        "h2_r0.735.fcidump", "adapt", ["--optimizer", "lbfgs"],
        "82af7495c92fb8e37c1ec8dfd340dd0ca778ff9814cbca83fea52eaa3c9adc22",
        id="h2-adapt-lbfgs"),
    pytest.param(
        EMPTY_POOL, "vqe", [],
        "6ceb5d41b9dba4cb1fc32503cb051b2ba646cbbffb377d2e30193a75be5371ed",
        id="empty-pool-vqe"),
    pytest.param(
        EMPTY_POOL, "adapt", [],
        "add81162830fa5c789c2518101a2b872edfc54894f1fb8c3b8e74422358adcde",
        id="empty-pool-adapt"),
    pytest.param(
        "h6/h6_r1.000.fcidump", "adapt", ["--max-iter", "1"],
        "9358849bdb2556ff362ca4cacebd933f20d4431718a458a51869a5ea4c7f0ef7",
        id="h6-adapt-max-iter-1"),
    pytest.param(
        "h6/h6_r1.000.fcidump", "adapt", ["--max-iter", "3"],
        "1804193ffebdb40e7a3f08ce80a50f9c78b10e05ae577779f32fc559f5d3f5f5",
        id="h6-adapt-max-iter-3"),
    pytest.param(
        "h6/h6_r1.000.fcidump", "adapt",
        ["--optimizer", "nelder_mead", "--max-iter", "3"],
        "524730554a04110de1a2919d8c8c256b557d900c00d0106fd0a00b21798a7a6d",
        id="h6-adapt-nm-max-iter-3"),
    pytest.param(
        "h6/h6_r1.000.fcidump", "vqe", ["--optimizer", "nelder_mead"],
        "cdf709b8b36b5d5945e6618c919a2ffa529d9cc9ce52ae93a5d53ce2450415c3",
        id="h6-vqe-nm"),
    pytest.param(
        "h6/h6_r1.000.fcidump", "adapt", [],
        "56fb612b52e1830f494e59971b545f873151da20e733965b238843b0247ed35c",
        id="h6-adapt-lbfgs"),
]


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


def test_h4_nelder_mead_vqe_is_pinned_to_the_bit():
    result = run_vqe(QubitProblem(load_fcidump(DATA / "h4_r1.000.fcidump")),
                     AdaptConfig(optimizer="nelder_mead"))
    assert result.energy.hex() == "-0x1.154987cee3b18p+1"
    assert hashlib.sha256(result.theta.tobytes()).hexdigest() == \
        "bf77cc3c0bb0dc0179e1e035c09bd28615ab063027ebb10e2c45920e41fbfe12"
    assert result.ledger.energy_evaluations == 1005
    assert result.ledger.total() == 184920


def test_h4_nelder_mead_adapt_is_pinned_to_the_bit():
    result = run_adapt(
        QubitProblem(load_fcidump(DATA / "h4_r1.000.fcidump")),
        AdaptConfig(optimizer="nelder_mead"))
    assert result.energy.hex() == "-0x1.15495c9434690p+1"
    assert hashlib.sha256(result.theta.tobytes()).hexdigest() == \
        "478c66c2a622a1a7790575fd7c77061cd6fd6926d0ddb3b0d84d0d635654c011"
    assert result.ledger.as_dict() == {
        "energy_evaluations": 1269, "commutator_evaluations": 190,
        "pauli_term_measurements": 317496}


@pytest.mark.parametrize("dump,method,flags,digest", RUN_PINS)
def test_run_stdout_is_pinned(tmp_path, capsys, dump, method, flags, digest):
    if dump is EMPTY_POOL:  # one orbital, doubly occupied: no excitation
        path = tmp_path / "one_orbital.fcidump"
        path.write_text("&FCI NORB=1,NELEC=2,MS2=0 /\n 0.3 1 1 1 1\n"
                        " -0.7 1 1 0 0\n 0.2 0 0 0 0\n")
    else:
        path = DATA / dump
    argv = ["run", "--fcidump", str(path), "--method", method, *flags]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def test_first_difference_names_line_and_both_versions():
    message = first_difference("scan.csv", b"a\nb\nc\n", b"a\nB\nc\n")
    assert "line 2" in message
    assert "'b'" in message and "'B'" in message
    assert first_difference("scan.csv", b"a\n", b"a\n") is None


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    assert "FAIL" not in capsys.readouterr().out
