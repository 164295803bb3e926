"""Built-in invariant battery behind the ``selftest`` CLI command.

Self-contained (synthetic Hamiltonians, seeded randomness) so it can run
anywhere the package is installed, without test data or extra packages.
The dense references of the exponential, screening, term-count and
particle-number checks are Kronecker products of single-qubit matrices
over all ``2**n`` states, independent of the compiled action that the
simulator and `to_matrix` share; block states are embedded there.
"""
from __future__ import annotations

import math

import numpy as np

from .adapt import AdaptConfig, QubitProblem, run_adapt, run_vqe, screen_pool
from .ansatz import (
    Ansatz,
    build_uccsd_pool,
    circuit_metrics,
    circuit_resources,
    compile_circuit,
    energy_gradient,
    full_uccsd_ansatz,
    prepare_state,
    simulate_circuit,
)
from .fcidump import _H2_SYMMETRIES, MolecularHamiltonian, _orbit
from .fermion import verify_car
from .fci import infidelity_vs_fci, solve_fci
from .optimize import central_difference_gradient
from .pauli import PAULI_MATRICES, PauliSum, commutator_term_counts, to_matrix
from .statevector import (
    embed,
    expectation,
    hartree_fock_reference,
)


def _expm_anti_hermitian(mat: np.ndarray, scale: float) -> np.ndarray:
    """exp(scale * A) for anti-Hermitian A via eigendecomposition of iA."""
    herm = 1j * mat
    eigenvalues, vectors = np.linalg.eigh(herm)
    return (vectors * np.exp(-1j * scale * eigenvalues)) @ vectors.conj().T


def _kron_matrix(s: PauliSum) -> np.ndarray:
    """Dense matrix of ``s`` as a sum of Kronecker products, qubit 0 the
    least significant."""
    dim = 1 << s.n_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    for (x, z), c in s.terms.items():
        term = np.array([[c]])
        for q in range(s.n_qubits):
            letter = "IXZY"[((x >> q) & 1) + 2 * ((z >> q) & 1)]
            term = np.kron(PAULI_MATRICES[letter], term)
        mat += term
    return mat


def _number_matrix(n_qubits: int) -> np.ndarray:
    """The particle number as a dense diagonal: ``popcount(b)`` on ``|b>``."""
    return np.diag(np.bitwise_count(np.arange(1 << n_qubits)).astype(float))


def _pauli_term_count(mat: np.ndarray) -> int:
    """Non-identity Pauli strings with ``|c| > 1e-9`` in the expansion of
    the dense ``2**n`` matrix ``mat``.

    The X-mask-``x`` part of ``mat`` maps ``|b>`` to ``d_x[b] |b ^ x>``,
    with ``d_x[b] = sum_z c(x, z) i**popcount(x & z) (-1)**popcount(b & z)``,
    so a Walsh-Hadamard transform of ``d_x`` over ``b`` gives ``2**n``
    times ``|c(x, z)|`` for every ``z`` at once.
    """
    states = np.arange(len(mat))
    walsh = 1.0 - 2.0 * (np.bitwise_count(np.bitwise_and.outer(states,
                                                               states)) & 1)
    d = mat[np.bitwise_xor.outer(states, states), states]  # d[x, b]
    c = np.abs(d @ walsh) / len(mat)  # c[x, z]
    c[0, 0] = 0.0
    return int(np.count_nonzero(c > 1e-9))


def _synthetic_hamiltonian() -> MolecularHamiltonian:
    h1 = np.array([[-1.25, 0.07], [0.07, -0.47]])
    h2 = np.zeros((2, 2, 2, 2))
    pairs = {(0, 0, 0, 0): 0.68, (1, 1, 1, 1): 0.65, (0, 0, 1, 1): 0.60,
             (0, 1, 0, 1): 0.18, (0, 0, 0, 1): 0.05}
    for index, value in pairs.items():
        for member in _orbit(*index):
            h2[member] = value
    return MolecularHamiltonian(2, 2, 0.52, h1, h2, label="selftest CAS(2,2)")


def _group_by_group(ansatz: Ansatz, thetas, reference) -> np.ndarray:
    """The ansatz state one X-mask-group rotation at a time, ``c * a + s *
    (coupling * p)`` per row over each ``tau.rotations`` group in turn:
    the same arithmetic as the compiled program, written out plainly."""
    psi = np.array(reference, dtype=float)
    for pid, theta in zip(ansatz.ids, np.asarray(thetas).tolist()):
        c, s = math.cos(theta), math.sin(theta)
        for rows, partners, couplings in ansatz.pool[pid].qubit_form.rotations:
            psi[rows] = c * psi[rows] + s * (couplings * psi[partners])
    return psi


def _adjoint_gradient_matches(problem: QubitProblem) -> bool:
    """The full-UCCSD adjoint gradient agrees with central differences
    to 1e-6 at seeded angles, 0.0 and -0.0 among them."""
    ansatz, h_p = full_uccsd_ansatz(problem.pool), problem.h_p
    thetas = np.random.default_rng(11).uniform(-0.5, 0.5, len(ansatz))
    thetas[:2] = 0.0, -0.0

    def energy(theta):
        return expectation(prepare_state(ansatz, theta, problem.reference),
                           h_p)

    return bool(np.allclose(
        energy_gradient(ansatz, thetas, problem.reference, h_p),
        central_difference_gradient(energy, thetas, 1e-5), rtol=0,
        atol=1e-6))


def run_selftest() -> bool:
    """Run every invariant check, printing one line each; returns True
    when all pass."""
    checks = []

    def check(name, passed):
        checks.append(passed)
        print(f"[{'PASS' if passed else 'FAIL'}] {name}")

    for n in range(1, 7):
        check(f"canonical anticommutation relations, {n} modes",
              verify_car(n))

    pool22 = build_uccsd_pool(2, 2)
    check("CAS(2,2) pool holds exactly 2 operators", len(pool22) == 2)

    rng = np.random.default_rng(2024)
    for n_spatial, n_electrons in ((2, 2), (3, 2), (4, 2), (4, 4)):
        pool = build_uccsd_pool(n_spatial, n_electrons)
        n_qubits = 2 * n_spatial
        n_mat = _number_matrix(n_qubits)
        ok = True
        for op in pool:
            mat = to_matrix(op.qubit_form)
            ok &= bool(np.allclose(mat, -mat.conj().T, atol=1e-12))
            ok &= bool(np.allclose(mat @ n_mat, n_mat @ mat, atol=1e-12))
            ok &= op.qubit_form.terms_mutually_commute()
        check(f"pool({n_spatial},{n_electrons}) element invariants", ok)

    for n_spatial, n_electrons in ((2, 2), (3, 2)):
        pool = build_uccsd_pool(n_spatial, n_electrons)
        n_qubits = 2 * n_spatial
        ref = hartree_fock_reference(n_qubits, n_electrons)
        basis = pool[0].qubit_form.basis
        full_ref = embed(ref, basis, n_qubits)
        ok_apply = ok_circuit = ok_resources = True
        for pid, op in enumerate(pool):
            theta = float(rng.uniform(-np.pi, np.pi))
            ansatz = Ansatz(pool, [pid])
            fast = embed(prepare_state(ansatz, [theta], ref), basis, n_qubits)
            dense = _expm_anti_hermitian(_kron_matrix(op.qubit_form),
                                         theta) @ full_ref
            ok_apply &= bool(np.allclose(fast, dense, atol=1e-10))
            circuit = compile_circuit(ansatz, [theta])
            gated = simulate_circuit(circuit, full_ref)
            ok_circuit &= bool(np.allclose(gated, fast, atol=1e-10))
            ok_resources &= circuit_resources(ansatz) == circuit_metrics(
                circuit)
        reverse = Ansatz(pool, reversed(range(len(pool))))
        ok_resources &= circuit_resources(reverse) == circuit_metrics(
            compile_circuit(reverse, np.linspace(-1.0, 1.0, len(pool))))
        check(f"pool exponentials match dense matrix exponential "
              f"({n_spatial},{n_electrons})", ok_apply)
        check(f"compiled circuits match pool exponentials "
              f"({n_spatial},{n_electrons})", ok_circuit)
        check(f"resource summaries match compiled circuits "
              f"({n_spatial},{n_electrons})", ok_resources)
        ok_in_place = True
        for ansatz in (full_uccsd_ansatz(pool), reverse):
            thetas = np.random.default_rng(7).uniform(-np.pi, np.pi,
                                                      len(ansatz))
            ok_in_place &= (prepare_state(ansatz, thetas, ref).tobytes()
                            == _group_by_group(ansatz, thetas, ref).tobytes())
        check(f"in-place state preparation equals the per-operator "
              f"exponentials bit for bit ({n_spatial},{n_electrons})",
              ok_in_place)

    adjoint_ok = True
    for n_spatial, n_electrons in ((4, 2), (4, 4)):
        # random real integrals with the symmetries of (ij|kl)
        h1 = rng.normal(size=(n_spatial, n_spatial))
        h2 = rng.normal(size=(n_spatial,) * 4)
        for perm in _H2_SYMMETRIES:
            h2 = h2 + h2.transpose(perm)
        problem = QubitProblem(MolecularHamiltonian(
            n_spatial, n_electrons, 0.0, h1 + h1.T, h2, label="random"))
        pool, basis = problem.pool, problem.h_p.basis
        psi = rng.normal(size=len(basis))
        full = embed(psi, basis, 2 * n_spatial)
        h_mat = _kron_matrix(problem.h_p)
        commutators = [h_mat @ m - m @ h_mat
                       for m in (_kron_matrix(op.qubit_form) for op in pool)]
        expected = [np.vdot(full, c @ full).real for c in commutators]
        check(f"pool screening matches dense commutator expectations "
              f"({n_spatial},{n_electrons})",
              bool(np.allclose(screen_pool(psi, problem.h_p, pool), expected,
                               rtol=0, atol=1e-10)))
        check(f"commutator term counts match dense commutator expansions "
              f"({n_spatial},{n_electrons})",
              commutator_term_counts(problem.h_p,
                                     [op.qubit_form for op in pool])
              == [_pauli_term_count(c) for c in commutators])
        adjoint_ok &= _adjoint_gradient_matches(problem)
    check("adjoint gradient matches central differences", adjoint_ok)

    problem = QubitProblem(_synthetic_hamiltonian())
    sol = solve_fci(problem)
    h_p = problem.h_p
    check("JW Hamiltonian is Hermitian", h_p.is_hermitian())
    h_mat, n_mat = _kron_matrix(h_p), _number_matrix(4)
    check("JW Hamiltonian conserves particle number",
          bool(np.allclose(h_mat @ n_mat, n_mat @ h_mat, rtol=0,
                           atol=1e-12)))
    grads = screen_pool(sol.ground_state, h_p, problem.pool)
    check("pool gradients vanish on the exact eigenstate",
          bool(np.max(np.abs(grads)) < 1e-8))

    floor_ok = True
    infid_ok = True
    for optimizer in ("nelder_mead", "lbfgs"):
        cfg = AdaptConfig(optimizer=optimizer, tol_rel_energy=1e-8)
        for runner in (run_vqe, run_adapt):
            result = runner(problem, cfg)
            floor_ok &= result.energy >= sol.energy - 1e-9
            infid_ok &= infidelity_vs_fci(result.prepared_state(),
                                          sol) < 1e-4
    check("variational floor respected by both drivers", floor_ok)
    check("optimized states overlap the exact ground state", infid_ok)

    passed = all(checks)
    print(f"selftest: {sum(checks)}/{len(checks)} checks passed")
    return passed
