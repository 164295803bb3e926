"""Exact diagonalization of the qubit Hamiltonian in the (N, S_z) block of
the Hartree-Fock reference; the full-CI ground truth for energies and
fidelities. The JW Hamiltonian is that of the `adapt.QubitProblem` VQE and
ADAPT solve."""
from __future__ import annotations

import numpy as np

from .adapt import QubitProblem
from .pauli import PauliSum
from .statevector import infidelity

DEGENERACY_GAP = 1e-9
RESIDUAL_TOL = 1e-8
LEAK_TOL = 1e-12


class FciSolution:
    """Lowest eigenpair of H_P in the (N, S_z) block of the reference.

    ``degeneracy_flag`` means a degenerate ground space within that block.
    """

    __slots__ = ("energy", "ground_state", "sector", "degeneracy_flag",
                 "_ground_basis")

    def __init__(self, energy, ground_state, sector, degeneracy_flag,
                 ground_basis):
        self.energy = float(energy)
        self.ground_state = ground_state
        self.sector = int(sector)
        self.degeneracy_flag = bool(degeneracy_flag)
        self._ground_basis = ground_basis  # columns: degenerate eigenvectors

    def __repr__(self):
        flag = ", degenerate" if self.degeneracy_flag else ""
        return (f"FciSolution(E={self.energy:.9f}, "
                f"{self.sector} electrons{flag})")


def sector_indices(n_qubits: int, n_electrons: int) -> np.ndarray:
    """Ascending basis states of the reference's (N, S_z) block.

    The Hartree-Fock reference puts ``(n_electrons + 1) // 2`` electrons
    on the even (alpha) qubits and ``n_electrons // 2`` on the odd (beta)
    ones; the Hamiltonian and the pool conserve both counts.
    """
    basis = np.arange(1 << n_qubits, dtype=np.int64)
    alpha = sum(1 << q for q in range(0, n_qubits, 2))
    keep = ((np.bitwise_count(basis & alpha) == (n_electrons + 1) // 2)
            & (np.bitwise_count(basis & ~alpha) == n_electrons // 2))
    return basis[keep]


def sector_matrix(h_p: PauliSum, indices: np.ndarray) -> np.ndarray:
    """Dense real H_P block over the given basis states.

    Built from ``h_p.action``. An X-mask group may map a block state
    outside the block; for a sum that conserves N and S_z its diagonal
    there is zero up to rounding, so those entries are dropped rather than
    accumulated. One above ``LEAK_TOL`` means the sum does not conserve
    the block, and raises ValueError.
    The imaginary contributions of a real molecular Hamiltonian cancel
    exactly as well; a nonzero imaginary entry raises ValueError.
    """
    dim = len(indices)
    position = np.full(1 << h_p.n_qubits, -1, dtype=np.int64)
    position[indices] = np.arange(dim)
    cols = np.arange(dim)
    mat = np.zeros((dim, dim), dtype=complex)
    for targets, diagonal in h_p.action:
        rows = position[targets[indices]]
        keep = rows >= 0
        values = diagonal[indices]
        leak = np.abs(values[~keep])
        if leak.size and leak.max() > LEAK_TOL:
            raise ValueError(f"H_P leaves the block: max dropped entry = "
                             f"{leak.max():.3e}")
        mat[rows[keep], cols[keep]] += values[keep]
    if mat.imag.any():
        raise ValueError(f"H_P block is not real: max |Im| = "
                         f"{np.abs(mat.imag).max():.3e}")
    return np.ascontiguousarray(mat.real)


def solve_fci(problem: QubitProblem) -> FciSolution:
    """Ground state of the problem's JW Hamiltonian in the (N, S_z) block
    of the reference, from a real symmetric eigensolve.

    Reported energy includes the core energy. The ground-state sign is
    fixed by making the largest amplitude positive.
    """
    n_qubits = problem.n_qubits
    indices = sector_indices(n_qubits, problem.n_electrons)
    mat = sector_matrix(problem.h_p, indices)
    eigenvalues, eigenvectors = np.linalg.eigh(mat)

    n_ground = int(np.sum(eigenvalues - eigenvalues[0] < DEGENERACY_GAP))

    residual = mat @ eigenvectors[:, 0] - eigenvalues[0] * eigenvectors[:, 0]
    if np.linalg.norm(residual) > RESIDUAL_TOL:
        raise AssertionError("eigenpair residual above tolerance")

    basis = np.zeros((1 << n_qubits, n_ground), dtype=complex)
    basis[indices] = eigenvectors[:, :n_ground]
    ground = basis[:, 0]
    ground = ground * np.sign(ground[np.argmax(np.abs(ground))].real)
    return FciSolution(eigenvalues[0] + problem.core, ground,
                       problem.n_electrons, n_ground > 1, basis)


def infidelity_vs_fci(prepared: np.ndarray, sol: FciSolution) -> float:
    """State-preparation error against the FCI ground space.

    For a ground space degenerate within the block this is the distance to
    the whole space, ``||a - P a / ||P a|| ||^2 / 2`` for the normalised
    prepared state ``a`` and the projector ``P`` onto the space: that is
    ``1 - ||P a||`` without its cancellation, and it does not depend on the
    arbitrary eigenvector basis returned by the solver.
    """
    if not sol.degeneracy_flag:
        return infidelity(prepared, sol.ground_state)
    a = prepared / np.linalg.norm(prepared)
    basis = sol._ground_basis
    projected = basis @ (basis.conj().T @ a)
    norm = np.linalg.norm(projected)
    if norm == 0.0:
        return 1.0
    return float(np.linalg.norm(a - projected / norm) ** 2) / 2
