"""Exact diagonalization of the qubit Hamiltonian in the (N, S_z) block of
the Hartree-Fock reference; the full-CI ground truth for energies and
fidelities. The JW Hamiltonian is that of the `adapt.QubitProblem` VQE and
ADAPT solve, and the ground state is a vector over the same block."""
from __future__ import annotations

import numpy as np

from .adapt import QubitProblem
from .pauli import PauliSum
from .statevector import infidelity, sector_indices  # noqa: F401 re-export

DEGENERACY_GAP = 1e-9
RESIDUAL_TOL = 1e-8


class FciSolution:
    """Lowest eigenpair of H_P in the (N, S_z) block of the reference.

    ``degeneracy_flag`` means a degenerate ground space within that block.
    ``ground_state`` and ``_ground_basis`` columns are over ``h_p.basis``.
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


def sector_matrix(h_p: PauliSum, indices: np.ndarray) -> np.ndarray:
    """Dense real H_P block over the ascending basis states ``indices``.

    Densifies the block action of `PauliSum.restrict`, which raises
    ValueError for a sum that leaves the block or is not real on it. A sum
    already restricted to ``indices`` reuses its kept action.
    """
    if h_p.basis is not indices:
        h_p = h_p.restrict(indices)
    dim = len(indices)
    cols = np.arange(dim)
    mat = np.zeros((dim, dim))
    for targets, diagonal in h_p.action:
        mat[targets, cols] += diagonal
    return mat


def solve_fci(problem: QubitProblem) -> FciSolution:
    """Ground state of the problem's JW Hamiltonian in the (N, S_z) block
    of the reference, from a real symmetric eigensolve.

    Reported energy includes the core energy. The ground-state sign is
    fixed by making the largest amplitude positive.
    """
    mat = sector_matrix(problem.h_p, problem.h_p.basis)
    eigenvalues, eigenvectors = np.linalg.eigh(mat)

    n_ground = int(np.sum(eigenvalues - eigenvalues[0] < DEGENERACY_GAP))

    residual = mat @ eigenvectors[:, 0] - eigenvalues[0] * eigenvectors[:, 0]
    if np.linalg.norm(residual) > RESIDUAL_TOL:
        raise AssertionError("eigenpair residual above tolerance")

    basis = eigenvectors[:, :n_ground]
    ground = basis[:, 0] * np.sign(basis[np.argmax(np.abs(basis[:, 0])), 0])
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
