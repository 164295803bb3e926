"""Exact diagonalization of the qubit Hamiltonian in the (N, S_z) block of
the Hartree-Fock reference; the full-CI ground truth for energies and
fidelities. The JW Hamiltonian is that of the `adapt.QubitProblem` VQE and
ADAPT solve, and the ground state is a vector over the same block."""
from __future__ import annotations

from collections import namedtuple

import numpy as np

from .adapt import QubitProblem
from .pauli import PauliSum
# perfbench's worker reads fci.sector_indices for its sector-size check
from .statevector import sector_indices  # noqa: F401 re-export

DEGENERACY_GAP = 1e-9
RESIDUAL_TOL = 1e-8


class FciSolution(namedtuple("FciSolution", "energy ground_space")):
    """Lowest energy of H_P in the (N, S_z) block of the reference, and
    its ground space: orthonormal columns over ``h_p.basis``."""

    __slots__ = ()

    @property
    def ground_state(self) -> np.ndarray:
        return self.ground_space[:, 0]

    @property
    def degeneracy_flag(self) -> bool:
        """A ground space degenerate within the block."""
        return self.ground_space.shape[1] > 1

    def __repr__(self):
        flag = ", degenerate" if self.degeneracy_flag else ""
        return f"FciSolution(E={self.energy:.9f}{flag})"


def sector_matrix(h_p: PauliSum, indices: np.ndarray) -> np.ndarray:
    """Dense real H_P block over the ascending basis states ``indices``.

    Writes the nonzero block entries of `PauliSum.restrict`, which raises
    ValueError for a sum that leaves the block or is not real on it. A sum
    already restricted to ``indices`` reuses its kept action.
    """
    if h_p.basis is not indices:
        h_p = h_p.restrict(indices)
    rows, cols, values = h_p.action
    mat = np.zeros((len(indices), len(indices)))
    # each (row, col) pair is one X mask's entry: nothing to accumulate
    mat[rows, cols] = values
    return mat


def solve_fci(problem: QubitProblem) -> FciSolution:
    """Ground state of the problem's JW Hamiltonian in the (N, S_z) block
    of the reference, from a real symmetric eigensolve.

    Reported energy includes the core energy. The sign of the first
    ground vector is fixed by making its largest amplitude positive.
    """
    mat = sector_matrix(problem.h_p, problem.h_p.basis)
    eigenvalues, eigenvectors = np.linalg.eigh(mat)

    n_ground = int(np.sum(eigenvalues - eigenvalues[0] < DEGENERACY_GAP))

    residual = mat @ eigenvectors[:, 0] - eigenvalues[0] * eigenvectors[:, 0]
    if np.linalg.norm(residual) > RESIDUAL_TOL:
        raise AssertionError("eigenpair residual above tolerance")

    space = eigenvectors[:, :n_ground]
    space[:, 0] *= np.sign(space[np.argmax(np.abs(space[:, 0])), 0])
    return FciSolution(float(eigenvalues[0] + problem.core), space)


def infidelity_vs_fci(prepared: np.ndarray, sol: FciSolution) -> float:
    """State-preparation error against the FCI ground space.

    The distance to the whole space, ``||a - P a / ||P a|| ||^2 / 2`` for
    the normalised prepared state ``a`` and the projector ``P`` onto the
    space: that is ``1 - ||P a||`` without its cancellation, so never
    negative, and it does not depend on global phase or on the eigenvector
    basis the solver returned for a degenerate space. For one ground
    vector ``b`` it is ``1 - |<b|a>|``.
    """
    a = prepared / np.linalg.norm(prepared)
    space = sol.ground_space
    projected = space @ (space.conj().T @ a)
    norm = np.linalg.norm(projected)
    if norm == 0.0:
        return 1.0
    return float(np.linalg.norm(a - projected / norm) ** 2) / 2
