"""Exact diagonalization of the qubit Hamiltonian in the particle-number
sector; the full-CI ground truth for energies and fidelities. The JW
Hamiltonian is that of the `adapt.QubitProblem` VQE and ADAPT solve."""
from __future__ import annotations

import numpy as np

from .adapt import QubitProblem
from .pauli import PauliSum, string_phases
from .statevector import StateVector, infidelity

DEGENERACY_GAP = 1e-9
RESIDUAL_TOL = 1e-8


class FciSolution:
    """Lowest eigenpair of H_P restricted to one electron-count sector."""

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
    basis = np.arange(1 << n_qubits, dtype=np.int64)
    return basis[np.bitwise_count(basis) == n_electrons]


def sector_matrix(h_p: PauliSum, indices: np.ndarray) -> np.ndarray:
    """Dense H_P block over the given basis states.

    Individual Pauli terms may map a sector state outside the sector;
    for a particle-conserving sum those contributions cancel exactly, so
    they are dropped rather than accumulated. Terms are accumulated in
    insertion order, on which the last digits of reported energies depend.
    """
    dim = len(indices)
    position = np.full(1 << h_p.n_qubits, -1, dtype=np.int64)
    position[indices] = np.arange(dim)
    cols = np.arange(dim)
    mat = np.zeros((dim, dim), dtype=complex)
    for (x, z), coeff in h_p.terms.items():
        rows = position[indices ^ x]
        keep = rows >= 0
        phases = string_phases(indices, x, z)
        mat[rows[keep], cols[keep]] += coeff * phases[keep]
    return mat


def solve_fci(problem: QubitProblem) -> FciSolution:
    """Ground state of the problem's JW Hamiltonian in its electron sector.

    Reported energy includes the core energy. The ground-state phase is
    fixed by making the largest amplitude real positive.
    """
    n_qubits = problem.n_qubits
    indices = sector_indices(n_qubits, problem.n_electrons)
    mat = sector_matrix(problem.h_p, indices)
    eigenvalues, eigenvectors = np.linalg.eigh(mat)

    degenerate = (len(eigenvalues) > 1
                  and eigenvalues[1] - eigenvalues[0] < DEGENERACY_GAP)
    n_ground = int(np.sum(eigenvalues - eigenvalues[0] < DEGENERACY_GAP))

    def embed(column):
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[indices] = column
        pivot = int(np.argmax(np.abs(amps)))
        phase = amps[pivot] / abs(amps[pivot])
        return StateVector(n_qubits, amps / phase)

    ground = embed(eigenvectors[:, 0])
    basis = [embed(eigenvectors[:, k]) for k in range(n_ground)]

    residual = mat @ eigenvectors[:, 0] - eigenvalues[0] * eigenvectors[:, 0]
    if np.linalg.norm(residual) > RESIDUAL_TOL:
        raise AssertionError("eigenpair residual above tolerance")

    return FciSolution(eigenvalues[0] + problem.core, ground,
                       problem.n_electrons, degenerate, basis)


def infidelity_vs_fci(prepared: StateVector, sol: FciSolution) -> float:
    """State-preparation error against the FCI ground space.

    For a degenerate ground state this is the minimum over the whole
    degenerate subspace, 1 - ||P|psi>||, so the metric does not depend on
    the arbitrary eigenvector basis returned by the solver.
    """
    if not sol.degeneracy_flag:
        return infidelity(prepared, sol.ground_state)
    overlap_sq = sum(abs(prepared.inner(v)) ** 2 for v in sol._ground_basis)
    return 1.0 - float(np.sqrt(overlap_sq))
