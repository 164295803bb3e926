import json
from pathlib import Path

import numpy as np
import pytest

from vqebench.adapt import QubitProblem
from vqebench.fcidump import MolecularHamiltonian, load_fcidump
from vqebench.fermion import number_operator
from vqebench.fci import infidelity_vs_fci, sector_indices, solve_fci
from vqebench.pauli import ResourceLimitError, to_matrix
from vqebench.statevector import StateVector, expectation

DATA = Path(__file__).parent / "data"

with open(DATA / "reference_energies.json") as fh:
    REFERENCE = json.load(fh)


def single_orbital_problem(eps=-0.73, coulomb=0.4, core=0.11):
    h1 = np.array([[eps]])
    h2 = np.full((1, 1, 1, 1), coulomb)
    return QubitProblem(MolecularHamiltonian(1, 2, core, h1, h2,
                                             label="toy"))


def problem_of(name):
    return QubitProblem(load_fcidump(DATA / name))


class TestSolveFci:
    def test_single_orbital_closed_form(self):
        eps, coulomb, core = -0.73, 0.4, 0.11
        sol = solve_fci(single_orbital_problem(eps, coulomb, core))
        assert sol.energy == pytest.approx(2 * eps + coulomb + core,
                                           abs=1e-12)
        # ground state is the doubly occupied determinant |11>
        assert abs(sol.ground_state.amplitudes[0b11]) == pytest.approx(1.0)

    def test_h2_matches_independent_determinant_ci(self):
        # frozen oracle values from the generator's Slater-Condon CI
        for name, ref in REFERENCE.items():
            if not name.startswith("h2_"):
                continue
            sol = solve_fci(problem_of(name))
            assert sol.energy == pytest.approx(ref["fci_energy"],
                                               abs=1e-9), name

    def test_h2_at_0735_is_minus_1137(self):
        sol = solve_fci(problem_of("h2_r0.735.fcidump"))
        assert sol.energy == pytest.approx(-1.137, abs=1e-3)

    def test_ground_state_in_sector(self):
        sol = solve_fci(problem_of("h2_r1.100.fcidump"))
        n_expect = expectation(sol.ground_state, number_operator(4))
        assert n_expect == pytest.approx(2.0, abs=1e-10)

    def test_eigen_residual(self):
        problem = problem_of("h2_r2.500.fcidump")
        sol = solve_fci(problem)
        h_mat = to_matrix(problem.h_p)
        vec = sol.ground_state.amplitudes
        residual = h_mat @ vec - (sol.energy - problem.core) * vec
        assert np.linalg.norm(residual) <= 1e-8

    def test_sector_restriction_matches_full_diagonalization(self):
        problem = problem_of("h2_r1.500.fcidump")
        sol = solve_fci(problem)
        h_mat = to_matrix(problem.h_p)
        idx = sector_indices(4, 2)
        block = h_mat[np.ix_(idx, idx)]
        lowest = np.linalg.eigvalsh(block)[0]
        assert sol.energy == pytest.approx(lowest + problem.core, abs=1e-10)

    def test_qubit_cap(self):
        big = MolecularHamiltonian(7, 2, 0.0, np.zeros((7, 7)) + np.eye(7),
                                   np.zeros((7, 7, 7, 7)), label="big")
        with pytest.raises(ResourceLimitError):
            QubitProblem(big)

    def test_degenerate_hamiltonian_flagged(self):
        # zero integrals: every sector state has energy = core
        ham = MolecularHamiltonian(2, 2, 0.25, np.zeros((2, 2)),
                                   np.zeros((2, 2, 2, 2)), label="flat")
        sol = solve_fci(QubitProblem(ham))
        assert sol.degeneracy_flag
        assert sol.energy == pytest.approx(0.25)


class TestInfidelityVsFci:
    def test_ground_state_itself(self):
        sol = solve_fci(problem_of("h2_r0.735.fcidump"))
        assert infidelity_vs_fci(sol.ground_state, sol) == pytest.approx(
            0.0, abs=1e-12)

    def test_orthogonal_state(self):
        sol = solve_fci(problem_of("h2_r0.735.fcidump"))
        # |0011> and |1100> span the sector ground region; |0101> has
        # one alpha electron in each spatial orbital -> not the singlet
        # combination. Build a state orthogonal to the ground vector.
        ground = sol.ground_state.amplitudes
        probe = np.zeros_like(ground)
        probe[0b0101] = 1.0
        overlap = np.vdot(ground, probe)
        probe = probe - overlap * ground
        probe /= np.linalg.norm(probe)
        state = StateVector(4, probe)
        assert infidelity_vs_fci(state, sol) == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_ground_space_uses_projection(self):
        ham = MolecularHamiltonian(2, 2, 0.0, np.zeros((2, 2)),
                                   np.zeros((2, 2, 2, 2)), label="flat")
        sol = solve_fci(QubitProblem(ham))
        assert sol.degeneracy_flag
        # any sector state lies in the (fully degenerate) ground space
        state = StateVector.basis_state(4, 0b0101)
        assert infidelity_vs_fci(state, sol) == pytest.approx(0.0, abs=1e-10)
