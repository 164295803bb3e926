import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import infidelity, number_operator

from vqebench.adapt import QubitProblem
from vqebench import pauli
from vqebench.fcidump import (MolecularHamiltonian, load_fcidump,
                              to_fermion_hamiltonian)
from vqebench.fermion import FermionOperator, LadderProduct, jordan_wigner
from vqebench.fci import (FciSolution, infidelity_vs_fci, sector_matrix,
                          solve_fci)
from vqebench.pauli import ResourceLimitError, to_matrix
from vqebench.statevector import embed, expectation, sector_indices

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


def n_block_lowest(problem):
    """Lowest eigenvalue of the complex N-electron block of the dense H_P,
    the oracle of the (N, S_z) block solve."""
    basis = np.arange(1 << problem.n_qubits)
    idx = basis[np.bitwise_count(basis) == problem.n_electrons]
    block = to_matrix(problem.h_p)[np.ix_(idx, idx)]
    return np.linalg.eigvalsh(block)[0]


def flat_problem(core=0.0):
    """Zero integrals: every block state has energy ``core``."""
    return QubitProblem(MolecularHamiltonian(
        2, 2, core, np.zeros((2, 2)), np.zeros((2, 2, 2, 2)), label="flat"))


H4_SOLUTION = solve_fci(problem_of("h4_r1.000.fcidump"))
FLAT_SOLUTION = solve_fci(flat_problem())


class TestSector:
    @pytest.mark.parametrize("n_qubits, n_electrons, dim", [
        (2, 2, 1), (4, 2, 4), (4, 1, 2), (8, 4, 36), (12, 6, 400),
        (12, 5, 300)])
    def test_dimension_is_that_of_the_reference_block(self, n_qubits,
                                                      n_electrons, dim):
        assert len(sector_indices(n_qubits, n_electrons)) == dim

    def test_alpha_on_even_qubits_and_beta_on_odd(self):
        idx = sector_indices(4, 3)
        assert list(idx) == [0b0111, 0b1101]
        reference = (1 << 3) - 1
        assert reference in idx

    def test_matrix_is_real(self):
        problem = problem_of("h4_r1.000.fcidump")
        mat = sector_matrix(problem.h_p, sector_indices(8, 4))
        assert mat.dtype == np.float64
        assert mat.shape == (36, 36)

    def test_restricted_hamiltonian_reuses_its_action(self):
        problem = problem_of("h4_r1.000.fcidump")
        misses = pauli._basis_action.cache_info().misses
        mat = sector_matrix(problem.h_p, problem.h_p.basis)
        assert pauli._basis_action.cache_info().misses == misses
        np.testing.assert_array_equal(
            mat, sector_matrix(jordan_wigner(to_fermion_hamiltonian(
                load_fcidump(DATA / "h4_r1.000.fcidump"))[0]),
                sector_indices(8, 4)))

    def test_imaginary_entry_raises(self):
        # i (a0^ a2 - a2^ a0) conserves N and S_z but is imaginary
        hop = FermionOperator(4, [LadderProduct([(0, True), (2, False)], 1j),
                                  LadderProduct([(2, True), (0, False)],
                                                -1j)])
        h_p = jordan_wigner(hop)
        assert h_p.is_hermitian()
        with pytest.raises(ValueError, match="not real"):
            sector_matrix(h_p, sector_indices(4, 2))

    def test_block_leaving_entry_raises(self):
        # a0^ a1 + a1^ a0 moves an electron between the alpha qubit 0 and
        # the beta qubit 1: it conserves N but not S_z
        hop = FermionOperator(4, [LadderProduct([(0, True), (1, False)]),
                                  LadderProduct([(1, True), (0, False)])])
        h_p = jordan_wigner(hop)
        assert h_p.is_hermitian()
        with pytest.raises(ValueError, match="leaves the block"):
            sector_matrix(h_p, sector_indices(4, 2))


class TestSolveFci:
    def test_single_orbital_closed_form(self):
        eps, coulomb, core = -0.73, 0.4, 0.11
        sol = solve_fci(single_orbital_problem(eps, coulomb, core))
        assert sol.energy == pytest.approx(2 * eps + coulomb + core,
                                           abs=1e-12)
        # the block holds only the doubly occupied determinant |11>
        assert sector_indices(2, 2).tolist() == [0b11]
        assert sol.ground_state.tolist() == [1.0]

    def test_h2_matches_independent_determinant_ci(self):
        # frozen oracle values from the generator's Slater-Condon CI
        for name, ref in REFERENCE.items():
            if not name.startswith("h2_"):
                continue
            sol = solve_fci(problem_of(name))
            assert sol.energy == pytest.approx(ref["fci_energy"],
                                               abs=1e-9), name

    def test_h6_matches_independent_determinant_ci(self):
        # 12 qubits, a 400-dimensional block; the energy the generator's
        # Slater-Condon CI prints for tests/data/h6/h6_r1.000.fcidump
        sol = solve_fci(problem_of("h6/h6_r1.000.fcidump"))
        assert sol.energy == pytest.approx(-3.2360662798924613, abs=1e-8)

    def test_h2_at_0735_is_minus_1137(self):
        sol = solve_fci(problem_of("h2_r0.735.fcidump"))
        assert sol.energy == pytest.approx(-1.137, abs=1e-3)

    def test_ground_state_in_sector(self):
        problem = problem_of("h2_r1.100.fcidump")
        sol = solve_fci(problem)
        assert sol.ground_state.dtype == np.float64
        assert sol.ground_state.shape == problem.h_p.basis.shape == (4,)
        n_op = number_operator(4).restrict(problem.h_p.basis)
        n_expect = expectation(sol.ground_state, n_op)
        assert n_expect == pytest.approx(2.0, abs=1e-10)

    def test_eigen_residual(self):
        problem = problem_of("h2_r2.500.fcidump")
        sol = solve_fci(problem)
        h_mat = to_matrix(problem.h_p)
        vec = embed(sol.ground_state, problem.h_p.basis, 4)
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

    @pytest.mark.parametrize("name", sorted(
        path.name for path in DATA.glob("*.fcidump")))
    def test_matches_complex_n_block_oracle(self, name):
        problem = problem_of(name)
        assert solve_fci(problem).energy == pytest.approx(
            n_block_lowest(problem) + problem.core, abs=1e-12)

    def test_qubit_cap(self):
        with pytest.raises(ResourceLimitError):
            QubitProblem(MolecularHamiltonian(
                7, 2, 0.0, np.zeros((7, 7)) + np.eye(7),
                np.zeros((7, 7, 7, 7)), label="big"))

    def test_degenerate_hamiltonian_flagged(self):
        sol = solve_fci(flat_problem(core=0.25))
        assert sol.degeneracy_flag
        assert sol.energy == pytest.approx(0.25)


class TestInfidelityVsFci:
    def test_ground_state_itself(self):
        sol = solve_fci(problem_of("h2_r0.735.fcidump"))
        assert infidelity_vs_fci(sol.ground_state, sol) == pytest.approx(
            0.0, abs=1e-12)

    def test_orthogonal_state(self):
        sol = solve_fci(problem_of("h2_r0.735.fcidump"))
        # a random block state, orthogonalized against the ground vector
        ground = sol.ground_state
        probe = np.random.default_rng(4).normal(size=ground.size)
        overlap = np.vdot(ground, probe)
        probe = probe - overlap * ground
        probe /= np.linalg.norm(probe)
        assert infidelity_vs_fci(probe, sol) == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_ground_space_uses_projection(self):
        sol = FLAT_SOLUTION
        assert sol.degeneracy_flag
        # any block state lies in the (fully degenerate) ground space,
        # whatever eigenvector basis the solver returned for it
        assert sol.ground_space.shape == (4, 4)
        state = np.random.default_rng(9).normal(size=4)
        assert infidelity_vs_fci(state, sol) == pytest.approx(0.0, abs=1e-10)
        # a state orthogonal to a ground space of two block states
        partial = FciSolution(sol.energy, np.eye(4)[:, :2])
        state = np.array([0.0, 0.0, 0.6, -0.8])
        assert infidelity_vs_fci(state, partial) == pytest.approx(1.0,
                                                                  abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 50),
           phase=st.floats(-np.pi, np.pi, allow_nan=False),
           noise=st.sampled_from([0.0, 1e-16, 1e-12, 1e-8, 1e-3, 1.0]),
           seed=st.integers(0, 2**32 - 1),
           complex_reference=st.booleans())
    def test_one_vector_space_is_the_rank_one_infidelity(
            self, dim, phase, noise, seed, complex_reference):
        rng = np.random.default_rng(seed)
        reference = rng.normal(size=dim)
        if complex_reference:
            reference = reference + 1j * rng.normal(size=dim)
        reference /= np.linalg.norm(reference)
        state = np.exp(1j * phase) * reference + noise * (
            rng.normal(size=dim) + 1j * rng.normal(size=dim))
        sol = FciSolution(0.0, reference[:, np.newaxis])
        assert infidelity_vs_fci(state, sol) == pytest.approx(
            infidelity(state, reference), abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(phase=st.floats(-np.pi, np.pi, allow_nan=False),
           noise=st.sampled_from([0.0, 1e-16, 1e-12, 1e-8, 1e-3, 1.0]),
           seed=st.integers(0, 2**32 - 1),
           degenerate=st.booleans())
    def test_never_negative(self, phase, noise, seed, degenerate):
        # 1 - |<fci|psi>| reads down to -1.3e-15 on the H4 ground state
        sol = FLAT_SOLUTION if degenerate else H4_SOLUTION
        ground = sol.ground_state
        size = ground.size
        rng = np.random.default_rng(seed)
        amps = ground + noise * (
            rng.normal(size=size) + 1j * rng.normal(size=size))
        state = np.exp(1j * phase) * amps / np.linalg.norm(amps)
        value = infidelity_vs_fci(state, sol)
        assert 0.0 <= value <= 1.0
        if noise == 0.0:
            assert value < 1e-15

