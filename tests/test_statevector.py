from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from test_pauli import from_string, sum_kron_matrix

from vqebench.adapt import QubitProblem
from vqebench.fcidump import load_fcidump
from vqebench.fermion import (
    FermionOperator,
    LadderProduct,
    anti_hermitian_pair,
    jordan_wigner,
    number_operator,
)
from vqebench.pauli import DimensionMismatchError, PauliSum, to_matrix
from vqebench.statevector import (
    apply_operator,
    apply_pool_operator,
    expectation,
    hartree_fock_reference,
    infidelity,
)

DATA = Path(__file__).parent / "data"


def ket(n_qubits, index=0):
    """Computational basis state ``|index>`` as a complex array."""
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[index] = 1.0
    return amps


def paired_double_tau(n_so=4):
    """JW image of the CAS(2,2) paired double excitation minus conjugate."""
    t = FermionOperator(n_so, [LadderProduct(
        [(2, True), (3, True), (1, False), (0, False)])])
    return jordan_wigner(anti_hermitian_pair(t))


def singlet_single_tau(n_so=4):
    t = FermionOperator(n_so, [
        LadderProduct([(2, True), (0, False)]),
        LadderProduct([(3, True), (1, False)]),
    ])
    return jordan_wigner(anti_hermitian_pair(t))


def one_string_tau(n_qubits, x_mask, z_mask, weight=1.0):
    """``i * weight * P`` for one Pauli string P, so that
    ``apply_pool_operator(state, tau, angle)`` is ``exp(i angle weight P)``."""
    return PauliSum(n_qubits, {(x_mask, z_mask): 1j * weight})


def weighted_group_tau():
    """Commuting strings whose X-mask group has |diagonal| 0.4 on some
    states and 1.0 on others (every UCCSD pool operator has 0 or 1)."""
    return PauliSum(4, {(0b0011, 0b0000): 0.3j, (0b0011, 0b0011): 0.7j,
                        (0b0100, 0b1000): -0.5j})


class TestHartreeFockReference:
    def test_two_electrons_in_four_qubits(self):
        ref = hartree_fock_reference(4, 2)
        assert ref[0b0011] == 1.0
        assert np.count_nonzero(ref) == 1

    def test_vacuum(self):
        ref = hartree_fock_reference(2, 0)
        assert ref[0] == 1.0

    def test_particle_count(self):
        ref = hartree_fock_reference(4, 2)
        assert expectation(ref, number_operator(4)) == pytest.approx(2.0)

    def test_too_many_electrons(self):
        with pytest.raises(ValueError):
            hartree_fock_reference(2, 3)


class TestPauliExponential:
    def test_rabi_rotation(self):
        out = apply_pool_operator(ket(1), one_string_tau(1, 1, 0),
                                  np.pi / 2)
        np.testing.assert_allclose(out, [0.0, 1j], atol=1e-15)

    def test_zero_angle_is_identity(self):
        state = np.full(4, 0.5, dtype=complex)
        out = apply_pool_operator(state, one_string_tau(2, 0b01, 0b11), 0.0)
        np.testing.assert_array_equal(out, state)

    def test_z_rotation_is_global_phase_on_basis_state(self):
        theta = 0.731
        out = apply_pool_operator(ket(1), one_string_tau(1, 0, 1),
                                  theta)
        np.testing.assert_allclose(out[0], np.exp(1j * theta),
                                   atol=1e-14)
        assert infidelity(out, ket(1)) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        # P = 1j * X0 is not Hermitian, so i P is not anti-Hermitian
        with pytest.raises(ValueError):
            apply_pool_operator(ket(1), one_string_tau(1, 1, 0, 1j),
                                0.3)

    @given(st.floats(-np.pi, np.pi, allow_nan=False), st.integers(0, 15),
           st.integers(0, 15))
    @settings(max_examples=50)
    def test_matches_matrix_exponential(self, angle, x_mask, z_mask):
        tau = one_string_tau(4, x_mask, z_mask)
        rng = np.random.default_rng(x_mask * 16 + z_mask)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        out = apply_pool_operator(amps, tau, angle)
        dense = expm(angle * sum_kron_matrix(tau))
        np.testing.assert_allclose(out, dense @ amps, atol=1e-10)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10


class TestPoolOperator:
    def test_zero_angle(self):
        ref = hartree_fock_reference(4, 2)
        out = apply_pool_operator(ref, paired_double_tau(), 0.0)
        np.testing.assert_allclose(out, ref, atol=1e-15)

    def test_preserves_particle_number(self):
        ref = hartree_fock_reference(4, 2)
        out = apply_pool_operator(ref, paired_double_tau(), np.pi / 2)
        assert expectation(out, number_operator(4)) == pytest.approx(2.0)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10

    @pytest.mark.parametrize("tau_builder", [paired_double_tau,
                                             singlet_single_tau,
                                             weighted_group_tau])
    @pytest.mark.parametrize("theta", [-2.1, -0.3, 0.17, 1.9])
    def test_matches_dense_expm(self, tau_builder, theta):
        tau = tau_builder()
        rng = np.random.default_rng(7)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        out = apply_pool_operator(amps, tau, theta)
        dense = expm(theta * to_matrix(tau))
        np.testing.assert_allclose(out, dense @ amps, atol=1e-10)

    def test_rejects_hermitian_operator(self):
        herm = from_string(2, "X0", 1.0)
        with pytest.raises(ValueError):
            apply_pool_operator(ket(2), herm, 0.5)


class TestAgainstKroneckerOracle:
    """The grouped action on the committed 8-qubit H4 problem against dense
    Kronecker-product matrices, which do not go through `PauliSum.action`."""

    @pytest.fixture(scope="class")
    def h4(self):
        return QubitProblem(load_fcidump(DATA / "h4_r1.000.fcidump"))

    @pytest.fixture(scope="class")
    def state(self):
        rng = np.random.default_rng(41)
        amps = rng.normal(size=256) + 1j * rng.normal(size=256)
        return amps / np.linalg.norm(amps)

    def test_one_action_entry_per_x_mask(self, h4):
        assert len(h4.h_p) == 185
        assert len({x for x, _ in h4.h_p.terms}) == 27
        assert len(h4.h_p.action) == 27
        for op in h4.pool:
            masks = {x for x, _ in op.qubit_form.terms}
            assert len(op.qubit_form.action) == len(masks)

    def test_pool_exponentials(self, h4, state):
        assert len(h4.pool) == 19
        rng = np.random.default_rng(5)
        for op in h4.pool:
            theta = float(rng.uniform(-1.5, 1.5))
            out = apply_pool_operator(state, op.qubit_form, theta)
            dense = expm(theta * sum_kron_matrix(op.qubit_form))
            np.testing.assert_allclose(out,
                                       dense @ state, atol=1e-10)

    def test_hamiltonian_action_and_expectation(self, h4, state):
        h_psi = sum_kron_matrix(h4.h_p) @ state
        np.testing.assert_allclose(apply_operator(state, h4.h_p), h_psi,
                                   atol=1e-10)
        assert abs(expectation(state, h4.h_p)
                   - np.vdot(state, h_psi).real) < 1e-10


class TestExpectation:
    def test_z_convention(self):
        z = from_string(1, "Z0")
        assert expectation(ket(1), z) == pytest.approx(1.0)

    def test_identity_returns_coefficient(self):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        c = 1.37
        assert expectation(amps, PauliSum.identity(3, c)) == pytest.approx(c)

    def test_rejects_non_hermitian(self):
        bad = from_string(1, "X0", 1j)
        with pytest.raises(ValueError):
            expectation(ket(1), bad)

    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                              st.floats(-2, 2, allow_nan=False)),
                    min_size=1, max_size=6),
           st.integers(0, 2 ** 10))
    @settings(max_examples=50)
    def test_matches_dense_quadratic_form(self, term_specs, seed):
        s = PauliSum(3, {(x, z): c for x, z, c in term_specs})
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        dense = float(np.real(np.vdot(amps, to_matrix(s) @ amps)))
        assert expectation(amps, s) == pytest.approx(dense, abs=1e-10)


class TestInfidelity:
    def test_identical_states(self):
        s = hartree_fock_reference(3, 2)
        assert infidelity(s, s) == 0.0

    def test_orthogonal_states(self):
        a = ket(2, 0)
        b = ket(2, 3)
        assert infidelity(a, b) == pytest.approx(1.0)

    @given(st.floats(-np.pi, np.pi, allow_nan=False))
    def test_global_phase_invariance(self, phi):
        rng = np.random.default_rng(11)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        assert infidelity(amps, np.exp(1j * phi) * amps) == pytest.approx(0.0, abs=1e-12)

    @given(st.floats(-np.pi, np.pi, allow_nan=False),
           st.sampled_from([0.0, 1e-15, 1e-9, 1e-3]),
           st.integers(0, 2**32 - 1))
    def test_never_negative(self, phi, noise, seed):
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        other = np.exp(1j * phi) * amps + noise * rng.normal(size=8)
        value = infidelity(amps, other)
        assert value >= 0.0
        if noise == 0.0:
            assert value < 1e-15

    def test_unnormalised_inputs_are_normalised(self):
        a = np.array([3.0, 0.0])
        b = np.array([1.0, 1.0])
        assert infidelity(a, b) == pytest.approx(1 - np.sqrt(0.5), abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            infidelity(ket(1), ket(2))


class TestArraySize:
    """Every function checks a state's length against the qubit count of
    its operator and raises DimensionMismatchError."""

    @pytest.mark.parametrize("amps", [ket(1), ket(3), np.zeros(3, complex),
                                      np.zeros((2, 2), complex)])
    def test_apply_pool_operator(self, amps):
        with pytest.raises(DimensionMismatchError):
            apply_pool_operator(amps, one_string_tau(2, 0b01, 0b10), 0.3)

    @pytest.mark.parametrize("amps", [ket(1), ket(3), np.zeros(3, complex)])
    def test_apply_operator(self, amps):
        with pytest.raises(DimensionMismatchError):
            apply_operator(amps, number_operator(2))

    @pytest.mark.parametrize("amps", [ket(1), ket(3), np.zeros(3, complex)])
    def test_expectation(self, amps):
        with pytest.raises(DimensionMismatchError):
            expectation(amps, number_operator(2))

    @pytest.mark.parametrize("state,reference", [
        (ket(2), ket(1)), (np.zeros(3, complex), np.zeros(3, complex)),
        (ket(2), np.zeros((2, 2), complex))])
    def test_infidelity(self, state, reference):
        with pytest.raises(DimensionMismatchError):
            infidelity(state, reference)

    def test_reference_is_a_complex_array(self):
        ref = hartree_fock_reference(3, 2)
        assert isinstance(ref, np.ndarray)
        assert ref.dtype == complex and ref.shape == (8,)
