from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from oracles import (
    apply_by_groups,
    exponential_by_groups,
    finite_difference_gradient,
    group_action,
    infidelity,
    number_operator,
)
from scipy.linalg import expm
from test_pauli import from_string, sum_kron_matrix

from vqebench import pauli
from vqebench.adapt import AdaptConfig, QubitProblem, run_adapt
from vqebench.ansatz import (
    Ansatz,
    _validate_pool_operators,
    energy_gradient,
    full_uccsd_ansatz,
    prepare_state,
)
from vqebench.fcidump import load_fcidump
from vqebench.fci import infidelity_vs_fci, sector_matrix, solve_fci
from vqebench.fermion import (
    FermionOperator,
    LadderProduct,
    anti_hermitian_pair,
    jordan_wigner,
)
from vqebench.pauli import DimensionMismatchError, PauliSum, to_matrix
from vqebench.statevector import (
    RotationProgram,
    apply_operator,
    embed,
    expectation,
    hartree_fock_reference,
    sector_indices,
)

DATA = Path(__file__).parent / "data"
SECTOR = sector_indices(4, 2)  # one alpha and one beta electron


def ket(n_qubits, index=0):
    """Computational basis state ``|index>`` over all ``2**n`` states."""
    amps = np.zeros(1 << n_qubits)
    amps[index] = 1.0
    return amps


def full(n_qubits):
    """All ``2**n`` basis states: a basis every sum maps into itself."""
    return np.arange(1 << n_qubits, dtype=np.int64)


def random_state(rng, dim):
    amps = rng.normal(size=dim)
    return amps / np.linalg.norm(amps)


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


def apply_one(state, tau, theta):
    """``exp(theta * tau) |state>``: a `RotationProgram` of one operator."""
    program = RotationProgram((tau,))
    return program.rotate(program.start(state),
                          program.weights((float(theta),)))


def one_string_tau(n_qubits, x_mask, z_mask, weight=1.0):
    """``i * weight * P`` for one Pauli string P over all ``2**n`` states,
    so that ``apply_one(state, tau, angle)`` is ``exp(i angle weight P)``;
    real when P has an odd number of Y."""
    return PauliSum(n_qubits, {(x_mask, z_mask): 1j * weight}).restrict(
        full(n_qubits))


def weighted_group_tau():
    """Commuting real strings whose X-mask group 0b0011 has |diagonal| 0.4
    on some states and 1.0 on others (every UCCSD pool operator has 0 or
    1): ``-0.3 (-1)**b0 - 0.7 (-1)**b1``. Anti-Hermitian, but not with
    couplings of +-1, so it has no rotations."""
    return PauliSum(4, {(0b0011, 0b0001): 0.3j, (0b0011, 0b0010): 0.7j,
                        (0b0100, 0b1100): -0.5j})


class TestHartreeFockReference:
    def test_two_electrons_in_four_qubits(self):
        ref = hartree_fock_reference(4, 2)
        assert ref.shape == (len(SECTOR),) == (4,)
        assert np.count_nonzero(ref) == 1 and ref.max() == 1.0
        assert SECTOR[np.argmax(ref)] == 0b0011

    def test_vacuum(self):
        ref = hartree_fock_reference(2, 0)
        assert ref.tolist() == [1.0]
        assert sector_indices(2, 0).tolist() == [0]

    def test_particle_count(self):
        ref = hartree_fock_reference(4, 2)
        n_op = number_operator(4).restrict(SECTOR)
        assert expectation(ref, n_op) == pytest.approx(2.0)

    def test_too_many_electrons(self):
        with pytest.raises(ValueError):
            hartree_fock_reference(2, 3)


class TestPauliExponential:
    def test_rabi_rotation(self):
        # i Y0 = [[0, 1], [-1, 0]] is real: |0> turns into -|1>
        out = apply_one(ket(1), one_string_tau(1, 1, 1), np.pi / 2)
        np.testing.assert_allclose(out, [0.0, -1.0], atol=1e-15)

    def test_zero_angle_is_identity(self):
        state = np.full(4, 0.5)
        out = apply_one(state, one_string_tau(2, 0b01, 0b11), 0.0)
        np.testing.assert_array_equal(out, state)

    def test_z_rotation_is_rejected_as_not_real(self):
        # exp(i theta Z) is a complex phase, which a real block cannot hold
        with pytest.raises(ValueError, match="not real"):
            one_string_tau(1, 0, 1)

    def test_rejects_non_hermitian(self):
        # P = -1j * X0 is not Hermitian, so i P = X0 is not anti-Hermitian
        with pytest.raises(ValueError):
            apply_one(ket(1), one_string_tau(1, 1, 0, -1j), 0.3)

    @given(st.floats(-np.pi, np.pi, allow_nan=False), st.integers(1, 15),
           st.integers(0, 15))
    @settings(max_examples=50)
    def test_matches_matrix_exponential(self, angle, x_mask, z_mask):
        # an odd number of Y factors makes i P real
        assume((x_mask & z_mask).bit_count() % 2)
        tau = one_string_tau(4, x_mask, z_mask)
        rng = np.random.default_rng(x_mask * 16 + z_mask)
        amps = random_state(rng, 16)
        out = apply_one(amps, tau, angle)
        dense = expm(angle * sum_kron_matrix(tau))
        np.testing.assert_allclose(out, dense @ amps, atol=1e-10)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10


class TestPoolOperator:
    def test_zero_angle(self):
        ref = hartree_fock_reference(4, 2)
        out = apply_one(ref, paired_double_tau().restrict(SECTOR), 0.0)
        np.testing.assert_allclose(out, ref, atol=1e-15)

    def test_preserves_particle_number(self):
        ref = hartree_fock_reference(4, 2)
        out = apply_one(ref, paired_double_tau().restrict(SECTOR), np.pi / 2)
        n_op = number_operator(4).restrict(SECTOR)
        assert expectation(out, n_op) == pytest.approx(2.0)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10

    @pytest.mark.parametrize("tau_builder", [paired_double_tau,
                                             singlet_single_tau])
    @pytest.mark.parametrize("theta", [-2.1, -0.3, 0.17, 1.9])
    def test_matches_dense_expm(self, tau_builder, theta):
        tau = tau_builder().restrict(full(4))
        amps = random_state(np.random.default_rng(7), 16)
        out = apply_one(amps, tau, theta)
        dense = expm(theta * to_matrix(tau))
        np.testing.assert_allclose(out, dense @ amps, atol=1e-10)

    def test_integer_state_is_taken_as_float64(self):
        ref = hartree_fock_reference(4, 2)
        tau = singlet_single_tau().restrict(SECTOR)
        out = apply_one(ref.astype(int), tau, 0.3)
        assert out.dtype == np.float64 and out.any()
        assert out.tobytes() == apply_one(ref, tau, 0.3).tobytes()
        with pytest.raises(TypeError):
            apply_one(ref.astype(complex), tau, 0.3)

    def test_state_is_left_alone_and_result_is_new(self):
        ref = hartree_fock_reference(4, 2)
        ref.flags.writeable = False
        out = apply_one(ref, singlet_single_tau().restrict(SECTOR), 0.3)
        assert ref.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert not np.shares_memory(out, ref) and out.flags.writeable

    def test_rejects_hermitian_operator(self):
        herm = from_string(2, "X0", 1.0).restrict(full(2))
        with pytest.raises(ValueError, match="anti-Hermitian"):
            apply_one(ket(2), herm, 0.5)


class TestAgainstKroneckerOracle:
    """The block action on the committed 8-qubit H4 problem against dense
    Kronecker-product matrices and matrix exponentials over all 256 states,
    which do not go through the compiled action."""

    @pytest.fixture(scope="class")
    def h4(self):
        return QubitProblem(load_fcidump(DATA / "h4_r1.000.fcidump"))

    @pytest.fixture(scope="class")
    def state(self):
        return random_state(np.random.default_rng(41), 36)

    def test_one_action_entry_per_x_mask(self, h4):
        assert len(h4.h_p) == 185
        assert len({x for x, _ in h4.h_p.terms}) == 27
        assert len(h4.h_p.action[0]) == 524  # of 27 * 36 group entries
        basis = h4.h_p.basis
        for s in [h4.h_p] + [op.qubit_form for op in h4.pool]:
            rows, cols, values = s.action
            assert values.dtype == np.float64 and values.all()
            masks = basis[rows] ^ basis[cols]
            assert set(masks.tolist()) <= {x for x, _ in s.terms}
            assert (np.diff(masks) >= 0).all()
            assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows)

    def test_pool_exponentials(self, h4, state):
        assert len(h4.pool) == 19
        rng = np.random.default_rng(5)
        basis = h4.h_p.basis
        for op in h4.pool:
            theta = float(rng.uniform(-1.5, 1.5))
            out = apply_one(state, op.qubit_form, theta)
            dense = expm(theta * sum_kron_matrix(op.qubit_form))
            np.testing.assert_allclose(embed(out, basis, 8),
                                       dense @ embed(state, basis, 8),
                                       atol=1e-10)

    def test_hamiltonian_action_and_expectation(self, h4, state):
        full_state = embed(state, h4.h_p.basis, 8)
        h_psi = sum_kron_matrix(h4.h_p) @ full_state
        np.testing.assert_allclose(
            embed(apply_operator(state, h4.h_p), h4.h_p.basis, 8), h_psi,
            atol=1e-10)
        assert abs(expectation(state, h4.h_p)
                   - np.vdot(full_state, h_psi).real) < 1e-10

    def test_full_uccsd_state_matches_expm_products(self, h4):
        thetas = np.random.default_rng(8).uniform(-1.0, 1.0, len(h4.pool))
        out = prepare_state(full_uccsd_ansatz(h4.pool), thetas, h4.reference)
        dense = embed(h4.reference, h4.h_p.basis, 8)
        for op, theta in zip(h4.pool, thetas):
            dense = expm(theta * to_matrix(op.qubit_form)) @ dense
        np.testing.assert_allclose(embed(out, h4.h_p.basis, 8), dense,
                                   rtol=0, atol=1e-12)


class TestH6Block:
    """The 12-qubit H6 chain: 400 block states of 4096."""

    @pytest.fixture(scope="class")
    def h6(self):
        return QubitProblem(load_fcidump(DATA / "h6" / "h6_r1.000.fcidump"))

    def test_full_uccsd_state_matches_full_space_loop_bit_for_bit(self, h6):
        basis = h6.h_p.basis
        assert len(basis) == 400 and len(h6.pool) == 81
        thetas = np.random.default_rng(6).uniform(-1.0, 1.0, len(h6.pool))
        out = prepare_state(full_uccsd_ansatz(h6.pool), thetas, h6.reference)
        # the grouped loop over all 2**12 complex amplitudes
        psi = embed(h6.reference, basis, 12)
        for op, theta in zip(h6.pool, thetas):
            psi = exponential_by_groups(
                psi, group_action(op.qubit_form, full(12)), theta)
        np.testing.assert_array_equal(embed(out, basis, 12), psi)

    def test_screening_matches_finite_differences(self, h6):
        from vqebench.adapt import screen_pool

        rng = np.random.default_rng(3)
        base = Ansatz(h6.pool, rng.integers(len(h6.pool), size=2))
        thetas = rng.uniform(-0.5, 0.5, size=2)
        grads = screen_pool(prepare_state(base, thetas, h6.reference),
                            h6.h_p, h6.pool)
        for k, op in enumerate(h6.pool):
            fd = finite_difference_gradient(
                base.extended(op.id), np.append(thetas, 0.0), h6.reference,
                h6.h_p)
            assert grads[k] == pytest.approx(fd[-1], abs=1e-6)

    def test_adapt_step_builds_no_action(self, h6):
        # every action was compiled over the block when the problem was
        # built; FCI and one ADAPT step reuse them and build none
        assert len(h6.h_p.action[0]) == 24448  # of 148 * 400 group entries
        assert sum(len(op.qubit_form.action[0]) for op in h6.pool) == 11592
        for s in [h6.h_p] + [op.qubit_form for op in h6.pool]:
            assert np.array_equal(s.basis, h6.h_p.basis)
        misses = pauli._basis_action.cache_info().misses
        sol = solve_fci(h6)
        result = run_adapt(h6, AdaptConfig(max_iterations=1))
        assert 0 <= infidelity_vs_fci(result.prepared_state(), sol) < 1
        assert pauli._basis_action.cache_info().misses == misses


KERNEL_PROBLEMS = {"h2": "h2_r0.735.fcidump", "nah": "nah_r1.000.fcidump",
                   "h4": "h4_r1.000.fcidump", "h6": "h6/h6_r1.000.fcidump"}
EDGE_ANGLES = [0.0, np.pi, -np.pi, 1e-9, -1e-9]


@pytest.fixture(scope="module", params=sorted(KERNEL_PROBLEMS))
def kernel_problem(request):
    return QubitProblem(load_fcidump(DATA / KERNEL_PROBLEMS[request.param]))


class TestKernelsAgainstGroupLoops:
    """The compiled kernels against the per-group loops they replaced
    (`oracles.group_action`): the same floating-point operations on each
    entry, so the results are equal, not close."""

    def test_pool_exponentials(self, kernel_problem):
        rng = np.random.default_rng(17)
        state = random_state(rng, len(kernel_problem.reference))
        thetas = list(rng.uniform(-2 * np.pi, 2 * np.pi, 50)) + EDGE_ANGLES
        basis = kernel_problem.h_p.basis
        for op in kernel_problem.pool:
            # every UCCSD group is one rotation, the group's entries of the
            # action in order, with couplings of +-1
            tau = op.qubit_form
            assert len(tau.rotations) == len({x for x, _ in tau.terms})
            for field, whole in zip(zip(*tau.rotations), tau.action):
                assert np.array_equal(np.concatenate(field), whole)
            masks = [np.unique(basis[rows] ^ basis[cols])
                     for rows, cols, _ in tau.rotations]
            assert [len(m) for m in masks] == [1] * len(masks)
            assert (np.diff(np.concatenate(masks)) > 0).all()
            assert (np.abs(tau.action[2]) == 1.0).all()
            groups = group_action(tau)
            for theta in thetas:
                assert np.array_equal(
                    apply_one(state, tau, theta),
                    exponential_by_groups(state, groups, theta)), \
                    (op, theta)

    @pytest.mark.parametrize("theta", [-2.1, 0.17] + EDGE_ANGLES)
    def test_group_with_two_magnitudes(self, theta):
        # couplings other than +-1 have no rotations: the rotation program
        # rejects the sum when it compiles, before a state is touched, and
        # so does the pool build
        tau = weighted_group_tau().restrict(full(4))
        assert tau.rotations is None and tau.hermitian is False
        state = random_state(np.random.default_rng(2), 16)
        unit = singlet_single_tau().restrict(full(4))
        with pytest.raises(ValueError, match="anti-Hermitian"):
            program = RotationProgram((unit, tau))
            program.rotate(program.start(state),
                           program.weights((theta, theta)))
        with pytest.raises(ValueError, match="not anti-Hermitian"):
            _validate_pool_operators([weighted_group_tau()], ["weighted"],
                                     full(4))

    def test_operator_action_and_expectation(self, kernel_problem):
        rng = np.random.default_rng(23)
        h_groups = group_action(kernel_problem.h_p)
        for _ in range(5):
            state = random_state(rng, len(kernel_problem.reference))
            h_psi = apply_by_groups(state, h_groups)
            assert np.array_equal(
                apply_operator(state, kernel_problem.h_p), h_psi)
            assert expectation(state, kernel_problem.h_p) == \
                float(np.dot(state, h_psi))
            for op in kernel_problem.pool:
                assert np.array_equal(
                    apply_operator(state, op.qubit_form),
                    apply_by_groups(state, group_action(op.qubit_form)))

    def test_fci_sector_matrix(self, kernel_problem):
        h_p = kernel_problem.h_p
        dim = len(h_p.basis)
        dense = np.zeros((dim, dim))
        for targets, diagonal in group_action(h_p):
            dense[targets, np.arange(dim)] += diagonal
        assert np.array_equal(sector_matrix(h_p, h_p.basis), dense)

    def test_sum_without_groups_gives_zeros(self):
        zero = PauliSum(4).restrict(SECTOR)
        assert [a.shape for a in zero.action] == [(0,)] * 3
        state = random_state(np.random.default_rng(1), 4)
        out = apply_operator(state, zero)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, np.zeros(4))
        np.testing.assert_array_equal(
            out, apply_by_groups(state, group_action(zero)))
        assert expectation(state, zero) == 0.0


class TestEnergyGradient:
    """The adjoint sweep against central differences of the energy, one
    prepared state per point (`oracles.finite_difference_gradient`)."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_central_differences(self, kernel_problem, data):
        # pool ids drawn with repeats; angles of either sign, zeros included
        pool, h_p = kernel_problem.pool, kernel_problem.h_p
        ids = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                                 max_size=6), label="ids")
        thetas = np.array(data.draw(st.lists(
            st.one_of(st.sampled_from([0.0, -0.0]),
                      st.floats(-np.pi, np.pi, allow_nan=False)),
            min_size=len(ids), max_size=len(ids)), label="thetas"))
        ansatz, reference = Ansatz(pool, ids), kernel_problem.reference
        np.testing.assert_allclose(
            energy_gradient(ansatz, thetas, reference, h_p),
            finite_difference_gradient(ansatz, thetas, reference, h_p),
            rtol=0, atol=1e-6)

    def test_full_uccsd_ansatz(self, kernel_problem):
        pool, h_p = kernel_problem.pool, kernel_problem.h_p
        ansatz, reference = full_uccsd_ansatz(pool), kernel_problem.reference
        thetas = np.random.default_rng(31).uniform(-1.0, 1.0, len(pool))
        thetas[:2] = 0.0, -0.0
        np.testing.assert_allclose(
            energy_gradient(ansatz, thetas, reference, h_p),
            finite_difference_gradient(ansatz, thetas, reference, h_p),
            rtol=0, atol=1e-6)

    def test_empty_ansatz_has_no_components(self):
        problem = QubitProblem(load_fcidump(DATA / "h2_r0.735.fcidump"))
        grad = energy_gradient(Ansatz(problem.pool), [], problem.reference,
                               problem.h_p)
        assert grad.shape == (0,)

    def test_keeps_the_angle_and_observable_checks(self):
        problem = QubitProblem(load_fcidump(DATA / "h2_r0.735.fcidump"))
        ansatz, reference = full_uccsd_ansatz(problem.pool), problem.reference
        with pytest.raises(ValueError, match="theta vector"):
            energy_gradient(ansatz, [0.1], reference, problem.h_p)
        unrestricted = PauliSum(4, dict(problem.h_p.terms))
        anti_hermitian = problem.pool[0].qubit_form
        for h_p in (unrestricted, anti_hermitian):
            with pytest.raises(ValueError, match="Hermitian H_P"):
                energy_gradient(ansatz, [0.1, 0.2], reference, h_p)


class TestExpectation:
    def test_non_hermitian_observable_is_rejected_before_any_work(self):
        tau = paired_double_tau().restrict(SECTOR)
        hits = pauli._basis_action.cache_info().hits
        with pytest.raises(ValueError, match="Hermitian"):
            expectation(hartree_fock_reference(4, 2), tau)
        assert pauli._basis_action.cache_info().hits == hits

    def test_z_convention(self):
        z = from_string(1, "Z0").restrict(full(1))
        assert expectation(ket(1), z) == pytest.approx(1.0)

    def test_identity_returns_coefficient(self):
        amps = random_state(np.random.default_rng(3), 8)
        c = 1.37
        identity = PauliSum(3, {(0, 0): c}).restrict(full(3))
        assert expectation(amps, identity) == pytest.approx(c)

    def test_rejects_non_hermitian(self):
        bad = from_string(1, "Y0", 1j).restrict(full(1))  # real, i Y0
        with pytest.raises(ValueError):
            expectation(ket(1), bad)

    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                              st.floats(-2, 2, allow_nan=False)),
                    min_size=1, max_size=6),
           st.integers(0, 2 ** 10))
    @settings(max_examples=50)
    def test_matches_dense_quadratic_form(self, term_specs, seed):
        # strings with an even number of Y are real
        s = PauliSum(3, {(x, z): c for x, z, c in term_specs
                         if (x & z).bit_count() % 2 == 0})
        amps = random_state(np.random.default_rng(seed), 8)
        dense = float(np.real(np.vdot(amps, to_matrix(s) @ amps)))
        assert expectation(amps, s.restrict(full(3))) == pytest.approx(
            dense, abs=1e-10)


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
    """Every function checks a state's length against the basis of its
    operator, or infidelity against the other state, and raises
    DimensionMismatchError."""

    @pytest.mark.parametrize("amps", [ket(1), ket(3), np.zeros(3),
                                      np.zeros((2, 2))])
    def test_apply_pool_operator(self, amps):
        with pytest.raises(DimensionMismatchError):
            apply_one(amps, singlet_single_tau().restrict(SECTOR), 0.3)

    @pytest.mark.parametrize("amps", [ket(1), ket(3), np.zeros(3)])
    def test_apply_operator(self, amps):
        with pytest.raises(DimensionMismatchError):
            apply_operator(amps, number_operator(4).restrict(SECTOR))

    @pytest.mark.parametrize("amps", [ket(1), ket(3), np.zeros(3)])
    def test_expectation(self, amps):
        with pytest.raises(DimensionMismatchError):
            expectation(amps, number_operator(4).restrict(SECTOR))

    @pytest.mark.parametrize("state,reference", [
        (ket(2), ket(1)), (np.zeros(3), np.zeros(4)),
        (ket(2), np.zeros((2, 2)))])
    def test_infidelity(self, state, reference):
        with pytest.raises(DimensionMismatchError):
            infidelity(state, reference)

    def test_reference_is_a_real_block_array(self):
        ref = hartree_fock_reference(3, 2)
        assert isinstance(ref, np.ndarray)
        assert ref.dtype == np.float64 and ref.shape == (2,)

    def test_unrestricted_sum_has_no_action(self):
        with pytest.raises(ValueError, match="restrict"):
            apply_operator(ket(2), number_operator(2))


class TestEmbed:
    def test_places_amplitudes_on_the_basis(self):
        out = embed(np.array([0.6, -0.8, 0.0, 0.0]), SECTOR, 4)
        assert out.shape == (16,)
        assert out[0b0011] == 0.6 and out[0b0110] == -0.8
        assert np.count_nonzero(out) == 2
