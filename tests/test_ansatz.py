import functools
import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    apply_pool_operators,
    exponential_by_groups,
    group_action,
    infidelity,
    loop_energy_gradient,
    loop_fit_energy,
    loop_prepared_state,
    minimize_nelder_mead,
    number_operator,
    sz_operator,
)
from scipy.linalg import expm

from vqebench import adapt, statevector
from vqebench.adapt import AdaptConfig, MeasurementLedger, QubitProblem
from vqebench.ansatz import (
    Ansatz,
    Gate,
    GateCircuit,
    PoolOperator,
    _validate_pool_operators,
    build_uccsd_pool,
    circuit_metrics,
    circuit_resources,
    compile_circuit,
    energy_gradient,
    full_uccsd_ansatz,
    prepare_state,
    simulate_circuit,
)
from vqebench.fcidump import QUBIT_CAP, load_fcidump
from vqebench.fermion import (
    FermionOperator,
    LadderProduct,
    anti_hermitian_pair,
    jordan_wigner,
    jordan_wigner_each,
)
from vqebench.optimize import Objective
from vqebench.pauli import DimensionMismatchError, PauliSum, to_matrix
from vqebench.statevector import (
    RotationProgram,
    embed,
    expectation,
    hartree_fock_reference,
    sector_indices,
)

SECTOR = sector_indices(4, 2)
DATA = Path(__file__).parent / "data"
COMMITTED_INPUTS = {"h2": "h2_r0.735.fcidump", "nah": "nah_r1.000.fcidump",
                    "h4": "h4_r1.000.fcidump", "h6": "h6/h6_r1.000.fcidump"}
# Per pool shape, sha256 prefixes of: the operators' descriptions; the
# fermionic products handed to `jordan_wigner_each`, factors and
# coefficient; the compiled operators, as term order and coefficients and
# the bytes of `action` and `rotations`. Taken when each operator's two
# spin channels were written out by hand.
POOL_DIGESTS = {
    (1, 2): ("e3b0c44298fc1c14", "e3b0c44298fc1c14", "e3b0c44298fc1c14"),
    (2, 2): ("f6f1890606345f93", "4ad8fdf345a3d675", "70aabf8ebc19cd17"),
    (2, 4): ("e3b0c44298fc1c14", "e3b0c44298fc1c14", "e3b0c44298fc1c14"),
    (3, 2): ("9e246baa4463c4e5", "3a0680b5ddd6db9a", "830ac1456e8ada51"),
    (3, 4): ("dcc44acb75711221", "24c22b220cf019ce", "099269776a15032f"),
    (3, 6): ("e3b0c44298fc1c14", "e3b0c44298fc1c14", "e3b0c44298fc1c14"),
    (4, 2): ("859b332cabc9d72d", "e00fc07c2313757f", "293097bc9a9feca7"),
    (4, 4): ("acaa100de529bef6", "aa01ff27c45d4f50", "1d6a63b53e873235"),
    (4, 6): ("f7c4606768c80fd7", "2ce902efbd5b464b", "d167d39b91aea3c6"),
    (4, 8): ("e3b0c44298fc1c14", "e3b0c44298fc1c14", "e3b0c44298fc1c14"),
    (5, 2): ("e90e12b16d6651be", "9486300ff6d68ed4", "03adb7da317eded1"),
    (5, 4): ("22efa68373179199", "c30e5ad589daed41", "71aa16621b8a7acd"),
    (5, 6): ("003d2b3672915ab3", "6f5e0a22d8ff0618", "216756943af4a067"),
    (5, 8): ("80f109e2ffd8b9b9", "adf32f8f6ef42674", "644020721d7065dd"),
    (5, 10): ("e3b0c44298fc1c14", "e3b0c44298fc1c14", "e3b0c44298fc1c14"),
    (6, 2): ("8aa92b2c7dfa7315", "d7587484b341ac02", "2ec0e8e97d18e08c"),
    (6, 4): ("e78bcd5317a1cf52", "a775ef3d71f485f0", "22e654834cae6ed2"),
    (6, 6): ("d5bf73968970c4d9", "11426a8dacaaa70b", "b18895c7afa756a5"),
    (6, 8): ("7d99be2453a9f124", "8a4fe7929d590cd2", "62a25d6662e34420"),
    (6, 10): ("62e5ec41b2738073", "0fc40c1be60f602f", "4c006fb76b2957de"),
    (6, 12): ("e3b0c44298fc1c14", "e3b0c44298fc1c14", "e3b0c44298fc1c14"),
}
# Every (n_spatial, n_electrons) pool shape that loading lets through.
SUPPORTED_SHAPES = [(n, e) for n in range(1, QUBIT_CAP // 2 + 1)
                    for e in range(2, 2 * n + 1, 2)]


@functools.cache
def committed_pool(name):
    ham = load_fcidump(DATA / COMMITTED_INPUTS[name])
    return build_uccsd_pool(ham.n_spatial, ham.n_electrons)


@pytest.fixture(scope="module")
def cas22_pool():
    return build_uccsd_pool(2, 2)


class TestPoolConstruction:
    def test_cas22_has_exactly_two_operators(self, cas22_pool):
        assert len(cas22_pool) == 2
        assert "single" in cas22_pool[0].description
        assert "double" in cas22_pool[1].description

    def test_no_virtuals_means_empty_pool(self):
        assert build_uccsd_pool(1, 2) == ()

    def test_odd_electron_count_rejected(self):
        with pytest.raises(ValueError):
            build_uccsd_pool(3, 3)

    def test_built_once_per_shape_and_shared(self):
        pool = build_uccsd_pool(3, 2)
        assert isinstance(pool, tuple)
        assert build_uccsd_pool(3, 2) is pool
        assert not any(a.flags.writeable for a in pool[0].qubit_form.action)

    @pytest.mark.parametrize("n_spatial,n_electrons",
                             [(2, 2), (3, 2), (4, 2), (4, 4)])
    def test_pool_element_invariants(self, n_spatial, n_electrons):
        n_qubits = 2 * n_spatial
        n_op = number_operator(n_qubits)
        n_mat = to_matrix(n_op)
        for op in build_uccsd_pool(n_spatial, n_electrons):
            mat = to_matrix(op.qubit_form)
            # anti-Hermitian as a matrix
            np.testing.assert_allclose(mat, -mat.conj().T, atol=1e-12)
            # commutes with particle number as a matrix
            np.testing.assert_allclose(mat @ n_mat, n_mat @ mat, atol=1e-12)
            assert op.qubit_form.terms_mutually_commute()

    @pytest.mark.parametrize("n_spatial,n_electrons", [
        (2, 2), (3, 2), (4, 2), (4, 4), (5, 4), (6, 2), (7, 4), (8, 8)])
    def test_every_operator_is_one_unit_rotation_per_group(self, n_spatial,
                                                           n_electrons):
        # the kernels take each X-mask group as one rotation with couplings
        # of +-1; a pool operator without one fails to build
        for op in build_uccsd_pool.__wrapped__(n_spatial, n_electrons):
            tau = op.qubit_form
            assert len(tau.rotations) == len({x for x, _ in tau.terms})
            basis = tau.basis
            for rows, cols, values in tau.rotations:
                assert len(set((basis[rows] ^ basis[cols]).tolist())) == 1
                assert (np.abs(values) == 1.0).all()

    def test_deterministic_ordering(self):
        first = build_uccsd_pool(3, 2)
        second = build_uccsd_pool.__wrapped__(3, 2)  # a fresh build
        assert [op.description for op in first] == \
            [op.description for op in second]
        singles = [k for k, op in enumerate(first)
                   if "single" in op.description]
        assert singles == list(range(len(singles)))  # singles come first

    @pytest.mark.parametrize("n_spatial,n_electrons", [
        (n, e) for n in range(1, 8) for e in range(2, 2 * n + 1, 2)])
    def test_size_matches_closed_form(self, n_spatial, n_electrons):
        # every candidate is a distinct excitation with disjoint creation
        # and annihilation orbitals, so none has an empty or repeated image
        assert len(build_uccsd_pool(n_spatial, n_electrons)) == \
            closed_form_pool_size(n_spatial, n_electrons)

    @pytest.mark.parametrize("n_spatial,n_electrons", SUPPORTED_SHAPES)
    def test_every_supported_shape_is_pinned(self, n_spatial, n_electrons,
                                             monkeypatch):
        handed = []

        def spy(operators):
            handed.extend(operators)
            return jordan_wigner_each(handed)

        monkeypatch.setattr("vqebench.ansatz.jordan_wigner_each", spy)
        pool = build_uccsd_pool.__wrapped__(n_spatial, n_electrons)
        names, products, compiled = (hashlib.sha256() for _ in range(3))
        for op in pool:
            names.update(op.description.encode() + b"\n")
            tau = op.qubit_form
            compiled.update(repr(list(tau.terms.items())).encode())
            for array in (*tau.action, *(a for group in tau.rotations
                                           for a in group)):
                compiled.update(array.tobytes())
        for operator in handed:
            for prod in operator.products:
                products.update(repr((prod.factors,
                                      prod.coefficient)).encode())
            products.update(b"\n")
        assert tuple(d.hexdigest()[:16] for d in (names, products, compiled)
                     ) == POOL_DIGESTS[n_spatial, n_electrons]

    def test_closed_form_of_the_hydrogen_chains(self):
        assert closed_form_pool_size(4, 4) == 19  # H4
        assert closed_form_pool_size(6, 6) == 81  # H6

    def test_operator_is_named_by_its_position(self, cas22_pool):
        # an operator carries no id of its own, only its description
        assert repr(cas22_pool[0]) == "PoolOperator(single 0->1 (singlet))"
        assert not hasattr(cas22_pool[0], "id")

    def test_string_counts(self, cas22_pool):
        assert len(cas22_pool[0].qubit_form) == 4   # singlet single
        assert len(cas22_pool[1].qubit_form) == 8   # paired double

    def test_operators_are_restricted_to_the_reference_block(self,
                                                             cas22_pool):
        for op in cas22_pool:
            assert op.qubit_form.basis.tolist() == SECTOR.tolist()
            assert op.qubit_form.hermitian is False

    def test_spin_flip_single_is_rejected(self):
        # alpha 0 -> beta 1 conserves N but not S_z: it leaves the block
        t = FermionOperator(4, [LadderProduct([(3, True), (0, False)])])
        q = jordan_wigner(anti_hermitian_pair(t))
        assert q.is_anti_hermitian()
        assert q.terms_mutually_commute()
        with pytest.raises(ValueError, match="spin flip: .*leaves the block"):
            _validate_pool_operators([q], ["spin flip"], SECTOR)

    def test_hermitian_operator_is_rejected(self):
        herm = PauliSum(4, {(0b0101, 0): 1.0})  # X0 X2, an alpha hop
        with pytest.raises(ValueError, match="not anti-Hermitian"):
            _validate_pool_operators([herm], ["hermitian"], SECTOR)


def closed_form_pool_size(n_spatial, n_electrons):
    """Singles ``n_occ * n_virt``; per (i <= j, a <= b) quadruple, 1 paired
    double if i = j and a = b, 3 if i < j and a < b, else 2."""
    n_occ = n_electrons // 2
    occupied, virtual = range(n_occ), range(n_occ, n_spatial)
    size = n_occ * (n_spatial - n_occ)
    for i in occupied:
        for j in occupied[i:]:
            for a in virtual:
                for b in range(a, n_spatial):
                    if i == j and a == b:
                        size += 1
                    elif i < j and a < b:
                        size += 3
                    else:
                        size += 2
    return size


class TestFullAnsatz:
    def test_cas22_length_two(self, cas22_pool):
        ansatz = full_uccsd_ansatz(cas22_pool)
        assert len(ansatz) == 2
        assert ansatz.ids == (0, 1)

    def test_zero_thetas_reproduce_reference(self, cas22_pool):
        ansatz = full_uccsd_ansatz(cas22_pool)
        ref = hartree_fock_reference(4, 2)
        out = prepare_state(ansatz, np.zeros(2), ref)
        np.testing.assert_allclose(out, ref, atol=1e-14)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            full_uccsd_ansatz([])

    def test_sub_pool(self):
        # an ansatz names its operators by their positions in its own pool,
        # so a slice of a pool is a pool
        sub = build_uccsd_pool(3, 2)[2:]
        ansatz = full_uccsd_ansatz(sub)
        assert ansatz.ids == (0, 1, 2, 3)
        assert [ansatz.pool[pid] for pid in ansatz.ids] == list(sub)
        reference = hartree_fock_reference(6, 2)
        thetas = np.random.default_rng(5).uniform(-np.pi, np.pi, len(sub))
        assert prepare_state(ansatz, thetas, reference).tobytes() == \
            operator_chain(sub, range(len(sub)), thetas, reference).tobytes()


class TestPrepareState:
    def test_empty_ansatz(self, cas22_pool):
        ref = hartree_fock_reference(4, 2)
        out = prepare_state(Ansatz(cas22_pool), [], ref)
        np.testing.assert_array_equal(out, ref)
        assert out is not ref

    def test_conserves_number_and_sz(self, cas22_pool):
        rng = np.random.default_rng(5)
        ref = hartree_fock_reference(4, 2)
        n_op = number_operator(4).restrict(SECTOR)
        sz = sz_operator(4).restrict(SECTOR)
        for _ in range(10):
            thetas = rng.uniform(-np.pi, np.pi, size=2)
            out = prepare_state(full_uccsd_ansatz(cas22_pool), thetas, ref)
            assert expectation(out, n_op) == pytest.approx(2.0, abs=1e-10)
            assert expectation(out, sz) == pytest.approx(0.0, abs=1e-10)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-10

    def test_matches_dense_expm_chain(self, cas22_pool):
        thetas = [0.41, -0.77]
        ref = hartree_fock_reference(4, 2)
        out = prepare_state(full_uccsd_ansatz(cas22_pool), thetas, ref)
        dense = embed(ref, SECTOR, 4)
        for op, theta in zip(cas22_pool, thetas):
            dense = expm(theta * to_matrix(op.qubit_form)) @ dense
        np.testing.assert_allclose(embed(out, SECTOR, 4), dense, atol=1e-10)

    @pytest.mark.parametrize("thetas", [[], [0.1], [0.1, 0.2, 0.3],
                                        [[0.1, 0.2]]])
    def test_rejects_wrong_theta_length(self, cas22_pool, thetas):
        ref = hartree_fock_reference(4, 2)
        with pytest.raises(ValueError, match="theta vector"):
            prepare_state(full_uccsd_ansatz(cas22_pool), thetas, ref)

    def test_rejects_reference_of_wrong_size(self, cas22_pool):
        with pytest.raises(DimensionMismatchError):
            prepare_state(full_uccsd_ansatz(cas22_pool), [0.1, 0.2],
                          hartree_fock_reference(6, 2))


def operator_chain(pool, ids, thetas, state):
    """The ansatz state one `oracles.apply_pool_operators` call per
    operator."""
    for pid, theta in zip(ids, thetas):
        state = apply_pool_operators(state, (pool[pid].qubit_form,),
                                     (float(theta),))
    return state


@functools.cache
def pool_group_actions(name):
    return [group_action(op.qubit_form) for op in committed_pool(name)]


def group_chain(name, ids, thetas, state):
    """The ansatz state from the per-X-mask-group loops of `oracles`."""
    for pid, theta in zip(ids, thetas):
        state = exponential_by_groups(state, pool_group_actions(name)[pid],
                                      theta)
    return state


def assert_prepares_as_chains(name, ids, thetas, reference):
    """`prepare_state` gives the bytes of the one-operator chain and the
    values of the group-loop chain (which may differ in the sign of a
    zero it adds to an untouched entry)."""
    out = prepare_state(Ansatz(committed_pool(name), ids), thetas, reference)
    chain = operator_chain(committed_pool(name), ids, thetas, reference)
    assert out.tobytes() == chain.tobytes(), (ids, thetas)
    assert np.array_equal(out, group_chain(name, ids, thetas, reference))


EDGE_ANGLES = [0.0, -0.0, np.pi, -np.pi, 2 * np.pi + 0.5, -7.25, 40.0]


class TestInPlacePreparation:
    """`prepare_state` rotates one copy of the reference in place; it must
    give the bytes of the per-operator exponentials."""

    @pytest.mark.parametrize("name", sorted(COMMITTED_INPUTS))
    def test_every_operator_and_full_uccsd(self, name):
        pool = committed_pool(name)
        rng = np.random.default_rng(29)
        ham = load_fcidump(DATA / COMMITTED_INPUTS[name])
        reference = hartree_fock_reference(ham.n_qubits, ham.n_electrons)
        states = [rng.normal(size=len(reference)), reference]
        for state in states:
            for pid in range(len(pool)):
                assert_prepares_as_chains(name, [pid],
                                          rng.uniform(-np.pi, np.pi, 1),
                                          state)
            assert_prepares_as_chains(name, range(len(pool)),
                                      rng.uniform(-np.pi, np.pi, len(pool)),
                                      state)

    @given(st.lists(st.integers(0, 18), max_size=40),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_id_sequences_with_repeats(self, ids, seed):
        rng = np.random.default_rng(seed)  # the H4 pool has 19 operators
        assert_prepares_as_chains("h4", ids,
                                  rng.uniform(-np.pi, np.pi, len(ids)),
                                  rng.normal(size=36))

    @pytest.mark.parametrize("shift", range(len(EDGE_ANGLES)))
    def test_edge_angles(self, shift):
        pool = committed_pool("h4")
        reference = hartree_fock_reference(8, 4)
        for pid in range(len(pool)):
            assert_prepares_as_chains("h4", [pid], [EDGE_ANGLES[shift]],
                                      reference)
        thetas = np.roll(np.resize(EDGE_ANGLES, len(pool)), shift)
        assert_prepares_as_chains("h4", range(len(pool)), thetas,
                                  reference)

    @pytest.mark.parametrize("ids", [[], [0, 1, 0]])
    def test_reference_is_left_alone_and_result_is_new(self, cas22_pool,
                                                       ids):
        reference = hartree_fock_reference(4, 2)
        reference.flags.writeable = False
        out = prepare_state(Ansatz(cas22_pool, ids), [0.3] * len(ids),
                            reference)
        assert reference.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert out.flags.writeable and out.dtype == np.float64
        assert not np.shares_memory(out, reference)

    def test_integer_reference_is_taken_as_float64(self):
        pool = committed_pool("h2")
        reference = hartree_fock_reference(4, 2)
        out = prepare_state(full_uccsd_ansatz(pool), [0.3, -0.2],
                            reference.astype(int))
        assert out.dtype == np.float64
        assert out.tobytes() == prepare_state(
            full_uccsd_ansatz(pool), [0.3, -0.2], reference).tobytes()
        assert out[0] == pytest.approx(0.912, abs=1e-3)
        with pytest.raises(TypeError):
            prepare_state(full_uccsd_ansatz(pool), [0.3, -0.2],
                          reference.astype(complex))

    @pytest.mark.parametrize("bad,error,match", [
        ("length", DimensionMismatchError, "amplitudes"),
        ("hermitian", ValueError, "anti-Hermitian"),
        ("unrestricted", ValueError, "restrict")])
    def test_errors_raise_before_any_rotation(self, cas22_pool, monkeypatch,
                                              bad, error, match):
        reference = hartree_fock_reference(4, 2)
        last = cas22_pool[1]
        if bad == "length":
            reference = hartree_fock_reference(6, 2)
        elif bad == "hermitian":
            last = make_pool_op(number_operator(4).restrict(SECTOR))
        else:
            last = make_pool_op(PauliSum(4, cas22_pool[1].qubit_form.terms))
        monkeypatch.setattr(statevector, "math", None)  # no cos, no sin
        with pytest.raises(error, match=match):
            prepare_state(Ansatz([cas22_pool[0], last], [0, 1]), [0.3, 0.2],
                          reference)


@functools.cache
def committed_problem(name):
    return QubitProblem(load_fcidump(DATA / COMMITTED_INPUTS[name]))


class FitEnergy(Exception):
    """Raised by `fit_energy`'s stand-in `Objective` to end the fit."""


def fit_energy(problem, ansatz):
    """The energy function `adapt._fit` hands its optimizer for
    ``ansatz``, taken from the `Objective` it builds; no fit is run."""
    def capture(fn, dimension, on_evaluation=None):
        raise FitEnergy(fn)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(adapt, "Objective", capture)
        with pytest.raises(FitEnergy) as caught:
            adapt._fit(problem, AdaptConfig(), ansatz, MeasurementLedger())
    return caught.value.args[0]


def drawn_case(data, problem):
    """An ansatz of drawn pool ids, which holds a multi-group operator and
    a repeat, its angles (`EDGE_ANGLES` among them) and a drawn state: the
    Hartree-Fock reference or a random one."""
    pool = problem.pool
    multi_group = [pid for pid, op in enumerate(pool)
                   if len(op.qubit_form.rotations) > 1]
    ids = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=6),
                    label="ids")
    ids.insert(data.draw(st.integers(0, len(ids))),
               data.draw(st.sampled_from(multi_group)))
    ids.append(ids[data.draw(st.integers(0, len(ids) - 1))])
    thetas = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from(EDGE_ANGLES),
                  st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)),
        min_size=len(ids), max_size=len(ids)), label="thetas"))
    seed = data.draw(st.one_of(st.none(), st.integers(0, 2**32 - 1)),
                     label="state seed")
    state = (problem.reference if seed is None else
             np.random.default_rng(seed).normal(size=len(problem.reference)))
    return Ansatz(pool, ids), thetas, state


class TestProgramAgainstLoop:
    """The compiled `RotationProgram` against the per-group loop it
    replaced (`oracles.apply_pool_operators`): state preparation, the
    adjoint gradient and the energy a fit hands its optimizer agree byte
    for byte."""

    @pytest.mark.parametrize("name", sorted(COMMITTED_INPUTS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_prepare_state_and_gradient(self, name, data):
        problem = committed_problem(name)
        ansatz, thetas, state = drawn_case(data, problem)
        assert prepare_state(ansatz, thetas, state).tobytes() == \
            loop_prepared_state(ansatz, thetas, state).tobytes()
        assert energy_gradient(ansatz, thetas, state, problem.h_p).tobytes() \
            == loop_energy_gradient(ansatz, thetas, state,
                                    problem.h_p).tobytes()

    @pytest.mark.parametrize("name", sorted(COMMITTED_INPUTS))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_fit_energy(self, name, data):
        problem = committed_problem(name)
        ansatz, thetas, _ = drawn_case(data, problem)
        energy = fit_energy(problem, ansatz)
        expected = loop_fit_energy(ansatz, problem.reference, problem.h_p,
                                   problem.core)
        assert energy(thetas).hex() == expected(thetas).hex()

    @pytest.mark.parametrize("name", sorted(COMMITTED_INPUTS))
    def test_full_uccsd_at_edge_angles(self, name):
        problem = committed_problem(name)
        ansatz = full_uccsd_ansatz(problem.pool)
        thetas = np.resize(EDGE_ANGLES, len(ansatz))
        state = np.random.default_rng(3).normal(size=len(problem.reference))
        assert prepare_state(ansatz, thetas, state).tobytes() == \
            loop_prepared_state(ansatz, thetas, state).tobytes()
        assert energy_gradient(ansatz, thetas, state, problem.h_p).tobytes() \
            == loop_energy_gradient(ansatz, thetas, state,
                                    problem.h_p).tobytes()

    @pytest.mark.parametrize("name", ["h2", "nah", "h4"])
    def test_nelder_mead_vqe_fit(self, name):
        # the whole fit against the list-based optimizer on the loop energy
        problem = committed_problem(name)
        ansatz = full_uccsd_ansatz(problem.pool)
        ledger = MeasurementLedger()
        theta, energy, converged = adapt._fit(
            problem, AdaptConfig(optimizer="nelder_mead"), ansatz, ledger)
        expected = minimize_nelder_mead(
            Objective(loop_fit_energy(ansatz, problem.reference, problem.h_p,
                                      problem.core), len(ansatz)),
            np.zeros(len(ansatz)))
        assert theta.tobytes() == expected.theta_opt.tobytes()
        assert energy.hex() == expected.energy.hex()
        assert converged == expected.converged
        assert ledger.energy_evaluations == expected.n_energy_evals


class TestRotationProgram:
    def test_compiled_once_per_ansatz(self, cas22_pool):
        ansatz = full_uccsd_ansatz(cas22_pool)
        program = ansatz.program
        assert ansatz.program is program
        assert ansatz.extended(0).program is not program
        # one step per X-mask group, in order, and one weight per entry
        groups = [g for op in cas22_pool for g in op.qubit_form.rotations]
        assert len(program.steps) == len(groups)
        assert len(program.selector) == 2 * sum(len(r) for r, _, _ in groups)

    def test_operators_must_share_one_basis(self, cas22_pool):
        other = make_pool_op(cas22_pool[0].qubit_form.restrict(
            sector_indices(4, 2)[::-1].copy()))
        with pytest.raises(DimensionMismatchError, match="different bases"):
            RotationProgram([cas22_pool[0].qubit_form, other.qubit_form])
        copy = cas22_pool[1].qubit_form.restrict(SECTOR.copy())
        RotationProgram([cas22_pool[0].qubit_form, copy])  # equal bases

    def test_failed_build_is_not_kept(self, cas22_pool):
        bad = make_pool_op(number_operator(4).restrict(SECTOR))
        ansatz = Ansatz([cas22_pool[0], bad], [0, 1])
        for _ in range(2):
            with pytest.raises(ValueError, match="anti-Hermitian"):
                ansatz.program

    def test_empty_program_takes_any_length(self, cas22_pool):
        program = Ansatz(cas22_pool).program
        state = np.arange(5)
        out = program.rotate(program.start(state), program.weights([]))
        assert out.dtype == np.float64 and out.tolist() == [0, 1, 2, 3, 4]

    def test_one_operator_of_a_stack(self):
        # operator k alone, on a (dim, 2) stack, with the weights of all
        # angles, turns each column as the loop turns each state on its own
        problem = committed_problem("h4")
        ansatz = Ansatz(problem.pool, [3, 0, 7])
        rng = np.random.default_rng(8)
        pair = rng.normal(size=(2, len(problem.reference)))
        expected = [apply_pool_operators(row, (problem.pool[0].qubit_form,),
                                         (-0.7,)) for row in pair]
        weights = ansatz.program.weights((0.3, -0.7, 1.1))
        ansatz.program.rotate(pair.T, weights, operator=1)
        assert pair.tobytes() == np.stack(expected).tobytes()

    def test_operator_steps_partition_the_program(self, cas22_pool):
        program = full_uccsd_ansatz(cas22_pool).program
        counts = [len(op.qubit_form.rotations) for op in cas22_pool]
        assert program.starts == [0, *np.cumsum(counts).tolist()]


class TestAnsatz:
    def test_ids_are_validated_once(self, cas22_pool):
        assert Ansatz(cas22_pool, [1, np.int64(0)]).ids == (1, 0)
        with pytest.raises(ValueError, match="out of range"):
            Ansatz(cas22_pool, [2])
        with pytest.raises(ValueError, match="out of range"):
            Ansatz(cas22_pool).extended(-1)

    def test_extended_appends_and_leaves_original(self, cas22_pool):
        base = Ansatz(cas22_pool, [1])
        grown = base.extended(0)
        assert grown.ids == (1, 0) and len(grown) == 2
        assert base.ids == (1,)
        assert repr(grown) == "Ansatz([1, 0])"


class TestCompileCircuit:
    def test_zz_staircase(self):
        pool = [make_pool_op(PauliSum(2, {(0, 0b11): 0.5j}))]
        circuit = compile_circuit(Ansatz(pool, [0]), [1.0])
        kinds = [(g.kind, g.qubits) for g in circuit.gates]
        assert kinds == [("CNOT", (0, 1)), ("RZ", (1,)), ("CNOT", (0, 1))]
        metrics = circuit_metrics(circuit)
        assert metrics == {"gate_count": 3, "depth": 3}

    def test_x_basis_change(self):
        pool = [make_pool_op(PauliSum(1, {(1, 0): 1.0j}))]
        circuit = compile_circuit(Ansatz(pool, [0]), [0.7])
        kinds = [g.kind for g in circuit.gates]
        assert kinds == ["H", "RZ", "H"]

    def test_empty_ansatz_compiles_empty(self, cas22_pool):
        circuit = compile_circuit(Ansatz(cas22_pool), [])
        assert len(circuit) == 0
        assert circuit.to_text() == ""
        assert circuit_metrics(circuit) == {"gate_count": 0, "depth": 0}

    def test_zero_theta_still_emits_gates(self, cas22_pool):
        circuit = compile_circuit(Ansatz(cas22_pool, [1]), [0.0])
        assert len(circuit) > 0

    @pytest.mark.parametrize("thetas", [[], [0.1, 0.2, 0.3], 0.1])
    def test_rejects_wrong_theta_length(self, cas22_pool, thetas):
        with pytest.raises(ValueError, match="theta vector"):
            compile_circuit(full_uccsd_ansatz(cas22_pool), thetas)

    def test_angles_are_python_floats(self, cas22_pool):
        circuit = compile_circuit(full_uccsd_ansatz(cas22_pool),
                                  np.array([0.25, -0.5]))
        angles = [g.angle for g in circuit.gates if g.kind == "RZ"]
        assert angles and all(type(a) is float for a in angles)
        assert "np.float64" not in circuit.to_text()

    def test_weight_four_z_string_staircase(self):
        pool = [make_pool_op(PauliSum(4, {(0, 0b1111): 1.0j}))]
        circuit = compile_circuit(Ansatz(pool, [0]), [0.3])
        metrics = circuit_metrics(circuit)
        assert metrics == {"gate_count": 7, "depth": 7}

    @pytest.mark.parametrize("n_spatial,n_electrons", [(2, 2), (3, 2), (4, 2)])
    def test_compilation_oracle_every_pool_element(self, n_spatial,
                                                   n_electrons):
        pool = build_uccsd_pool(n_spatial, n_electrons)
        n_qubits = 2 * n_spatial
        ref = hartree_fock_reference(n_qubits, n_electrons)
        basis = sector_indices(n_qubits, n_electrons)
        rng = np.random.default_rng(n_qubits)
        for pid in range(len(pool)):
            theta = float(rng.uniform(-np.pi, np.pi))
            ansatz = Ansatz(pool, [pid])
            direct = embed(prepare_state(ansatz, [theta], ref), basis,
                           n_qubits)
            gated = simulate_circuit(compile_circuit(ansatz, [theta]),
                                     embed(ref, basis, n_qubits))
            assert infidelity(gated, direct) < 1e-10
            np.testing.assert_allclose(gated, direct, atol=1e-10)

    @pytest.mark.parametrize("n_spatial,metrics,digest", [
        (4, {"gate_count": 2688, "depth": 1768}, "13c4dc973f517e92"),
        (6, {"gate_count": 16332, "depth": 11364}, "ecfaf850fdb2181e"),
    ], ids=["h4", "h6"])
    def test_full_uccsd_circuit_is_pinned(self, n_spatial, metrics, digest):
        # 8 and 12 qubits, beyond the 4-qubit ansaetze of the golden scans
        pool = build_uccsd_pool(n_spatial, n_spatial)
        circuit = compile_circuit(full_uccsd_ansatz(pool),
                                  np.linspace(-1, 1, len(pool)))
        assert circuit_metrics(circuit) == metrics
        text = circuit.to_text().encode()
        assert hashlib.sha256(text).hexdigest()[:16] == digest

    def test_gate_validation(self):
        # a gate is plain data; the circuit checks it where it enters
        cnot = "CNOT needs distinct control and target"
        for gate, message in [
                (Gate("CNOT", (1, 1)), cnot), (Gate("CNOT", (0,)), cnot),
                (Gate("H", (0, 1)), "H acts on exactly one qubit"),
                (Gate("SWAP", (0, 1)), "unknown gate kind 'SWAP'"),
                (Gate("H", (3,)), "gate H 3 out of range"),
                (Gate("RZ", (-1,), 0.5), "gate RZ 0.5 -1 out of range")]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                GateCircuit(2, [Gate("H", (0,)), gate])


class TestMetricsAndSerialization:
    def test_parallel_layer(self):
        circuit = GateCircuit(2, [Gate("H", (0,)), Gate("H", (1,))])
        assert circuit_metrics(circuit) == {"gate_count": 2, "depth": 1}

    def test_serial_chain(self):
        circuit = GateCircuit(2, [Gate("H", (0,)), Gate("CNOT", (0, 1)),
                                  Gate("H", (1,))])
        assert circuit_metrics(circuit) == {"gate_count": 3, "depth": 3}

    def test_text_round_stability(self, cas22_pool):
        ansatz = full_uccsd_ansatz(cas22_pool)
        text_a = compile_circuit(ansatz, [0.123, -0.456]).to_text()
        text_b = compile_circuit(ansatz, [0.123, -0.456]).to_text()
        assert text_a == text_b
        lines = text_a.strip().splitlines()
        assert all(line.split()[0] in ("H", "RX", "RZ", "CNOT")
                   for line in lines)


def compiled_metrics(ansatz, thetas):
    return circuit_metrics(compile_circuit(ansatz, thetas))


class TestCircuitResources:
    """`circuit_resources`, composed from per-operator summaries, against
    the gate-level oracle ``circuit_metrics(compile_circuit(...))``."""

    @pytest.mark.parametrize("name", sorted(COMMITTED_INPUTS))
    def test_every_operator_and_full_uccsd(self, name):
        pool = committed_pool(name)
        rng = np.random.default_rng(19)
        for pid in range(len(pool)):
            ansatz = Ansatz(pool, [pid])
            assert circuit_resources(ansatz) == compiled_metrics(
                ansatz, rng.uniform(-np.pi, np.pi, 1))
        ansatz = full_uccsd_ansatz(pool)
        assert circuit_resources(ansatz) == compiled_metrics(
            ansatz, rng.uniform(-np.pi, np.pi, len(pool)))

    @pytest.mark.parametrize("n_spatial,n_electrons", SUPPORTED_SHAPES)
    def test_every_supported_shape(self, n_spatial, n_electrons):
        pool = build_uccsd_pool(n_spatial, n_electrons)
        rng = np.random.default_rng(n_spatial << 4 | n_electrons)
        # each operator alone, then every operator once (no gate if empty)
        singles = [[pid] for pid in range(len(pool))]
        for ids in singles + [list(range(len(pool)))]:
            ansatz = Ansatz(pool, ids)
            assert circuit_resources(ansatz) == compiled_metrics(
                ansatz, rng.uniform(-np.pi, np.pi, len(ids)))

    @given(st.lists(st.integers(0, 18), max_size=40),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_id_sequences_with_repeats(self, ids, seed):
        ansatz = Ansatz(committed_pool("h4"), ids)  # 19 operators
        thetas = np.random.default_rng(seed).uniform(-np.pi, np.pi, len(ids))
        assert circuit_resources(ansatz) == compiled_metrics(ansatz, thetas)

    def test_empty_ansatz(self, cas22_pool):
        for pool in (cas22_pool, ()):
            resources = circuit_resources(Ansatz(pool))
            assert resources == {"gate_count": 0, "depth": 0}
            assert all(type(v) is int for v in resources.values())

    def test_counts_are_python_ints_and_summaries_read_only(self,
                                                             cas22_pool):
        resources = circuit_resources(full_uccsd_ansatz(cas22_pool))
        assert all(type(v) is int for v in resources.values())
        _, depth_map = cas22_pool[1].circuit_summary
        assert cas22_pool[1].circuit_summary[1] is depth_map
        assert not depth_map.flags.writeable

    @pytest.mark.parametrize("name", sorted(COMMITTED_INPUTS))
    def test_gates_do_not_depend_on_theta(self, name):
        # the summaries are built once, at theta = 0, for every angle
        ansatz = full_uccsd_ansatz(committed_pool(name))
        thetas = np.random.default_rng(23).uniform(-np.pi, np.pi, len(ansatz))
        at_zero, at_random = (
            [(g.kind, g.qubits) for g in compile_circuit(ansatz, t).gates]
            for t in (np.zeros(len(ansatz)), thetas))
        assert at_zero == at_random


def make_pool_op(qubit_form):
    return PoolOperator(qubit_form, "test operator")
