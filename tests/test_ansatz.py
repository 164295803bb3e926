import functools
import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    exponential_by_groups,
    group_action,
    infidelity,
    number_operator,
    sz_operator,
)
from scipy.linalg import expm

from vqebench import statevector
from vqebench.ansatz import (
    Ansatz,
    Gate,
    GateCircuit,
    PoolOperator,
    _validate_pool_operator,
    build_uccsd_pool,
    circuit_metrics,
    circuit_resources,
    compile_circuit,
    full_uccsd_ansatz,
    prepare_state,
    simulate_circuit,
)
from vqebench.fcidump import load_fcidump
from vqebench.fermion import (
    FermionOperator,
    LadderProduct,
    anti_hermitian_pair,
    jordan_wigner,
)
from vqebench.pauli import DimensionMismatchError, PauliSum, to_matrix
from vqebench.statevector import (
    apply_pool_operator,
    embed,
    expectation,
    hartree_fock_reference,
    sector_indices,
)

SECTOR = sector_indices(4, 2)
DATA = Path(__file__).parent / "data"
COMMITTED_INPUTS = {"h2": "h2_r0.735.fcidump", "nah": "nah_r1.000.fcidump",
                    "h4": "h4_r1.000.fcidump", "h6": "h6/h6_r1.000.fcidump"}


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

    def test_closed_form_of_the_hydrogen_chains(self):
        assert closed_form_pool_size(4, 4) == 19  # H4
        assert closed_form_pool_size(6, 6) == 81  # H6

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
            _validate_pool_operator(q, "spin flip", SECTOR)

    def test_hermitian_operator_is_rejected(self):
        herm = PauliSum(4, {(0b0101, 0): 1.0})  # X0 X2, an alpha hop
        with pytest.raises(ValueError, match="not anti-Hermitian"):
            _validate_pool_operator(herm, "hermitian", SECTOR)


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
    """The ansatz state one `apply_pool_operator` call per operator."""
    for pid, theta in zip(ids, thetas):
        state = apply_pool_operator(state, pool[pid].qubit_form, theta)
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
            for op in pool:
                assert_prepares_as_chains(name, [op.id],
                                          rng.uniform(-np.pi, np.pi, 1),
                                          state)
            assert_prepares_as_chains(name, [op.id for op in pool],
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
        for op in pool:
            assert_prepares_as_chains("h4", [op.id], [EDGE_ANGLES[shift]],
                                      reference)
        thetas = np.roll(np.resize(EDGE_ANGLES, len(pool)), shift)
        assert_prepares_as_chains("h4", [op.id for op in pool], thetas,
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
        for op in pool:
            theta = float(rng.uniform(-np.pi, np.pi))
            ansatz = Ansatz(pool, [op.id])
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
        with pytest.raises(ValueError):
            Gate("CNOT", (1, 1))
        with pytest.raises(ValueError):
            Gate("H", (0, 1))
        with pytest.raises(ValueError):
            GateCircuit(1, [Gate("H", (3,))])


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
        for op in pool:
            ansatz = Ansatz(pool, [op.id])
            assert circuit_resources(ansatz) == compiled_metrics(
                ansatz, rng.uniform(-np.pi, np.pi, 1))
        ansatz = full_uccsd_ansatz(pool)
        assert circuit_resources(ansatz) == compiled_metrics(
            ansatz, rng.uniform(-np.pi, np.pi, len(pool)))

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
    return PoolOperator(0, qubit_form, "test operator")
