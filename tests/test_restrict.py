"""`pauli.restrict_each`, `PauliSum.restrict`, `pauli.to_matrix` and the
pool's one-call compile against the per-string loop they replaced
(`oracles.basis_action` and the oracles built on it): equal bytes, the
same errors with the same texts, and no higher memory peak."""
import tracemalloc
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings, strategies as st

from vqebench import pauli
from vqebench.ansatz import _validate_pool_operators, build_uccsd_pool
from vqebench.fcidump import load_fcidump, to_fermion_hamiltonian
from vqebench.fermion import (
    FermionOperator,
    LadderProduct,
    anti_hermitian_pair,
    jordan_wigner,
    jordan_wigner_each,
)
from vqebench.pauli import (
    LEAK_TOL,
    DimensionMismatchError,
    PauliSum,
    restrict_each,
    terms_mutually_commute_each,
    to_matrix,
)
from vqebench.statevector import sector_indices

DATA = Path(__file__).parent / "data"
FCIDUMPS = sorted(DATA.rglob("*.fcidump"))
SECTOR = sector_indices(4, 2)
# (n_spatial, n_electrons) of every committed input, and of the pools
# `selftest` builds
POOL_SHAPES = [(2, 2), (3, 2), (4, 2), (4, 4), (6, 6)]
FUZZ = settings(derandomize=True, database=None, deadline=None)


def hamiltonian(path):
    """JW Hamiltonian of an FCIDUMP and the basis of its reference block."""
    ham = load_fcidump(path)
    return (jordan_wigner(to_fermion_hamiltonian(ham)[0]),
            sector_indices(ham.n_qubits, ham.n_electrons))


def pool_images(n_spatial, n_electrons):
    """The pool's operators as unrestricted sums, in pool order."""
    return [PauliSum(op.qubit_form.n_qubits, op.qubit_form.terms)
            for op in build_uccsd_pool(n_spatial, n_electrons)]


def outcome(compile_one):
    """What compiling gives: ``(rows, cols, values, rotations, hermitian)``
    as bytes, or the error's type and text."""
    try:
        result = compile_one()
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(result, ValueError):
        return type(result), str(result)
    if isinstance(result, PauliSum):
        result = (*result._action, result.rotations, result.hermitian)
    rows, cols, values, rotations, hermitian = result
    return (tuple((a.dtype.str, a.tobytes()) for a in (rows, cols, values)),
            None if rotations is None else tuple(
                tuple(a.tobytes() for a in run) for run in rotations),
            hermitian)


def assert_as_oracle(sums, basis):
    """Each sum of one `_compile_each` call, and alone through `restrict`,
    as the oracle compiles it; `restrict_each` raises the first error."""
    sums = list(sums)
    compiled = pauli._compile_each(sums, basis)
    expected = [outcome(lambda: oracles.restrict(s, basis)) for s in sums]
    assert [outcome(lambda: r) for r in compiled] == expected
    assert [outcome(lambda: s.restrict(basis)) for s in sums] == expected
    errors = [e for e in expected if isinstance(e[0], type)]
    if errors:
        with pytest.raises(ValueError) as info:
            restrict_each(sums, basis)
        assert (type(info.value), str(info.value)) == errors[0]
    else:
        for r, s in zip(restrict_each(sums, basis), sums):
            assert r.basis is basis and r.terms is s.terms
            assert all(not a.flags.writeable for a in r.action)
    return compiled


@pytest.fixture(params=[pauli.BLOCK_CELLS, 1], ids=["blocks", "one-group"])
def block_cells(request, monkeypatch):
    """The module's block size, and blocks shrunk to one X-mask group."""
    monkeypatch.setattr(pauli, "BLOCK_CELLS", request.param)
    return request.param


class TestCommittedOperators:
    @pytest.mark.parametrize("path", FCIDUMPS, ids=lambda p: p.stem)
    def test_hamiltonian(self, path):
        h, basis = hamiltonian(path)
        assert_as_oracle([h], basis)
        if h.n_qubits <= 8:
            assert to_matrix(h).tobytes() == oracles.to_matrix(h).tobytes()

    def test_every_hamiltonian_of_a_shape_in_one_call(self, block_cells):
        by_basis = {}
        for path in FCIDUMPS:
            h, basis = hamiltonian(path)
            by_basis.setdefault(basis.tobytes(), (basis, []))[1].append(h)
        assert len(by_basis) == 3  # the 4-, 8- and 12-qubit blocks
        for basis, sums in by_basis.values():
            assert_as_oracle(sums, basis)

    @pytest.mark.parametrize("shape", POOL_SHAPES, ids=str)
    def test_pool(self, shape, block_cells):
        images = pool_images(*shape)
        basis = build_uccsd_pool(*shape)[0].qubit_form.basis
        compiled = assert_as_oracle(images, basis)
        assert all(r.rotations for r in compiled)
        assert list(terms_mutually_commute_each(images)) == [True] * len(
            images)
        fresh = build_uccsd_pool.__wrapped__(*shape)
        assert [outcome(lambda: op.qubit_form) for op in fresh] == [
            outcome(lambda: r) for r in compiled]
        if 2 * shape[0] <= 8:
            for q in images:
                assert to_matrix(q).tobytes() == \
                    oracles.to_matrix(q).tobytes()

    def test_each_sum_counts_one_miss(self):
        images = pool_images(4, 4)
        basis = sector_indices(8, 4)
        misses = pauli._basis_action.cache_info().misses
        restrict_each(images, basis)
        images[0].restrict(basis)
        assert pauli._basis_action.cache_info().misses == misses + len(
            images) + 1


# coefficients that cancel exactly in a group's diagonal, and others
COEFFICIENTS = st.sampled_from([0.5, -0.5, 0.25, -0.25, 1.0, 0.5j, -0.5j,
                                1j, 0.375 - 0.125j]) | st.complex_numbers(
    max_magnitude=2, allow_nan=False, allow_infinity=False)


@st.composite
def sums_on_a_basis(draw):
    """Up to five sums on three or four qubits, each Hermitian,
    anti-Hermitian or neither, whose strings share few X masks, and an
    ascending basis of some of the states."""
    n = draw(st.integers(3, 4))
    masks = st.integers(0, (1 << n) - 1)
    sums = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["hermitian", "anti", "any"]))
        terms = {}
        for x, z, c in draw(st.lists(st.tuples(
                st.sampled_from([0, 1, 3, (1 << n) - 1]), masks,
                COEFFICIENTS), max_size=8)):
            c = {"hermitian": complex(c.real or 1.0),
                 "anti": complex(0.0, c.imag or 1.0)}.get(kind, c)
            terms[(x, z)] = terms.get((x, z), 0.0) + c
        sums.append(PauliSum(n, terms))
    states = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                           max_size=1 << n, unique=True))
    return sums, np.array(sorted(states), dtype=np.int64)


class TestDrawnSums:
    @settings(FUZZ, max_examples=200)
    @given(sums_on_a_basis())
    def test_as_the_loop(self, drawn):
        assert_as_oracle(*drawn)

    @settings(FUZZ, max_examples=60)
    @given(sums_on_a_basis())
    def test_one_group_per_block(self, drawn):
        block = pauli.BLOCK_CELLS
        pauli.BLOCK_CELLS = 1
        try:
            assert_as_oracle(*drawn)
        finally:
            pauli.BLOCK_CELLS = block

    @settings(FUZZ, max_examples=100)
    @given(sums_on_a_basis())
    def test_commutation_as_the_pair_loop(self, drawn):
        sums, _ = drawn
        assert list(terms_mutually_commute_each(sums)) == [
            oracles.terms_mutually_commute(s) for s in sums]
        assert [s.terms_mutually_commute() for s in sums] == [
            oracles.terms_mutually_commute(s) for s in sums]

    @settings(FUZZ, max_examples=60)
    @given(sums_on_a_basis())
    @example(([PauliSum(3, {(0b011, 0b001): 0.25, (0b011, 0b101): 0.25,
                            (0b110, 0b010): -1j})], np.arange(8)))
    def test_dense_matrix_as_the_loop(self, drawn):
        for s in drawn[0]:
            assert to_matrix(s).tobytes() == oracles.to_matrix(s).tobytes()

    def test_exact_cancellation_keeps_no_entry(self):
        # X0 (1 + Z1) / 2: zero on every state with qubit 1 set
        s = PauliSum(2, {(1, 0): 0.5, (1, 2): 0.5})
        rows, cols, values = assert_as_oracle([s], np.arange(4))[0].action
        assert cols.tolist() == [0, 1] and values.tolist() == [1.0, 1.0]

    def test_identity_only_and_empty_sums(self):
        sums = [PauliSum(3, {(0, 0): 2.5}), PauliSum(3), PauliSum(3),
                PauliSum(3, {(0, 0): -1j})]
        compiled = assert_as_oracle(sums, np.arange(8))
        assert [r.hermitian for r in compiled[:3]] == [True] * 3
        assert compiled[1].action[0].size == 0
        assert "not real" in str(compiled[3])
        # i (Y0 + Y0 Z1) / 2 cancels where qubit 1 is set: no entries, and
        # rotations of no group
        (tau,) = assert_as_oracle(
            [PauliSum(2, {(1, 1): 0.5j, (1, 3): 0.5j})], np.array([2, 3]))
        assert tau.action[0].size == 0 and tau.rotations == ()
        assert restrict_each([], np.arange(8)) == []
        assert to_matrix(PauliSum(3)).tobytes() == \
            oracles.to_matrix(PauliSum(3)).tobytes()

    def test_sums_on_different_qubit_counts_raise(self):
        with pytest.raises(DimensionMismatchError, match="qubit counts"):
            restrict_each([PauliSum(2), PauliSum(3)], np.arange(4))


class TestLeakTolerance:
    """One alpha electron on qubits 0, 2 and 4: ``0.5 X0 X2 + c X0 X2 Z4``
    leaves the block from the states with qubit 4 set, by ``|0.5 - c|``
    exactly (Sterbenz), so ``c`` one ulp apart steps across LEAK_TOL."""

    BASIS = sector_indices(6, 1)

    def leaking(self, unit, c):
        return PauliSum(6, {(0b101, 0): 0.5 * unit,
                            (0b101, 0b10000): c * unit})

    @pytest.mark.parametrize("unit", [1.0, 1j], ids=["real", "imaginary"])
    def test_just_below_and_just_above(self, unit):
        c0 = 0.5 - LEAK_TOL
        cs = [c0 + k * np.spacing(c0) for k in range(-3, 4)]
        dropped = [0.5 - c for c in cs]
        assert min(dropped) < LEAK_TOL < max(dropped)
        sums = [self.leaking(unit, c) for c in cs]
        compiled = assert_as_oracle(sums, self.BASIS)
        for leak, r in zip(dropped, compiled):
            if leak > LEAK_TOL:
                assert "leaves the block" in str(r)
            elif unit == 1j:  # kept within the block, but imaginary there
                assert "not real" in str(r)
            else:
                assert isinstance(r, PauliSum)

    def test_entry_of_exactly_leak_tol_is_dropped(self):
        # X0 takes |0> out of the basis {|0>}; Z0 keeps it
        s = PauliSum(1, {(1, 0): LEAK_TOL, (0, 1): 0.5})
        (r,) = assert_as_oracle([s], np.array([0]))
        assert r.action[2].tolist() == [0.5]

    def test_complex_dropped_entry_is_its_modulus(self):
        # X0 X2 and X0 Y2 share a group: a Hermitian sum whose dropped
        # entries have both parts, each of them ``scale``
        for scale in (1e-13, 7e-13, 1e-12, 1.5e-12):
            c = 0.5 - scale
            s = PauliSum(6, {(0b101, 0): 0.5, (0b101, 0b100): 0.5,
                             (0b101, 0b10000): c, (0b101, 0b10100): c})
            (r,) = assert_as_oracle([s], self.BASIS)
            assert ("leaves the block" in str(r)) == (
                np.hypot(0.5 - c, 0.5 - c) > LEAK_TOL)


def spin_flip():
    """Alpha 0 -> beta 1: conserves N but not S_z, so it leaves the
    block."""
    return jordan_wigner(anti_hermitian_pair(FermionOperator(
        4, [LadderProduct([(3, True), (0, False)])])))


# One bad operator of each kind on SECTOR, with the start of today's text.
BAD = {
    "leaks": (spin_flip(), ": the sum leaves the block"),
    "imaginary": (PauliSum(4, {(0b0101, 0): 1j}),
                  ": the sum is not real on the block"),
    "mixed": (PauliSum(4, {(0b0101, 0): 1.0, (0b0101, 0b0100): 1j}),
              ": only a Hermitian or anti-Hermitian sum"),
    "hermitian": (PauliSum(4, {(0b0101, 0): 1.0}),
                  " not anti-Hermitian with couplings of +-1"),
    "non-commuting": (PauliSum(4, {(0b0101, 0b0001): 1j,
                                   (0b1010, 0b0011): 1j}),
                      " has non-commuting strings"),
}


class TestPoolErrors:
    """`_validate_pool_operators` names the first operator that fails,
    with its first failed check, as the per-operator loop did."""

    def good(self):
        return [op.qubit_form for op in build_uccsd_pool(2, 2)]

    def assert_names(self, images, name, text):
        descriptions = [f"op{k}" for k in range(len(images))]
        with pytest.raises(ValueError) as info:
            _validate_pool_operators(images, descriptions, SECTOR)
        with pytest.raises(ValueError) as expected:
            oracles.validate_pool_operators(images, descriptions, SECTOR)
        assert str(info.value) == str(expected.value)
        assert str(info.value).startswith(f"pool operator {name}{text}")

    @pytest.mark.parametrize("kind", sorted(BAD))
    def test_each_kind_alone(self, kind):
        bad, text = BAD[kind]
        self.assert_names(self.good() + [bad], "op2", text)
        self.assert_names([bad] + self.good(), "op0", text)

    @pytest.mark.parametrize("first", sorted(BAD))
    @pytest.mark.parametrize("second", sorted(BAD))
    def test_first_failing_operator_is_named(self, first, second):
        # a later operator's earlier check does not come first
        (a, text), (b, _) = BAD[first], BAD[second]
        self.assert_names([self.good()[0], a, b, self.good()[1]], "op1", text)

    def test_weighted_couplings_have_no_rotations(self):
        weighted = PauliSum(4, {(0b0101, 0b0001): 0.3j})  # entries +-0.3
        self.assert_names(self.good() + [weighted], "op2",
                          " not anti-Hermitian with couplings of +-1")

    def test_a_good_pool_compiles_as_one_call(self):
        images = jordan_wigner_each(
            anti_hermitian_pair(FermionOperator(4, [LadderProduct(
                [(2, True), (0, False)])])) for _ in range(3))
        compiled = _validate_pool_operators(images, "abc", SECTOR)
        assert [r.rotations is not None for r in compiled] == [True] * 3
        assert len({id(r.action[0].base) for r in compiled}) == 1


# tracemalloc peaks of `restrict` of the H6 Hamiltonian, then of building
# its pool with the Hamiltonian kept, when both were compiled one sum at a
# time by the per-string loop (numpy 2.4, Python 3.11)
PER_STRING_PEAK = 2317016


def test_h6_compile_peaks_no_higher_than_the_per_string_loop():
    h, basis = hamiltonian(DATA / "h6" / "h6_r1.000.fcidump")
    h.restrict(basis)  # first-use allocations out of the count
    build_uccsd_pool.__wrapped__(6, 6)
    tracemalloc.start()
    try:
        kept = h.restrict(basis)
        pool = build_uccsd_pool.__wrapped__(6, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(kept.action[0]) == 24448 and len(pool) == 81
    assert peak <= PER_STRING_PEAK

