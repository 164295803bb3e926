from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from oracles import add, commutator, product

from vqebench.adapt import QubitProblem
from vqebench.fcidump import load_fcidump
from vqebench.pauli import (
    DimensionMismatchError,
    PauliSum,
    ResourceLimitError,
    PAULI_MATRICES,
    commutator_term_counts,
    to_matrix,
)
from vqebench.statevector import sector_indices

DATA = Path(__file__).parent / "data"

# A single Pauli string is an ``(x_mask, z_mask, coefficient)`` tuple here,
# as `PauliSum.sorted_terms` returns it.


def spec_masks(spec: str) -> tuple[int, int]:
    """``(x_mask, z_mask)`` of a spec like ``"X0 Z1 Y3"``; ``""`` is the
    identity."""
    x_mask = z_mask = 0
    for token in spec.split():
        letter, qubit = token[0], int(token[1:])
        if letter in "XY":
            x_mask |= 1 << qubit
        if letter in "ZY":
            z_mask |= 1 << qubit
    return x_mask, z_mask


def from_string(n_qubits: int, spec: str, coefficient=1.0) -> PauliSum:
    """One-term sum: ``coefficient`` times the string ``spec``."""
    return PauliSum(n_qubits, {spec_masks(spec): coefficient})


def sum_of(n_qubits: int, terms) -> PauliSum:
    """Sum of ``(x, z, c)`` strings; repeated strings add in list order."""
    acc = {}
    for x, z, c in terms:
        acc[(x, z)] = acc.get((x, z), 0.0) + c
    return PauliSum(n_qubits, acc)


def multiply(a, b):
    """Reference product of two strings, the per-pair oracle of `product`
    and `commutator`.

    Writing each string as ``i**popcount(x & z) * X^x Z^z`` and commuting
    the inner ``Z^za X^xb`` pair gives the phase exponent below; the
    result masks are the XOR of the input masks.
    """
    (xa, za, ca), (xb, zb, cb) = a, b
    x, z = xa ^ xb, za ^ zb
    k = ((xa & za).bit_count() + (xb & zb).bit_count() - (x & z).bit_count()
         + 2 * (za & xb).bit_count()) % 4
    return x, z, ca * cb * (1, 1j, -1, -1j)[k]


def terms_commute(a, b) -> bool:
    """True iff the two strings commute (their symplectic form is even)."""
    return ((a[0] & b[1]).bit_count() + (a[1] & b[0]).bit_count()) % 2 == 0


def sum_kron_matrix(s: PauliSum) -> np.ndarray:
    """Oracle: sum of Kronecker products of single-qubit matrices, qubit 0
    the least significant."""
    dim = 1 << s.n_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    for (x_mask, z_mask), c in s.terms.items():
        term = np.array([[c]], dtype=complex)
        for q in range(s.n_qubits):
            x = (x_mask >> q) & 1
            z = (z_mask >> q) & 1
            factor = PAULI_MATRICES[("I", "X", "Z", "Y")[x + 2 * z]]
            term = np.kron(factor, term)  # higher qubits go to the left
        mat = mat + term
    return mat


def random_term(draw, n_qubits):
    x = draw(st.integers(0, (1 << n_qubits) - 1))
    z = draw(st.integers(0, (1 << n_qubits) - 1))
    c = complex(draw(st.floats(-2, 2, allow_nan=False)) or 1.0,
                draw(st.floats(-2, 2, allow_nan=False)))
    return x, z, c


def only_term(s: PauliSum):
    """The single ``(x, z, c)`` of a one-term sum."""
    (term,) = s.sorted_terms()
    return term


terms_2q = st.tuples(
    st.integers(0, 3),
    st.integers(0, 3),
    st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
)

terms_4q = st.tuples(
    st.integers(0, 15),
    st.integers(0, 15),
    st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
)


class TestMultiply:
    """Single-string products, on one-term sums."""

    def test_single_qubit_group_table(self):
        out = product(from_string(1, "X0"), from_string(1, "Y0"))
        assert out == PauliSum(1, {(0, 1): 1j})  # i Z0

    def test_identity_passthrough(self):
        p = from_string(2, "Y0 Z1", 0.5j)
        x, z, c = only_term(product(PauliSum(2, {(0, 0): 2.5 - 1j}), p))
        assert (x, z) == spec_masks("Y0 Z1")
        assert c == pytest.approx((2.5 - 1j) * 0.5j)

    def test_two_qubit_product_vs_dense(self):
        # (X0 Z1)(Z0 Z1) = -i Y0, frozen from the 4x4 matrix product
        a = from_string(2, "X0 Z1")
        b = from_string(2, "Z0 Z1")
        out = product(a, b)
        assert out == from_string(2, "Y0", -1j)
        np.testing.assert_allclose(sum_kron_matrix(out),
                                   sum_kron_matrix(a) @ sum_kron_matrix(b),
                                   atol=1e-14)

    def test_mismatched_qubits(self):
        with pytest.raises(DimensionMismatchError):
            product(from_string(1, "X0"), from_string(2, "X0"))

    @given(st.data())
    def test_matches_kron_product(self, data):
        a = sum_of(3, [random_term(data.draw, 3)])
        b = sum_of(3, [random_term(data.draw, 3)])
        np.testing.assert_allclose(sum_kron_matrix(product(a, b)),
                                   sum_kron_matrix(a) @ sum_kron_matrix(b),
                                   atol=1e-12)

    @given(st.data())
    def test_group_closure_phase(self, data):
        xa, za, ca = random_term(data.draw, 4)
        xb, zb, cb = random_term(data.draw, 4)
        out = product(sum_of(4, [(xa, za, ca)]), sum_of(4, [(xb, zb, cb)]))
        mag = abs(ca) * abs(cb)
        if mag > 1e-9:
            x, z, c = only_term(out)
            assert (x, z) == (xa ^ xb, za ^ zb)
            assert abs(c) == pytest.approx(mag, abs=1e-12)
            phase = c / (ca * cb)
            best = min(abs(phase - p) for p in (1, 1j, -1, -1j))
            assert best < 1e-9

    @given(st.data())
    @settings(max_examples=60)
    def test_associativity(self, data):
        a, b, c = (sum_of(6, [random_term(data.draw, 6)])
                   for _ in range(3))
        left = product(product(a, b), c)
        right = product(a, product(b, c))
        # one string at most; a side pruned below 1e-12 reads as zero
        keys = left.terms.keys() | right.terms.keys()
        assert len(keys) <= 1
        for key in keys:
            assert left.terms.get(key, 0.0) == pytest.approx(
                right.terms.get(key, 0.0), abs=1e-10)


class TestAdd:
    def test_cancellation(self):
        a = from_string(1, "X0", 1.0)
        b = from_string(1, "X0", -1.0)
        assert len(add(a, b)) == 0

    def test_disjoint_keys(self):
        a = from_string(1, "X0", 1.0)
        b = from_string(1, "Z0", 2.0)
        s = add(a, b)
        assert len(s) == 2
        assert s.terms == {(1, 0): 1.0, (0, 1): 2.0}

    def test_prunes_tiny_residue(self):
        a = from_string(1, "X0", 1.0 + 1e-15)
        b = from_string(1, "X0", -1.0)
        assert len(add(a, b)) == 0

    def test_mismatched_qubits(self):
        with pytest.raises(DimensionMismatchError):
            add(PauliSum(1), PauliSum(2))


class TestConstruction:
    @pytest.mark.parametrize("key", [(2, 0), (0, 2), (3, 1), (-1, 0),
                                     (0, -1)])
    def test_mask_out_of_range_rejected(self, key):
        with pytest.raises(ValueError, match="mask out of range"):
            PauliSum(1, {key: 1.0})

    def test_checked_before_pruning(self):
        with pytest.raises(ValueError, match="mask out of range"):
            PauliSum(1, {(2, 0): 1e-15})


class TestCommutator:
    def test_su2_relation(self):
        z = from_string(1, "Z0")
        x = from_string(1, "X0")
        out = commutator(z, x)
        assert list(out.terms) == [(1, 1)]
        assert out.terms[(1, 1)] == pytest.approx(2j)

    def test_self_commutator_vanishes(self):
        p = from_string(3, "X0 Y1 Z2", 1.7)
        assert len(commutator(p, p)) == 0

    def test_pairwise_anticommuting_product_commutes(self):
        a = from_string(2, "X0 X1")
        b = from_string(2, "Z0 Z1")
        assert len(commutator(a, b)) == 0
        dense = (sum_kron_matrix(a) @ sum_kron_matrix(b)
                 - sum_kron_matrix(b) @ sum_kron_matrix(a))
        np.testing.assert_allclose(dense, 0, atol=1e-14)

    @given(st.lists(terms_2q, min_size=1, max_size=4),
           st.lists(terms_2q, min_size=1, max_size=4))
    @settings(max_examples=80)
    def test_matches_dense_commutator(self, ta, tb):
        a = sum_of(2, ta)
        b = sum_of(2, tb)
        ma, mb = sum_kron_matrix(a), sum_kron_matrix(b)
        np.testing.assert_allclose(sum_kron_matrix(commutator(a, b)),
                                   ma @ mb - mb @ ma, atol=1e-12)

    @given(st.lists(terms_4q, min_size=1, max_size=5),
           st.lists(terms_4q, min_size=1, max_size=5))
    @settings(max_examples=40)
    def test_matches_dense_commutator_four_qubits(self, ta, tb):
        a = sum_of(4, ta)
        b = sum_of(4, tb)
        ma, mb = to_matrix(a), to_matrix(b)
        np.testing.assert_allclose(to_matrix(commutator(a, b)),
                                   ma @ mb - mb @ ma, atol=1e-12)

    @given(st.lists(terms_2q, min_size=1, max_size=3),
           st.lists(terms_2q, min_size=1, max_size=3),
           st.lists(terms_2q, min_size=1, max_size=3))
    @example([(1, 0, 1e-12)], [(1, 0, 1e-12)], [(0, 1, 0.375)])
    @settings(max_examples=40)
    def test_bilinearity(self, ta, tb, tc):
        # Only pruning below PRUNE_THRESHOLD (1e-12) splits the two sides
        # beyond rounding. A string of a + b that sums below 1e-12 is
        # dropped before the left commutator; it met each string of c in
        # one pair, so each result string loses at most
        # 2 * 1e-12 * sum |c_q| <= 1.2e-11 (c merges at most 3 terms of
        # magnitude <= 2). The left side's final pruning and the right
        # side's three (both commutators and their sum) each drop less
        # than 1e-12 more: < 1.6e-11 per string. A matrix entry sums the
        # 4 strings of one X mask with unit-modulus phases, < 6.4e-11;
        # rounding of coefficients below 2 * 12 * 6 per pair adds under
        # 1e-12. The pinned example loses 1.5e-12 on the right.
        a, b, c = (sum_of(2, t) for t in (ta, tb, tc))
        lhs = commutator(add(a, b), c)
        rhs = add(commutator(a, c), commutator(b, c))
        np.testing.assert_allclose(sum_kron_matrix(lhs), sum_kron_matrix(rhs),
                                   atol=1e-10)


def exact_items(s: PauliSum):
    """Keys in order with the bits of each coefficient, signed zeros too."""
    return [(key, c.real.hex(), c.imag.hex()) for key, c in s.terms.items()]


def pairwise_by_multiply(a: PauliSum, b: PauliSum, commutator_only=False):
    """Reference: one `multiply` per term pair, ``a``'s terms outer; the
    commutator keeps anticommuting pairs only, doubled."""
    acc = {}
    b_terms = [(x, z, c) for (x, z), c in b.terms.items()]
    for ta in [(x, z, c) for (x, z), c in a.terms.items()]:
        for tb in b_terms:
            if commutator_only and terms_commute(ta, tb):
                continue
            x, z, c = multiply(ta, tb)
            acc[(x, z)] = acc.get((x, z), 0.0) + (2.0 * c if commutator_only
                                                  else c)
    return PauliSum(a.n_qubits, acc)


# Small exact coefficients make products of colliding strings cancel to 0.
EXACT_COEFFS = (1, -1, 0.5, -0.5, 1j, -1j, 0.5j, -0.5j, 0.25 + 0.75j)


@st.composite
def sum_pairs(draw):
    n = draw(st.integers(1, 6))
    keys = st.tuples(st.integers(0, (1 << n) - 1),
                     st.integers(0, (1 << n) - 1))
    coeffs = st.one_of(
        st.sampled_from(EXACT_COEFFS),
        st.complex_numbers(max_magnitude=2, allow_nan=False,
                           allow_infinity=False))
    return tuple(PauliSum(n, draw(st.dictionaries(keys, coeffs, max_size=8)))
                 for _ in range(2))


# (X0 + i Y0)^2 = 0 and [X0 + i Y0, X0 + i Y0] = 0: every key cancels
RAISING = PauliSum(1, {(1, 0): 1.0, (1, 1): 1j})


class TestPairLoop:
    @given(sum_pairs())
    @example((RAISING, RAISING))
    @settings(max_examples=200)
    def test_product_matches_multiply_per_pair(self, pair):
        a, b = pair
        assert exact_items(product(a, b)) == exact_items(
            pairwise_by_multiply(a, b))

    @given(sum_pairs())
    @example((RAISING, RAISING))
    @settings(max_examples=200)
    def test_commutator_matches_multiply_per_pair(self, pair):
        a, b = pair
        assert exact_items(commutator(a, b)) == exact_items(
            pairwise_by_multiply(a, b, commutator_only=True))

    def test_exact_cancellation_leaves_nothing(self):
        assert len(product(RAISING, RAISING)) == 0
        assert len(commutator(RAISING, RAISING)) == 0


def symbolic_counts(h: PauliSum, ops):
    return [commutator(h, op).non_identity_term_count() for op in ops]


def toggled(term, other):
    """``term`` with one mask bit flipped so that it commutes with the
    non-identity string ``other`` iff ``term`` did not."""
    x, z, c = term
    support = other[0] | other[1]
    q = support & -support
    if other[0] & q:
        return x, z ^ q, c
    return x ^ q, z, c


@st.composite
def sums_with_a_cancelling_key(draw):
    """Two sums, plus terms a and -(a s) in ``h`` and b and s b in ``op``.

    With a, b anticommuting and s commuting with ``a b``, the pairs (a, b)
    and (-(a s), s b) both anticommute and give ``2 a b`` and ``-2 a b``:
    their contributions cancel exactly on the key of ``a b``.
    """
    h, op = draw(sum_pairs())
    n = h.n_qubits
    masks = st.integers(0, (1 << n) - 1)
    coeffs = st.sampled_from(EXACT_COEFFS) | st.complex_numbers(
        min_magnitude=0.1, max_magnitude=2, allow_nan=False,
        allow_infinity=False)
    a = (draw(masks) or 1, draw(masks), complex(draw(coeffs)))
    b = (draw(masks), draw(masks), complex(draw(coeffs)))
    if terms_commute(a, b):
        b = toggled(b, a)
    ab = multiply(a, b)
    s = (draw(masks), draw(masks), 1.0)
    if not terms_commute(s, ab):
        s = toggled(s, ab)
    if not s[0] | s[1]:
        s = (ab[0], ab[1], 1.0)
    a_s, s_b = multiply(a, s), multiply(s, b)
    h_terms, op_terms = dict(h.terms), dict(op.terms)
    h_terms[a[:2]] = a[2]
    h_terms[a_s[:2]] = -a_s[2]
    op_terms[b[:2]] = b[2]
    op_terms[s_b[:2]] = s_b[2]
    return PauliSum(n, h_terms), PauliSum(n, op_terms), sum_of(n, [ab])


def one_qubit(spec_coeffs):
    return PauliSum(1, {spec_masks(spec): c for spec, c in spec_coeffs})


class TestCommutatorTermCounts:
    @pytest.mark.parametrize("name", sorted(
        path.name for path in DATA.glob("*.fcidump")) + [
            "h6/h6_r1.000.fcidump"])
    def test_matches_commutator_on_every_committed_pool(self, name):
        # H6 adds each string's pairs over 919 terms, per operator of 81
        problem = QubitProblem(load_fcidump(DATA / name))
        ops = [op.qubit_form for op in problem.pool]
        assert commutator_term_counts(problem.h_p, ops) == symbolic_counts(
            problem.h_p, ops)

    @given(sums_with_a_cancelling_key())
    @settings(max_examples=200)
    def test_matches_commutator_with_cancellations(self, sums):
        h, op, ab = sums
        ops = [op, h, ab]
        assert commutator_term_counts(h, ops) == symbolic_counts(h, ops)

    @pytest.mark.parametrize("eps, counted", [(0.0, 0), (2.5e-13, 0),
                                              (1e-12, 1)])
    def test_threshold_applies_to_the_key_sum(self, eps, counted):
        # [Z0, X0] + (1 + eps) [X0, Z0] = -2 eps i Y0: the two pairs
        # cancel exactly, or leave 5e-13 or 2e-12 against the 1e-12
        # pruning threshold
        h = one_qubit([("Z0", 1.0), ("X0", 1.0 + eps)])
        op = one_qubit([("X0", 1.0), ("Z0", 1.0)])
        assert commutator_term_counts(h, [op]) == [counted]
        assert symbolic_counts(h, [op]) == [counted]

    def test_identity_is_never_counted(self):
        h = one_qubit([("", 3.0), ("Z0", 1.0)])
        op = one_qubit([("", 2.0), ("X0", 1.0)])
        assert commutator_term_counts(h, [op, h]) == [1, 0]

    def test_commuting_op_gives_zero(self):
        h = from_string(2, "Z0 Z1")
        op = from_string(2, "X0 X1", 0.5j)
        assert commutator_term_counts(h, [op, PauliSum(2)]) == [0, 0]

    def test_mismatched_qubits(self):
        with pytest.raises(DimensionMismatchError):
            commutator_term_counts(PauliSum(1), [PauliSum(2)])

    def test_keys_beyond_int64_rejected(self):
        with pytest.raises(ResourceLimitError):
            commutator_term_counts(PauliSum(32), [])


class TestToMatrix:
    def test_z_convention(self):
        s = from_string(1, "Z0")
        np.testing.assert_array_equal(to_matrix(s), np.diag([1.0, -1.0]))

    def test_empty_sum_is_zero(self):
        np.testing.assert_array_equal(to_matrix(PauliSum(2)),
                                      np.zeros((4, 4)))

    def test_x_plus_z(self):
        s = add(from_string(1, "X0"), from_string(1, "Z0"))
        np.testing.assert_allclose(to_matrix(s), [[1, 1], [1, -1]])

    def test_qubit_cap(self):
        with pytest.raises(ResourceLimitError):
            to_matrix(PauliSum(13, {(0, 0): 1.0}))

    @given(st.lists(terms_2q, min_size=1, max_size=5))
    @settings(max_examples=60)
    def test_matches_kron_oracle(self, terms):
        s = sum_of(2, terms)
        np.testing.assert_allclose(to_matrix(s), sum_kron_matrix(s),
                                   atol=1e-12)


class TestRestrict:
    """A sum's real action on a basis, against its dense matrix."""

    SECTOR = np.array([0b0011, 0b0110, 0b1001, 0b1100])  # one alpha, one beta

    def test_matches_the_dense_block(self):
        # alpha hop a0^ a2 + h.c. plus a diagonal: real and block-conserving
        hop = add(from_string(4, "X0 Z1 X2", 0.5),
                  from_string(4, "Y0 Z1 Y2", 0.5))
        s = add(hop, from_string(4, "Z0", 0.3))
        r = s.restrict(self.SECTOR)
        assert r.basis is self.SECTOR and r.hermitian
        assert r.terms == s.terms and s.basis is None
        rows, cols, values = r.action
        assert values.dtype == np.float64 and values.all()
        # X mask 0 on every state, then 0b101 pairing 0011-0110, 1001-1100
        np.testing.assert_array_equal(
            self.SECTOR[rows] ^ self.SECTOR[cols], [0] * 4 + [0b101] * 4)
        block = np.zeros((4, 4))
        block[rows, cols] = values
        np.testing.assert_array_equal(
            block, to_matrix(s)[np.ix_(self.SECTOR, self.SECTOR)].real)

    def test_leaving_entry_raises(self):
        with pytest.raises(ValueError, match="leaves the block"):
            from_string(4, "X0").restrict(self.SECTOR)

    def test_entry_leaving_by_at_most_leak_tol_is_dropped(self):
        # one alpha electron on qubits 0, 2, 4: X0 X2 keeps it in the block
        # unless it sits on qubit 4, where the group's diagonal is 2e-13
        basis = sector_indices(6, 1)
        s = add(from_string(6, "X0 X2", 0.5),
                from_string(6, "X0 X2 Z4", 0.5 - 2e-13))
        rows, cols, values = s.restrict(basis).action
        leaving = (basis & 0b010000) != 0
        assert leaving.any() and not leaving.all()
        np.testing.assert_array_equal(cols, np.flatnonzero(~leaving))
        assert values.all()
        np.testing.assert_array_equal(basis[rows], basis[cols] ^ 0b000101)

    def test_imaginary_entry_raises(self):
        with pytest.raises(ValueError, match="not real"):
            from_string(4, "Z0", 1j).restrict(self.SECTOR)

    def test_neither_hermitian_nor_anti_hermitian_raises(self):
        s = add(from_string(4, "Z0"), from_string(4, "Z1", 1j))
        with pytest.raises(ValueError, match="Hermitian"):
            s.restrict(self.SECTOR)


# coefficients either exactly real or with imaginary part well clear of
# the 1e-12 hermiticity tolerance, so the boolean equivalence below is
# not probing the tolerance boundary itself
clear_coeffs = st.one_of(
    st.floats(-2, 2, allow_nan=False).map(complex),
    st.tuples(st.floats(-2, 2, allow_nan=False),
              st.floats(1e-6, 2) | st.floats(-2, -1e-6)).map(
                  lambda pair: complex(*pair)),
)

terms_2q_clear = st.tuples(st.integers(0, 3), st.integers(0, 3),
                           clear_coeffs)


class TestHermiticity:
    @given(st.lists(terms_2q_clear, min_size=1, max_size=5))
    @settings(max_examples=60)
    def test_flag_iff_matrix_hermitian(self, terms):
        s = sum_of(2, terms)
        # keep merged coefficients clear of the tolerance boundary; the
        # equivalence is about structure, not the exact cutoff
        assume(all(abs(c.imag) < 1e-13 or abs(c.imag) > 1e-9
                   for c in s.terms.values()))
        mat = to_matrix(s)
        assert s.is_hermitian() == bool(
            np.allclose(mat, mat.conj().T, rtol=0.0, atol=1e-11))

    def test_anti_hermitian(self):
        s = from_string(1, "Y0", 0.5j)
        assert s.is_anti_hermitian()
        assert not s.is_hermitian()


class TestRendering:
    def test_canonical_text(self):
        s = from_string(4, "X0 Z1 Y3", -0.5)
        assert str(s) == "(-0.5+0i) X0 Z1 Y3"

    def test_term_order_is_z_then_x(self):
        s = PauliSum(2, {spec_masks("Z0"): 2.0,     # (x=0, z=1)
                         spec_masks("X0"): 1.0})    # (x=1, z=0)
        # z_mask sorts first, so X0 (z=0) precedes Z0 (z=1)
        assert s.sorted_terms() == [(1, 0, 1.0), (0, 1, 2.0)]
        assert str(s) == "(1+0i) X0 + (2+0i) Z0"

    def test_zero_sum(self):
        assert str(PauliSum(3)) == "0"


class TestCommutationPredicate:
    @given(st.data())
    def test_matches_dense(self, data):
        ta = random_term(data.draw, 3)
        tb = random_term(data.draw, 3)
        a, b = sum_of(3, [ta]), sum_of(3, [tb])
        ma, mb = sum_kron_matrix(a), sum_kron_matrix(b)
        dense_commutes = np.allclose(ma @ mb, mb @ ma, atol=1e-12)
        if abs(ta[2]) > 1e-6 and abs(tb[2]) > 1e-6:
            assert terms_commute(ta, tb) == dense_commutes
            assert (len(commutator(a, b)) == 0) == dense_commutes
