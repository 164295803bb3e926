from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from vqebench.adapt import QubitProblem
from vqebench.fcidump import load_fcidump
from vqebench.pauli import (
    DimensionMismatchError,
    PauliSum,
    PauliTerm,
    ResourceLimitError,
    PAULI_MATRICES,
    commutator,
    commutator_term_counts,
    multiply,
    terms_commute,
    to_matrix,
)

DATA = Path(__file__).parent / "data"


def kron_matrix(term: PauliTerm) -> np.ndarray:
    """Oracle: Kronecker product of single-qubit matrices, qubit 0 = LSB."""
    mat = np.array([[term.coefficient]])
    for q in range(term.n_qubits):
        x = (term.x_mask >> q) & 1
        z = (term.z_mask >> q) & 1
        single = PAULI_MATRICES[("I", "X", "Z", "Y")[x + 2 * z]]
        mat = np.kron(single, mat)  # higher qubits go to the left
    return mat


def sum_kron_matrix(s: PauliSum) -> np.ndarray:
    dim = 1 << s.n_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    for t in s:
        mat = mat + kron_matrix(t)
    return mat


def random_term(draw, n_qubits, real_coeff=False):
    x = draw(st.integers(0, (1 << n_qubits) - 1))
    z = draw(st.integers(0, (1 << n_qubits) - 1))
    if real_coeff:
        c = draw(st.floats(-2, 2, allow_nan=False)) or 1.0
    else:
        c = complex(draw(st.floats(-2, 2, allow_nan=False)) or 1.0,
                    draw(st.floats(-2, 2, allow_nan=False)))
    return PauliTerm(n_qubits, x, z, c)


terms_2q = st.builds(
    PauliTerm,
    st.just(2),
    st.integers(0, 3),
    st.integers(0, 3),
    st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
)

terms_4q = st.builds(
    PauliTerm,
    st.just(4),
    st.integers(0, 15),
    st.integers(0, 15),
    st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
)


class TestMultiply:
    def test_single_qubit_group_table(self):
        x = PauliTerm.from_string(1, "X0")
        y = PauliTerm.from_string(1, "Y0")
        out = multiply(x, y)
        assert out == PauliTerm(1, 0, 1, 1j)  # i Z0

    def test_identity_passthrough(self):
        ident = PauliTerm(2, 0, 0, 2.5 - 1j)
        p = PauliTerm.from_string(2, "Y0 Z1", 0.5j)
        out = multiply(ident, p)
        assert (out.x_mask, out.z_mask) == (p.x_mask, p.z_mask)
        assert out.coefficient == pytest.approx((2.5 - 1j) * 0.5j)

    def test_two_qubit_product_vs_dense(self):
        # (X0 Z1)(Z0 Z1) = -i Y0, frozen from the 4x4 matrix product
        a = PauliTerm.from_string(2, "X0 Z1")
        b = PauliTerm.from_string(2, "Z0 Z1")
        out = multiply(a, b)
        assert out == PauliTerm.from_string(2, "Y0", -1j)
        np.testing.assert_allclose(kron_matrix(out),
                                   kron_matrix(a) @ kron_matrix(b),
                                   atol=1e-14)

    def test_mismatched_qubits(self):
        with pytest.raises(DimensionMismatchError):
            multiply(PauliTerm.from_string(1, "X0"),
                     PauliTerm.from_string(2, "X0"))

    @given(st.data())
    def test_matches_kron_product(self, data):
        a = random_term(data.draw, 3)
        b = random_term(data.draw, 3)
        np.testing.assert_allclose(kron_matrix(multiply(a, b)),
                                   kron_matrix(a) @ kron_matrix(b),
                                   atol=1e-12)

    @given(st.data())
    def test_group_closure_phase(self, data):
        a = random_term(data.draw, 4)
        b = random_term(data.draw, 4)
        out = multiply(a, b)
        mag = abs(a.coefficient) * abs(b.coefficient)
        assert abs(out.coefficient) == pytest.approx(mag, abs=1e-12)
        if mag > 1e-9:
            phase = out.coefficient / (a.coefficient * b.coefficient)
            best = min(abs(phase - p) for p in (1, 1j, -1, -1j))
            assert best < 1e-9

    @given(st.data())
    @settings(max_examples=60)
    def test_associativity(self, data):
        a = random_term(data.draw, 6)
        b = random_term(data.draw, 6)
        c = random_term(data.draw, 6)
        left = multiply(multiply(a, b), c)
        right = multiply(a, multiply(b, c))
        assert (left.x_mask, left.z_mask) == (right.x_mask, right.z_mask)
        assert left.coefficient == pytest.approx(right.coefficient, abs=1e-10)


class TestAdd:
    def test_cancellation(self):
        a = PauliSum.from_term(PauliTerm.from_string(1, "X0", 1.0))
        b = PauliSum.from_term(PauliTerm.from_string(1, "X0", -1.0))
        assert len(a + b) == 0

    def test_disjoint_keys(self):
        a = PauliSum.from_term(PauliTerm.from_string(1, "X0", 1.0))
        b = PauliSum.from_term(PauliTerm.from_string(1, "Z0", 2.0))
        s = a + b
        assert len(s) == 2
        assert s.coefficient(1, 0) == 1.0
        assert s.coefficient(0, 1) == 2.0

    def test_prunes_tiny_residue(self):
        a = PauliSum.from_term(PauliTerm.from_string(1, "X0", 1.0 + 1e-15))
        b = PauliSum.from_term(PauliTerm.from_string(1, "X0", -1.0))
        assert len(a + b) == 0

    def test_mismatched_qubits(self):
        with pytest.raises(DimensionMismatchError):
            PauliSum(1) + PauliSum(2)


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
        z = PauliSum.from_term(PauliTerm.from_string(1, "Z0"))
        x = PauliSum.from_term(PauliTerm.from_string(1, "X0"))
        out = commutator(z, x)
        assert len(out) == 1
        assert out.coefficient(1, 1) == pytest.approx(2j)

    def test_self_commutator_vanishes(self):
        p = PauliSum.from_term(PauliTerm.from_string(3, "X0 Y1 Z2", 1.7))
        assert len(commutator(p, p)) == 0

    def test_pairwise_anticommuting_product_commutes(self):
        a = PauliSum.from_term(PauliTerm.from_string(2, "X0 X1"))
        b = PauliSum.from_term(PauliTerm.from_string(2, "Z0 Z1"))
        assert len(commutator(a, b)) == 0
        dense = (sum_kron_matrix(a) @ sum_kron_matrix(b)
                 - sum_kron_matrix(b) @ sum_kron_matrix(a))
        np.testing.assert_allclose(dense, 0, atol=1e-14)

    @given(st.lists(terms_2q, min_size=1, max_size=4),
           st.lists(terms_2q, min_size=1, max_size=4))
    @settings(max_examples=80)
    def test_matches_dense_commutator(self, ta, tb):
        a = PauliSum.from_terms(ta)
        b = PauliSum.from_terms(tb)
        ma, mb = sum_kron_matrix(a), sum_kron_matrix(b)
        np.testing.assert_allclose(sum_kron_matrix(commutator(a, b)),
                                   ma @ mb - mb @ ma, atol=1e-12)

    @given(st.lists(terms_4q, min_size=1, max_size=5),
           st.lists(terms_4q, min_size=1, max_size=5))
    @settings(max_examples=40)
    def test_matches_dense_commutator_four_qubits(self, ta, tb):
        a = PauliSum.from_terms(ta)
        b = PauliSum.from_terms(tb)
        ma, mb = to_matrix(a), to_matrix(b)
        np.testing.assert_allclose(to_matrix(commutator(a, b)),
                                   ma @ mb - mb @ ma, atol=1e-12)

    @given(st.lists(terms_2q, min_size=1, max_size=3),
           st.lists(terms_2q, min_size=1, max_size=3),
           st.lists(terms_2q, min_size=1, max_size=3))
    @settings(max_examples=40)
    def test_bilinearity(self, ta, tb, tc):
        a, b, c = (PauliSum.from_terms(t) for t in (ta, tb, tc))
        lhs = commutator(a + b, c)
        rhs = commutator(a, c) + commutator(b, c)
        np.testing.assert_allclose(sum_kron_matrix(lhs), sum_kron_matrix(rhs),
                                   atol=1e-12)


def exact_items(s: PauliSum):
    """Keys in order with the bits of each coefficient, signed zeros too."""
    return [(key, c.real.hex(), c.imag.hex()) for key, c in s.terms.items()]


def pairwise_by_multiply(a: PauliSum, b: PauliSum, commutator_only=False):
    """Reference: one `multiply` per term pair, ``a``'s terms outer; the
    commutator keeps anticommuting pairs only, doubled."""
    acc = {}
    for ta in a:
        for tb in b:
            if commutator_only and terms_commute(ta, tb):
                continue
            t = multiply(ta, tb)
            c = 2.0 * t.coefficient if commutator_only else t.coefficient
            key = (t.x_mask, t.z_mask)
            acc[key] = acc.get(key, 0.0) + c
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
        assert exact_items(a * b) == exact_items(pairwise_by_multiply(a, b))

    @given(sum_pairs())
    @example((RAISING, RAISING))
    @settings(max_examples=200)
    def test_commutator_matches_multiply_per_pair(self, pair):
        a, b = pair
        assert exact_items(commutator(a, b)) == exact_items(
            pairwise_by_multiply(a, b, commutator_only=True))

    def test_exact_cancellation_leaves_nothing(self):
        assert len(RAISING * RAISING) == 0
        assert len(commutator(RAISING, RAISING)) == 0


def symbolic_counts(h: PauliSum, ops):
    return [commutator(h, op).non_identity_term_count() for op in ops]


def toggled(term: PauliTerm, other: PauliTerm):
    """Masks of ``term`` with one bit flipped so that it commutes with the
    non-identity string ``other`` iff ``term`` did not."""
    support = other.x_mask | other.z_mask
    q = support & -support
    if other.x_mask & q:
        return term.x_mask, term.z_mask ^ q
    return term.x_mask ^ q, term.z_mask


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
    a = PauliTerm(n, draw(masks) or 1, draw(masks), draw(coeffs))
    b = PauliTerm(n, draw(masks), draw(masks), draw(coeffs))
    if terms_commute(a, b):
        b = PauliTerm(n, *toggled(b, a), b.coefficient)
    ab = multiply(a, b)
    s = PauliTerm(n, draw(masks), draw(masks))
    if not terms_commute(s, ab):
        s = PauliTerm(n, *toggled(s, ab))
    if s.is_identity:
        s = PauliTerm(n, ab.x_mask, ab.z_mask)
    a_s, s_b = multiply(a, s), multiply(s, b)
    h_terms, op_terms = dict(h.terms), dict(op.terms)
    h_terms[(a.x_mask, a.z_mask)] = a.coefficient
    h_terms[(a_s.x_mask, a_s.z_mask)] = -a_s.coefficient
    op_terms[(b.x_mask, b.z_mask)] = b.coefficient
    op_terms[(s_b.x_mask, s_b.z_mask)] = s_b.coefficient
    return PauliSum(n, h_terms), PauliSum(n, op_terms), ab


def one_qubit(spec_coeffs):
    return PauliSum.from_terms(
        [PauliTerm.from_string(1, spec, c) for spec, c in spec_coeffs])


class TestCommutatorTermCounts:
    @pytest.mark.parametrize("name", sorted(
        path.name for path in DATA.glob("*.fcidump")))
    def test_matches_commutator_on_every_committed_pool(self, name):
        problem = QubitProblem(load_fcidump(DATA / name))
        ops = [op.qubit_form for op in problem.pool]
        assert commutator_term_counts(problem.h_p, ops) == symbolic_counts(
            problem.h_p, ops)

    @given(sums_with_a_cancelling_key())
    @settings(max_examples=200)
    def test_matches_commutator_with_cancellations(self, sums):
        h, op, ab = sums
        ops = [op, h, PauliSum.from_term(ab)]
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
        h = PauliSum.from_term(PauliTerm.from_string(2, "Z0 Z1"))
        op = PauliSum.from_term(PauliTerm.from_string(2, "X0 X1", 0.5j))
        assert commutator_term_counts(h, [op, PauliSum(2)]) == [0, 0]

    def test_mismatched_qubits(self):
        with pytest.raises(DimensionMismatchError):
            commutator_term_counts(PauliSum(1), [PauliSum(2)])

    def test_keys_beyond_int64_rejected(self):
        with pytest.raises(ResourceLimitError):
            commutator_term_counts(PauliSum(32), [])


class TestToMatrix:
    def test_z_convention(self):
        s = PauliSum.from_term(PauliTerm.from_string(1, "Z0"))
        np.testing.assert_array_equal(to_matrix(s), np.diag([1.0, -1.0]))

    def test_empty_sum_is_zero(self):
        np.testing.assert_array_equal(to_matrix(PauliSum(2)),
                                      np.zeros((4, 4)))

    def test_x_plus_z(self):
        s = PauliSum.from_terms([PauliTerm.from_string(1, "X0"),
                                 PauliTerm.from_string(1, "Z0")])
        np.testing.assert_allclose(to_matrix(s), [[1, 1], [1, -1]])

    def test_qubit_cap(self):
        with pytest.raises(ResourceLimitError):
            to_matrix(PauliSum.identity(13))
        to_matrix(PauliSum.identity(13), max_qubits=13)  # cap is configurable

    @given(st.lists(terms_2q, min_size=1, max_size=5))
    @settings(max_examples=60)
    def test_matches_kron_oracle(self, terms):
        s = PauliSum.from_terms(terms)
        np.testing.assert_allclose(to_matrix(s), sum_kron_matrix(s),
                                   atol=1e-12)


# coefficients either exactly real or with imaginary part well clear of
# the 1e-12 hermiticity tolerance, so the boolean equivalence below is
# not probing the tolerance boundary itself
clear_coeffs = st.one_of(
    st.floats(-2, 2, allow_nan=False).map(complex),
    st.tuples(st.floats(-2, 2, allow_nan=False),
              st.floats(1e-6, 2) | st.floats(-2, -1e-6)).map(
                  lambda pair: complex(*pair)),
)

terms_2q_clear = st.builds(PauliTerm, st.just(2), st.integers(0, 3),
                           st.integers(0, 3), clear_coeffs)


class TestHermiticity:
    @given(st.lists(terms_2q_clear, min_size=1, max_size=5))
    @settings(max_examples=60)
    def test_flag_iff_matrix_hermitian(self, terms):
        s = PauliSum.from_terms(terms)
        # keep merged coefficients clear of the tolerance boundary; the
        # equivalence is about structure, not the exact cutoff
        assume(all(abs(c.imag) < 1e-13 or abs(c.imag) > 1e-9
                   for c in s.terms.values()))
        mat = to_matrix(s)
        assert s.is_hermitian() == bool(
            np.allclose(mat, mat.conj().T, rtol=0.0, atol=1e-11))

    def test_anti_hermitian(self):
        s = PauliSum.from_term(PauliTerm.from_string(1, "Y0", 0.5j))
        assert s.is_anti_hermitian()
        assert not s.is_hermitian()


class TestRendering:
    def test_canonical_text(self):
        s = PauliSum.from_terms([
            PauliTerm.from_string(4, "X0 Z1 Y3", -0.5),
        ])
        assert str(s) == "(-0.5+0i) X0 Z1 Y3"

    def test_term_order_is_z_then_x(self):
        s = PauliSum.from_terms([
            PauliTerm.from_string(2, "X0", 1.0),   # (x=1, z=0)
            PauliTerm.from_string(2, "Z0", 2.0),   # (x=0, z=1)
        ])
        # z_mask sorts first, so X0 (z=0) precedes Z0 (z=1)
        assert str(s) == "(1+0i) X0 + (2+0i) Z0"

    def test_zero_sum(self):
        assert str(PauliSum(3)) == "0"


class TestCommutationPredicate:
    @given(st.data())
    def test_matches_dense(self, data):
        a = random_term(data.draw, 3)
        b = random_term(data.draw, 3)
        ma, mb = kron_matrix(a), kron_matrix(b)
        dense_commutes = np.allclose(ma @ mb, mb @ ma, atol=1e-12)
        if abs(a.coefficient) > 1e-6 and abs(b.coefficient) > 1e-6:
            assert terms_commute(a, b) == dense_commutes
