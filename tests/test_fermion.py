import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import add, jordan_wigner_sequential, number_operator

from vqebench import ansatz, fermion, pauli
from vqebench.adapt import QubitProblem
from vqebench.ansatz import build_uccsd_pool
from vqebench.fcidump import load_fcidump, to_fermion_hamiltonian
from vqebench.fermion import (
    FermionOperator,
    LadderProduct,
    anti_hermitian_pair,
    jordan_wigner,
    jordan_wigner_each,
    verify_car,
)
from vqebench.fci import solve_fci
from vqebench.pauli import (
    PRUNE_THRESHOLD,
    PauliSum,
    ResourceLimitError,
    to_matrix,
)

DATA = Path(__file__).parent / "data"


def scaled(s: PauliSum, factor) -> PauliSum:
    """``factor * s``, pruned."""
    return PauliSum(s.n_qubits, {key: complex(factor) * c
                                 for key, c in s.terms.items()})


def single(n, p, q, coeff=1.0):
    return FermionOperator(n, [LadderProduct([(p, True), (q, False)], coeff)])


class TestAntiHermitianPair:
    def test_single_excitation(self):
        t = single(4, 2, 0)
        tau = anti_hermitian_pair(t)
        assert len(tau.products) == 2
        assert tau.products[0].factors == ((2, True), (0, False))
        assert tau.products[1].factors == ((0, True), (2, False))
        assert tau.products[1].coefficient == -1.0

    def test_double_excitation_with_conjugation(self):
        c = 0.3 + 0.7j
        t = FermionOperator(4, [LadderProduct(
            [(3, True), (2, True), (1, False), (0, False)], c)])
        tau = anti_hermitian_pair(t)
        conj = tau.products[1]
        assert conj.factors == ((0, True), (1, True), (2, False), (3, False))
        assert conj.coefficient == -c.conjugate()

    def test_rejects_misordered_product(self):
        bad = FermionOperator(4, [LadderProduct(
            [(0, False), (2, True)], 1.0)])
        with pytest.raises(ValueError):
            anti_hermitian_pair(bad)

    def test_jw_image_is_anti_hermitian(self):
        tau = anti_hermitian_pair(single(4, 2, 0))
        qubit = jordan_wigner(tau)
        assert qubit.is_anti_hermitian()
        # every coefficient purely imaginary
        assert all(abs(c.real) < 1e-12 for c in qubit.terms.values())


class TestJordanWigner:
    def test_create_on_qubit_zero(self):
        f = FermionOperator(2, [LadderProduct([(0, True)])])
        s = jordan_wigner(f)
        assert s.terms == pytest.approx({(1, 0): 0.5,      # X0
                                         (1, 1): -0.5j})   # Y0

    def test_create_with_parity_chain(self):
        f = FermionOperator(2, [LadderProduct([(1, True)])])
        s = jordan_wigner(f)
        assert s.terms == pytest.approx({(0b10, 0b01): 0.5,      # Z0 X1
                                         (0b10, 0b11): -0.5j})   # Z0 Y1

    def test_number_operator_on_one_mode(self):
        f = FermionOperator(1, [LadderProduct([(0, True), (0, False)])])
        s = jordan_wigner(f)
        # occupation convention: qubit value 1 = occupied
        np.testing.assert_allclose(to_matrix(s), np.diag([0.0, 1.0]),
                                   atol=1e-14)
        assert s.terms == pytest.approx({(0, 0): 0.5, (0, 1): -0.5})

    def test_total_number_operator_helper(self):
        direct = jordan_wigner(FermionOperator(3, [
            LadderProduct([(p, True), (p, False)]) for p in range(3)]))
        np.testing.assert_allclose(to_matrix(direct),
                                   to_matrix(number_operator(3)), atol=1e-14)

    @given(st.integers(0, 3), st.integers(0, 3),
           st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False))
    @settings(max_examples=40)
    def test_linearity(self, p, q, alpha, beta):
        f = single(4, p, q)
        g = single(4, q, p)
        combined = FermionOperator(4, [
            LadderProduct(f.products[0].factors, alpha),
            LadderProduct(g.products[0].factors, beta),
        ])
        lhs = jordan_wigner(combined)
        rhs = add(scaled(jordan_wigner(f), alpha),
                  scaled(jordan_wigner(g), beta))
        np.testing.assert_allclose(to_matrix(lhs), to_matrix(rhs), atol=1e-12)

    def test_hermitian_operator_maps_hermitian(self):
        t = single(4, 2, 0, 0.7)
        herm = FermionOperator(4, t.products + t.dagger().products)
        assert jordan_wigner(herm).is_hermitian()


def exact_items(s: PauliSum):
    """Keys in order with the bits of each coefficient, signed zeros too."""
    return [(key, c.real.hex(), c.imag.hex()) for key, c in s.terms.items()]


def pool_fermionic_forms(n_spatial, n_electrons):
    """The fermionic form of each pool operator, in pool order: the
    operators `build_uccsd_pool` passes to its one `jordan_wigner_each`
    call in a fresh build, past its memo. Each pool operator's strings are
    the bits and order `jordan_wigner` gives its form alone."""
    calls = []

    def recording(operators):
        calls.append(list(operators))
        return jordan_wigner_each(calls[-1])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ansatz, "jordan_wigner_each", recording)
        pool = build_uccsd_pool.__wrapped__(n_spatial, n_electrons)
    [forms] = calls
    assert [exact_items(op.qubit_form) for op in pool] == \
        [exact_items(jordan_wigner(f)) for f in forms]
    return forms


def committed_operators():
    """The fermion Hamiltonian of every committed FCIDUMP, H6's included,
    tagged ``<file>:H``, and the pool operators of each of their shapes,
    tagged ``<file>:<pool id>`` after the first file of that shape."""
    shapes = set()
    for path in sorted(DATA.rglob("*.fcidump")):
        ham = load_fcidump(path)
        yield f"{path.stem}:H", to_fermion_hamiltonian(ham)[0]
        shape = (ham.n_spatial, ham.n_electrons)
        if shape not in shapes:
            shapes.add(shape)
            for op_id, tau in enumerate(pool_fermionic_forms(*shape)):
                yield f"{path.stem}:{op_id}", tau


class TestAccumulationOrder:
    def test_matches_addition_oracle_on_committed_systems(self):
        tags = []
        for tag, f in committed_operators():
            tags.append(tag)
            assert exact_items(jordan_wigner(f)) == \
                exact_items(jordan_wigner_sequential(f)), tag
        assert {tag.split("_")[0] for tag in tags} == {"h2", "h4", "h6",
                                                       "nah"}
        assert len(tags) == 147

    def test_cancelled_key_keeps_its_residue_and_place(self):
        # a0^ -> 0.5 X0 - 0.5i Y0; the third product leaves 5e-14 of both,
        # which is kept, since only the final sum is pruned, and the fourth
        # adds to it where X0 and Y0 first entered, before I and Z1.
        f = FermionOperator(2, [
            LadderProduct([(0, True)], 1.0),
            LadderProduct([(1, True), (1, False)], 1.0),
            LadderProduct([(0, True)], -(1.0 - 1e-13)),
            LadderProduct([(0, True)], 0.25),
        ])
        out = jordan_wigner(f)
        assert list(out.terms) == [(1, 0), (1, 1), (0, 0), (0, 2)]
        assert out.terms[(1, 0)] == 0.12500000000005002
        assert exact_items(out) == exact_items(jordan_wigner_sequential(f))

    def test_committed_images_keep_their_bits(self):
        # sha256 over every committed operator's image and over each batched
        # pool call per spin-orbital count, taken at commit d28fbae, before
        # the merge pruned each sum once: these bits rest on no oracle
        digest, pools = hashlib.sha256(), {}
        for tag, f in committed_operators():
            digest.update(repr((tag, exact_items(jordan_wigner(f)))).encode())
            if not tag.endswith(":H"):
                pools.setdefault(f.n_spin_orbitals, []).append(f)
        assert sorted(pools) == [4, 8, 12]
        for n, forms in sorted(pools.items()):
            digest.update(repr((n, [exact_items(s) for s in
                                    jordan_wigner_each(forms)])).encode())
        assert digest.hexdigest() == ("fc508d947d648de2f0a6d8b6dc0a1e4b"
                                      "1c47ed3f36494003e4af1273b5a1be1d")


def ladder_products(n, normal_ordered):
    """Products on ``n`` orbitals, repeats allowed. Normal-ordered ones
    hold at most two creators before at most two annihilators, the shape
    of every product `to_fermion_hamiltonian` and `build_uccsd_pool` emit;
    arbitrary ones hold up to six factors in any order."""
    orbital = st.integers(0, n - 1)
    if normal_ordered:
        factors = st.builds(
            lambda c, a: [(p, True) for p in c] + [(p, False) for p in a],
            st.lists(orbital, max_size=2), st.lists(orbital, max_size=2))
    else:
        factors = st.lists(st.tuples(orbital, st.booleans()), max_size=6)
    # magnitudes from well above PRUNE_THRESHOLD down to a tenth of it;
    # a part is zero or far from subnormal, where the paths' one halving
    # by 0.5**k and the oracle's halving per factor round differently
    magnitude = st.floats(-13, 0.5).map(lambda e: 10.0 ** e)
    part = st.floats(-1, 1).filter(lambda v: v == 0 or abs(v) > 1e-200)
    unit = st.sampled_from([1.0, -1.0, 1j, -1j]) | st.builds(complex, part,
                                                              part)
    coefficient = st.builds(lambda r, u: r * u, magnitude, unit)
    return st.builds(LadderProduct, factors, coefficient)


@st.composite
def fermion_operators(draw, normal_ordered):
    n = draw(st.integers(1, 6))
    products = draw(st.lists(ladder_products(n, normal_ordered),
                             min_size=1, max_size=4))
    return FermionOperator(n, products)


# a0 a0^ a0 a0^ = a0 a0^: four paths end on the identity
REPEATED = FermionOperator(1, [LadderProduct(
    [(0, False), (0, True), (0, False), (0, True)], 0.3 - 0.2j)])


class TestClosedForm:
    """`jordan_wigner` maps each product straight to its strings, against
    the product taken one ladder factor at a time."""

    @given(fermion_operators(normal_ordered=True))
    @settings(max_examples=300)
    def test_normal_ordered_products_give_the_oracle_bits(self, f):
        assert exact_items(jordan_wigner(f)) == \
            exact_items(jordan_wigner_sequential(f))

    @given(fermion_operators(normal_ordered=False))
    @example(REPEATED)
    @example(FermionOperator(5, [LadderProduct(  # a subnormal part
        [(4, True), (0, True), (3, False)], complex(1.9e-9, 4.3e-318))]))
    @settings(max_examples=150)
    def test_any_product_gives_the_oracle_matrix(self, f):
        np.testing.assert_allclose(to_matrix(jordan_wigner(f)),
                                   to_matrix(jordan_wigner_sequential(f)),
                                   rtol=0, atol=1e-12)

    def test_repeated_orbital_sums_in_path_order(self):
        # the four identity paths are summed once, at the end, where the
        # oracle sums them pairwise after each factor
        assert jordan_wigner(REPEATED).terms[(0, 0)] == complex(
            0.15, -0.09999999999999999)
        assert jordan_wigner_sequential(REPEATED).terms[(0, 0)] == complex(
            0.15, -0.1)

    def test_product_image_is_pruned_before_it_merges(self):
        # n1 = (I - Z1) / 2; the second product's 0.5e-12 on both strings
        # is pruned with its product, so it never reaches the first's 0.5
        f = FermionOperator(2, [
            LadderProduct([(1, True), (1, False)], 1.0),
            LadderProduct([(1, True), (1, False)], PRUNE_THRESHOLD)])
        out = jordan_wigner(f)
        assert out.terms == {(0, 0): 0.5, (0, 2): -0.5}
        assert exact_items(out) == exact_items(jordan_wigner_sequential(f))


@st.composite
def long_operators(draw):
    """20-60 normal-ordered products on up to 6 orbitals, drawn from a few
    factor tuples so that strings recur. About half cancel an earlier
    product's coefficient exactly or to within 1e-14 or 3e-13 of it, so
    running sums dip below PRUNE_THRESHOLD partway through; such a dip
    must not reset the sum."""
    n = draw(st.integers(1, 6))
    shapes = draw(st.lists(ladder_products(n, normal_ordered=True),
                           min_size=1, max_size=8))
    products = []
    for _ in range(draw(st.integers(20, 60))):
        if products and draw(st.booleans()):
            earlier = draw(st.sampled_from(products))
            sliver = draw(st.sampled_from([0.0, 1e-14, 3e-13]))
            products.append(LadderProduct(
                earlier.factors, -earlier.coefficient * (1.0 - sliver)))
        else:
            products.append(draw(st.sampled_from(shapes)))
    return FermionOperator(n, products)


def traced_peak(fn, *args):
    """Peak bytes `tracemalloc` sees in ``fn(*args)``, after a first call
    has run its one-time set-up."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestArrayPass:
    """`jordan_wigner_each` transforms every product in one array pass; it
    must give the bits and term order of the oracle's dict merge."""

    @pytest.mark.parametrize("cells", [1, 64, pauli.BLOCK_CELLS])
    @given(long_operators())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_long_operators_give_the_oracle_bits(self, cells, f):
        # 1 takes every X mask's products in a block of their own
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pauli, "BLOCK_CELLS", cells)
            out = jordan_wigner(f)
        assert exact_items(out) == exact_items(jordan_wigner_sequential(f))

    def test_key_cancelled_twice_keeps_its_residue_and_place(self):
        # a0^ -> 0.5 X0 - 0.5i Y0 is cancelled to 5e-14 twice; both residues
        # stay in its sum, which keeps the place where it first entered
        f = FermionOperator(2, [
            LadderProduct([(0, True)], 1.0),
            LadderProduct([(1, True), (1, False)], 1.0),
            LadderProduct([(0, True)], -(1.0 - 1e-13)),
            LadderProduct([(0, True)], 0.25),
            LadderProduct([(1, True)], 1.0),
            LadderProduct([(0, True)], -(0.25 - 1e-13)),
            LadderProduct([(1, True), (1, False)], 1.0),
            LadderProduct([(0, True)], 0.5),
        ])
        out = jordan_wigner(f)
        assert list(out.terms) == [(1, 0), (1, 1), (0, 0), (0, 2), (2, 1),
                                   (2, 3)]
        assert out.terms[(1, 0)] == 0.25000000000010003
        assert out.terms[(0, 0)] == 1.0
        assert exact_items(out) == exact_items(jordan_wigner_sequential(f))

    def test_each_operator_as_if_alone(self):
        h = to_fermion_hamiltonian(load_fcidump(DATA / "h2_r0.735.fcidump"))[0]
        operators = [
            h,
            FermionOperator(4),
            FermionOperator(4, [LadderProduct([], 0.7 - 0.1j)]),
            FermionOperator(4, [LadderProduct([(2, True), (0, False)], 0.5),
                                LadderProduct([(2, True), (0, False)], -0.5)]),
            FermionOperator(4, [LadderProduct([(1, False), (1, False)])]),
            *pool_fermionic_forms(2, 2),
            h,
        ]
        out = jordan_wigner_each(iter(operators))
        assert [exact_items(s) for s in out] == \
            [exact_items(jordan_wigner(f)) for f in operators]
        assert [len(s) for s in out[1:5]] == [0, 1, 0, 0]
        assert out[2].terms == {(0, 0): 0.7 - 0.1j}
        assert jordan_wigner_each([]) == []
        assert jordan_wigner_each([FermionOperator(3)]) == [PauliSum(3)]

    def test_operators_on_different_orbital_counts_are_refused(self):
        with pytest.raises(ValueError, match="spin-orbital counts"):
            jordan_wigner_each([FermionOperator(4), FermionOperator(6)])

    def test_31_spin_orbitals_is_the_key_limit(self):
        f = FermionOperator(31, [
            LadderProduct([(30, True), (29, True), (1, False), (0, False)],
                          0.3 - 0.2j),
            LadderProduct([(30, True), (30, False)], 1.5)])
        assert exact_items(jordan_wigner(f)) == \
            exact_items(jordan_wigner_sequential(f))
        with pytest.raises(ResourceLimitError, match="32 spin orbitals"):
            jordan_wigner(FermionOperator(32, [LadderProduct([(31, True)])]))
        with pytest.raises(ResourceLimitError):
            jordan_wigner_each([FermionOperator(32)])

    def test_h6_transform_peaks_below_fci(self):
        ham = load_fcidump(DATA / "h6" / "h6_r1.000.fcidump")
        fermion_h = to_fermion_hamiltonian(ham)[0]
        assert traced_peak(jordan_wigner, fermion_h) < \
            traced_peak(solve_fci, QubitProblem(ham))


class TestCanonicalAnticommutation:
    def test_single_mode(self):
        assert verify_car(1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_up_to_six_modes(self, n):
        assert verify_car(n)

    def test_corrupted_transform_fails(self, monkeypatch):
        # creation factors transformed as annihilation factors
        original = fermion.jordan_wigner

        def no_creators(f):
            return original(FermionOperator(f.n_spin_orbitals, [
                LadderProduct([(p, False) for p, _ in prod.factors],
                              prod.coefficient) for prod in f.products]))

        monkeypatch.setattr(fermion, "jordan_wigner", no_creators)
        assert not verify_car(4)

    def test_cap(self):
        with pytest.raises(ValueError):
            verify_car(9)
