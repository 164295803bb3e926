"""Second-quantized fermionic operators and their Jordan-Wigner qubit image.

Spin orbital ``p`` maps to qubit ``p``; qubit value 1 means occupied.
Spin orbitals are interleaved: spatial orbital ``m`` gives spin orbitals
``2m`` (alpha) and ``2m + 1`` (beta).

`jordan_wigner_each` transforms any number of operators in one array pass
over all their ladder products, with the bits and term order of adding
each product's image into a dict in turn and pruning the sum once;
`jordan_wigner` is its one-operator form. Both take at most 31 spin
orbitals. The pass takes its memory blocks (`pauli.block_cuts`) and its
sum-then-prune kernel (`pauli.pruned_sums`) from `pauli`, as
`pauli.restrict_each` does.
"""
from __future__ import annotations

from itertools import chain, pairwise

import numpy as np

from .pauli import (
    PauliSum,
    ResourceLimitError,
    block_cuts,
    pruned_sums,
    to_matrix,
)

_PHASES = (1, 1j, -1, -1j)  # i**k, as Python multiplies by them


class LadderProduct:
    """Ordered product of ladder operators with a complex coefficient.

    ``factors`` is a list of ``(spin_orbital, dagger)`` pairs applied
    right-to-left on kets, stored left-to-right as written. Factor order
    is preserved exactly as given.
    """

    __slots__ = ("factors", "coefficient")

    def __init__(self, factors, coefficient=1.0):
        self.factors = tuple((int(p), bool(d)) for p, d in factors)
        self.coefficient = complex(coefficient)

    def dagger(self) -> "LadderProduct":
        """Hermitian conjugate: reversed factors, flipped daggers."""
        rev = [(p, not d) for p, d in reversed(self.factors)]
        return LadderProduct(rev, self.coefficient.conjugate())

    def is_pure_excitation(self) -> bool:
        """True when every daggered factor precedes every undaggered one."""
        seen_annihilator = False
        for _, d in self.factors:
            if not d:
                seen_annihilator = True
            elif seen_annihilator:
                return False
        return True

    def __repr__(self):
        ops = " ".join(f"a{p}^" if d else f"a{p}" for p, d in self.factors)
        return f"({self.coefficient}) {ops or '1'}"


class FermionOperator:
    """Linear combination of ladder products over a fixed orbital count."""

    __slots__ = ("n_spin_orbitals", "products")

    def __init__(self, n_spin_orbitals: int, products=()):
        self.n_spin_orbitals = n_spin_orbitals
        self.products = list(products)
        for prod in self.products:
            for p, _ in prod.factors:
                if not 0 <= p < n_spin_orbitals:
                    raise ValueError(
                        f"spin orbital {p} out of range "
                        f"[0, {n_spin_orbitals})")

    def dagger(self) -> "FermionOperator":
        return FermionOperator(self.n_spin_orbitals,
                               [p.dagger() for p in self.products])

    def __repr__(self):
        return (f"FermionOperator({self.n_spin_orbitals} orbitals, "
                f"{len(self.products)} products)")


def anti_hermitian_pair(t: FermionOperator) -> FermionOperator:
    """``t - t^dagger`` for a pure excitation operator."""
    for prod in t.products:
        if not prod.is_pure_excitation():
            raise ValueError(
                "anti_hermitian_pair requires creation factors before "
                f"annihilation factors, got {prod!r}")
    return FermionOperator(t.n_spin_orbitals, t.products + [
        LadderProduct(p.factors, -p.coefficient)
        for p in t.dagger().products])


def jordan_wigner(f: FermionOperator) -> PauliSum:
    """Jordan-Wigner transform of a fermion operator to a Pauli sum:
    ``jordan_wigner_each([f])[0]``, whose docstring gives the map, the
    accumulation order and the 31-orbital limit."""
    return jordan_wigner_each([f])[0]


def jordan_wigner_each(operators) -> list[PauliSum]:
    """The Jordan-Wigner transform of each fermion operator, in one array
    pass over all their ladder products.

    ``a_p^dagger -> Z_{<p} (X_p - i Y_p) / 2`` and ``a_p -> Z_{<p} (X_p +
    i Y_p) / 2``, so a product of k ladder operators is at most ``2**k``
    strings. Each is one path of X/Y choices, path ``t`` choosing Y for
    factor ``j`` when bit ``k-1-j`` of ``t`` is set (the first factor's
    choice is the most significant), carried as ``i**e X^x Z^z``: factor
    ``(p, dagger)`` with choice ``y`` multiplies by ``Z_{<p} X_p Z_p^y``,
    whose ``Z^z X_p`` commutation adds 2 to ``e`` when bit p of ``z`` is
    set, and whose Y term adds the phase of ``-/+ i Y_p = +/- X_p Z_p``.
    A path is worth ``coefficient * 0.5**k * i**(e - popcount(x & z))``
    on its string, since ``Y = i X Z``; both products are Python's complex
    products, each part rounded on its own.

    A product's paths are summed per string in path order from 0.0, and
    pruned below `pauli.PRUNE_THRESHOLD`; each string enters at its first
    path.
    Each operator's products are then added into one dict, in order, from
    0.0, and the sum is pruned once at the end: a string keeps the place
    of its first entry, and a running sum that dips below the threshold
    partway through is kept. `PauliSum.restrict` sorts the terms, so that
    order reaches the golden scan bytes only through the coefficient bits
    it produces. A product's strings all carry its X mask, so products are
    taken in blocks of whole X-mask groups of about `pauli.BLOCK_CELLS`
    path-factor cells: memory follows the block, not the operator. A block
    holds at least one whole group, so the largest group bounds the peak:
    H6's diagonal group (X mask 0) holds 16992 cells, about twice
    BLOCK_CELLS.

    Keys are ``(x << n) | z`` in int64, so more than 31 spin orbitals
    raise ResourceLimitError; operators on different spin-orbital counts
    raise ValueError.
    """
    operators = list(operators)
    if not operators:
        return []
    n = operators[0].n_spin_orbitals
    if any(f.n_spin_orbitals != n for f in operators):
        raise ValueError("operators act on different spin-orbital counts")
    if n > 31:
        raise ResourceLimitError(
            f"{n} spin orbitals exceeds the int64 key limit of 31")
    products = [prod for f in operators for prod in f.products]
    if not products:
        return [PauliSum(n) for _ in operators]
    factors = [prod.factors for prod in products]
    k = np.fromiter(map(len, factors), np.int64, len(factors))
    orbital, dagger = np.fromiter(
        chain.from_iterable(chain.from_iterable(factors)), np.int64,
        2 * int(k.sum())).reshape(-1, 2).T
    end = np.cumsum(k)
    flips = np.zeros(len(orbital) + 1, np.int64)
    np.bitwise_xor.accumulate(1 << orbital, out=flips[1:])
    x = flips[end] ^ flips[end - k]
    coefficient = np.array([prod.coefficient for prod in products], complex)
    operator = np.repeat(np.arange(len(operators)),
                         [len(f.products) for f in operators])
    # an image entry's place in the merge: product << k_bits | first path
    k_bits = int(k.max())

    # The products by X mask, in blocks of whole groups (`pauli.block_cuts`)
    # of about BLOCK_CELLS path-factor cells, k << k per k-factor product:
    # the size of its (products, 2**k, k) temporaries.
    by_x = np.argsort(x, kind="stable")
    x_sorted, cells = x[by_x], k[by_x] << k[by_x]
    group = np.ones(len(x), bool)
    group[1:] = x_sorted[1:] != x_sorted[:-1]
    starts = np.flatnonzero(group)
    edges = np.append(starts, len(x)).tolist()
    first, found = end - k, []
    for g0, g1 in block_cuts((np.cumsum(cells) - cells)[starts]):
        rows = by_x[edges[g0]:edges[g1]]
        row, t, key, value = map(np.concatenate, zip(*(
            _block_images(n, kk, rows[k[rows] == kk], first, orbital, dagger,
                          x, coefficient)
            # not np.unique, whose plain form imports numpy.ma on first use
            for kk in np.flatnonzero(np.bincount(k[rows])).tolist())))
        found.append(_merge(operator[row], (row << k_bits) | t, key, value))
    enter, key, total = map(np.concatenate, zip(*found))
    order = np.argsort(enter, kind="stable")
    bounds = np.searchsorted(operator[enter[order] >> k_bits],
                             np.arange(len(operators) + 1))
    mask = (1 << n) - 1
    terms = [((s >> n, s & mask), v) for s, v in zip(
        key[order].tolist(), total[order].tolist())]
    return [PauliSum(n, terms[a:b]) for a, b in pairwise(bounds.tolist())]


def _block_images(n, kk, rows, first, orbital, dagger, x, coefficient):
    """The images of the ``kk``-factor products ``rows``: ``(row, t, key,
    value)`` per string of each, ``t`` being the string's first path."""
    n_paths = 1 << kk
    # coefficient * 0.5**k, then times each i**e, as Python's complex
    # products, each part rounded on its own (numpy's may fuse them)
    c, h, phase = coefficient[rows, None], 0.5 ** kk, np.array(_PHASES)
    sr, si = c.real * h - c.imag * 0.0, c.real * 0.0 + c.imag * h
    weight = np.empty((len(rows), 4), complex)
    weight.real = sr * phase.real - si * phase.imag
    weight.imag = sr * phase.imag + si * phase.real
    # choice[t, j]: 1 where path t takes factor j's Y term
    choice = (np.arange(n_paths)[:, None] >> np.arange(kk - 1, -1, -1)) & 1
    at = first[rows, None] + np.arange(kk)
    p = orbital[at][:, None, :]
    # each factor's z mask, of Z_{<p} Z_p^y, and bit p of the z before it
    # plus its Y phase: half its step of e
    zf = ((1 << p) - 1) ^ (choice << p)
    half_e = np.bitwise_xor.accumulate(zf, axis=2)
    half_e ^= zf
    half_e >>= p
    half_e &= 1
    half_e += (1 - dagger[at][:, None, :]) * choice
    e = 2 * half_e.sum(axis=2)
    z = np.bitwise_xor.reduce(zf, axis=2)
    e -= np.bitwise_count(x[rows, None] & z)
    # a product's equal strings, adjacent and in path order
    order = np.argsort(z, axis=1, kind="stable")
    order += np.arange(0, z.size, n_paths)[:, None]
    order = order.ravel()
    z = z.ravel()[order]
    new = np.ones(len(z), bool)
    new[1:] = z[1:] != z[:-1]
    new[::n_paths] = True
    string = np.cumsum(new) - 1
    w = weight.ravel()[4 * (order >> kk) + (e.ravel()[order] & 3)]
    value, kept = pruned_sums(string, w.real, w.imag, string[-1] + 1)
    head = order[new][kept]
    row = rows[head >> kk]
    return (row, head & (n_paths - 1), (x[row] << n) | z[new][kept],
            value[kept])


def _merge(op, seq, key, value):
    """Add the image entries ``(seq, key, value)``, of operators ``op``,
    into one dict per operator in ``seq`` order from 0.0, and prune each
    sum once: ``(enter, key, total)`` of each surviving string, ``enter``
    being the ``seq`` of its first entry."""
    # by key, then seq; op grows with seq, so each operator's string is a run
    order = np.argsort(seq, kind="stable")
    order = order[np.argsort(key[order], kind="stable")]
    key, op = key[order], op[order]
    new = np.ones(len(key), bool)
    new[1:] = (key[1:] != key[:-1]) | (op[1:] != op[:-1])
    total, kept = pruned_sums(np.cumsum(new) - 1, value.real[order],
                              value.imag[order], np.count_nonzero(new))
    return seq[order][new][kept], key[new][kept], total[kept]


def verify_car(n: int) -> bool:
    """True iff the `jordan_wigner` images of single ladder operators
    satisfy {a_p, a_q^dag} = delta_pq and {a_p, a_q} = 0.

    Checked densely via Pauli matrices, so n is capped at 8.
    """
    if n > 8:
        raise ValueError("verify_car is a dense self-test, capped at n <= 8")
    eye = np.eye(1 << n)

    def image(p, dagger):
        return to_matrix(jordan_wigner(
            FermionOperator(n, [LadderProduct([(p, dagger)])])))

    creates = [image(p, True) for p in range(n)]
    destroys = [image(p, False) for p in range(n)]
    for p in range(n):
        for q in range(n):
            anti = destroys[p] @ creates[q] + creates[q] @ destroys[p]
            expected = eye if p == q else 0.0 * eye
            if not np.allclose(anti, expected, atol=1e-12):
                return False
            anti2 = destroys[p] @ destroys[q] + destroys[q] @ destroys[p]
            if not np.allclose(anti2, 0.0, atol=1e-12):
                return False
    return True
