"""Second-quantized fermionic operators and their Jordan-Wigner qubit image.

Spin orbital ``p`` maps to qubit ``p``; qubit value 1 means occupied.
Spin orbitals are interleaved: spatial orbital ``m`` gives spin orbitals
``2m`` (alpha) and ``2m + 1`` (beta).
"""
from __future__ import annotations

import numpy as np

from .pauli import PRUNE_THRESHOLD, PauliSum, to_matrix

_PHASES = (1, 1j, -1, -1j)  # i**k


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
    """Jordan-Wigner transform of a fermion operator to a Pauli sum.

    ``a_p^dagger -> Z_{<p} (X_p - i Y_p) / 2`` and ``a_p -> Z_{<p} (X_p +
    i Y_p) / 2``, so a product of k ladder operators is at most ``2**k``
    strings. Each is one path of X/Y choices, the first factor's the
    outermost, carried as ``i**e X^x Z^z``: factor ``(p, dagger)`` with
    choice ``y`` (1 for Y) multiplies by ``Z_{<p} X_p Z_p^y``, whose
    ``Z^z X_p`` commutation adds 2 to ``e`` when bit p of ``z`` is set, and
    whose Y term adds the phase of ``-/+ i Y_p = +/- X_p Z_p``. A path is
    worth ``coefficient * 0.5**k * i**(e - popcount(x & z))`` on its
    string, since ``Y = i X Z``.

    A product's paths are summed per string in path order and pruned below
    PRUNE_THRESHOLD; the products are then added into one dict, in order,
    and pruned on every merge: a key whose running sum drops below the
    threshold is deleted, and re-enters at the end if a later product
    brings it back. `PauliSum.restrict` sorts the terms, so that order
    reaches the golden scan bytes only through the coefficient bits it
    produces.
    """
    n = f.n_spin_orbitals
    terms: dict[tuple[int, int], complex] = {}
    for prod in f.products:
        paths = [(0, 0, 0)]
        for p, dagger in prod.factors:
            bit, y_phase = 1 << p, 0 if dagger else 2
            paths = [(x ^ bit, z ^ (bit - 1) ^ (y << p),
                      e + 2 * ((z >> p) & 1) + y * y_phase)
                     for x, z, e in paths for y in (0, 1)]
        scale = prod.coefficient * 0.5 ** len(prod.factors)
        weights = [scale * phase for phase in _PHASES]
        image: dict[tuple[int, int], complex] = {}
        for x, z, e in paths:
            key = (x, z)
            image[key] = image.get(key, 0.0) + weights[
                (e - (x & z).bit_count()) % 4]
        for key, c in image.items():
            if abs(c) < PRUNE_THRESHOLD:
                continue
            c = terms.get(key, 0.0) + c
            if abs(c) >= PRUNE_THRESHOLD:
                terms[key] = c
            else:
                terms.pop(key, None)
    return PauliSum(n, terms)


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
