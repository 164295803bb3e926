"""Second-quantized fermionic operators and their Jordan-Wigner qubit image.

Spin orbital ``p`` maps to qubit ``p``; qubit value 1 means occupied.
Spin orbitals are interleaved: spatial orbital ``m`` gives spin orbitals
``2m`` (alpha) and ``2m + 1`` (beta).
"""
from __future__ import annotations

import numpy as np

from .pauli import PRUNE_THRESHOLD, PauliSum, to_matrix


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

    def __add__(self, other: "FermionOperator") -> "FermionOperator":
        if self.n_spin_orbitals != other.n_spin_orbitals:
            raise ValueError("orbital counts differ")
        return FermionOperator(self.n_spin_orbitals,
                               self.products + other.products)

    def __sub__(self, other: "FermionOperator") -> "FermionOperator":
        negated = [LadderProduct(p.factors, -p.coefficient)
                   for p in other.products]
        if self.n_spin_orbitals != other.n_spin_orbitals:
            raise ValueError("orbital counts differ")
        return FermionOperator(self.n_spin_orbitals, self.products + negated)

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
    return t - t.dagger()


def _ladder_image(p: int, dagger: bool, n_qubits: int) -> PauliSum:
    """JW image of a single ladder operator.

    ``a_p^dagger -> Z_{<p} (X_p - i Y_p) / 2`` and the conjugate for
    ``a_p``.
    """
    z_chain = (1 << p) - 1
    return PauliSum(n_qubits, {
        (1 << p, z_chain): 0.5,
        (1 << p, z_chain | (1 << p)): complex(0.0, -0.5 if dagger else 0.5)})


def jordan_wigner(f: FermionOperator) -> PauliSum:
    """Jordan-Wigner transform of a fermion operator to a Pauli sum.

    Each product's image is added into one dict, in product order, and
    pruned on every merge as `PauliSum.__add__` would: a key whose running
    sum drops below PRUNE_THRESHOLD is deleted, and re-enters at the end
    if a later product brings it back. `PauliSum.restrict` sorts the terms,
    so that order reaches the golden scan bytes only through the
    coefficient bits it produces.
    """
    n = f.n_spin_orbitals
    terms: dict[tuple[int, int], complex] = {}
    for prod in f.products:
        acc = PauliSum.identity(n, prod.coefficient)
        for p, d in prod.factors:
            acc = acc * _ladder_image(p, d, n)
        for key, c in acc.terms.items():
            c = terms.get(key, 0.0) + c
            if abs(c) >= PRUNE_THRESHOLD:
                terms[key] = c
            else:
                terms.pop(key, None)
    return PauliSum(n, terms)


def verify_car(n: int) -> bool:
    """True iff the JW images satisfy {a_p, a_q^dag} = delta_pq, {a_p, a_q} = 0.

    Checked densely via Pauli matrices, so n is capped at 8.
    """
    if n > 8:
        raise ValueError("verify_car is a dense self-test, capped at n <= 8")
    eye = np.eye(1 << n)
    creates = [to_matrix(_ladder_image(p, True, n)) for p in range(n)]
    destroys = [to_matrix(_ladder_image(p, False, n)) for p in range(n)]
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
