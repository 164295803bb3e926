"""Exact symbolic algebra for tensor products of Pauli operators.

Terms are stored symplectically: qubit ``q`` carries an X factor when bit
``q`` of ``x_mask`` is set and a Z factor when bit ``q`` of ``z_mask`` is
set; both bits set mean Y. A stored term always reads ``coefficient *
(tensor product of I/X/Y/Z)``: whoever builds a sum folds the ``i`` in
``Y = i X Z`` into the coefficient, as `fermion.jordan_wigner` does.

`PauliSum.restrict` compiles a sum once into what `statevector` and `fci`
read on a block of basis states: its nonzero block entries ``(rows, cols,
values)`` and, for an anti-Hermitian sum of +-1 entries, ``rotations``.

Qubit 0 is the least significant bit of basis-state indices throughout.
"""
from __future__ import annotations

from collections import namedtuple

import numpy as np

PRUNE_THRESHOLD = 1e-12
HERMITIAN_TOL = 1e-12
LEAK_TOL = 1e-12
MATRIX_QUBIT_CAP = 12

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class DimensionMismatchError(ValueError):
    """Operands act on different qubit counts."""


class ResourceLimitError(RuntimeError):
    """Requested dense object exceeds the configured size cap."""


def _check_same_qubits(a, b):
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatchError(
            f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}")


def _format_coeff(c: complex) -> str:
    re = f"{c.real:.12g}"
    im = f"{c.imag:+.12g}"
    return f"({re}{im}i)"


def _pauli_string(n_qubits: int, x_mask: int, z_mask: int) -> str:
    """The string's non-identity factors, as in ``"X0 Z1 Y3"``, or
    ``"I"``."""
    parts = []
    for q in range(n_qubits):
        letter = "IXZY"[((x_mask >> q) & 1) + 2 * ((z_mask >> q) & 1)]
        if letter != "I":
            parts.append(f"{letter}{q}")
    return " ".join(parts) or "I"


class PauliSum:
    """Linear combination of Pauli strings with merged, pruned coefficients.

    Immutable by convention, with no arithmetic of its own: sums are built
    whole, by `fermion.jordan_wigner`. A sum returned by `restrict` also
    carries its ``basis``, whether it is ``hermitian``, its compiled
    ``action`` there and, if anti-Hermitian with couplings of +-1, its
    ``rotations`` (else None). Terms with ``|coefficient| <
    PRUNE_THRESHOLD`` are dropped when the sum is made.
    """

    __slots__ = ("n_qubits", "terms", "basis", "hermitian", "rotations",
                 "_action")

    def __init__(self, n_qubits: int, terms=None):
        self.n_qubits = n_qubits
        self.basis = self.hermitian = self.rotations = self._action = None
        self.terms: dict[tuple[int, int], complex] = {}
        if terms:
            for (x, z), c in dict(terms).items():
                if (x | z) >> n_qubits:  # also true for a negative mask
                    raise ValueError(
                        f"mask out of range for {n_qubits} qubits: "
                        f"x={x:#x} z={z:#x}")
                if abs(c) >= PRUNE_THRESHOLD:
                    self.terms[(x, z)] = complex(c)

    def __len__(self):
        return len(self.terms)

    def sorted_terms(self) -> list[tuple[int, int, complex]]:
        """``(x_mask, z_mask, coefficient)`` per term, in canonical order:
        lexicographic by ``(z_mask, x_mask)``."""
        return sorted(((x, z, c) for (x, z), c in self.terms.items()),
                      key=lambda t: (t[1], t[0]))

    def restrict(self, basis: np.ndarray) -> "PauliSum":
        """This sum on the ascending basis states ``basis``, with its real
        ``action`` there compiled once and kept. Raises ValueError unless
        the sum is Hermitian or anti-Hermitian, real on ``basis`` and maps
        it into itself; an entry leaving it may be at most ``LEAK_TOL``.

        An anti-Hermitian sum whose entries are all +-1, as every pool
        operator's are, also keeps ``rotations``: ``(rows[run], cols[run],
        values[run])`` per X-mask group ``G``, ascending, where ``run`` is
        the group's contiguous entries. ``exp(theta G)`` maps
        ``psi[rows[run]]`` to ``cos(theta) psi[rows[run]] + sin(theta) *
        values[run] * psi[cols[run]]`` and leaves the other entries. Any
        other sum keeps ``rotations = None``.
        """
        hermitian = self.is_hermitian()
        if not (hermitian or self.is_anti_hermitian()):
            raise ValueError("only a Hermitian or anti-Hermitian sum can be "
                             "restricted")
        out = PauliSum(self.n_qubits)
        out.terms, out.basis, out.hermitian = self.terms, basis, hermitian
        targets, diagonal = _basis_action(self, basis)
        off = targets < 0
        leak = np.abs(diagonal[off]).max(initial=0.0)
        if leak > LEAK_TOL:
            raise ValueError(f"the sum leaves the block: max dropped "
                             f"entry = {leak:.3e}")
        diagonal[off] = 0.0
        if diagonal.imag.any():
            raise ValueError(f"the sum is not real on the block: max "
                             f"|Im| = {np.abs(diagonal.imag).max():.3e}")
        group, cols = np.nonzero(diagonal.real)
        rows, values = targets[group, cols], diagonal.real[group, cols]
        for a in (rows, cols, values):
            a.flags.writeable = False
        out._action = rows, cols, values
        if not hermitian and (np.abs(values) == 1.0).all():
            starts = np.flatnonzero(np.diff(group, prepend=-1))
            out.rotations = tuple(zip(*(np.split(a, starts)[1:]
                                        for a in (rows, cols, values))))
        return out

    @property
    def action(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, values)``: the nonzero entries of the real block
        matrix over ``basis``, ``<basis[rows[e]]| op |basis[cols[e]]> =
        values[e]``, so ``op |psi>[rows[e]] += values[e] * psi[cols[e]]``.
        Entries run by X mask ``basis[rows] ^ basis[cols]``, ascending, then
        by ``cols``; each ``(row, col)`` pair occurs once. Kept by
        `restrict`; an unrestricted sum raises ValueError. Read only.
        """
        if self._action is None:
            raise ValueError("the sum has no basis: restrict it first")
        _basis_action.hits += 1
        return self._action

    def non_identity_term_count(self) -> int:
        return len(self.terms) - (1 if (0, 0) in self.terms else 0)

    def __eq__(self, other):
        if not isinstance(other, PauliSum) or self.n_qubits != other.n_qubits:
            return False
        return self.terms == other.terms

    def is_hermitian(self) -> bool:
        return all(abs(c.imag) <= HERMITIAN_TOL for c in self.terms.values())

    def is_anti_hermitian(self) -> bool:
        return all(abs(c.real) <= HERMITIAN_TOL for c in self.terms.values())

    def terms_mutually_commute(self) -> bool:
        keys = list(self.terms)
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                xa, za = keys[i]
                xb, zb = keys[j]
                if ((xa & zb).bit_count() + (za & xb).bit_count()) % 2:
                    return False
        return True

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"{_format_coeff(c)} {_pauli_string(self.n_qubits, x, z)}"
            for x, z, c in self.sorted_terms())

    def __repr__(self):
        return f"PauliSum({self.n_qubits}, {len(self.terms)} terms)"


def commutator_term_counts(h: PauliSum, ops) -> list[int]:
    """The non-identity term count of ``[h, op] = h op - op h``, as a
    pruned sum, for each op in turn, without building the sums.

    Two Pauli strings either commute or anticommute, so only the
    anticommuting term pairs contribute, each ``2.0 * (ca * cb * phase)``.
    Writing each string as ``i**popcount(x & z) * X^x Z^z`` and commuting
    the inner ``Z^za X^xb`` pair gives ``phase = i**k`` with the exponent
    ``k`` below, on the string with the XOR of the pair's masks. Each op's
    pairs are formed as
    numpy arrays and summed per string in product order (``h``'s terms
    outer, ``op``'s inner); a string whose sum cancels there, exactly or
    below ``PRUNE_THRESHOLD``, is not counted. Keys are ``(x << n) | z``
    in int64, which limits ``n`` to 31 qubits.
    """
    n = h.n_qubits
    if n > 31:
        raise ResourceLimitError(f"{n} qubits exceeds the int64 key limit")
    hx, hz, hy, hr, hi = _term_arrays(h)
    counts = []
    for op in ops:
        _check_same_qubits(h, op)
        ox, oz, oy, o_r, oi = _term_arrays(op)
        zx = np.bitwise_count(hz[:, None] & ox)
        i, j = np.nonzero((np.bitwise_count(hx[:, None] & oz) + zx) & 1)
        x = hx[i] ^ ox[j]
        z = hz[i] ^ oz[j]
        k = (hy[i] + oy[j] - np.bitwise_count(x & z) + 2 * zx[i, j]) % 4
        # ca * cb as Python's complex product, in separate roundings (a
        # numpy complex product may fuse them); then the exact factor
        # 2 * i**k.
        pr = hr[i] * o_r[j] - hi[i] * oi[j]
        pi = hr[i] * oi[j] + hi[i] * o_r[j]
        odd = (k & 1).astype(bool)
        two = np.where(k < 2, 2.0, -2.0)
        keys, inverse = np.unique((x << n) | z, return_inverse=True)
        sums = np.hypot(
            np.bincount(inverse, two * np.where(odd, -pi, pr), len(keys)),
            np.bincount(inverse, two * np.where(odd, pr, pi), len(keys)))
        counts.append(int(np.count_nonzero((sums >= PRUNE_THRESHOLD)
                                           & (keys != 0))))
    return counts


def _term_arrays(s: PauliSum):
    """x masks, z masks, Y counts and real and imaginary coefficient parts
    of ``s``, in term order."""
    keys = np.array(list(s.terms), dtype=np.int64).reshape(-1, 2)
    x, z = keys[:, 0], keys[:, 1]
    c = np.fromiter(s.terms.values(), complex, len(s.terms))
    return x, z, np.bitwise_count(x & z).astype(np.int64), c.real, c.imag


CacheInfo = namedtuple("CacheInfo", "hits misses")


def _basis_action(s: PauliSum,
                  basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(targets, diagonal)``: two ``(groups, len(basis))`` arrays, one
    row per distinct X mask ``x`` of ``s``, ascending, over the ascending
    basis states ``basis``. Row ``g`` maps ``basis[i]`` to ``diagonal[g,
    i] |basis[targets[g, i]]>``, and ``targets[g, i]`` is -1 where
    ``basis[i] ^ x`` is not in ``basis``.

    Each complex diagonal sums ``coefficient * string_phases`` over its
    group's strings in `PauliSum.sorted_terms` order. Counts actions built
    here (``misses``) and kept actions read through `PauliSum.action`
    (``hits``) since import; ``cache_info()`` reads them.
    """
    position = np.full(1 << s.n_qubits, -1, dtype=np.int64)
    position[basis] = np.arange(len(basis))
    masks = sorted({x for x, _ in s.terms})
    row = {x: g for g, x in enumerate(masks)}
    diagonal = np.zeros((len(masks), len(basis)), dtype=complex)
    for x, z, c in s.sorted_terms():
        diagonal[row[x]] += c * string_phases(basis, x, z)
    _basis_action.misses += 1
    return position[basis ^ np.array(masks, np.int64)[:, None]], diagonal


_basis_action.hits = _basis_action.misses = 0
_basis_action.cache_info = lambda: CacheInfo(_basis_action.hits,
                                             _basis_action.misses)


def string_phases(basis: np.ndarray, x_mask: int, z_mask: int) -> np.ndarray:
    """Phases of the unit-coefficient string on the given basis states.

    ``P |b> = phases[i] |b ^ x_mask>`` for ``b = basis[i]``, using
    ``P = i**popcount(x & z) * X^x Z^z`` and
    ``X^x Z^z |b> = (-1)**popcount(b & z) |b ^ x>``.
    """
    parity = np.bitwise_count(basis & z_mask) & 1
    phases = np.where(parity, -1.0 + 0j, 1.0 + 0j)
    return phases * (1j) ** ((x_mask & z_mask).bit_count() % 4)


def to_matrix(s: PauliSum) -> np.ndarray:
    """Dense ``2^n x 2^n`` matrix of the sum.

    Raises ResourceLimitError above MATRIX_QUBIT_CAP (12) qubits.
    """
    if s.n_qubits > MATRIX_QUBIT_CAP:
        raise ResourceLimitError(
            f"{s.n_qubits} qubits exceeds dense-matrix cap {MATRIX_QUBIT_CAP}")
    dim = 1 << s.n_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim, dtype=np.int64)
    targets, diagonal = _basis_action(s, cols)
    mat[targets, cols] += diagonal  # every (target, column) pair distinct
    return mat
