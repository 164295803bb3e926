"""Exact symbolic algebra for tensor products of Pauli operators.

Terms are stored symplectically: qubit ``q`` carries an X factor when bit
``q`` of ``x_mask`` is set and a Z factor when bit ``q`` of ``z_mask`` is
set; both bits set mean Y. A stored term always reads ``coefficient *
(tensor product of I/X/Y/Z)``: whoever builds a sum folds the ``i`` in
``Y = i X Z`` into the coefficient, as `fermion.jordan_wigner` does.

`PauliSum.restrict` compiles a sum once into what `statevector` and `fci`
read on a block of basis states: its nonzero block entries ``(rows, cols,
values)`` and, for an anti-Hermitian sum of +-1 entries, ``rotations``.
`restrict_each` compiles any number of sums on one basis in one array pass
(`_basis_action`): a +-1 sign table of string phases, each X-mask group
summed per state by `np.bincount` in `PauliSum.sorted_terms` order, in
blocks of whole groups of about BLOCK_CELLS string-state cells; `restrict`
is its one-sum case, and `ansatz.build_uccsd_pool` compiles its whole pool
in one call.

Every array pass over Pauli strings, here and in
`fermion.jordan_wigner_each`, makes three decisions in one place each:
its terms as arrays (`_term_table`), its memory blocks of whole X-mask
groups (`block_cuts`, sized by BLOCK_CELLS) and its sums per string,
pruned below PRUNE_THRESHOLD (`pruned_sums`).

Qubit 0 is the least significant bit of basis-state indices throughout.
"""
from __future__ import annotations

from collections import namedtuple
from itertools import chain, pairwise

import numpy as np

PRUNE_THRESHOLD = 1e-12
HERMITIAN_TOL = 1e-12
LEAK_TOL = 1e-12
MATRIX_QUBIT_CAP = 12
# Cells per memory block of the array passes (`block_cuts`): string-state
# cells in `_basis_action`, path-factor cells in `fermion.jordan_wigner_each`.
BLOCK_CELLS = 1 << 13

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
        ``action`` there compiled once and kept: ``restrict_each([self],
        basis)[0]``. Raises ValueError unless the sum is Hermitian or
        anti-Hermitian, real on ``basis`` and maps it into itself; an entry
        leaving it may be at most ``LEAK_TOL``.

        An anti-Hermitian sum whose entries are all +-1, as every pool
        operator's are, also keeps ``rotations``: ``(rows[run], cols[run],
        values[run])`` per X-mask group ``G``, ascending, where ``run`` is
        the group's contiguous entries. ``exp(theta G)`` maps
        ``psi[rows[run]]`` to ``cos(theta) psi[rows[run]] + sin(theta) *
        values[run] * psi[cols[run]]`` and leaves the other entries. Any
        other sum keeps ``rotations = None``.
        """
        return restrict_each([self], basis)[0]

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
        return bool(terms_mutually_commute_each([self])[0])

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
    pairs are formed as numpy arrays from one `_term_table` of ``h`` and
    the ops, and summed per string in product order (``h``'s terms outer,
    ``op``'s inner, each in table order) by `pruned_sums`; a string whose
    sum cancels there, exactly or below ``PRUNE_THRESHOLD``, is not
    counted. Keys are ``(x << n) | z`` in int64, which limits ``n`` to 31
    qubits.
    """
    n = h.n_qubits
    if n > 31:
        raise ResourceLimitError(f"{n} qubits exceeds the int64 key limit")
    ops = list(ops)
    for op in ops:
        _check_same_qubits(h, op)
    owner, x, z, c = _term_table([h, *ops])
    # x masks, z masks, Y counts and coefficient parts, sliced by owner
    columns = x, z, np.bitwise_count(x & z).astype(np.int64), c.real, c.imag
    bounds = np.searchsorted(owner, np.arange(len(ops) + 2)).tolist()
    hx, hz, hy, hr, hi = (col[:bounds[1]] for col in columns)
    counts = []
    for a, b in pairwise(bounds[1:]):
        ox, oz, oy, o_r, oi = (col[a:b] for col in columns)
        zx = np.bitwise_count(hz[:, None] & ox)
        i, j = np.nonzero((np.bitwise_count(hx[:, None] & oz) + zx) & 1)
        px = hx[i] ^ ox[j]
        pz = hz[i] ^ oz[j]
        k = (hy[i] + oy[j] - np.bitwise_count(px & pz) + 2 * zx[i, j]) % 4
        # ca * cb as Python's complex product, in separate roundings (a
        # numpy complex product may fuse them); then the exact factor
        # 2 * i**k.
        pr = hr[i] * o_r[j] - hi[i] * oi[j]
        pi = hr[i] * oi[j] + hi[i] * o_r[j]
        odd = (k & 1).astype(bool)
        two = np.where(k < 2, 2.0, -2.0)
        keys, inverse = np.unique((px << n) | pz, return_inverse=True)
        _, kept = pruned_sums(inverse, two * np.where(odd, -pi, pr),
                              two * np.where(odd, pr, pi), len(keys))
        counts.append(int(np.count_nonzero(kept & (keys != 0))))
    return counts


def pruned_sums(runs: np.ndarray, real: np.ndarray, imag: np.ndarray,
                n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each run's complex sum of ``real + i imag`` over the run indices
    ``runs`` (``0 .. n-1``), added in order from 0.0 by `np.bincount`, and
    whether it is kept: ``|sum| >= PRUNE_THRESHOLD``."""
    total = np.empty(n, complex)
    total.real = np.bincount(runs, real, n)
    total.imag = np.bincount(runs, imag, n)
    return total, np.hypot(total.real, total.imag) >= PRUNE_THRESHOLD


def block_cuts(offsets: np.ndarray):
    """``(g0, g1)`` bounds of blocks of whole groups, in order, where
    ``offsets`` (ascending, from 0) counts the cells before each group: a
    block holds the groups whose first cell falls in one window of
    BLOCK_CELLS cells. A group is never split, so a block holds at least
    one whole group, and the largest group, not BLOCK_CELLS, bounds the
    peak when it is larger than the window."""
    cuts = np.flatnonzero(np.diff(offsets // BLOCK_CELLS)) + 1
    return pairwise([0, *cuts.tolist(), len(offsets)])


CacheInfo = namedtuple("CacheInfo", "hits misses")


def restrict_each(sums, basis: np.ndarray) -> list[PauliSum]:
    """`PauliSum.restrict` of each sum on the ascending basis states
    ``basis``, all compiled in one array pass (`_basis_action`). Raises the
    ValueError of the first sum that `restrict` rejects, and
    DimensionMismatchError for sums on different qubit counts."""
    out = _compile_each(sums, basis)
    for r in out:
        if isinstance(r, ValueError):
            raise r
    return out


def _compile_each(sums, basis: np.ndarray) -> list:
    """`restrict_each` without the raise: per sum, in order, the restricted
    sum or the ValueError that `restrict` raises for it.

    A sum is checked for hermiticity, then for an entry leaving the block
    by more than LEAK_TOL, then for an imaginary entry on it. The nonzero
    entries of all sums form one read-only ``(rows, cols, values)`` triple;
    each sum's ``action`` is its slice of it, and its ``rotations`` are
    slices of that, one per X-mask group with entries.
    """
    sums = list(sums)
    if not sums:
        return []
    for s in sums[1:]:
        _check_same_qubits(sums[0], s)
    table = _term_table(sums)
    owner, _, _, c = table
    n_sums = len(sums)
    hermitian = _none(owner, ~(np.abs(c.imag) <= HERMITIAN_TOL), n_sums)
    anti = _none(owner, ~(np.abs(c.real) <= HERMITIAN_TOL), n_sums)
    group_owner, count, not_unit, leak, worst_imag, rows, cols, values = (
        list(a) for a in zip(*map(_block_entries,
                                  _basis_action(sums, basis, table))))
    group_owner, count, not_unit, leak, worst_imag = map(
        np.concatenate, (group_owner, count, not_unit, leak, worst_imag))
    rows, cols, values = map(np.concatenate, (rows, cols, values))
    for a in (rows, cols, values):
        a.flags.writeable = False
    sum_leak, sum_imag = np.zeros(n_sums), np.zeros(n_sums)
    np.maximum.at(sum_leak, group_owner, leak)
    np.maximum.at(sum_imag, group_owner, worst_imag)
    unit = _none(group_owner, not_unit, n_sums)
    # entry bounds of each group, and each sum's first and last group
    edges = np.concatenate(([0], np.cumsum(count))).tolist()
    first = np.searchsorted(group_owner, np.arange(n_sums + 1)).tolist()
    out = []
    for k, (s, g0, g1) in enumerate(zip(sums, first, first[1:])):
        if not (hermitian[k] or anti[k]):
            out.append(ValueError("only a Hermitian or anti-Hermitian sum "
                                  "can be restricted"))
        elif sum_leak[k] > LEAK_TOL:
            out.append(ValueError(f"the sum leaves the block: max dropped "
                                  f"entry = {sum_leak[k]:.3e}"))
        elif sum_imag[k] != 0.0:
            out.append(ValueError(f"the sum is not real on the block: max "
                                  f"|Im| = {sum_imag[k]:.3e}"))
        else:
            r = PauliSum(s.n_qubits)
            r.terms, r.basis, r.hermitian = s.terms, basis, bool(hermitian[k])
            a, b = edges[g0], edges[g1]
            r._action = rows[a:b], cols[a:b], values[a:b]
            if not r.hermitian and unit[k]:
                r.rotations = tuple(
                    (rows[i:j], cols[i:j], values[i:j])
                    for i, j in pairwise(edges[g0:g1 + 1]) if i < j)
            out.append(r)
    return out


def _block_entries(block) -> tuple:
    """Of one `_basis_action` block: each group's owner, entry count,
    count of entries other than +-1, largest dropped entry and largest
    |Im| on the basis, then the block's nonzero entries ``(rows, cols,
    values)`` with the dropped ones zeroed."""
    owner, targets, real, imag = block
    off = targets < 0
    dropped = np.abs(real) if imag is None else np.hypot(real, imag)
    leak = dropped.max(axis=1, initial=0.0, where=off)
    worst_imag = (np.zeros(len(owner)) if imag is None else
                  np.abs(imag).max(axis=1, initial=0.0, where=~off))
    real[off] = 0.0
    at = np.flatnonzero(real)
    group, cols = np.divmod(at, real.shape[1])
    values = real.ravel()[at]
    return (owner, np.bincount(group, minlength=len(owner)),
            np.bincount(group, np.abs(values) != 1.0, len(owner)), leak,
            worst_imag, targets.ravel()[at], cols, values)


def terms_mutually_commute_each(sums) -> np.ndarray:
    """Whether each sum's strings mutually commute, as a bool array, from
    one array pass over every pair of strings within a sum: two strings
    commute when ``popcount(xa & zb) + popcount(za & xb)`` is even. The
    pairs take memory in the sum of the squared sizes."""
    sums = list(sums)
    owner, x, z, _ = _term_table(sums)
    size = np.bincount(owner, minlength=len(sums))
    later = np.cumsum(size)[owner] - np.arange(len(x)) - 1  # same sum
    i = np.repeat(np.arange(len(x)), later)
    # the strings after i, from i + 1 up to the last of its sum
    j = np.arange(1, len(i) + 1)
    j -= np.repeat(np.cumsum(later) - later - np.arange(len(x)), later)
    odd = np.bitwise_count(x[i] & z[j])
    odd += np.bitwise_count(z[i] & x[j])
    return _none(owner[i], odd & 1, len(sums))


def _none(owner: np.ndarray, flags: np.ndarray, n: int) -> np.ndarray:
    """Per owner ``0 .. n-1``: true where none of its ``flags`` is set."""
    return np.bincount(owner, flags, n) == 0


def _term_table(sums) -> tuple:
    """Owner (index into ``sums``), x mask, z mask and coefficient of each
    term of ``sums``, sum by sum, each sum's terms by ``(x_mask, z_mask)``:
    its X-mask groups ascending, each group's strings in
    `PauliSum.sorted_terms` order."""
    keys = [sorted(s.terms) for s in sums]
    sizes = [len(k) for k in keys]
    count = sum(sizes)
    x, z = np.fromiter(chain.from_iterable(chain.from_iterable(keys)),
                       np.int64, 2 * count).reshape(-1, 2).T
    c = np.fromiter(chain.from_iterable(
        map(s.terms.__getitem__, k) for s, k in zip(sums, keys)), complex,
        count)
    return np.repeat(np.arange(len(sums)), sizes), x, z, c


def _basis_action(sums, basis: np.ndarray, table: tuple):
    """The action of each of ``sums`` on the ascending basis states
    ``basis``, per X-mask group, in blocks of whole groups built lazily;
    ``table`` is `_term_table(sums)`.

    Returns an iterator of ``(owner, targets, real, imag)``, one per block:
    ``owner`` holds each group's index into ``sums``, and ``targets``,
    ``real`` and ``imag`` are ``(groups, len(basis))`` arrays; ``imag`` is
    None where every string of the block has a real weight. Group ``g``
    maps ``basis[i]`` to ``(real + i imag)[g, i] |basis[targets[g, i]]>``;
    ``targets[g, i]`` is -1 where ``basis[i] ^ x`` is not in ``basis``.
    Groups run sum by sum, each sum's by ascending X mask.

    A string ``c X^x Z^z i**popcount(x & z)`` maps ``|b>`` to
    ``(-1)**popcount(b & z) c i**popcount(x & z) |b ^ x>``, and each part of
    ``c i**popcount(x & z)`` is a part of ``c`` up to sign. A +-1 sign
    table over strings and states multiplies those parts, and `np.bincount`
    sums each group's strings per state in `PauliSum.sorted_terms` order
    from 0.0: for finite coefficients, the bits of adding ``c * phase``
    string by string in complex arithmetic. Blocks are cut by `block_cuts`
    at ``len(basis)`` string-state cells per string, so memory follows the
    block, not the sums; a block holds at least one whole group, so the
    largest group bounds the peak.

    Counts the sums compiled here (``misses``) and the kept actions read
    through `PauliSum.action` (``hits``) since import; ``cache_info()``
    reads them.
    """
    owner, x, z, c = table
    _basis_action.misses += len(sums)
    n_states = len(basis)
    k = np.bitwise_count(x & z) & 3
    a = np.choose(k, (c.real, -c.imag, -c.real, c.imag))
    b = np.choose(k, (c.imag, c.real, -c.imag, -c.real))
    new = np.ones(len(x), bool)
    new[1:] = (owner[1:] != owner[:-1]) | (x[1:] != x[:-1])
    group = np.cumsum(new) - 1
    starts = np.flatnonzero(new)
    edges = np.append(starts, len(x)).tolist()
    position = np.full(1 << sums[0].n_qubits, -1, dtype=np.int64)
    position[basis] = np.arange(n_states)
    states = np.arange(n_states)

    def block(bounds):
        g0, g1 = bounds
        t0, t1 = edges[g0], edges[g1]
        shape = (g1 - g0, n_states)
        odd = np.bitwise_count(z[t0:t1, None] & basis) & 1
        cell = (((group[t0:t1] - g0) * n_states)[:, None] + states).ravel()
        return (owner[starts[g0:g1]],
                position[basis ^ x[starts[g0:g1], None]],
                _group_sums(odd, cell, a[t0:t1], shape),
                _group_sums(odd, cell, b[t0:t1], shape)
                if b[t0:t1].any() else None)

    # each block's locals are gone before the next block is built
    return map(block, block_cuts(starts * n_states))


def _group_sums(odd: np.ndarray, cell: np.ndarray, part: np.ndarray,
                shape: tuple) -> np.ndarray:
    """Per group and state of a block: the ``part`` of each of its strings
    times the sign table, -1 where ``odd``, summed by `np.bincount` over
    the flat ``cell`` indices, string by string from 0.0."""
    weight = odd * -2.0
    weight += 1.0
    weight *= part[:, None]
    # float64 also for a block without groups, where bincount gives int64
    return np.bincount(cell, weight.ravel(), shape[0] * shape[1]).astype(
        float, copy=False).reshape(shape)


_basis_action.hits = _basis_action.misses = 0
_basis_action.cache_info = lambda: CacheInfo(_basis_action.hits,
                                             _basis_action.misses)


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
    for _, targets, real, imag in _basis_action([s], cols,
                                                _term_table([s])):
        # every (target, column) pair distinct, each written once
        mat.real[targets, cols] = real
        if imag is not None:
            mat.imag[targets, cols] = imag
    return mat
