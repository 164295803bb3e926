"""Real states in the (N, S_z) block of the reference, with exact
pool-operator exponentials.

A state is a 1-D float64 ndarray over the ascending basis states of a
block, `sector_indices`, and an operator acts on it through the kernels
`PauliSum.restrict` compiled over the same states: ``op |psi>`` is one
`np.bincount` over the nonzero block entries ``(rows, cols, values)`` of
`PauliSum.action`. A sequence of pool exponentials is compiled once
into a `RotationProgram`: one scalar rotation per X-mask group, cut from
the operators' ``rotations`` (couplings of +-1), which turns one float64
copy of the state in place, group after group, in four numpy calls
each. A length mismatch raises
`DimensionMismatchError`.
Basis index bit ``q`` is the value of qubit ``q`` (qubit 0 least
significant); qubit value 1 means the spin orbital is occupied. The full
``2**n`` space is a test oracle (`embed`).
"""
from __future__ import annotations

import math

import numpy as np

from .pauli import DimensionMismatchError, PauliSum


def _checked_action(amps: np.ndarray, op: PauliSum) -> tuple:
    action = op.action  # ValueError for an unrestricted sum
    if amps.shape != op.basis.shape:
        raise DimensionMismatchError(
            f"expected {len(op.basis)} amplitudes for the operator's basis, "
            f"got shape {amps.shape}")
    return action


def sector_indices(n_qubits: int, n_electrons: int) -> np.ndarray:
    """Ascending basis states of the reference's (N, S_z) block.

    The Hartree-Fock reference puts ``(n_electrons + 1) // 2`` electrons
    on the even (alpha) qubits and ``n_electrons // 2`` on the odd (beta)
    ones; the Hamiltonian and the pool conserve both counts.
    """
    basis = np.arange(1 << n_qubits, dtype=np.int64)
    alpha = sum(1 << q for q in range(0, n_qubits, 2))
    keep = ((np.bitwise_count(basis & alpha) == (n_electrons + 1) // 2)
            & (np.bitwise_count(basis & ~alpha) == n_electrons // 2))
    return basis[keep]


def hartree_fock_reference(n_qubits: int, n_electrons: int) -> np.ndarray:
    """Unit vector over `sector_indices(n_qubits, n_electrons)` of the
    determinant occupying qubits 0..n_electrons-1: under interleaved
    spin-orbital ordering, the lowest spatial orbitals doubly occupied."""
    if n_electrons > n_qubits:
        raise ValueError(
            f"{n_electrons} electrons do not fit in {n_qubits} qubits")
    indices = sector_indices(n_qubits, n_electrons)
    amps = np.zeros(len(indices))
    amps[np.searchsorted(indices, (1 << n_electrons) - 1)] = 1.0
    return amps


def embed(state: np.ndarray, basis: np.ndarray, n_qubits: int) -> np.ndarray:
    """The state's ``2**n_qubits`` complex amplitudes, zero off ``basis``."""
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[basis] = state
    return amps


class RotationProgram:
    """The pool exponentials of an operator sequence, compiled once into
    one flat rotation program.

    Each exponential is the product of the exact exponentials of its
    X-mask groups, ascending, which commute (the pool checks that its
    strings do). A group ``G`` couples ``b`` and ``b ^ x`` with couplings
    of +-1, so ``G^2 = -1`` on the states it moves and ``exp(theta G) =
    cos(theta) + sin(theta) G`` there (Yordanov et al., arXiv:2005.14475):
    one rotation per group, cut from ``tau.rotations``.

    Every operator is checked once, here: it must be restricted
    (ValueError), have rotations (ValueError) and share the first
    operator's ``basis`` (`DimensionMismatchError`). The program then
    holds, per group of the whole sequence, in order, a step ``(rows,
    gather, weighed, first, second)``: the group's rows, one gather index
    ``concat(rows, partners)``, the slice of the per-entry weights that
    belongs to it and the slices of its two halves. ``selector`` says which
    of ``(cos theta_k, sin theta_k, -sin theta_k)`` weighs each entry of
    every gather: the row's own amplitude takes the cosine, its partner's
    the sine times the coupling. Operator ``k``'s steps are
    ``steps[starts[k]:starts[k + 1]]``.
    """

    __slots__ = ("basis", "steps", "selector", "starts")

    def __init__(self, taus):
        taus = tuple(taus)
        self.basis = taus[0].basis if taus else None
        for tau in taus:
            if tau.rotations is None:
                tau.action  # ValueError for an unrestricted sum
                raise ValueError("pool operator must be anti-Hermitian, "
                                 "with couplings of +-1")
            if not (tau.basis is self.basis
                    or np.array_equal(tau.basis, self.basis)):
                raise DimensionMismatchError(
                    "pool operators restricted to different bases")
        self.steps, self.starts = [], [0]
        picks, at = [np.zeros(0, np.intp)], 0
        for k, tau in enumerate(taus):
            for rows, partners, couplings in tau.rotations:
                n = len(rows)
                self.steps.append((rows, np.concatenate((rows, partners)),
                                   slice(at, at + 2 * n), slice(None, n),
                                   slice(n, None)))
                picks += [np.full(n, 3 * k, np.intp),
                          np.where(couplings > 0, 3 * k + 1, 3 * k + 2)]
                at += 2 * n
            self.starts.append(len(self.steps))
        self.selector = np.concatenate(picks)

    def start(self, state) -> np.ndarray:
        """A new float64 copy of ``state``, the program's input: an integer
        state is converted, a complex one raises TypeError, and one that
        is not over the operators' basis raises `DimensionMismatchError`.
        """
        psi = np.asarray(state).astype(np.float64, casting="same_kind")
        if self.basis is not None and psi.shape != self.basis.shape:
            raise DimensionMismatchError(
                f"expected {len(self.basis)} amplitudes for the operator's "
                f"basis, got shape {psi.shape}")
        return psi

    def weights(self, thetas) -> np.ndarray:
        """The per-entry weights of the angles ``thetas``, one Python
        float per operator, unchecked: the cosines and sines of all angles
        make one table, expanded by one gather through ``selector``."""
        table = []
        for theta in thetas:
            c, s = math.cos(theta), math.sin(theta)
            table += (c, s, -s)
        return np.array(table)[self.selector]

    def rotate(self, psi: np.ndarray, weights: np.ndarray,
               operator=None) -> np.ndarray:
        """Turn ``psi`` in place by ``exp(theta_{n-1} tau_{n-1}) ...
        exp(theta_0 tau_0)``, first operator first, and return it; with
        ``operator = k``, by ``exp(theta_k tau_k)`` alone. The angles are
        those ``weights`` was made from, and ``psi`` is a float64 array
        from `start`, or its ``(dim, m)`` stack of ``m`` states turned
        alike.

        Each group takes four numpy calls: gather, multiply in place, add
        the two halves, scatter. So each entry becomes ``c * a + (+-s) *
        p``, which is the ``c * a + s * (+-p)`` of a rotation, bit for
        bit: negation is exact.
        """
        steps = (self.steps if operator is None else
                 self.steps[self.starts[operator]:self.starts[operator + 1]])
        if psi.ndim == 2:
            weights = weights[:, None]
        for rows, gather, weighed, first, second in steps:
            turned = psi[gather]
            turned *= weights[weighed]
            psi[rows] = turned[first] + turned[second]
        return psi


def apply_operator(state: np.ndarray, op: PauliSum) -> np.ndarray:
    """Amplitudes of ``op |state>`` (not normalized), ``op`` restricted."""
    rows, cols, values = _checked_action(state, op)
    # each row adds its terms in entry order, so by ascending X mask
    out = np.bincount(rows, values * state[cols], len(state))
    return out.astype(float, copy=False)  # int zeros when there are none


def expectation(state: np.ndarray, observable: PauliSum) -> float:
    """``<state| observable |state>`` for a restricted Hermitian observable,
    computed as ``<state| (observable |state>)`` without a matrix."""
    if observable.hermitian is False:  # None: unrestricted, raised below
        raise ValueError("expectation requires a Hermitian observable")
    return float(np.dot(state, apply_operator(state, observable)))
