"""Real states in the (N, S_z) block of the reference, with exact
pool-operator exponentials.

A state is a 1-D float64 ndarray over the ascending basis states of a
block, `sector_indices`, and an operator acts on it through the kernels
`PauliSum.restrict` compiled over the same states: ``op |psi>`` is one
`np.bincount` over the nonzero block entries ``(rows, cols, values)`` of
`PauliSum.action`, and a pool exponential is a few scalar rotations cut
from them (``rotations``). The same rotations also turn the rows of a
``(m, dim)`` stack at once, each at its own angle (`rotate_rows`). A
length mismatch raises `DimensionMismatchError`.
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


def apply_pool_operator(state: np.ndarray, tau: PauliSum,
                        theta: float) -> np.ndarray:
    """``exp(theta * tau) |state>`` for a restricted anti-Hermitian tau.

    Applied as the product of the exact exponentials of its X-mask groups,
    in ascending X-mask order. A group ``G`` couples only ``b`` and
    ``b ^ x``, as a real antisymmetric 2x2 block with ``G^2 = -d^2`` for its
    diagonal ``d``, so ``exp(theta G) = cos(theta |d|) + sin(theta |d|) /
    |d| G`` (the closed form of Yordanov et al., arXiv:2005.14475): one
    scalar rotation per distinct ``|d|``, kept in ``tau.rotations``. The
    product is exact when the groups commute, which every pool element
    guarantees (its strings commute, checked at pool construction).
    """
    _checked_action(state, tau)
    if tau.hermitian:
        raise ValueError("pool operator must be anti-Hermitian")
    return _rotate(state.copy(), tau.rotations, float(theta))


def rotate_rows(stack: np.ndarray, tau: PauliSum, angles,
                pick: np.ndarray) -> None:
    """Replace row ``i`` of the ``(m, dim)`` stack, in place, by
    ``exp(angles[pick[i]] * tau) |row>``.

    Each row gets the bits `apply_pool_operator` gives it at its angle:
    the rotations are the same, with cos and sin taken once per distinct
    angle and broadcast over the rows that share it.
    """
    _checked_action(stack[0], tau)
    if tau.hermitian:
        raise ValueError("pool operator must be anti-Hermitian")
    _rotate(stack.T, tau.rotations, angles, pick)


def _rotate(states: np.ndarray, rotations, theta, pick=None) -> np.ndarray:
    """Apply ``rotations`` to ``states`` in place and return it: a 1-D
    state at the float angle ``theta``, or each column ``j`` of a ``(dim,
    m)`` array at ``theta[pick[j]]``."""
    for active, partners, coupling, w in rotations:
        if pick is None:
            angle = theta * w
            c, s = math.cos(angle), math.sin(angle)
        else:
            c = np.array([math.cos(t * w) for t in theta])[pick]
            s = np.array([math.sin(t * w) for t in theta])[pick]
            coupling = coupling[:, None]
        states[active] = (c * states[active]
                          + s / w * (coupling * states[partners]))
    return states


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
