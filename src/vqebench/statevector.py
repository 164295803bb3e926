"""Dense complex states with exact pool-operator exponentials.

A state is a 1-D complex ndarray of ``2**n`` amplitudes; every function
here checks its length against the operator's qubit count and raises
`DimensionMismatchError` on a mismatch. Basis index bit ``q`` is the
value of qubit ``q`` (qubit 0 least significant); qubit value 1 means the
corresponding spin orbital is occupied.
"""
from __future__ import annotations

import numpy as np

from .pauli import DimensionMismatchError, PauliSum


def _check_size(amps: np.ndarray, n_qubits: int):
    if amps.shape != (1 << n_qubits,):
        raise DimensionMismatchError(
            f"expected {1 << n_qubits} amplitudes for {n_qubits} qubits, "
            f"got shape {amps.shape}")


def hartree_fock_reference(n_qubits: int, n_electrons: int) -> np.ndarray:
    """Computational basis state occupying qubits 0..n_electrons-1.

    Under interleaved spin-orbital ordering this doubly occupies the
    lowest spatial orbitals.
    """
    if n_electrons > n_qubits:
        raise ValueError(
            f"{n_electrons} electrons do not fit in {n_qubits} qubits")
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[(1 << n_electrons) - 1] = 1.0
    return amps


def apply_pool_operator(state: np.ndarray, tau: PauliSum,
                        theta: float) -> np.ndarray:
    """``exp(theta * tau) |state>`` for an anti-Hermitian tau.

    Applied as the product of the exact exponentials of its X-mask groups,
    in ascending X-mask order. A group ``G`` couples only ``b`` and
    ``b ^ x``, as an anti-Hermitian 2x2 block with ``G^2 = -|d|^2`` for its
    diagonal ``d``, so ``exp(theta G) = cos(theta |d|) + sin(theta |d|) /
    |d| G`` (the closed form of Yordanov et al., arXiv:2005.14475). The
    product is exact when the groups commute, which every pool element
    guarantees (its strings commute, checked at pool construction).
    """
    _check_size(state, tau.n_qubits)
    if not tau.is_anti_hermitian():
        raise ValueError("pool operator must be anti-Hermitian")
    for targets, diagonal in tau.action:
        norm = np.abs(diagonal)
        angle = theta * norm
        scale = np.divide(np.sin(angle), norm, out=np.zeros_like(norm),
                          where=norm > 0)
        state = np.cos(angle) * state + scale * (diagonal * state)[targets]
    return state


def apply_operator(state: np.ndarray, op: PauliSum) -> np.ndarray:
    """Amplitudes of ``op |state>`` (not normalized) for any sum ``op``."""
    _check_size(state, op.n_qubits)
    out = np.zeros_like(state, dtype=complex)
    for targets, diagonal in op.action:
        out += (diagonal * state)[targets]
    return out


def expectation(state: np.ndarray, observable: PauliSum) -> float:
    """``<state| observable |state>`` for a Hermitian observable.

    Computed as ``<state| (observable |state>)``, never materializing a
    matrix; the imaginary residue is asserted below 1e-10.
    """
    if not observable.is_hermitian():
        raise ValueError("expectation requires a Hermitian observable")
    total = complex(np.vdot(state, apply_operator(state, observable)))
    if abs(total.imag) > 1e-10:
        raise AssertionError(
            f"Hermitian expectation came out complex: {total}")
    return float(total.real)


def infidelity(state: np.ndarray, reference: np.ndarray) -> float:
    """``1 - |<reference|state>|`` of the normalised states, without its
    cancellation.

    Computed as ``||a - e^{i phi} b||^2 / 2`` for normalised ``a`` (state)
    and ``b`` (reference), where ``phi`` is the phase of ``<b|a>``; so it
    is never negative and insensitive to global phase.
    """
    n_qubits = len(state).bit_length() - 1
    _check_size(state, n_qubits)
    _check_size(reference, n_qubits)
    a = state / np.linalg.norm(state)
    b = reference / np.linalg.norm(reference)
    overlap = np.vdot(b, a)
    phase = overlap / abs(overlap) if overlap != 0 else 1.0
    return float(np.linalg.norm(a - phase * b) ** 2) / 2
