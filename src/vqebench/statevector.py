"""Dense complex statevector with exact pool-operator exponentials.

Basis index bit ``q`` is the value of qubit ``q`` (qubit 0 least
significant); qubit value 1 means the corresponding spin orbital is
occupied.
"""
from __future__ import annotations

import numpy as np

from .pauli import DimensionMismatchError, PauliSum


class StateVector:
    """Normalized amplitude vector over the 2^n computational basis."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes=None):
        self.n_qubits = n_qubits
        dim = 1 << n_qubits
        if amplitudes is None:
            amps = np.zeros(dim, dtype=complex)
            amps[0] = 1.0
        else:
            amps = np.asarray(amplitudes, dtype=complex)
            if amps.shape != (dim,):
                raise ValueError(f"expected {dim} amplitudes, "
                                 f"got shape {amps.shape}")
        self.amplitudes = amps

    @classmethod
    def basis_state(cls, n_qubits: int, index: int) -> "StateVector":
        state = cls(n_qubits)
        state.amplitudes[0] = 0.0
        state.amplitudes[index] = 1.0
        return state

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def inner(self, other: "StateVector") -> complex:
        if self.n_qubits != other.n_qubits:
            raise DimensionMismatchError("statevector sizes differ")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def __repr__(self):
        return f"StateVector({self.n_qubits} qubits)"


def hartree_fock_reference(n_qubits: int, n_electrons: int) -> StateVector:
    """Computational basis state occupying qubits 0..n_electrons-1.

    Under interleaved spin-orbital ordering this doubly occupies the
    lowest spatial orbitals.
    """
    if n_electrons > n_qubits:
        raise ValueError(
            f"{n_electrons} electrons do not fit in {n_qubits} qubits")
    return StateVector.basis_state(n_qubits, (1 << n_electrons) - 1)


def apply_pool_operator(state: StateVector, tau: PauliSum,
                        theta: float) -> StateVector:
    """``exp(theta * tau) |state>`` for an anti-Hermitian tau.

    Applied as the product of the exact exponentials of its X-mask groups,
    in ascending X-mask order. A group ``G`` couples only ``b`` and
    ``b ^ x``, as an anti-Hermitian 2x2 block with ``G^2 = -|d|^2`` for its
    diagonal ``d``, so ``exp(theta G) = cos(theta |d|) + sin(theta |d|) /
    |d| G`` (the closed form of Yordanov et al., arXiv:2005.14475). The
    product is exact when the groups commute, which every pool element
    guarantees (its strings commute, checked at pool construction).
    """
    if state.n_qubits != tau.n_qubits:
        raise DimensionMismatchError("operator and state sizes differ")
    if not tau.is_anti_hermitian():
        raise ValueError("pool operator must be anti-Hermitian")
    amps = state.amplitudes
    for targets, diagonal in tau.action:
        norm = np.abs(diagonal)
        angle = theta * norm
        scale = np.divide(np.sin(angle), norm, out=np.zeros_like(norm),
                          where=norm > 0)
        amps = np.cos(angle) * amps + scale * (diagonal * amps)[targets]
    return StateVector(state.n_qubits, amps)


def apply_operator(state: StateVector, op: PauliSum) -> np.ndarray:
    """Amplitudes of ``op |state>`` (not normalized) for any sum ``op``."""
    if state.n_qubits != op.n_qubits:
        raise DimensionMismatchError("operator and state sizes differ")
    amps = state.amplitudes
    out = np.zeros_like(amps)
    for targets, diagonal in op.action:
        out += (diagonal * amps)[targets]
    return out


def expectation(state: StateVector, observable: PauliSum) -> float:
    """``<state| observable |state>`` for a Hermitian observable.

    Computed as ``<state| (observable |state>)``, never materializing a
    matrix; the imaginary residue is asserted below 1e-10.
    """
    if not observable.is_hermitian():
        raise ValueError("expectation requires a Hermitian observable")
    total = complex(np.vdot(state.amplitudes,
                            apply_operator(state, observable)))
    if abs(total.imag) > 1e-10:
        raise AssertionError(
            f"Hermitian expectation came out complex: {total}")
    return float(total.real)


def infidelity(state: StateVector, reference: StateVector) -> float:
    """``1 - |<reference|state>|`` of the normalised states, without its
    cancellation.

    Computed as ``||a - e^{i phi} b||^2 / 2`` for normalised ``a`` (state)
    and ``b`` (reference), where ``phi`` is the phase of ``<b|a>``; so it
    is never negative and insensitive to global phase.
    """
    if state.n_qubits != reference.n_qubits:
        raise DimensionMismatchError("statevector sizes differ")
    a = state.amplitudes / state.norm()
    b = reference.amplitudes / reference.norm()
    overlap = np.vdot(b, a)
    phase = overlap / abs(overlap) if overlap != 0 else 1.0
    return float(np.linalg.norm(a - phase * b) ** 2) / 2
