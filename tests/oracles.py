"""Reference implementations the package itself does not run.

Each is an oracle for something the package computes another way:

- `commutator`, the symbolic ``[a, b]`` one term pair at a time, for
  `pauli.commutator_term_counts` (the ledger's counts) and for screening;
- `number_operator` and `sz_operator`, the JW images of N and S_z, for
  the (N, S_z) block that `PauliSum.restrict` keeps;
- `infidelity`, ``1 - |<b|a>|`` against one reference state, for
  `fci.infidelity_vs_fci` on a one-vector ground space;
- `group_action`, `apply_by_groups` and `exponential_by_groups`, the
  per-X-mask-group loops the package ran before it compiled a restricted
  sum into stacked ``(targets, values)`` rows and scalar rotations, for
  `statevector.apply_operator`, `expectation` and `apply_pool_operator`;
- `format_fcidump` and `mean_field_energy`, from the standalone
  ``scripts/make_reference_data.py`` that wrote the committed FCIDUMPs,
  for `fcidump.parse_fcidump` and the Hartree-Fock reference expectation.
"""
from __future__ import annotations

import importlib.util
from functools import cache
from pathlib import Path

import numpy as np

from vqebench import pauli
from vqebench.fcidump import MolecularHamiltonian
from vqebench.pauli import DimensionMismatchError, PauliSum

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / \
    "make_reference_data.py"


def commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    """``a b - b a`` as a pruned sum.

    Two Pauli strings either commute or anticommute, so each term pair
    contributes either nothing or twice its product, ``2.0 * (ca * cb *
    phase)``, with the phase of `PauliSum.__mul__`. Pairs are summed per
    string in product order (``a``'s terms outer, ``b``'s inner), and the
    result is pruned once.
    """
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatchError(
            f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}")
    acc: dict[tuple[int, int], complex] = {}
    for (xa, za), ca in a.terms.items():
        for (xb, zb), cb in b.terms.items():
            zx = (za & xb).bit_count()
            if ((xa & zb).bit_count() + zx) % 2 == 0:
                continue
            x, z = xa ^ xb, za ^ zb
            k = ((xa & za).bit_count() + (xb & zb).bit_count()
                 - (x & z).bit_count() + 2 * zx) % 4
            acc[(x, z)] = acc.get((x, z), 0.0) + 2.0 * (
                ca * cb * (1, 1j, -1, -1j)[k])
    return PauliSum(a.n_qubits, acc)


def number_operator(n_spin_orbitals: int) -> PauliSum:
    """JW image of the total number operator, ``sum_p (I - Z_p) / 2``."""
    terms = {(0, 0): 0.5 * n_spin_orbitals}
    for p in range(n_spin_orbitals):
        terms[(0, 1 << p)] = -0.5
    return PauliSum(n_spin_orbitals, terms)


def sz_operator(n_spin_orbitals: int) -> PauliSum:
    """JW image of S_z under interleaved ordering: (n_alpha - n_beta) / 2."""
    terms: dict[tuple[int, int], complex] = {}
    for p in range(n_spin_orbitals):
        sign = 1.0 if p % 2 == 0 else -1.0
        terms[(0, 1 << p)] = terms.get((0, 1 << p), 0.0) - 0.25 * sign
        terms[(0, 0)] = terms.get((0, 0), 0.0) + 0.25 * sign
    return PauliSum(n_spin_orbitals, terms)


def infidelity(state: np.ndarray, reference: np.ndarray) -> float:
    """``1 - |<reference|state>|`` of the normalised states, without its
    cancellation.

    Computed as ``||a - e^{i phi} b||^2 / 2`` for normalised ``a`` (state)
    and ``b`` (reference), where ``phi`` is the phase of ``<b|a>``; so it
    is never negative and insensitive to global phase.
    """
    if state.ndim != 1 or state.shape != reference.shape:
        raise DimensionMismatchError(
            f"state shape {state.shape} against reference shape "
            f"{reference.shape}")
    a = state / np.linalg.norm(state)
    b = reference / np.linalg.norm(reference)
    overlap = np.vdot(b, a)
    phase = overlap / abs(overlap) if overlap != 0 else 1.0
    return float(np.linalg.norm(a - phase * b) ** 2) / 2


def group_action(op: PauliSum, basis=None) -> list:
    """``(targets, diagonal)`` per distinct X mask of ``op``, ascending,
    over the ascending basis states ``basis`` (default ``op.basis``): the
    group maps ``basis[i]`` to ``diagonal[i] |basis[targets[i]]>``, and an
    entry leaving ``basis`` maps to itself with diagonal 0. ``op`` must be
    real on ``basis``."""
    basis = op.basis if basis is None else basis
    targets, diagonal = pauli._basis_action(op, basis)
    off = targets < 0
    if diagonal.imag[~off].any():
        raise ValueError("the sum is not real on the basis")
    return list(zip(np.where(off, np.arange(len(basis)), targets),
                    np.where(off, 0.0, diagonal.real)))


def apply_by_groups(state: np.ndarray, groups) -> np.ndarray:
    """``op |state>`` from `group_action` pairs, one group at a time."""
    out = np.zeros(len(state))
    for targets, diagonal in groups:
        out += (diagonal * state)[targets]
    return out


def exponential_by_groups(state: np.ndarray, groups,
                          theta: float) -> np.ndarray:
    """``exp(theta * tau) |state>`` from `group_action` pairs of an
    anti-Hermitian tau, each group's closed form ``cos(theta |d|) +
    sin(theta |d|) / |d| G`` evaluated over whole arrays."""
    for targets, diagonal in groups:
        norm = np.abs(diagonal)
        angle = theta * norm
        scale = np.divide(np.sin(angle), norm, out=np.zeros_like(norm),
                          where=norm > 0)
        state = np.cos(angle) * state + scale * (diagonal * state)[targets]
    return state


@cache
def reference_script():
    """``scripts/make_reference_data.py`` as a module, loaded once."""
    spec = importlib.util.spec_from_file_location("make_reference_data",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def format_fcidump(m: MolecularHamiltonian) -> str:
    """The FCIDUMP text the script writes for these integrals."""
    return reference_script().format_fcidump(m.h1, m.h2, m.core_energy,
                                             m.n_electrons)


def mean_field_energy(m: MolecularHamiltonian) -> float:
    """The script's closed-shell mean-field energy: the lowest
    ``n_electrons / 2`` spatial orbitals doubly occupied."""
    return reference_script().active_space_hf_energy(
        m.h1, m.h2, m.core_energy, m.n_electrons)
