"""Reference implementations the package itself does not run.

Each is an oracle for something the package computes another way:

- `product` and `add`, whole-sum Pauli arithmetic (``a b`` one term pair
  at a time, and ``a + b``), and `jordan_wigner_sequential`, the
  Jordan-Wigner transform built on them one ladder factor at a time, for
  the closed form of `fermion.jordan_wigner`; all three sum each string's
  contributions in order, prune the sum once and keep each string at the
  place of its first entry;
- `commutator`, the symbolic ``[a, b]`` one term pair at a time, for
  `pauli.commutator_term_counts` (the ledger's counts) and for screening;
- `number_operator` and `sz_operator`, the JW images of N and S_z, for
  the (N, S_z) block that `PauliSum.restrict` keeps;
- `infidelity`, ``1 - |<b|a>|`` against one reference state, for
  `fci.infidelity_vs_fci` on a one-vector ground space;
- `group_action`, `apply_by_groups` and `exponential_by_groups`, the
  per-X-mask-group loops the package ran before it compiled a restricted
  sum into its nonzero block entries and scalar rotations, for
  `statevector.apply_operator`, `expectation` and the pool exponentials
  of `apply_pool_operators`; `exponential_by_groups` takes any ``|d|``,
  where the package takes couplings of +-1 only;
- `ansatz_energy`, the energy of a prepared state as a function of the
  angles, and `finite_difference_gradient`, its central differences one
  prepared state per point: the reference of the adjoint sweep
  `ansatz.energy_gradient`, with its arguments, so that it can stand in
  for it;
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
from vqebench.ansatz import prepare_state
from vqebench.fcidump import MolecularHamiltonian
from vqebench.fermion import FermionOperator
from vqebench.optimize import central_difference_gradient
from vqebench.pauli import DimensionMismatchError, PauliSum
from vqebench.statevector import expectation

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / \
    "make_reference_data.py"


def product(a: PauliSum, b: PauliSum) -> PauliSum:
    """The operator product ``a b`` as a pruned sum.

    Each term pair gives one string with the XOR of the input masks and
    coefficient ``ca * cb * phase``. Writing each string as
    ``i**popcount(x & z) * X^x Z^z`` and commuting the inner ``Z^za X^xb``
    pair gives ``phase = i**k`` with the exponent ``k`` below. Pairs are
    accumulated in product order (``a``'s terms outer, ``b``'s inner); the
    result keeps that first-seen key order and is pruned once.
    """
    pauli._check_same_qubits(a, b)
    acc: dict[tuple[int, int], complex] = {}
    for (xa, za), ca in a.terms.items():
        for (xb, zb), cb in b.terms.items():
            x, z = xa ^ xb, za ^ zb
            k = ((xa & za).bit_count() + (xb & zb).bit_count()
                 - (x & z).bit_count() + 2 * (za & xb).bit_count()) % 4
            acc[(x, z)] = acc.get((x, z), 0.0) + ca * cb * (1, 1j, -1, -1j)[k]
    return PauliSum(a.n_qubits, acc)


def add(a: PauliSum, b: PauliSum) -> PauliSum:
    """``a + b``: ``b``'s terms added into ``a``'s, in order, pruned once."""
    pauli._check_same_qubits(a, b)
    acc = dict(a.terms)
    for key, c in b.terms.items():
        acc[key] = acc.get(key, 0.0) + c
    return PauliSum(a.n_qubits, acc)


def jordan_wigner_sequential(f: FermionOperator) -> PauliSum:
    """Jordan-Wigner transform one ladder factor at a time.

    Each product starts from its coefficient times the identity and is
    multiplied by ``Z_{<p} (X_p -/+ i Y_p) / 2`` for each factor in turn
    with `product`; its image is then added into one dict, in product
    order, like `add`: the sum is pruned once, when the `PauliSum` is made,
    and each string keeps the place of its first entry.
    """
    n = f.n_spin_orbitals
    terms: dict[tuple[int, int], complex] = {}
    for prod in f.products:
        image = PauliSum(n, {(0, 0): prod.coefficient})
        for p, dagger in prod.factors:
            chain = (1 << p) - 1
            image = product(image, PauliSum(n, {
                (1 << p, chain): 0.5,
                (1 << p, chain | (1 << p)): complex(0.0, -0.5 if dagger
                                                    else 0.5)}))
        for key, c in image.terms.items():
            terms[key] = terms.get(key, 0.0) + c
    return PauliSum(n, terms)


def commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    """``a b - b a`` as a pruned sum.

    Two Pauli strings either commute or anticommute, so each term pair
    contributes either nothing or twice its product, ``2.0 * (ca * cb *
    phase)``, with the phase of `product`. Pairs are summed per string in
    product order (``a``'s terms outer, ``b``'s inner), and the result is
    pruned once.
    """
    pauli._check_same_qubits(a, b)
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


def ansatz_energy(ansatz, reference, h_p):
    """``theta -> <psi| h_p |psi>`` with ``psi = prepare_state(ansatz,
    theta, reference)``, a state prepared per call."""
    return lambda theta: expectation(prepare_state(ansatz, theta, reference),
                                     h_p)


def finite_difference_gradient(ansatz, thetas, reference, h_p, h=1e-5):
    """The gradient `ansatz.energy_gradient` computes, by central
    differences of `ansatz_energy` at step ``h``, point by point."""
    return central_difference_gradient(ansatz_energy(ansatz, reference, h_p),
                                       thetas, h)


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
