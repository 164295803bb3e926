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
- `basis_action`, the per-string loop over `string_phases` that
  compiled a sum on a basis before `pauli._basis_action` did it for many
  sums in one array pass, and on it `restrict` (one sum's
  `PauliSum.restrict`, its checks and messages), `to_matrix` and
  `terms_mutually_commute` (the pair loop): the byte oracles of
  `pauli.restrict_each`, `pauli.to_matrix` and
  `pauli.terms_mutually_commute_each`, and `validate_pool_operators`,
  the checks `ansatz.build_uccsd_pool` made one operator at a time;
- `group_action`, `apply_by_groups` and `exponential_by_groups`, the
  per-X-mask-group loops the package ran before it compiled a restricted
  sum into its nonzero block entries and scalar rotations, for
  `statevector.apply_operator`, `expectation` and the pool exponentials
  of `statevector.RotationProgram`; `exponential_by_groups` takes any
  ``|d|``, where the package takes couplings of +-1 only;
- `apply_pool_operators`, the per-group rotation loop the package ran
  before it compiled each ansatz into one `RotationProgram`, checks on
  every call included, and on it `loop_prepared_state`,
  `loop_energy_gradient` (the adjoint sweep turning each state back on
  its own) and `loop_fit_energy` (the energy of a fit, one prepared
  state and one `expectation` per call): the byte oracles of
  `ansatz.prepare_state`, `ansatz.energy_gradient` and the energy that
  `adapt._fit` hands its optimizer;
- `minimize_nelder_mead`, the optimizer with its simplex and values
  kept as Python lists, for `optimize.minimize_nelder_mead`, which keeps
  them as arrays;
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
import math
from functools import cache
from pathlib import Path

import numpy as np

from vqebench import pauli, statevector
from vqebench.ansatz import prepare_state
from vqebench.fcidump import MolecularHamiltonian
from vqebench.fermion import FermionOperator
from vqebench.optimize import (
    DEFAULT_BUDGET,
    DEFAULT_TOL,
    NM_INITIAL_STEP,
    OptimizationResult,
    central_difference_gradient,
)
from vqebench.pauli import DimensionMismatchError, PauliSum
from vqebench.statevector import apply_operator, expectation

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


def string_phases(basis: np.ndarray, x_mask: int, z_mask: int) -> np.ndarray:
    """Phases of the unit-coefficient string on the given basis states.

    ``P |b> = phases[i] |b ^ x_mask>`` for ``b = basis[i]``, using
    ``P = i**popcount(x & z) * X^x Z^z`` and
    ``X^x Z^z |b> = (-1)**popcount(b & z) |b ^ x>``.
    """
    parity = np.bitwise_count(basis & z_mask) & 1
    phases = np.where(parity, -1.0 + 0j, 1.0 + 0j)
    return phases * (1j) ** ((x_mask & z_mask).bit_count() % 4)


def basis_action(s: PauliSum,
                 basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(targets, diagonal)``: two ``(groups, len(basis))`` arrays, one
    row per distinct X mask ``x`` of ``s``, ascending, over the ascending
    basis states ``basis``. Row ``g`` maps ``basis[i]`` to ``diagonal[g,
    i] |basis[targets[g, i]]>``, and ``targets[g, i]`` is -1 where
    ``basis[i] ^ x`` is not in ``basis``. Each complex diagonal sums
    ``coefficient * string_phases`` over its group's strings in
    `PauliSum.sorted_terms` order, one string at a time."""
    position = np.full(1 << s.n_qubits, -1, dtype=np.int64)
    position[basis] = np.arange(len(basis))
    masks = sorted({x for x, _ in s.terms})
    row = {x: g for g, x in enumerate(masks)}
    diagonal = np.zeros((len(masks), len(basis)), dtype=complex)
    for x, z, c in s.sorted_terms():
        diagonal[row[x]] += c * string_phases(basis, x, z)
    return position[basis ^ np.array(masks, np.int64)[:, None]], diagonal


def restrict(s: PauliSum, basis: np.ndarray):
    """``(rows, cols, values, rotations, hermitian)`` of ``s`` on
    ``basis`` as `PauliSum.restrict` compiled one sum at a time on
    `basis_action`, raising its ValueErrors with their texts."""
    hermitian = s.is_hermitian()
    if not (hermitian or s.is_anti_hermitian()):
        raise ValueError("only a Hermitian or anti-Hermitian sum can be "
                         "restricted")
    targets, diagonal = basis_action(s, basis)
    off = targets < 0
    leak = np.abs(diagonal[off]).max(initial=0.0)
    if leak > pauli.LEAK_TOL:
        raise ValueError(f"the sum leaves the block: max dropped "
                         f"entry = {leak:.3e}")
    diagonal[off] = 0.0
    if diagonal.imag.any():
        raise ValueError(f"the sum is not real on the block: max "
                         f"|Im| = {np.abs(diagonal.imag).max():.3e}")
    group, cols = np.nonzero(diagonal.real)
    rows, values = targets[group, cols], diagonal.real[group, cols]
    rotations = None
    if not hermitian and (np.abs(values) == 1.0).all():
        starts = np.flatnonzero(np.diff(group, prepend=-1))
        rotations = tuple(zip(*(np.split(a, starts)[1:]
                                for a in (rows, cols, values))))
    return rows, cols, values, rotations, hermitian


def to_matrix(s: PauliSum) -> np.ndarray:
    """`pauli.to_matrix` on `basis_action` over all ``2**n`` states."""
    dim = 1 << s.n_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim, dtype=np.int64)
    targets, diagonal = basis_action(s, cols)
    mat[targets, cols] += diagonal  # every (target, column) pair distinct
    return mat


def terms_mutually_commute(s: PauliSum) -> bool:
    """Whether the strings of ``s`` mutually commute, one pair at a time."""
    keys = list(s.terms)
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            xa, za = keys[i]
            xb, zb = keys[j]
            if ((xa & zb).bit_count() + (za & xb).bit_count()) % 2:
                return False
    return True


def validate_pool_operators(images, descriptions, basis) -> None:
    """Raise the ValueError that building a pool of ``images`` on ``basis``
    raised when each operator was checked on its own, in order: restricted
    (`restrict`), then with rotations, then with mutually commuting
    strings (`terms_mutually_commute`)."""
    for q, description in zip(images, descriptions):
        try:
            rotations = restrict(q, basis)[3]
        except ValueError as exc:
            raise ValueError(f"pool operator {description}: {exc}") from exc
        if rotations is None:
            raise ValueError(f"pool operator {description} not "
                             "anti-Hermitian with couplings of +-1")
        if not terms_mutually_commute(q):
            raise ValueError(
                f"pool operator {description} has non-commuting strings")


def group_action(op: PauliSum, basis=None) -> list:
    """``(targets, diagonal)`` per distinct X mask of ``op``, ascending,
    over the ascending basis states ``basis`` (default ``op.basis``): the
    group maps ``basis[i]`` to ``diagonal[i] |basis[targets[i]]>``, and an
    entry leaving ``basis`` maps to itself with diagonal 0. ``op`` must be
    real on ``basis``."""
    basis = op.basis if basis is None else basis
    targets, diagonal = basis_action(op, basis)
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


def _check_pool_operator(amps: np.ndarray, tau: PauliSum) -> None:
    """Raise unless ``tau`` is restricted to a basis of the state's length
    (ValueError, or DimensionMismatchError) and has rotations (ValueError)."""
    if tau.rotations is None or tau.basis.shape != amps.shape:
        statevector._checked_action(amps, tau)  # no basis, or a mismatch
        raise ValueError("pool operator must be anti-Hermitian, with "
                         "couplings of +-1")


def apply_pool_operators(state: np.ndarray, taus, thetas) -> np.ndarray:
    """``exp(thetas[-1] taus[-1]) ... exp(thetas[0] taus[0]) |state>``, first
    operator first, one X-mask group rotation at a time: ``state`` copied
    once as float64 (a complex one raises TypeError), every operator
    checked, then per group ``c * psi[rows] + s * (coupling *
    psi[partners])`` in seven numpy calls, with cos and sin taken once per
    operator (the angles are Python floats)."""
    psi = np.asarray(state).astype(np.float64, casting="same_kind")
    for tau in taus:
        _check_pool_operator(psi, tau)
    for tau, theta in zip(taus, thetas):
        c, s = math.cos(theta), math.sin(theta)
        for active, partners, coupling in tau.rotations:
            turned = psi[partners]
            turned *= coupling
            turned *= s
            kept = psi[active]
            kept *= c
            kept += turned
            psi[active] = kept
    return psi


def _taus(ansatz) -> list:
    return [ansatz.pool[pid].qubit_form for pid in ansatz.ids]


def loop_prepared_state(ansatz, thetas, reference) -> np.ndarray:
    """`ansatz.prepare_state` by `apply_pool_operators`."""
    return apply_pool_operators(reference, _taus(ansatz),
                                np.asarray(thetas, dtype=float).tolist())


def loop_energy_gradient(ansatz, thetas, reference, h_p) -> np.ndarray:
    """`ansatz.energy_gradient` by `apply_pool_operators`: the same sweep,
    with ``phi`` and ``lam`` turned back one call each."""
    phi = loop_prepared_state(ansatz, thetas, reference)
    lam = apply_operator(phi, h_p)
    thetas = np.asarray(thetas, dtype=float).tolist()
    grad = np.empty(len(thetas))
    for k in reversed(range(len(thetas))):
        tau = _taus(ansatz)[k]
        grad[k] = 2.0 * np.dot(lam, apply_operator(phi, tau))
        if k:
            phi = apply_pool_operators(phi, (tau,), (-thetas[k],))
            lam = apply_pool_operators(lam, (tau,), (-thetas[k],))
    return grad


def loop_fit_energy(ansatz, reference, h_p, core):
    """``theta -> <psi| h_p |psi> + core`` as a fit evaluated it before its
    energy was compiled: one `loop_prepared_state` and one `expectation`
    per call."""
    return lambda theta: (expectation(
        loop_prepared_state(ansatz, theta, reference), h_p) + core)


def minimize_nelder_mead(obj, theta0, tol_rel_energy=DEFAULT_TOL,
                         max_evals=DEFAULT_BUDGET) -> OptimizationResult:
    """`optimize.minimize_nelder_mead` with its simplex and values kept as
    Python lists of vertices and of floats: the same steps, the same
    evaluations and, so, the same bits."""
    theta0 = np.asarray(theta0, dtype=float)
    dim = theta0.size
    if dim < 1:
        raise ValueError("Nelder-Mead needs at least one parameter")
    start_count = obj.evaluation_count

    simplex = [theta0.copy()]
    for k in range(dim):
        vertex = theta0.copy()
        vertex[k] += NM_INITIAL_STEP
        simplex.append(vertex)
    values = [obj(v) for v in simplex]
    trace = [min(values)]

    def spent():
        return obj.evaluation_count - start_count

    converged = False
    while spent() < max_evals:
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        trace.append(values[0])
        if values[-1] - values[0] <= tol_rel_energy:
            converged = True
            break
        centroid = np.mean(simplex[:-1], axis=0)
        reflected = centroid + (centroid - simplex[-1])
        f_reflected = obj(reflected)
        if f_reflected < values[0]:
            expanded = centroid + 2.0 * (centroid - simplex[-1])
            f_expanded = obj(expanded) if spent() < max_evals else np.inf
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-1]:
            contracted = centroid + 0.5 * (reflected - centroid)
        else:
            contracted = centroid - 0.5 * (centroid - simplex[-1])
        f_contracted = obj(contracted) if spent() < max_evals else np.inf
        if f_contracted < min(f_reflected, values[-1]):
            simplex[-1], values[-1] = contracted, f_contracted
            continue
        # shrink toward the best vertex, as far as the budget allows
        for k in range(1, min(dim, max_evals - spent()) + 1):
            simplex[k] = simplex[0] + 0.5 * (simplex[k] - simplex[0])
            values[k] = obj(simplex[k])

    best = int(np.argmin(values))
    return OptimizationResult(simplex[best], float(values[best]), spent(), 0,
                              converged, trace)


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
