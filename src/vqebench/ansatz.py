"""Singlet-adapted UCCSD operator pool, ansatz state preparation and its
exact energy gradient, circuit resources, and the gate-level compilation
they are counted from.

Pool operators are anti-Hermitian ``tau = T - T^dagger`` with T built from
spin-channel sums that share one variational amplitude. Channels are
grouped so that every operator's Jordan-Wigner strings act on disjoint or
evenly-overlapping supports and therefore mutually commute, which makes
the factorized exponential in the simulator exact.

An `Ansatz` is immutable, so it compiles its exponentials into one
`statevector.RotationProgram` on first use and keeps it: `prepare_state`
runs it forwards, and `energy_gradient` runs it forwards once and then
turns two states back through it, one operator at a time.

A gate is plain data, the named tuple `Gate(kind, qubits, angle)`. The
CNOT-staircase template builds such tuples without checks, and
`GateCircuit`, the one way a list of gates becomes a circuit, checks each
gate it is given.
"""
from __future__ import annotations

import functools
import math
from collections import namedtuple
from itertools import pairwise

import numpy as np

from .fermion import (
    FermionOperator,
    LadderProduct,
    anti_hermitian_pair,
    jordan_wigner_each,
)
from .pauli import PauliSum, _compile_each, terms_mutually_commute_each
from .statevector import RotationProgram, apply_operator, sector_indices


class PoolOperator:
    """One candidate excitation: its JW image on the reference's block.
    It carries no id: an operator is named by its position in the pool
    that holds it."""

    __slots__ = ("qubit_form", "description", "_summary")

    def __init__(self, qubit_form, description):
        self.qubit_form = qubit_form
        self.description = description
        self._summary = None

    @property
    def circuit_summary(self) -> tuple[int, np.ndarray]:
        """``(gate_count, depth_map)`` of this operator's compiled gates,
        which do not depend on its angle; built on first use and kept,
        from the qubits of its strings' template gates, with no circuit
        built or checked.

        ``depth_map[q, j]`` is the longest gate path from qubit ``j``'s
        frontier to qubit ``q``'s, in max-plus form (``NO_PATH`` where there
        is none), so the greedy depth frontier after the gates is
        ``(depth_map + frontier).max(axis=1)``.
        """
        if self._summary is None:
            n = self.qubit_form.n_qubits
            rows = list(np.where(np.eye(n, dtype=bool), 0, NO_PATH))
            gates = [g for x, z, _ in self.qubit_form.sorted_terms()
                     for g in _exponential_template(n, x, z, 0.0)]
            for _, qubits, _ in gates:  # a gate's qubits leave it on one layer
                row = functools.reduce(
                    np.maximum, [rows[q] for q in qubits]) + 1
                for q in qubits:
                    rows[q] = row
            depth_map = np.array(rows)
            depth_map.flags.writeable = False  # shared with the pool
            self._summary = len(gates), depth_map
        return self._summary

    def __repr__(self):
        return f"PoolOperator({self.description})"


class Ansatz:
    """Ordered product of pool-operator exponentials: a pool and the
    tuple ``ids`` of its operators' positions in that pool; the parameters
    are a separate theta vector, one per position. Immutable: its
    `program` is compiled on first use and kept."""

    __slots__ = ("pool", "ids", "_program")

    def __init__(self, pool, ids=()):
        self.pool = pool
        self.ids = tuple(int(pid) for pid in ids)
        for pid in self.ids:
            if not 0 <= pid < len(pool):
                raise ValueError(f"pool id {pid} out of range")
        self._program = None

    @property
    def program(self) -> RotationProgram:
        """The ansatz exponentials as one `statevector.RotationProgram`,
        every operator checked once when it is built."""
        if self._program is None:
            self._program = RotationProgram(
                self.pool[pid].qubit_form for pid in self.ids)
        return self._program

    def extended(self, pool_id: int) -> "Ansatz":
        return Ansatz(self.pool, self.ids + (pool_id,))

    def __len__(self):
        return len(self.ids)

    def __repr__(self):
        return f"Ansatz({list(self.ids)})"


def _theta_vector(ansatz: Ansatz, thetas) -> np.ndarray:
    thetas = np.asarray(thetas, dtype=float)
    if thetas.shape != (len(ansatz),):
        raise ValueError(f"theta vector of shape {thetas.shape} for "
                         f"{len(ansatz)} ansatz operators")
    return thetas


def _validate_pool_operators(images, descriptions, basis) -> list[PauliSum]:
    """Each image restricted to ``basis``, all in one `restrict_each`
    pass, which checks that each is real there and conserves N and S_z;
    each must also have ``rotations`` (anti-Hermitian, couplings of +-1)
    and mutually commuting strings. The ValueError names the first
    operator that fails, with its first failed check."""
    images = list(images)
    # before the compile, so that its string pairs are freed before the
    # compiled entries are built: the two peaks do not add up
    commuting = terms_mutually_commute_each(images)
    compiled = _compile_each(images, basis)
    for q, commutes, description in zip(compiled, commuting, descriptions):
        if isinstance(q, ValueError):
            raise ValueError(f"pool operator {description}: {q}") from q
        if q.rotations is None:
            raise ValueError(f"pool operator {description} not "
                             "anti-Hermitian with couplings of +-1")
        if not commutes:
            raise ValueError(
                f"pool operator {description} has non-commuting strings")
    return compiled


def flipped(prod: LadderProduct) -> LadderProduct:
    """``prod`` with every spin orbital's spin flipped, ``q ^ 1``, which
    swaps alpha ``2m`` and beta ``2m + 1``; the same coefficient."""
    return LadderProduct([(q ^ 1, dagger) for q, dagger in prod.factors],
                         prod.coefficient)


@functools.cache
def build_uccsd_pool(n_spatial: int,
                     n_electrons: int) -> tuple[PoolOperator, ...]:
    """Singlet-adapted singles and doubles over a closed-shell reference.

    Each spin channel shares one amplitude with its spin flip (`flipped`),
    so it is listed once. Singles: one per occupied->virtual spatial
    excitation. Doubles, per spatial quadruple (i <= j occupied, a <= b
    virtual): the mixed-spin channel, plus the exchange-mixed and
    same-spin ones when both index pairs are distinct. For i == j and
    a == b the flip is the channel itself (paired); with one repeated
    index the two overlap there, and their merged strings would not
    commute, so they are two operators (mixed A, mixed B). Deterministic
    order: singles first, then doubles, lexicographic in spatial indices.
    Every operator is transformed in one `jordan_wigner_each` pass and
    compiled on the reference's block in one `restrict_each` pass
    (`_validate_pool_operators`).

    Built once per ``(n_spatial, n_electrons)`` and shared by every
    problem of that shape, so the pool and its operators are read only;
    ``build_uccsd_pool.__wrapped__`` builds a fresh one.
    """
    if n_electrons % 2:
        raise ValueError(
            f"pool needs a closed-shell reference, got {n_electrons} "
            "electrons")
    n_occ = n_electrons // 2
    n_so = 2 * n_spatial
    occupied = range(n_occ)
    virtual = range(n_occ, n_spatial)

    candidates = []  # (products sharing one amplitude, description)
    for i in occupied:
        for a in virtual:
            single = LadderProduct([(2 * a, True), (2 * i, False)])
            candidates.append(([single, flipped(single)],
                               f"single {i}->{a} (singlet)"))
    for i in occupied:
        for j in range(i, n_occ):
            for a in virtual:
                for b in range(a, n_spatial):
                    mixed = LadderProduct([(2 * a, True), (2 * b + 1, True),
                                           (2 * j + 1, False), (2 * i, False)])
                    tag = f"double {i}{j}->{a}{b}"
                    if i == j and a == b:
                        candidates.append(([mixed], f"{tag} (paired)"))
                    elif i < j and a < b:
                        exchange = LadderProduct(
                            [(2 * a, True), (2 * b + 1, True),
                             (2 * i + 1, False), (2 * j, False)])
                        same = LadderProduct([(2 * a, True), (2 * b, True),
                                              (2 * j, False), (2 * i, False)])
                        candidates += [
                            ([prod, flipped(prod)], f"{tag} ({kind})")
                            for prod, kind in ((mixed, "mixed"),
                                               (exchange, "exchange"),
                                               (same, "same-spin"))]
                    else:
                        candidates += [([mixed], f"{tag} (mixed A)"),
                                       ([flipped(mixed)], f"{tag} (mixed B)")]

    descriptions = [description for _, description in candidates]
    images = _validate_pool_operators(
        jordan_wigner_each(anti_hermitian_pair(FermionOperator(n_so, prods))
                           for prods, _ in candidates),
        descriptions, sector_indices(n_so, n_electrons))
    return tuple(map(PoolOperator, images, descriptions))


def full_uccsd_ansatz(pool) -> Ansatz:
    """Fixed first-order-Trotter ansatz: every pool operator once."""
    if not pool:
        raise ValueError("cannot build a UCCSD ansatz from an empty pool")
    return Ansatz(pool, range(len(pool)))


def prepare_state(ansatz: Ansatz, thetas, reference: np.ndarray) -> np.ndarray:
    """Apply the ansatz exponentials to the reference, first operator
    first, operator ``k`` with angle ``thetas[k]``, by the ansatz's
    `program`: the reference is copied once, as float64, and that copy is
    rotated in place, group by group. The result is a new array, also for
    an empty ansatz; ``reference`` is not changed."""
    program = ansatz.program
    return program.rotate(program.start(reference), program.weights(
        _theta_vector(ansatz, thetas).tolist()))


def energy_gradient(ansatz: Ansatz, thetas, reference: np.ndarray,
                    h_p: PauliSum) -> np.ndarray:
    """The exact gradient of ``<psi| h_p |psi>``, ``psi =
    prepare_state(ansatz, thetas, reference)``, by one backward sweep
    (the adjoint method, Jones and Gacon, arXiv:2009.02823).

    With ``phi_k`` the state after operator ``k`` and ``lam_k =
    U_{k+1}^T ... U_n^T h_p |psi>``, the derivative in ``thetas[k]`` is
    ``2 <lam_k| tau_k |phi_k>``. Each ``U_k = exp(theta_k tau_k)`` is real
    orthogonal, ``tau_k`` being real and antisymmetric on the block, so
    ``U_k^T = exp(-theta_k tau_k)`` turns both states back one operator:
    ``n - 1`` rotations of the two states as one stack, by operator ``k``'s
    steps of the ansatz's `program`, weighed from one table of the negated
    angles, and ``n`` operator applications, all real.
    ``h_p`` must be restricted and Hermitian.
    """
    if not h_p.hermitian:
        raise ValueError("the energy gradient requires a restricted "
                         "Hermitian H_P")
    phi = prepare_state(ansatz, thetas, reference)
    pair = np.stack((phi, apply_operator(phi, h_p)))  # phi_k and lam_k
    program = ansatz.program
    back = program.weights([-theta for theta in
                            _theta_vector(ansatz, thetas).tolist()])
    grad = np.empty(len(ansatz))
    for k in reversed(range(len(ansatz))):
        tau = ansatz.pool[ansatz.ids[k]].qubit_form
        grad[k] = 2.0 * np.dot(pair[1], apply_operator(pair[0], tau))
        if k:  # nothing is left to differentiate behind the first operator
            program.rotate(pair.T, back, operator=k)
    return grad


# ---------------------------------------------------------------------------
# Circuit resources, and the gate-level compilation they are counted from
# ---------------------------------------------------------------------------

NO_PATH = -(1 << 40)  # the max-plus zero of a depth map, far below any path


def circuit_resources(ansatz: Ansatz) -> dict:
    """Gate count and greedy depth of the ansatz circuit, composed from its
    operators' `PoolOperator.circuit_summary` without building a gate.
    Equal to ``circuit_metrics(compile_circuit(ansatz, thetas))`` at any
    angles."""
    gate_count, frontier = 0, np.zeros(1, dtype=np.int64)
    for pid in ansatz.ids:
        count, depth_map = ansatz.pool[pid].circuit_summary
        gate_count += count
        frontier = (depth_map + frontier).max(axis=1)
    return {"gate_count": gate_count, "depth": int(frontier.max())}


# One gate, plain data: ``H q | RX angle q | RZ angle q | CNOT control
# target``, with RX(phi) = exp(-i phi X / 2) and RZ(phi) = exp(-i phi Z / 2).
# `GateCircuit` checks each gate it is given.
Gate = namedtuple("Gate", "kind qubits angle", defaults=(None,))


def _gate_text(gate) -> str:
    """``H q``, ``RX angle q``, ``RZ angle q`` or ``CNOT control target``."""
    if gate.kind in ("RX", "RZ"):
        return f"{gate.kind} {gate.angle!r} {gate.qubits[0]}"
    return " ".join([gate.kind, *map(str, gate.qubits)])


class GateCircuit:
    """Gates on ``n_qubits`` qubits, each checked here: the kind is H, RX,
    RZ or CNOT, H, RX and RZ act on one qubit, CNOT on two distinct ones,
    and every qubit is in range."""

    __slots__ = ("n_qubits", "gates")

    def __init__(self, n_qubits, gates=()):
        self.n_qubits = n_qubits
        self.gates = list(gates)
        for gate in self.gates:
            kind, qubits = gate.kind, gate.qubits
            if kind == "CNOT":
                if len(qubits) != 2 or qubits[0] == qubits[1]:
                    raise ValueError("CNOT needs distinct control and target")
            elif kind in ("H", "RX", "RZ"):
                if len(qubits) != 1:
                    raise ValueError(f"{kind} acts on exactly one qubit")
            else:
                raise ValueError(f"unknown gate kind {kind!r}")
            if any(q < 0 or q >= n_qubits for q in qubits):
                raise ValueError(f"gate {_gate_text(gate)} out of range")

    def __len__(self):
        return len(self.gates)

    def to_text(self) -> str:
        return "".join(_gate_text(g) + "\n" for g in self.gates)

    def __repr__(self):
        return f"GateCircuit({self.n_qubits} qubits, {len(self.gates)} gates)"


def _exponential_template(n_qubits: int, x_mask: int, z_mask: int,
                          alpha: float) -> list[Gate]:
    """Gates realizing exp(i * alpha * P) for a single Pauli string.

    Basis turns map each factor to Z (H for X, RX(pi/2) for Y), a CNOT
    staircase folds parity onto the highest support qubit, and one
    RZ(-2 alpha) applies the phase; everything then unwinds in mirror
    order.
    """
    if not (x_mask or z_mask):
        raise ValueError("cannot compile an identity string exponential")
    support = [q for q in range(n_qubits) if (x_mask | z_mask) >> q & 1]

    def turns(sign):
        return [Gate("RX", (q,), sign * math.pi / 2) if z_mask >> q & 1
                else Gate("H", (q,)) for q in support if x_mask >> q & 1]

    ladder = [Gate("CNOT", pair) for pair in pairwise(support)]
    return (turns(1) + ladder + [Gate("RZ", (support[-1],), -2.0 * alpha)]
            + ladder[::-1] + turns(-1)[::-1])


def compile_circuit(ansatz: Ansatz, thetas) -> GateCircuit:
    """Compile the ansatz at the given angles with the raw CNOT-staircase
    template: the gate-level oracle of `circuit_resources`.

    Terms are emitted in canonical order. The angles set only the rotation
    angles: theta = 0 operators still emit their gates, so the gates' kinds
    and qubits, and hence the resources, do not depend on theta.
    """
    n_qubits = ansatz.pool[0].qubit_form.n_qubits if ansatz.pool else 0
    gates = []
    for pid, theta in zip(ansatz.ids, _theta_vector(ansatz, thetas)):
        for x, z, c in ansatz.pool[pid].qubit_form.sorted_terms():
            alpha = float(theta) * c.imag  # term = i * w * P
            gates.extend(_exponential_template(n_qubits, x, z, alpha))
    return GateCircuit(n_qubits, gates)


def circuit_metrics(circuit: GateCircuit) -> dict:
    """Gate count plus greedy as-soon-as-possible depth."""
    frontier = [0] * max(circuit.n_qubits, 1)
    depth = 0
    for gate in circuit.gates:
        layer = 1 + max(frontier[q] for q in gate.qubits)
        for q in gate.qubits:
            frontier[q] = layer
        depth = max(depth, layer)
    return {"gate_count": len(circuit.gates), "depth": depth}


def simulate_circuit(circuit: GateCircuit, state: np.ndarray) -> np.ndarray:
    """Apply the compiled gates to ``2**n`` amplitudes (compilation oracle)."""
    amps = np.array(state, dtype=complex)
    dim = amps.shape[0]
    basis = np.arange(dim)
    for gate in circuit.gates:
        if gate.kind == "CNOT":
            control, target = gate.qubits
            on = basis[(basis >> control) & 1 == 1]
            amps[on] = amps[on ^ (1 << target)]  # the right side is a copy
            continue
        q = gate.qubits[0]
        low = basis[(basis >> q) & 1 == 0]
        high = low | (1 << q)
        a0, a1 = amps[low], amps[high]
        if gate.kind == "H":
            inv = 1.0 / math.sqrt(2.0)
            amps[low] = inv * (a0 + a1)
            amps[high] = inv * (a0 - a1)
        elif gate.kind == "RX":
            c = math.cos(gate.angle / 2.0)
            s = -1j * math.sin(gate.angle / 2.0)
            amps[low] = c * a0 + s * a1
            amps[high] = s * a0 + c * a1
        elif gate.kind == "RZ":
            amps[low] = np.exp(-0.5j * gate.angle) * a0
            amps[high] = np.exp(0.5j * gate.angle) * a1
    return amps
