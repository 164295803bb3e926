"""Singlet-adapted UCCSD operator pool, ansatz state preparation, circuit
resources, and the gate-level compilation they are counted from.

Pool operators are anti-Hermitian ``tau = T - T^dagger`` with T built from
spin-channel sums that share one variational amplitude. Channels are
grouped so that every operator's Jordan-Wigner strings act on disjoint or
evenly-overlapping supports and therefore mutually commute, which makes
the factorized exponential in the simulator exact.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .fermion import (
    FermionOperator,
    LadderProduct,
    anti_hermitian_pair,
    jordan_wigner,
)
from .pauli import PauliSum
from .statevector import apply_pool_operators, rotate_rows, sector_indices


class PoolOperator:
    """One candidate excitation: its JW image on the reference's block."""

    __slots__ = ("id", "qubit_form", "description", "_summary")

    def __init__(self, op_id, qubit_form, description):
        self.id = op_id
        self.qubit_form = qubit_form
        self.description = description
        self._summary = None

    @property
    def circuit_summary(self) -> tuple[int, np.ndarray]:
        """``(gate_count, depth_map)`` of this operator's compiled gates,
        which do not depend on its angle; built on first use and kept.

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
            for gate in gates:  # a gate's qubits leave it on one layer
                row = functools.reduce(
                    np.maximum, [rows[q] for q in gate.qubits]) + 1
                for q in gate.qubits:
                    rows[q] = row
            depth_map = np.array(rows)
            depth_map.flags.writeable = False  # shared with the pool
            self._summary = len(gates), depth_map
        return self._summary

    def __repr__(self):
        return f"PoolOperator({self.id}: {self.description})"


class Ansatz:
    """Ordered product of pool-operator exponentials, as the tuple of its
    pool ids; the parameters are a separate theta vector, one per id."""

    __slots__ = ("pool", "ids")

    def __init__(self, pool, ids=()):
        self.pool = pool
        self.ids = tuple(int(pid) for pid in ids)
        for pid in self.ids:
            if not 0 <= pid < len(pool):
                raise ValueError(f"pool id {pid} out of range")

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


def _validate_pool_operator(q: PauliSum, description: str,
                            basis) -> PauliSum:
    """``q`` restricted to ``basis``, which checks that it is real there
    and conserves N and S_z; it must also be anti-Hermitian, with mutually
    commuting strings."""
    try:
        restricted = q.restrict(basis)
    except ValueError as exc:
        raise ValueError(f"pool operator {description}: {exc}") from exc
    if restricted.hermitian:
        raise ValueError(f"pool operator {description} not anti-Hermitian")
    if not q.terms_mutually_commute():
        raise ValueError(
            f"pool operator {description} has non-commuting strings")
    return restricted


@functools.cache
def build_uccsd_pool(n_spatial: int,
                     n_electrons: int) -> tuple[PoolOperator, ...]:
    """Singlet-adapted singles and doubles over a closed-shell reference.

    Singles pair the alpha and beta channels of each occupied->virtual
    spatial excitation under one amplitude. Doubles are emitted per
    spatial quadruple (i <= j occupied, a <= b virtual): the mixed-spin
    pairing always, plus the exchange-mixed and same-spin pairings when
    both index pairs are distinct. Deterministic order: singles first,
    then doubles, lexicographic in spatial indices.

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

    candidates = []
    for i in occupied:
        for a in virtual:
            t = FermionOperator(n_so, [
                LadderProduct([(2 * a, True), (2 * i, False)]),
                LadderProduct([(2 * a + 1, True), (2 * i + 1, False)]),
            ])
            candidates.append((t, f"single {i}->{a} (singlet)"))
    for i in occupied:
        for j in occupied:
            if j < i:
                continue
            for a in virtual:
                for b in virtual:
                    if b < a:
                        continue
                    prod_a = LadderProduct(
                        [(2 * a, True), (2 * b + 1, True),
                         (2 * j + 1, False), (2 * i, False)])
                    prod_b = LadderProduct(
                        [(2 * a + 1, True), (2 * b, True),
                         (2 * j, False), (2 * i + 1, False)])
                    tag = f"double {i}{j}->{a}{b}"
                    if i == j and a == b:
                        # both spin assignments are the same operator
                        candidates.append((FermionOperator(n_so, [prod_a]),
                                           f"{tag} (paired)"))
                    elif i < j and a < b:
                        # disjoint-support channel pairs share one amplitude
                        candidates.append((FermionOperator(
                            n_so, [prod_a, prod_b]), f"{tag} (mixed)"))
                        exchange = FermionOperator(n_so, [
                            LadderProduct([(2 * a, True), (2 * b + 1, True),
                                           (2 * i + 1, False),
                                           (2 * j, False)]),
                            LadderProduct([(2 * a + 1, True), (2 * b, True),
                                           (2 * i, False),
                                           (2 * j + 1, False)]),
                        ])
                        candidates.append((exchange, f"{tag} (exchange)"))
                        same = FermionOperator(n_so, [
                            LadderProduct([(2 * a, True), (2 * b, True),
                                           (2 * j, False), (2 * i, False)]),
                            LadderProduct([(2 * a + 1, True),
                                           (2 * b + 1, True),
                                           (2 * j + 1, False),
                                           (2 * i + 1, False)]),
                        ])
                        candidates.append((same, f"{tag} (same-spin)"))
                    else:
                        # channels overlap on the repeated spatial index;
                        # merged strings would not commute, so they enter
                        # the pool as separate operators
                        candidates.append((FermionOperator(n_so, [prod_a]),
                                           f"{tag} (mixed A)"))
                        candidates.append((FermionOperator(n_so, [prod_b]),
                                           f"{tag} (mixed B)"))

    basis = sector_indices(n_so, n_electrons)
    return tuple(
        PoolOperator(k, _validate_pool_operator(
            jordan_wigner(anti_hermitian_pair(t)), description, basis),
            description)
        for k, (t, description) in enumerate(candidates))


def full_uccsd_ansatz(pool) -> Ansatz:
    """Fixed first-order-Trotter ansatz: every pool operator once."""
    if not pool:
        raise ValueError("cannot build a UCCSD ansatz from an empty pool")
    return Ansatz(pool, [op.id for op in pool])


def prepare_state(ansatz: Ansatz, thetas, reference: np.ndarray) -> np.ndarray:
    """Apply the ansatz exponentials to the reference, first operator
    first, operator ``k`` with angle ``thetas[k]``, by
    `statevector.apply_pool_operators`: the reference is copied once, as
    float64, and that copy is rotated in place, operator by operator. The
    result is a new array, also for an empty ansatz; ``reference`` is not
    changed."""
    return apply_pool_operators(
        reference, [ansatz.pool[pid].qubit_form for pid in ansatz.ids],
        _theta_vector(ansatz, thetas).tolist())


def prepare_shifted_states(ansatz: Ansatz, thetas, step: float,
                           reference: np.ndarray) -> np.ndarray:
    """The ``2n`` states of a central-difference gradient, as the rows of
    one ``(2n, dim)`` array: row ``2k`` is ``prepare_state(ansatz, thetas +
    step e_k, reference)`` and row ``2k + 1`` the same at ``thetas - step
    e_k``, bit for bit.

    The shifted points share their prefix, so they are built together:
    operator ``k`` adds the two rows shifted at ``k`` as copies of the
    unshifted state before it, then rotates every row so far in one pass.
    The unshifted state is kept twice, once per sign: a plus row's
    unshifted angle is ``theta_k + 0.0``, which differs from ``theta_k`` in
    its sign bit when ``theta_k`` is ``-0.0``.
    """
    thetas = _theta_vector(ansatz, thetas)
    n = len(thetas)
    stack = np.empty((2 * n + 2, len(reference)))
    stack[:2] = reference  # the unshifted plus and minus rows
    for k, (pid, theta) in enumerate(zip(ansatz.ids, thetas.tolist())):
        rows = 2 * k + 4
        stack[rows - 2:rows] = stack[:2]
        pick = np.arange(rows) % 2
        pick[-2:] += 2
        rotate_rows(stack[:rows], ansatz.pool[pid].qubit_form,
                    (theta + 0.0, theta - 0.0, theta + step, theta - step),
                    pick)
    return stack[2:]


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


class Gate:
    """One gate: H q | RX angle q | RZ angle q | CNOT control target.

    RX(phi) = exp(-i phi X / 2) and RZ(phi) = exp(-i phi Z / 2).
    """

    __slots__ = ("kind", "qubits", "angle")

    def __init__(self, kind, qubits, angle=None):
        self.kind = kind
        self.qubits = tuple(int(q) for q in qubits)
        self.angle = angle
        if kind == "CNOT":
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError("CNOT needs distinct control and target")
        elif kind in ("H", "RX", "RZ"):
            if len(self.qubits) != 1:
                raise ValueError(f"{kind} acts on exactly one qubit")
        else:
            raise ValueError(f"unknown gate kind {kind!r}")

    def __repr__(self):
        if self.kind == "CNOT":
            return f"CNOT {self.qubits[0]} {self.qubits[1]}"
        if self.kind == "H":
            return f"H {self.qubits[0]}"
        return f"{self.kind} {self.angle!r} {self.qubits[0]}"


class GateCircuit:
    __slots__ = ("n_qubits", "gates")

    def __init__(self, n_qubits, gates=()):
        self.n_qubits = n_qubits
        self.gates = list(gates)
        for gate in self.gates:
            if any(q < 0 or q >= n_qubits for q in gate.qubits):
                raise ValueError(f"gate {gate!r} out of range")

    def __len__(self):
        return len(self.gates)

    def to_text(self) -> str:
        return "\n".join(repr(g) for g in self.gates) + ("\n" if self.gates
                                                         else "")

    def __repr__(self):
        return f"GateCircuit({self.n_qubits} qubits, {len(self.gates)} gates)"


def _exponential_template(n_qubits: int, x_mask: int, z_mask: int,
                          alpha: float) -> list[Gate]:
    """Gates realizing exp(i * alpha * P) for a single Pauli string.

    Basis changes map each factor to Z, a CNOT staircase folds parity
    onto the highest support qubit, and one RZ(-2 alpha) applies the
    phase; everything then unwinds in mirror order.
    """
    if not (x_mask or z_mask):
        raise ValueError("cannot compile an identity string exponential")
    support = []
    pre, post = [], []
    for q in range(n_qubits):
        x = (x_mask >> q) & 1
        z = (z_mask >> q) & 1
        if not (x or z):
            continue
        support.append(q)
        if x and z:
            pre.append(Gate("RX", (q,), math.pi / 2))
            post.append(Gate("RX", (q,), -math.pi / 2))
        elif x:
            pre.append(Gate("H", (q,)))
            post.append(Gate("H", (q,)))
    ladder = [Gate("CNOT", (support[k], support[k + 1]))
              for k in range(len(support) - 1)]
    middle = [Gate("RZ", (support[-1],), -2.0 * alpha)]
    return pre + ladder + middle + list(reversed(ladder)) + list(
        reversed(post))


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
            mask = (basis >> control) & 1
            flipped = basis ^ (1 << target)
            new = amps.copy()
            sel = mask == 1
            new[basis[sel]] = amps[flipped[sel]]
            amps = new
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
