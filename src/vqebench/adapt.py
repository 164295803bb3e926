"""ADAPT-VQE outer loop, plain-VQE driver, and measurement accounting.

An FCIDUMP becomes a `QubitProblem` once: FCI, VQE and ADAPT share its
Jordan-Wigner Hamiltonian, UCCSD pool and Hartree-Fock reference.

The adaptive loop screens the operator pool for the gradients
``<psi| [H_P, tau_k] |psi> = 2 Re <H_P psi| tau_k psi>``, appends the
operator with the largest absolute gradient, and re-optimizes every
parameter from an all-zeros start. A converged run ends when the pool
gradient norm drops to the configured threshold.

Measurement cost is tracked symbolically: every expectation evaluated
charges one unit per non-identity Pauli term of the measured operator
(the identity is classically known and excluded); a screening charges
every commutator ``[H_P, tau_k]`` as if it were measured. Those term
counts do not depend on the state: `QubitProblem.commutator_counts`
computes them once per problem, vectorised, with exact cancellations
still counted as zero.
"""
from __future__ import annotations

import math

import numpy as np

from .ansatz import (
    Ansatz,
    build_uccsd_pool,
    circuit_metrics,
    compile_circuit,
    full_uccsd_ansatz,
    prepare_state,
)
from .fcidump import MolecularHamiltonian, to_fermion_hamiltonian
from .fermion import jordan_wigner
from .optimize import (
    DEFAULT_BUDGET,
    DEFAULT_FD_STEP,
    DEFAULT_TOL,
    Objective,
    minimize_lbfgs,
    minimize_nelder_mead,
)
from .pauli import PauliSum, commutator_term_counts
from .statevector import (
    apply_operator,
    expectation,
    hartree_fock_reference,
    sector_indices,
)

OPTIMIZERS = ("nelder_mead", "lbfgs")


class QubitProblem:
    """JW Hamiltonian ``h_p`` plus constant ``core``, UCCSD ``pool`` and HF
    ``reference`` of one supported input (every `MolecularHamiltonian` is
    one). ``h_p`` and the pool are restricted to the reference's (N, S_z)
    block, ``h_p.basis``."""

    __slots__ = ("label", "n_qubits", "n_electrons", "h_p", "core", "pool",
                 "reference", "_commutator_counts")

    def __init__(self, ham: MolecularHamiltonian):
        self.label = ham.label
        self.n_qubits = ham.n_qubits
        self.n_electrons = ham.n_electrons
        fermion_h, self.core = to_fermion_hamiltonian(ham)
        self.h_p = jordan_wigner(fermion_h).restrict(
            sector_indices(ham.n_qubits, ham.n_electrons))
        self.pool = build_uccsd_pool(ham.n_spatial, ham.n_electrons)
        self.reference = hartree_fock_reference(ham.n_qubits, ham.n_electrons)
        self._commutator_counts = None

    @property
    def commutator_counts(self) -> list[int]:
        """Non-identity term count of each ``[h_p, tau_k]``, in pool order.

        The ledger charges them per screening. Computed on first use and
        kept, so an FCI-only run never pays for them.
        """
        if self._commutator_counts is None:
            self._commutator_counts = commutator_term_counts(
                self.h_p, [op.qubit_form for op in self.pool])
        return self._commutator_counts


class AdaptConfig:
    """Knobs for the adaptive loop and the inner optimizations."""

    __slots__ = ("grad_norm_threshold", "max_iterations", "optimizer",
                 "tol_rel_energy", "fd_step")

    def __init__(self, grad_norm_threshold=1e-2, max_iterations=50,
                 optimizer="lbfgs", tol_rel_energy=DEFAULT_TOL,
                 fd_step=DEFAULT_FD_STEP):
        for name, value in (("grad_norm_threshold", grad_norm_threshold),
                            ("tol_rel_energy", tol_rel_energy),
                            ("fd_step", fd_step)):
            if not 0 < value < math.inf:  # also false for nan
                raise ValueError(
                    f"{name} must be positive and finite, got {value}")
        if max_iterations < 1 or not float(max_iterations).is_integer():
            raise ValueError("max_iterations must be a positive integer")
        if optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        self.grad_norm_threshold = float(grad_norm_threshold)
        self.max_iterations = int(max_iterations)
        self.optimizer = optimizer
        self.tol_rel_energy = float(tol_rel_energy)
        self.fd_step = float(fd_step)


class MeasurementLedger:
    """Symbolic counters standing in for hardware measurement cost."""

    __slots__ = ("energy_evaluations", "commutator_evaluations",
                 "pauli_term_measurements")

    def __init__(self):
        self.energy_evaluations = 0
        self.commutator_evaluations = 0
        self.pauli_term_measurements = 0

    def charge_energy(self, n_terms: int):
        self.energy_evaluations += 1
        self.pauli_term_measurements += n_terms

    def charge_commutator(self, n_terms: int):
        self.commutator_evaluations += 1
        self.pauli_term_measurements += n_terms

    def total(self) -> int:
        return self.pauli_term_measurements

    def as_dict(self) -> dict:
        return {"energy_evaluations": self.energy_evaluations,
                "commutator_evaluations": self.commutator_evaluations,
                "pauli_term_measurements": self.pauli_term_measurements}


class AdaptIteration:
    """Trace record: one screening plus the optimization that followed.

    The terminal record of a converged run has selected_pool_id None and
    repeats the incumbent energy and parameters.
    """

    __slots__ = ("selected_pool_id", "grad_norm", "grad_vector", "energy",
                 "theta", "measurement_count_cumulative",
                 "optimizer_converged")

    def __init__(self, selected_pool_id, grad_norm, grad_vector, energy,
                 theta, measurement_count_cumulative,
                 optimizer_converged=True):
        self.selected_pool_id = selected_pool_id
        self.grad_norm = float(grad_norm)
        self.grad_vector = np.asarray(grad_vector, dtype=float)
        self.energy = float(energy)
        self.theta = np.asarray(theta, dtype=float)
        self.measurement_count_cumulative = int(measurement_count_cumulative)
        self.optimizer_converged = bool(optimizer_converged)


class RunResult:
    """Common record returned by `run_vqe` and `run_adapt`.

    ``final_grad_norm`` is the pool gradient norm at the returned state
    (None for VQE). A run that used up ``max_iterations`` screens its final
    state once more for it; that screening is not charged to the ledger.
    ``theta`` holds the optimised angles of ``ansatz``, one per pool id;
    ``reference`` is the problem's Hartree-Fock state the ansatz acts on.
    """

    __slots__ = ("method", "optimizer", "ansatz", "theta", "energy",
                 "converged", "trace", "ledger", "resources",
                 "final_grad_norm", "reference")

    def __init__(self, **kwargs):
        for name in self.__slots__:
            setattr(self, name, kwargs[name])

    def prepared_state(self) -> np.ndarray:
        return prepare_state(self.ansatz, self.theta, self.reference)

    def __repr__(self):
        return (f"RunResult({self.method}/{self.optimizer}: "
                f"E={self.energy:.9f}, {len(self.ansatz)} operators)")


def screen_pool(psi: np.ndarray, h_p: PauliSum, pool) -> np.ndarray:
    """Gradient vector <psi| [H_P, tau_k] |psi> over the whole pool.

    Evaluated as ``2 <H_P psi| tau_k psi>`` on the real block, equal for
    anti-Hermitian tau_k (Grimsley et al., arXiv:1812.11173) and Hermitian
    H_P, which is checked. Charges no ledger.
    """
    if not pool:
        raise ValueError("cannot screen an empty pool")
    if not h_p.hermitian:
        raise ValueError("screening requires a restricted Hermitian H_P")
    h_psi = apply_operator(psi, h_p)
    return np.array([2.0 * np.dot(h_psi, apply_operator(psi, op.qubit_form))
                     for op in pool])


def select_operator(grads, pool) -> int:
    """Pool id with the largest |gradient|; ties break to the lowest id."""
    if len(pool) == 0:
        raise ValueError("cannot select from an empty pool")
    if len(grads) != len(pool):
        raise ValueError("gradient vector length does not match pool")
    magnitudes = np.abs(np.asarray(grads, dtype=float))
    best = float(np.max(magnitudes))
    for k, value in enumerate(magnitudes):
        if value >= best - 1e-12:
            return pool[k].id
    raise AssertionError("unreachable")


def _energy_objective(ansatz: Ansatz, problem: QubitProblem,
                      ledger: MeasurementLedger) -> Objective:
    n_terms = problem.h_p.non_identity_term_count()

    def energy(theta):
        state = prepare_state(ansatz, theta, problem.reference)
        return expectation(state, problem.h_p) + problem.core

    return Objective(energy, len(ansatz),
                     on_evaluation=lambda: ledger.charge_energy(n_terms))


def _optimize(cfg: AdaptConfig, objective: Objective, theta0):
    if cfg.optimizer == "lbfgs":
        return minimize_lbfgs(objective, theta0, cfg.tol_rel_energy,
                              h=cfg.fd_step, max_evals=DEFAULT_BUDGET)
    return minimize_nelder_mead(objective, theta0, cfg.tol_rel_energy,
                                max_evals=DEFAULT_BUDGET)


def run_adapt(problem: QubitProblem,
              cfg: AdaptConfig | None = None) -> RunResult:
    """Grow the ansatz one operator at a time until ||G|| falls below
    threshold, re-optimizing all parameters from zero each iteration.
    """
    cfg = cfg or AdaptConfig()
    h_p, pool, reference = problem.h_p, problem.pool, problem.reference
    ledger = MeasurementLedger()
    trace: list[AdaptIteration] = []

    ansatz = Ansatz(pool)
    theta = np.zeros(0)
    energy = expectation(reference, h_p) + problem.core
    converged = False

    if pool:
        # Each screening is charged as measuring every [H_P, tau_k]; the
        # problem counts their terms once for all runs on it.
        comm_terms = problem.commutator_counts
        for _ in range(cfg.max_iterations):
            psi = prepare_state(ansatz, theta, reference)
            grads = screen_pool(psi, h_p, pool)
            for n_terms in comm_terms:
                ledger.charge_commutator(n_terms)
            grad_norm = float(np.linalg.norm(grads))
            if grad_norm <= cfg.grad_norm_threshold:
                converged = True
                final_grad_norm = grad_norm
                trace.append(AdaptIteration(
                    None, grad_norm, grads, energy, theta,
                    ledger.total()))
                break
            selected = select_operator(grads, pool)
            ansatz = ansatz.extended(selected)
            objective = _energy_objective(ansatz, problem, ledger)
            result = _optimize(cfg, objective, np.zeros(len(ansatz)))
            theta = result.theta_opt
            energy = result.energy
            trace.append(AdaptIteration(
                selected, grad_norm, grads, energy, theta, ledger.total(),
                optimizer_converged=result.converged))
        else:
            # Out of iterations: the reported norm is that of the returned
            # state. It is a diagnostic, so the ledger is not charged.
            psi = prepare_state(ansatz, theta, reference)
            final_grad_norm = float(np.linalg.norm(
                screen_pool(psi, h_p, pool)))
    else:
        converged = True  # nothing to add
        final_grad_norm = 0.0

    return RunResult(
        method="adapt", optimizer=cfg.optimizer, ansatz=ansatz, theta=theta,
        energy=energy, converged=converged, trace=trace, ledger=ledger,
        resources=circuit_metrics(compile_circuit(ansatz, theta)),
        final_grad_norm=final_grad_norm, reference=reference)


def run_vqe(problem: QubitProblem,
            cfg: AdaptConfig | None = None) -> RunResult:
    """Plain VQE: the fixed full-UCCSD ansatz optimized once from zero."""
    cfg = cfg or AdaptConfig()
    pool, reference = problem.pool, problem.reference
    ledger = MeasurementLedger()

    if not pool:
        energy = expectation(reference, problem.h_p) + problem.core
        return RunResult(
            method="vqe", optimizer=cfg.optimizer, ansatz=Ansatz(pool),
            theta=np.zeros(0), energy=energy, converged=True, trace=[],
            ledger=ledger, resources={"gate_count": 0, "depth": 0},
            final_grad_norm=None, reference=reference)

    ansatz = full_uccsd_ansatz(pool)
    objective = _energy_objective(ansatz, problem, ledger)
    result = _optimize(cfg, objective, np.zeros(len(ansatz)))
    return RunResult(
        method="vqe", optimizer=cfg.optimizer, ansatz=ansatz,
        theta=result.theta_opt, energy=result.energy,
        converged=result.converged, trace=[], ledger=ledger,
        resources=circuit_metrics(compile_circuit(ansatz, result.theta_opt)),
        final_grad_norm=None, reference=reference)
