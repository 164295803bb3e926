"""ADAPT-VQE outer loop, plain-VQE driver, and measurement accounting.

An FCIDUMP becomes a `QubitProblem` once: FCI, VQE and ADAPT share its
Jordan-Wigner Hamiltonian, UCCSD pool and Hartree-Fock reference.

The adaptive loop screens the operator pool for the gradients
``<psi| [H_P, tau_k] |psi> = 2 Re <H_P psi| tau_k psi>``, appends the
operator with the largest absolute gradient, and re-optimizes every
parameter from an all-zeros start. A converged run ends when the pool
gradient norm drops to the configured threshold. Each of the at most
``max_iterations`` screenings is charged; a run that uses them all
screens its returned state once more, uncharged, for its final gradient
norm. VQE and every ADAPT iteration share one fit step, `_fit`; its
L-BFGS gradients are exact, from the adjoint sweep of
`ansatz.energy_gradient`, and charged as ``2n`` energy evaluations each,
what central differences would measure on hardware.

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
    circuit_resources,
    energy_gradient,
    full_uccsd_ansatz,
    prepare_state,
)
from .fcidump import MolecularHamiltonian, to_fermion_hamiltonian
from .fermion import jordan_wigner
from .optimize import (
    DEFAULT_BUDGET,
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
# The numeric `AdaptConfig` settings, in the order a scan config checks them.
SETTINGS = ("grad_norm_threshold", "max_iterations", "tol_rel_energy")


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


class ConfigError(ValueError):
    """Bad scan configuration or run settings."""


class AdaptConfig:
    """Knobs for the adaptive loop and the inner optimizations. The one
    home of their defaults and checks; a bad value raises `ConfigError`."""

    __slots__ = SETTINGS + ("optimizer",)

    def __init__(self, grad_norm_threshold=1e-2, max_iterations=50,
                 optimizer="lbfgs", tol_rel_energy=DEFAULT_TOL):
        for name, value in (("grad_norm_threshold", grad_norm_threshold),
                            ("tol_rel_energy", tol_rel_energy)):
            if not 0 < value < math.inf:  # also false for nan
                raise ConfigError(
                    f"{name} must be positive and finite, got {value}")
        if max_iterations < 1 or not float(max_iterations).is_integer():
            raise ConfigError("max_iterations must be a positive integer")
        if optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}")
        self.grad_norm_threshold = float(grad_norm_threshold)
        self.max_iterations = int(max_iterations)
        self.optimizer = optimizer
        self.tol_rel_energy = float(tol_rel_energy)


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
    (None for VQE). ``theta`` holds the optimised angles of ``ansatz``,
    one per pool id; ``reference`` is the problem's Hartree-Fock state the
    ansatz acts on. ``resources`` is the gate count and depth of the
    ansatz circuit, `circuit_resources`: they do not depend on ``theta``.
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


def _fit(problem: QubitProblem, cfg: AdaptConfig, ansatz: Ansatz,
         ledger: MeasurementLedger):
    """``(theta, energy, converged)`` of ``ansatz`` optimised from all
    zeros, each energy evaluation charged to ``ledger``. An empty ansatz
    leaves the reference, whose energy is computed and charged nothing."""
    h_p, reference = problem.h_p, problem.reference
    if not len(ansatz):
        return np.zeros(0), expectation(reference, h_p) + problem.core, True
    n_terms = h_p.non_identity_term_count()

    def energy(theta):
        return (expectation(prepare_state(ansatz, theta, reference), h_p)
                + problem.core)

    objective = Objective(energy, len(ansatz),
                          on_evaluation=lambda: ledger.charge_energy(n_terms))
    theta0 = np.zeros(len(ansatz))
    if cfg.optimizer == "lbfgs":
        result = minimize_lbfgs(
            objective, theta0, cfg.tol_rel_energy, DEFAULT_BUDGET,
            gradient=lambda theta: energy_gradient(ansatz, theta, reference,
                                                   h_p))
    else:
        result = minimize_nelder_mead(objective, theta0, cfg.tol_rel_energy,
                                      max_evals=DEFAULT_BUDGET)
    return result.theta_opt, result.energy, result.converged


def run_adapt(problem: QubitProblem,
              cfg: AdaptConfig | None = None) -> RunResult:
    """Grow the ansatz one operator at a time until ||G|| falls below
    threshold, re-optimizing all parameters from zero each iteration.
    An empty pool has nothing to add: the reference is returned, converged.
    """
    cfg = cfg or AdaptConfig()
    h_p, pool, reference = problem.h_p, problem.pool, problem.reference
    ledger = MeasurementLedger()
    trace: list[AdaptIteration] = []
    ansatz = Ansatz(pool)
    theta, energy, _ = _fit(problem, cfg, ansatz, ledger)
    converged, final_grad_norm = not pool, 0.0

    for iteration in range(cfg.max_iterations + 1 if pool else 0):
        grads = screen_pool(prepare_state(ansatz, theta, reference), h_p, pool)
        final_grad_norm = float(np.linalg.norm(grads))
        if iteration == cfg.max_iterations:
            break  # out of iterations: the uncharged diagnostic
        for n_terms in problem.commutator_counts:
            ledger.charge_commutator(n_terms)
        if final_grad_norm <= cfg.grad_norm_threshold:
            converged = True
            trace.append(AdaptIteration(
                None, final_grad_norm, grads, energy, theta, ledger.total()))
            break
        selected = select_operator(grads, pool)
        ansatz = ansatz.extended(selected)
        theta, energy, fit_converged = _fit(problem, cfg, ansatz, ledger)
        trace.append(AdaptIteration(
            selected, final_grad_norm, grads, energy, theta, ledger.total(),
            optimizer_converged=fit_converged))

    return RunResult(
        method="adapt", optimizer=cfg.optimizer, ansatz=ansatz, theta=theta,
        energy=energy, converged=converged, trace=trace, ledger=ledger,
        resources=circuit_resources(ansatz),
        final_grad_norm=final_grad_norm, reference=reference)


def run_vqe(problem: QubitProblem,
            cfg: AdaptConfig | None = None) -> RunResult:
    """Plain VQE: the fixed full-UCCSD ansatz optimized once from zero."""
    cfg = cfg or AdaptConfig()
    pool = problem.pool
    ledger = MeasurementLedger()
    ansatz = full_uccsd_ansatz(pool) if pool else Ansatz(pool)
    theta, energy, converged = _fit(problem, cfg, ansatz, ledger)
    return RunResult(
        method="vqe", optimizer=cfg.optimizer, ansatz=ansatz, theta=theta,
        energy=energy, converged=converged, trace=[], ledger=ledger,
        resources=circuit_resources(ansatz),
        final_grad_norm=None, reference=problem.reference)
