"""Classical parameter optimization with exact evaluation accounting.

Both optimizers are deterministic and count every objective call. The
energy-change tolerance is an absolute spread in Hartree (the quantity
the convergence literature calls "relative energy"), defaulting to 1e-6.

L-BFGS takes each gradient from the caller's ``gradient(theta)``, which
may compute it exactly (the package uses the adjoint sweep of
`ansatz.energy_gradient`). The objective is charged ``2n`` evaluations
for it, what a central-difference gradient costs on hardware, so the
counts do not depend on how the simulator found the gradient. An
objective's ``on_evaluation`` hook is called once per charge with the
count charged: 1 per call, ``2n`` per gradient.
`central_difference_gradient` is the per-point reference that the
self-test checks the exact gradient against.
"""
from __future__ import annotations

from collections import deque, namedtuple

import numpy as np

DEFAULT_TOL = 1e-6
DEFAULT_BUDGET = 100_000
GRADIENT_NORM_STOP = 1e-8
NM_INITIAL_STEP = 0.1
LBFGS_MEMORY = 10
LBFGS_MAX_BACKTRACKS = 40


class Objective:
    """Callable energy objective with a monotone evaluation counter.

    ``on_evaluation(count)``, when given, is called once per charge with
    the number of evaluations charged: 1 per call, ``2 * dimension`` per
    gradient.
    """

    def __init__(self, fn, dimension: int, on_evaluation=None):
        self._fn = fn
        self.dimension = int(dimension)
        self.evaluation_count = 0
        self._on_evaluation = on_evaluation

    def _parameters(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dimension,):
            raise ValueError(
                f"expected {self.dimension} parameters, got {theta.shape}")
        return theta

    def __call__(self, theta) -> float:
        theta = self._parameters(theta)
        self.evaluation_count += 1
        if self._on_evaluation is not None:
            self._on_evaluation(1)
        return float(self._fn(theta))


OptimizationResult = namedtuple(
    "OptimizationResult",
    "theta_opt energy n_energy_evals n_gradient_evals converged trace")


def central_difference_gradient(fn, theta, h: float) -> np.ndarray:
    """Central finite differences ``(fn(theta + h e_k) - fn(theta - h e_k))
    / 2h``, evaluated point by point, k ascending, plus before minus. A
    step outside ``(0, inf)`` raises ValueError before ``fn`` is called.
    Charges nothing: it is a reference, not an optimizer's gradient."""
    if not 0 < h < np.inf:  # also false for nan
        raise ValueError(
            f"finite-difference step must be positive and finite, got {h}")
    theta = np.asarray(theta, dtype=float)
    grad = np.empty(theta.size)
    for k, step in enumerate(np.eye(theta.size) * h):
        grad[k] = (float(fn(theta + step)) - float(fn(theta - step))) / (2 * h)
    return grad


def _charged_gradient(obj: Objective, gradient, theta) -> np.ndarray:
    """``gradient(theta)``, charged to ``obj`` as the ``2 * dimension``
    evaluations of a central-difference gradient. A wrong ``theta`` or
    gradient shape raises ValueError before anything is charged."""
    theta = obj._parameters(theta)
    grad = np.asarray(gradient(theta), dtype=float)
    if grad.shape != (obj.dimension,):
        raise ValueError(f"expected a gradient of {obj.dimension} "
                         f"components, got shape {grad.shape}")
    obj.evaluation_count += 2 * obj.dimension
    if obj._on_evaluation is not None:
        obj._on_evaluation(2 * obj.dimension)
    return grad


def minimize_nelder_mead(obj: Objective, theta0,
                         tol_rel_energy: float = DEFAULT_TOL,
                         max_evals: int = DEFAULT_BUDGET
                         ) -> OptimizationResult:
    """Standard Nelder-Mead simplex descent.

    Coefficients: reflection 1, expansion 2, contraction 0.5, shrink 0.5.
    The initial simplex is theta0 plus one per-coordinate step of
    NM_INITIAL_STEP. Terminates when the simplex energy spread drops to
    tol_rel_energy (Hartree) or the evaluation budget runs out
    (converged = False then); no call past the initial simplex exceeds
    max_evals.
    """
    theta0 = np.asarray(theta0, dtype=float)
    dim = theta0.size
    if dim < 1:
        raise ValueError("Nelder-Mead needs at least one parameter")
    start_count = obj.evaluation_count

    simplex = np.tile(theta0, (dim + 1, 1))  # vertices in rows
    # the step is added to its one coordinate: adding 0.0 to the others
    # would turn a -0.0 there into +0.0
    simplex[np.arange(1, dim + 1), np.arange(dim)] += NM_INITIAL_STEP
    values = np.array([obj(v) for v in simplex])
    trace = [float(values.min())]

    def spent():
        return obj.evaluation_count - start_count

    converged = False
    while spent() < max_evals:
        order = np.argsort(values, kind="stable")
        simplex, values = simplex[order], values[order]
        trace.append(float(values[0]))
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
    return OptimizationResult(simplex[best].copy(), float(values[best]),
                              spent(), 0, converged, trace)


def minimize_lbfgs(obj: Objective, theta0,
                   tol_rel_energy: float = DEFAULT_TOL,
                   max_evals: int = DEFAULT_BUDGET, *,
                   gradient) -> OptimizationResult:
    """L-BFGS with Armijo backtracking on the caller's gradients.

    Two-loop recursion over a bounded memory of the latest LBFGS_MEMORY
    curvature pairs ``(s, y)``, a pair kept only when ``s @ y > 1e-14``;
    Armijo constant 1e-4, step shrink 0.5 and at most
    LBFGS_MAX_BACKTRACKS trial steps. Stops when the energy change
    between accepted iterates drops to tol_rel_energy (Hartree), the
    gradient infinity-norm reaches 1e-8, or the budget runs out. A failed
    line search returns the best iterate with converged = False, as does
    a budget too small for a step and its gradient; no call past the
    1 + 2 * dim of the start exceeds max_evals.

    Each gradient is one ``gradient(theta)`` call, charged to ``obj`` as
    ``2 * dim`` evaluations once its shape is checked.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    dim = theta.size
    if dim < 1:
        raise ValueError("L-BFGS needs at least one parameter")
    start_count = obj.evaluation_count
    n_gradient_evals = 0

    def spent():
        return obj.evaluation_count - start_count

    energy = obj(theta)
    trace = [energy]
    grad = _charged_gradient(obj, gradient, theta)
    n_gradient_evals += 1
    pairs = deque(maxlen=LBFGS_MEMORY)  # (s, y), oldest first

    converged = False
    while spent() < max_evals:
        if np.max(np.abs(grad)) <= GRADIENT_NORM_STOP:
            converged = True
            break
        # two-loop recursion for the search direction
        q = grad.copy()
        alphas = []
        for s, y in reversed(pairs):
            rho = 1.0 / float(y @ s)
            a = rho * float(s @ q)
            alphas.append((a, rho, s, y))
            q -= a * y
        if pairs:
            s_last, y_last = pairs[-1]
            q *= float(s_last @ y_last) / float(y_last @ y_last)
        for a, rho, s, y in reversed(alphas):
            b = rho * float(y @ q)
            q += (a - b) * s
        direction = -q
        slope = float(grad @ direction)
        if slope >= 0.0:  # fall back to steepest descent
            direction = -grad
            slope = -float(grad @ grad)

        step = 1.0
        accepted = None
        for _ in range(min(LBFGS_MAX_BACKTRACKS,
                           max_evals - spent() - 2 * dim)):
            candidate = theta + step * direction
            f_candidate = obj(candidate)
            if f_candidate <= energy + 1e-4 * step * slope:
                accepted = (candidate, f_candidate)
                break
            step *= 0.5
        if accepted is None:
            return OptimizationResult(theta, energy, spent(),
                                      n_gradient_evals, False, trace)
        new_theta, new_energy = accepted
        new_grad = _charged_gradient(obj, gradient, new_theta)
        n_gradient_evals += 1
        s_vec = new_theta - theta
        y_vec = new_grad - grad
        if float(s_vec @ y_vec) > 1e-14:
            pairs.append((s_vec, y_vec))
        energy_drop = energy - new_energy
        theta, energy, grad = new_theta, new_energy, new_grad
        trace.append(energy)
        if abs(energy_drop) <= tol_rel_energy:
            converged = True
            break

    return OptimizationResult(theta, energy, spent(), n_gradient_evals,
                              converged, trace)
