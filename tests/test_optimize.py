from pathlib import Path

import numpy as np
import oracles
import pytest
from oracles import commutator

from vqebench import optimize
from vqebench.adapt import QubitProblem
from vqebench.ansatz import energy_gradient, full_uccsd_ansatz, prepare_state
from vqebench.fcidump import load_fcidump
from vqebench.optimize import (
    LBFGS_MEMORY,
    NM_INITIAL_STEP,
    Objective,
    central_difference_gradient,
    minimize_lbfgs,
    minimize_nelder_mead,
)
from vqebench.statevector import expectation

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def h2_problem():
    problem = QubitProblem(load_fcidump(DATA / "h2_r0.735.fcidump",
                                        label="H2 0.735"))
    h_p, core = problem.h_p, problem.core
    pool, ref = problem.pool, problem.reference
    ansatz = full_uccsd_ansatz(pool)

    def energy(theta):
        return expectation(prepare_state(ansatz, theta, ref), h_p) + core

    def gradient(theta):
        return energy_gradient(ansatz, theta, ref, h_p)

    return Objective(energy, len(ansatz)), gradient, h_p, pool, ref, core


def fd(fn, h=1e-6):
    """The ``gradient(theta)`` of L-BFGS as central differences of ``fn``."""
    return lambda theta: central_difference_gradient(fn, theta, h)


class TestCentralDifferenceGradient:
    def test_exact_on_quadratic(self):
        def square(t):
            return float(t[0] ** 2)

        for h in (1e-2, 1e-4, 1e-6):
            grad = central_difference_gradient(square, np.array([1.0]), h)
            assert grad[0] == pytest.approx(2.0, abs=1e-7)

    def test_constant_objective(self):
        grad = central_difference_gradient(lambda t: 3.3, np.zeros(4), 1e-5)
        np.testing.assert_array_equal(grad, np.zeros(4))

    def test_costs_two_evals_per_dimension(self):
        calls = []
        central_difference_gradient(lambda t: calls.append(1) or 0.0,
                                    np.zeros(5), 1e-5)
        assert len(calls) == 10

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            central_difference_gradient(lambda t: 0.0, np.zeros(1), 0.0)

    @pytest.mark.parametrize("h", [float("nan"), float("inf"),
                                   float("-inf")])
    def test_non_finite_step_rejected_before_any_evaluation(self, h):
        calls = []
        with pytest.raises(ValueError, match="positive and finite"):
            central_difference_gradient(lambda t: calls.append(1) or 0.0,
                                        np.zeros(3), h)
        assert not calls

    def test_per_point_energies_come_in_gradient_order(self):
        points = []

        def record(t):
            points.append(t.copy())
            return 0.0

        theta = np.array([-0.0, 0.5])
        central_difference_gradient(record, theta, 0.25)
        expected = [[0.25, 0.5], [-0.25, 0.5], [0.0, 0.75], [-0.0, 0.25]]
        assert [p.tolist() for p in points] == expected
        # theta_0 = -0.0: 0.0 in the plus point of k = 1, -0.0 in its minus
        assert not np.signbit(points[2][0]) and np.signbit(points[3][0])

    def test_vqe_gradient_at_zero_matches_commutator(self, h2_problem):
        obj, gradient, h_p, pool, ref, _ = h2_problem
        theta = np.zeros(obj.dimension)
        finite = central_difference_gradient(obj._fn, theta, 1e-5)
        adjoint = gradient(theta)
        for k, op in enumerate(pool):
            comm = commutator(h_p, op.qubit_form).restrict(h_p.basis)
            expected = expectation(ref, comm)
            assert finite[k] == pytest.approx(expected, abs=1e-6)
            assert adjoint[k] == pytest.approx(expected, abs=1e-12)


class TestChargedGradient:
    """L-BFGS charges each ``gradient(theta)`` as the ``2n`` evaluations of
    a central-difference gradient, whatever computed it, in one charge."""

    @staticmethod
    def counted(dimension):
        """An objective on ``t @ t`` whose charges land in ``calls``, each
        as its count."""
        calls = []
        obj = Objective(lambda t: calls.append("energy") or float(t @ t),
                        dimension, calls.append)
        return obj, calls

    def test_gradient_is_charged_as_two_evaluations_per_dimension(self):
        obj, calls = self.counted(4)
        seen = []

        def gradient(theta):
            seen.append(theta.copy())
            return 2 * theta

        theta = np.array([0.1, -0.2, 0.0, 0.3])
        result = minimize_lbfgs(obj, theta, 1e-10, max_evals=9,
                                gradient=gradient)
        # the start: one charged energy, then one charge of 8 for a gradient
        assert calls[:3] == [1, "energy", 8]
        assert len(seen) == result.n_gradient_evals
        np.testing.assert_array_equal(seen[0], theta)
        assert obj.evaluation_count == result.n_energy_evals == \
            calls.count("energy") + 8 * len(seen)

    @pytest.mark.parametrize("theta", [np.zeros(2), np.zeros(4),
                                       np.zeros((3, 1))])
    def test_wrong_parameter_count_rejected_before_the_gradient(self, theta):
        obj, calls = self.counted(3)
        seen = []
        with pytest.raises(ValueError, match="expected 3 parameters"):
            minimize_lbfgs(obj, theta, gradient=seen.append)
        assert obj.evaluation_count == 0 and not calls and not seen

    @pytest.mark.parametrize("n_components", [2, 4, 0])
    def test_gradient_of_the_wrong_length_is_rejected(self, n_components):
        obj, calls = self.counted(3)
        with pytest.raises(ValueError, match="gradient of 3 components"):
            minimize_lbfgs(obj, np.zeros(3),
                           gradient=lambda t: np.zeros(n_components))
        # the start's energy, and no charge for the gradient
        assert obj.evaluation_count == 1 and calls == [1, "energy"]

    def test_lbfgs_calls_its_gradient_at_every_accepted_point(self):
        accepted = []

        def quadratic(t):
            return float(np.sum((t - 0.2) ** 2))

        def gradient(theta):
            accepted.append(quadratic(theta))
            return 2 * (theta - 0.2)

        obj = Objective(quadratic, 3)
        result = minimize_lbfgs(obj, np.zeros(3), 1e-10, gradient=gradient)
        assert result.converged and result.n_gradient_evals > 1
        assert accepted == result.trace
        assert result.n_energy_evals == obj.evaluation_count
        np.testing.assert_allclose(result.theta_opt, 0.2, atol=1e-12)


class TestNelderMead:
    def test_one_dimensional_quadratic(self):
        obj = Objective(lambda t: float((t[0] - 0.3) ** 2), 1)
        result = minimize_nelder_mead(obj, np.zeros(1), 1e-10)
        assert result.converged
        assert result.theta_opt[0] == pytest.approx(0.3, abs=1e-4)

    def test_constant_objective_converges_immediately(self):
        obj = Objective(lambda t: 1.5, 2)
        result = minimize_nelder_mead(obj, np.zeros(2), 1e-6)
        assert result.converged
        assert result.energy == 1.5
        assert result.n_energy_evals == 3  # just the initial simplex

    def test_budget_exhaustion_flags_unconverged(self):
        obj = Objective(lambda t: float(np.sum(t ** 2)), 3)
        result = minimize_nelder_mead(obj, np.ones(3), 0.0, max_evals=20)
        assert not result.converged
        assert result.n_energy_evals >= 20

    def test_h2_vqe_reaches_fci(self, h2_problem):
        obj, *_ = h2_problem
        result = minimize_nelder_mead(obj, np.zeros(obj.dimension), 1e-6)
        assert result.converged
        # frozen FCI energy for this dump, from the generator's
        # determinant CI
        assert result.energy == pytest.approx(-1.137306036, abs=1e-6)

    def test_accounting_matches_counter(self):
        obj = Objective(lambda t: float(np.sum((t - 0.2) ** 2)), 2)
        result = minimize_nelder_mead(obj, np.zeros(2), 1e-9)
        assert result.n_energy_evals == obj.evaluation_count

    @staticmethod
    def point_well(calls):
        """0 at the origin and 1 everywhere else: no reflection or
        contraction away from the origin improves, so every pass shrinks."""
        def energy(t):
            calls.append(t.copy())
            return 0.0 if not t.any() else 1.0
        return Objective(energy, 2)

    def test_shrink_when_contraction_fails(self):
        calls = []
        result = minimize_nelder_mead(self.point_well(calls), np.zeros(2),
                                      1e-6, max_evals=11)
        # the 3-vertex start, then two passes of reflection, inside
        # contraction and a shrink of both vertices halfway to the origin
        assert result.n_energy_evals == len(calls) == 11
        assert not result.converged and result.energy == 0.0
        np.testing.assert_array_equal(result.theta_opt, [0.0, 0.0])
        for k, step in enumerate([0.1, 0.05]):
            np.testing.assert_array_equal(
                calls[3 + 4 * k:7 + 4 * k],
                [[step, -step], [step / 4, step / 2],
                 [step / 2, 0.0], [0.0, step / 2]])

    def test_shrink_stops_at_the_budget(self):
        calls = []
        result = minimize_nelder_mead(self.point_well(calls), np.zeros(2),
                                      1e-6, max_evals=6)
        # the budget leaves one of the two shrink evaluations
        assert result.n_energy_evals == len(calls) == 6
        assert not result.converged
        np.testing.assert_array_equal(calls[-1], [0.05, 0.0])

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            obj = Objective(lambda t: float((t[0] - 0.4) ** 4
                                            + (t[1] + 0.1) ** 2), 2)
            runs.append(minimize_nelder_mead(obj, np.zeros(2), 1e-8))
        assert runs[0].energy == runs[1].energy
        np.testing.assert_array_equal(runs[0].theta_opt, runs[1].theta_opt)
        assert runs[0].trace == runs[1].trace


def rosenbrock(t):
    return float(100.0 * (t[1] - t[0] ** 2) ** 2 + (1.0 - t[0]) ** 2)


def point_well(t):
    """0 at the origin and 1 everywhere else: every pass shrinks."""
    return 0.0 if not t.any() else 1.0


def bowl(t):
    return float(np.sum((t - np.array([0.3, -0.2, 0.1])) ** 2))


class TestNelderMeadAgainstLists:
    """The array simplex against the list-based optimizer it replaced
    (`oracles.minimize_nelder_mead`): the same points are evaluated, in
    the same order, and the results agree bit for bit."""

    @staticmethod
    def assert_same_run(fn, theta0, **kwargs):
        runs = []
        for minimize in (minimize_nelder_mead, oracles.minimize_nelder_mead):
            points = []

            def energy(t, points=points):
                points.append(t.tobytes())
                return fn(t)

            obj = Objective(energy, len(theta0))
            runs.append((minimize(obj, np.array(theta0), **kwargs), points,
                         obj.evaluation_count))
        (new, new_points, new_count), (old, old_points, old_count) = runs
        assert new_points == old_points
        assert new.theta_opt.tobytes() == old.theta_opt.tobytes()
        assert new.energy.hex() == old.energy.hex()
        assert (new.n_energy_evals, new_count, new.converged) == \
            (old.n_energy_evals, old_count, old.converged)
        assert all(type(value) is float for value in new.trace)
        assert [v.hex() for v in new.trace] == [v.hex() for v in old.trace]
        return new, new_points

    def test_rosenbrock(self):
        result, _ = self.assert_same_run(rosenbrock, [-1.2, 1.0],
                                         tol_rel_energy=1e-10)
        assert result.converged and result.n_energy_evals > 100

    def test_every_pass_shrinks(self):
        # 4 start vertices, then per pass a reflection, a contraction and
        # a shrink of all 3 vertices: 5 evaluations, where a pass without
        # a shrink takes at most 2
        result, _ = self.assert_same_run(point_well, [0.0, 0.0, 0.0],
                                         max_evals=4 + 5 * 6)
        passes = len(result.trace) - 1
        assert passes == 6 and result.n_energy_evals == 4 + 5 * passes

    @pytest.mark.parametrize("left", [1, 2, 3, 4])
    def test_budget_runs_out_mid_shrink(self, left):
        # ``left`` evaluations into the third pass: its reflection, its
        # contraction, or 1 or 2 of its 3 shrink evaluations
        result, points = self.assert_same_run(point_well, [0.0, 0.0, 0.0],
                                              max_evals=4 + 5 * 2 + left)
        assert not result.converged
        assert result.n_energy_evals == len(points) == 4 + 5 * 2 + left

    def test_signed_zeros_of_the_start_are_kept(self):
        _, points = self.assert_same_run(bowl, [-0.0, 0.25, -0.0],
                                         tol_rel_energy=1e-12)
        start = [np.frombuffer(p) for p in points[:4]]
        step = NM_INITIAL_STEP
        expected = [[-0.0, 0.25, -0.0], [step, 0.25, -0.0],
                    [-0.0, 0.25 + step, -0.0], [-0.0, 0.25, step]]
        assert [v.tobytes() for v in start] == \
            [np.array(v).tobytes() for v in expected]


class TestLbfgs:
    def test_quadratic_bowl_three_dimensions(self):
        scales = np.array([1.0, 2.0, 0.5])
        center = np.array([0.3, -0.2, 0.7])

        def bowl(t):
            return float(scales @ (t - center) ** 2)

        result = minimize_lbfgs(Objective(bowl, 3), np.zeros(3), 1e-12,
                                gradient=fd(bowl))
        assert result.converged
        np.testing.assert_allclose(result.theta_opt, center, atol=1e-6)
        assert result.energy < 1e-8
        assert len(result.trace) <= 10

    def test_already_optimal_start(self):
        def parabola(t):
            return float((t[0] - 1.0) ** 2)

        result = minimize_lbfgs(Objective(parabola, 1), np.array([1.0]),
                                1e-6, gradient=fd(parabola))
        assert result.converged
        assert result.n_gradient_evals == 1
        assert result.energy == 0.0

    def test_h2_vqe_matches_nelder_mead_with_fewer_evals(self, h2_problem):
        obj, gradient, *_ = h2_problem
        start = obj.evaluation_count
        nm = minimize_nelder_mead(obj, np.zeros(obj.dimension), 1e-6)
        nm_evals = obj.evaluation_count - start
        start = obj.evaluation_count
        lb = minimize_lbfgs(obj, np.zeros(obj.dimension), 1e-6,
                            gradient=gradient)
        lb_evals = obj.evaluation_count - start
        assert abs(nm.energy - lb.energy) < 1e-6
        assert lb_evals < nm_evals

    def test_monotone_accepted_trace(self, h2_problem):
        obj, gradient, *_ = h2_problem
        result = minimize_lbfgs(obj, np.zeros(obj.dimension), 1e-8,
                                gradient=gradient)
        diffs = np.diff(result.trace)
        assert np.all(diffs <= 1e-12)

    def test_gradient_accounting(self):
        def bowl(t):
            return float(np.sum((t - 0.5) ** 2))

        calls = []
        obj = Objective(lambda t: calls.append(1) or bowl(t), 4)
        result = minimize_lbfgs(obj, np.zeros(4), 1e-10, gradient=fd(bowl))
        # every gradient call costs 2 * dimension evaluations; the rest
        # are single energy evaluations
        assert result.n_energy_evals == obj.evaluation_count
        assert result.n_energy_evals == \
            len(calls) + result.n_gradient_evals * 8

    def test_rosenbrock_past_the_memory(self, monkeypatch):
        def rosenbrock(t):
            return float((1 - t[0]) ** 2 + 100 * (t[1] - t[0] ** 2) ** 2)

        result = minimize_lbfgs(Objective(rosenbrock, 2), np.zeros(2), 1e-12,
                                gradient=fd(rosenbrock))
        assert result.converged
        assert len(result.trace) - 1 > LBFGS_MEMORY
        np.testing.assert_allclose(result.theta_opt, [1.0, 1.0], atol=1e-6)
        # the cap drops the oldest pairs: without it the steps differ
        monkeypatch.setattr(optimize, "LBFGS_MEMORY", len(result.trace))
        uncapped = minimize_lbfgs(Objective(rosenbrock, 2), np.zeros(2),
                                  1e-12, gradient=fd(rosenbrock))
        assert uncapped.trace[:LBFGS_MEMORY + 2] == \
            result.trace[:LBFGS_MEMORY + 2]
        assert uncapped.trace != result.trace

    def test_deterministic(self):
        results = []
        for _ in range(2):
            def energy(t):
                return float((t[0] - 0.4) ** 2 + 0.3 * (t[1] ** 4))

            results.append(minimize_lbfgs(Objective(energy, 2), np.zeros(2),
                                          1e-9, gradient=fd(energy)))
        assert results[0].energy == results[1].energy
        np.testing.assert_array_equal(results[0].theta_opt,
                                      results[1].theta_opt)


class TestBudget:
    # A 3-parameter quartic that needs far more than these budgets. The
    # start is always paid: 1 + 2n evaluations for L-BFGS, n + 1 for
    # Nelder-Mead.
    @pytest.mark.parametrize("minimize,start,budget", [
        (minimize_lbfgs, 7, 3), (minimize_lbfgs, 7, 8),
        (minimize_lbfgs, 7, 10), (minimize_lbfgs, 7, 20),
        (minimize_lbfgs, 7, 25), (minimize_nelder_mead, 4, 2),
        (minimize_nelder_mead, 4, 6), (minimize_nelder_mead, 4, 8),
        (minimize_nelder_mead, 4, 10), (minimize_nelder_mead, 4, 21)])
    def test_no_call_past_the_budget(self, minimize, start, budget):
        center = np.array([0.3, -0.2, 0.7])
        seen = {}

        def quartic(t):
            seen[tuple(t)] = float(np.sum((t - center) ** 4))
            return seen[tuple(t)]

        obj = Objective(quartic, 3)
        gradient = ({"gradient": lambda t: 4 * (t - center) ** 3}
                    if minimize is minimize_lbfgs else {})
        result = minimize(obj, np.zeros(3), 1e-12, max_evals=budget,
                          **gradient)
        assert result.n_energy_evals == obj.evaluation_count
        assert result.n_energy_evals <= max(start, budget)
        assert not result.converged
        # the best evaluated iterate: for L-BFGS the last accepted point,
        # for Nelder-Mead the best point evaluated at all
        assert seen[tuple(result.theta_opt)] == result.energy
        best = (min(result.trace) if minimize is minimize_lbfgs
                else min(seen.values()))
        assert result.energy == best
