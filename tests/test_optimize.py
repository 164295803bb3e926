from pathlib import Path

import numpy as np
import pytest
from oracles import commutator, per_point_batch, shifted_points

from vqebench import optimize
from vqebench.adapt import QubitProblem
from vqebench.ansatz import full_uccsd_ansatz, prepare_state
from vqebench.fcidump import load_fcidump
from vqebench.optimize import (
    LBFGS_MEMORY,
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

    return (Objective(energy, len(ansatz)), per_point_batch(energy), h_p,
            pool, ref, core)


class TestCentralDifferenceGradient:
    def test_exact_on_quadratic(self):
        def square(t):
            return float(t[0] ** 2)

        obj = Objective(square, 1)
        for h in (1e-2, 1e-4, 1e-6):
            grad = central_difference_gradient(obj, np.array([1.0]), h,
                                               per_point_batch(square))
            assert grad[0] == pytest.approx(2.0, abs=1e-7)

    def test_constant_objective(self):
        obj = Objective(lambda t: 3.3, 4)
        grad = central_difference_gradient(obj, np.zeros(4), 1e-5,
                                           per_point_batch(lambda t: 3.3))
        np.testing.assert_array_equal(grad, np.zeros(4))

    def test_costs_two_evals_per_dimension(self):
        obj = Objective(lambda t: float(t @ t), 5)
        central_difference_gradient(obj, np.zeros(5), 1e-5,
                                    per_point_batch(lambda t: float(t @ t)))
        assert obj.evaluation_count == 10

    def test_rejects_bad_step(self):
        obj = Objective(lambda t: 0.0, 1)
        with pytest.raises(ValueError):
            central_difference_gradient(obj, np.zeros(1), 0.0,
                                        per_point_batch(lambda t: 0.0))

    @pytest.mark.parametrize("h", [float("nan"), float("inf"),
                                   float("-inf")])
    def test_non_finite_step_rejected_before_any_evaluation(self, h):
        calls = []
        obj = Objective(lambda t: 0.0, 3, on_evaluation=lambda: calls.append(1))
        batch = per_point_batch(lambda t: calls.append(2) or 0.0)
        with pytest.raises(ValueError, match="positive and finite"):
            central_difference_gradient(obj, np.zeros(3), h, batch)
        with pytest.raises(ValueError, match="positive and finite"):
            minimize_lbfgs(obj, np.zeros(3), h=h, batch=batch)
        assert obj.evaluation_count == 0 and not calls

    @pytest.mark.parametrize("theta", [np.zeros(2), np.zeros(4),
                                       np.zeros((3, 1))])
    def test_wrong_parameter_count_rejected_before_the_batch(self, theta):
        calls = []
        obj = Objective(lambda t: 0.0, 3, on_evaluation=lambda: calls.append(1))
        batch = per_point_batch(lambda t: calls.append(2) or 0.0)
        with pytest.raises(ValueError, match="expected 3 parameters"):
            central_difference_gradient(obj, theta, 1e-5, batch)
        assert obj.evaluation_count == 0 and not calls

    def test_batch_is_charged_as_two_evaluations_per_dimension(self):
        calls, seen = [], []
        obj = Objective(lambda t: float(t @ t), 4,
                        on_evaluation=lambda: calls.append(1))

        def batch(theta, h):
            seen.append((theta.copy(), h))
            return [float(p @ p) for p in shifted_points(theta, h)]

        theta = np.array([0.1, -0.2, 0.0, 0.3])
        grad = central_difference_gradient(obj, theta, 1e-4, batch)
        assert obj.evaluation_count == 8 and len(calls) == 8
        assert len(seen) == 1 and seen[0][1] == 1e-4
        np.testing.assert_array_equal(seen[0][0], theta)
        energies = [float(p @ p) for p in shifted_points(theta, 1e-4)]
        expected = [(energies[2 * k] - energies[2 * k + 1]) / 2e-4
                    for k in range(4)]
        assert grad.tobytes() == np.array(expected).tobytes()

    def test_per_point_energies_come_in_gradient_order(self):
        points = []

        def record(t):
            points.append(t.copy())
            return 0.0

        theta = np.array([-0.0, 0.5])
        central_difference_gradient(Objective(record, 2), theta, 0.25,
                                    per_point_batch(record))
        expected = list(shifted_points(theta, 0.25))
        assert [p.tobytes() for p in points] == \
            [p.tobytes() for p in expected]
        # theta_0 = -0.0: 0.0 in the plus point of k = 1, -0.0 in its minus
        assert not np.signbit(points[2][0]) and np.signbit(points[3][0])

    @pytest.mark.parametrize("n_energies", [5, 7, 0])
    def test_batch_of_the_wrong_length_is_rejected(self, n_energies):
        calls = []
        obj = Objective(lambda t: 0.0, 3, on_evaluation=lambda: calls.append(1))
        with pytest.raises(ValueError, match="6 shifted energies"):
            central_difference_gradient(
                obj, np.zeros(3), 1e-5, lambda t, h: [0.0] * n_energies)
        assert obj.evaluation_count == 0 and not calls

    def test_lbfgs_passes_its_batch_to_every_gradient(self):
        batches = []

        def batch(theta, h):
            batches.append(h)
            return per_point_batch(quadratic)(theta, h)

        def quadratic(t):
            return float(np.sum((t - 0.2) ** 2))

        obj = Objective(quadratic, 3)
        result = minimize_lbfgs(obj, np.zeros(3), 1e-10, h=1e-4, batch=batch)
        assert result.converged and result.n_gradient_evals > 1
        assert batches == [1e-4] * result.n_gradient_evals
        assert result.n_energy_evals == obj.evaluation_count
        np.testing.assert_allclose(result.theta_opt, 0.2, atol=1e-6)

    def test_vqe_gradient_at_zero_matches_commutator(self, h2_problem):
        obj, batch, h_p, pool, ref, _ = h2_problem
        grad = central_difference_gradient(obj, np.zeros(obj.dimension),
                                           1e-5, batch)
        for k, op in enumerate(pool):
            comm = commutator(h_p, op.qubit_form).restrict(h_p.basis)
            expected = expectation(ref, comm)
            assert grad[k] == pytest.approx(expected, abs=1e-6)


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


class TestLbfgs:
    def test_quadratic_bowl_three_dimensions(self):
        scales = np.array([1.0, 2.0, 0.5])
        center = np.array([0.3, -0.2, 0.7])

        def bowl(t):
            return float(scales @ (t - center) ** 2)

        result = minimize_lbfgs(Objective(bowl, 3), np.zeros(3), 1e-12,
                                h=1e-6, batch=per_point_batch(bowl))
        assert result.converged
        np.testing.assert_allclose(result.theta_opt, center, atol=1e-6)
        assert result.energy < 1e-8
        assert len(result.trace) <= 10

    def test_already_optimal_start(self):
        def parabola(t):
            return float((t[0] - 1.0) ** 2)

        result = minimize_lbfgs(Objective(parabola, 1), np.array([1.0]),
                                1e-6, batch=per_point_batch(parabola))
        assert result.converged
        assert result.n_gradient_evals == 1
        assert result.energy == 0.0

    def test_h2_vqe_matches_nelder_mead_with_fewer_evals(self, h2_problem):
        obj, batch, *_ = h2_problem
        start = obj.evaluation_count
        nm = minimize_nelder_mead(obj, np.zeros(obj.dimension), 1e-6)
        nm_evals = obj.evaluation_count - start
        start = obj.evaluation_count
        lb = minimize_lbfgs(obj, np.zeros(obj.dimension), 1e-6, batch=batch)
        lb_evals = obj.evaluation_count - start
        assert abs(nm.energy - lb.energy) < 1e-6
        assert lb_evals < nm_evals

    def test_monotone_accepted_trace(self, h2_problem):
        obj, batch, *_ = h2_problem
        result = minimize_lbfgs(obj, np.zeros(obj.dimension), 1e-8,
                                batch=batch)
        diffs = np.diff(result.trace)
        assert np.all(diffs <= 1e-12)

    def test_gradient_accounting(self):
        def bowl(t):
            return float(np.sum((t - 0.5) ** 2))

        obj = Objective(bowl, 4)
        result = minimize_lbfgs(obj, np.zeros(4), 1e-10,
                                batch=per_point_batch(bowl))
        # every gradient call costs 2 * dimension evaluations; the rest
        # are single energy evaluations
        assert result.n_energy_evals == obj.evaluation_count
        assert result.n_energy_evals >= result.n_gradient_evals * 8

    def test_rosenbrock_past_the_memory(self, monkeypatch):
        def rosenbrock(t):
            return float((1 - t[0]) ** 2 + 100 * (t[1] - t[0] ** 2) ** 2)

        result = minimize_lbfgs(Objective(rosenbrock, 2), np.zeros(2), 1e-12,
                                batch=per_point_batch(rosenbrock))
        assert result.converged
        assert len(result.trace) - 1 > LBFGS_MEMORY
        np.testing.assert_allclose(result.theta_opt, [1.0, 1.0], atol=1e-6)
        # the cap drops the oldest pairs: without it the steps differ
        monkeypatch.setattr(optimize, "LBFGS_MEMORY", len(result.trace))
        uncapped = minimize_lbfgs(Objective(rosenbrock, 2), np.zeros(2),
                                  1e-12, batch=per_point_batch(rosenbrock))
        assert uncapped.trace[:LBFGS_MEMORY + 2] == \
            result.trace[:LBFGS_MEMORY + 2]
        assert uncapped.trace != result.trace

    def test_deterministic(self):
        results = []
        for _ in range(2):
            def energy(t):
                return float((t[0] - 0.4) ** 2 + 0.3 * (t[1] ** 4))

            results.append(minimize_lbfgs(Objective(energy, 2), np.zeros(2),
                                          1e-9, batch=per_point_batch(energy)))
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
        batch = ({"batch": per_point_batch(quartic)}
                 if minimize is minimize_lbfgs else {})
        result = minimize(obj, np.zeros(3), 1e-12, max_evals=budget, **batch)
        assert result.n_energy_evals == obj.evaluation_count
        assert result.n_energy_evals <= max(start, budget)
        assert not result.converged
        # the best evaluated iterate: for L-BFGS the last accepted point,
        # for Nelder-Mead the best point evaluated at all
        assert seen[tuple(result.theta_opt)] == result.energy
        best = (min(result.trace) if minimize is minimize_lbfgs
                else min(seen.values()))
        assert result.energy == best
