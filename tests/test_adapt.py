from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from oracles import commutator, finite_difference_gradient

from vqebench import adapt
from vqebench.adapt import (
    AdaptConfig,
    QubitProblem,
    run_adapt,
    run_vqe,
    screen_pool,
    select_operator,
)
from vqebench.ansatz import (
    Ansatz,
    build_uccsd_pool,
    energy_gradient,
    prepare_state,
)
from vqebench.fcidump import MolecularHamiltonian, OpenShellError, load_fcidump
from vqebench.fci import infidelity_vs_fci, solve_fci
from vqebench.pauli import PauliSum, commutator_term_counts
from vqebench.statevector import expectation

DATA = Path(__file__).parent / "data"


SYSTEMS = {"h2": "h2_r0.735.fcidump", "nah": "nah_r1.800.fcidump",
           "h4": "h4_r1.000.fcidump"}


@lru_cache(maxsize=None)
def problem_of(name):
    """The `QubitProblem` of a committed test system."""
    return QubitProblem(load_fcidump(DATA / SYSTEMS[name]))


@pytest.fixture(scope="module")
def h2():
    return problem_of("h2")


@pytest.fixture(scope="module")
def nah():
    return problem_of("nah")


def random_ansatz(pool, rng, length):
    """A random ansatz of ``length`` operators and its angles."""
    pairs = [(int(rng.integers(len(pool))), float(rng.uniform(-0.5, 0.5)))
             for _ in range(length)]
    return Ansatz(pool, [pid for pid, _ in pairs]), [t for _, t in pairs]


def diagonal_problem():
    """HF determinant is the exact ground state: diagonal h1, no h2."""
    return QubitProblem(MolecularHamiltonian(
        2, 2, 0.3, np.diag([-1.0, 0.5]), np.zeros((2, 2, 2, 2)),
        label="diag"))


class TestScreenPool:
    def test_eigenstate_gives_zero_gradients(self, h2):
        sol = solve_fci(h2)
        grads = screen_pool(sol.ground_state, h2.h_p, h2.pool)
        np.testing.assert_allclose(grads, 0.0, atol=1e-10)

    def test_brillouin_at_hartree_fock(self, h2):
        grads = screen_pool(h2.reference, h2.h_p, h2.pool)
        assert abs(grads[0]) < 1e-10   # single vanishes (canonical orbitals)
        assert abs(grads[1]) > 1e-3    # double drives the correlation

    def test_non_hermitian_hamiltonian_rejected(self, h2):
        with pytest.raises(ValueError):
            screen_pool(h2.reference, PauliSum(h2.h_p.n_qubits, {
                key: 1j * c for key, c in h2.h_p.terms.items()}), h2.pool)

    @pytest.mark.parametrize("state", ["hf", "random"])
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_matches_dense_commutator(self, name, state):
        problem = problem_of(name)
        h_p, pool, ref = problem.h_p, problem.pool, problem.reference
        psi = ref
        if state == "random":
            rng = np.random.default_rng(11)
            psi = prepare_state(*random_ansatz(pool, rng, 3), ref)
        expected = [expectation(psi, commutator(h_p, op.qubit_form)
                                .restrict(h_p.basis))
                    for op in pool]
        np.testing.assert_allclose(screen_pool(psi, h_p, pool), expected,
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_matches_finite_difference_of_extended_ansatz(self, name):
        problem = problem_of(name)
        h_p, pool, ref = problem.h_p, problem.pool, problem.reference
        rng = np.random.default_rng(42)
        for _ in range(5):
            # H2 keeps its fixed (double, single) bases; the larger pools
            # draw two operators at random
            ids = (1, 0) if name == "h2" else rng.integers(len(pool), size=2)
            base = Ansatz(pool, ids)
            thetas = [rng.uniform(-0.5, 0.5) for _ in ids]
            psi = prepare_state(base, thetas, ref)
            grads = screen_pool(psi, h_p, pool)
            for k in range(len(pool)):
                extended = base.extended(k)
                angles = np.append(thetas, 0.0)
                fd = finite_difference_gradient(extended, angles, ref, h_p)
                assert grads[k] == pytest.approx(fd[-1], abs=1e-6)
                # the adjoint sweep's last component is the same product
                adjoint = energy_gradient(extended, angles, ref, h_p)
                assert grads[k] == pytest.approx(adjoint[-1], abs=1e-12)

    def test_ledger_charges_commutator_terms(self):
        # One charged screening; the extra screening of the final state
        # after max_iterations runs out is not charged.
        problem = problem_of("h2")
        h_p, pool = problem.h_p, problem.pool
        res = run_adapt(problem, AdaptConfig(max_iterations=1))
        ledger = res.ledger
        assert not res.converged and len(res.trace) == 1
        assert ledger.commutator_evaluations == len(pool)
        comm_terms = sum(
            commutator(h_p, op.qubit_form).non_identity_term_count()
            for op in pool)
        assert ledger.pauli_term_measurements == (
            comm_terms
            + ledger.energy_evaluations * h_p.non_identity_term_count())

    def test_h4_commutator_term_counts_are_pinned(self):
        # The ledger input of every H4 screening; 8400 before the product
        # loop of `commutator` was inlined.
        problem = problem_of("h4")
        ops = [op.qubit_form for op in problem.pool]
        assert sum(
            commutator(problem.h_p, op).non_identity_term_count()
            for op in ops) == 8400
        assert sum(commutator_term_counts(problem.h_p, ops)) == 8400

    def test_h6_commutator_term_counts_are_pinned(self):
        # 12 qubits: 919 terms of H against 81 pool operators
        problem = QubitProblem(
            load_fcidump(DATA / "h6" / "h6_r1.000.fcidump"))
        assert len(problem.h_p) == 919 and len(problem.pool) == 81
        assert sum(problem.commutator_counts) == 236060

    def test_counts_are_computed_once_and_only_for_adapt(self, monkeypatch):
        calls = []
        counts = adapt.commutator_term_counts

        def counting(*args):
            calls.append(args)
            return counts(*args)

        monkeypatch.setattr(adapt, "commutator_term_counts", counting)
        problem = QubitProblem(load_fcidump(DATA / SYSTEMS["h2"]))
        solve_fci(problem)
        run_vqe(problem)
        assert calls == []
        cfg = AdaptConfig(max_iterations=1)
        first, second = run_adapt(problem, cfg), run_adapt(problem, cfg)
        assert len(calls) == 1
        assert first.ledger.as_dict() == second.ledger.as_dict()


class TestSelectOperator:
    def test_largest_magnitude_wins(self):
        pool = build_uccsd_pool(2, 2)
        assert select_operator([0.1, -0.5], pool) == 1

    def test_tie_breaks_to_lowest_index(self):
        pool = build_uccsd_pool(2, 2)
        assert select_operator([0.3, 0.3], pool) == 0
        assert select_operator([-0.3, 0.3], pool) == 0

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            select_operator([], [])

    def test_position_in_a_reordered_pool(self):
        pool = build_uccsd_pool(3, 2)
        rev = pool[::-1]
        grads = [-0.9, 0.1, 0.2, -0.3, 0.4, 0.5]
        selected = select_operator(grads, rev)
        assert selected == 0 and type(selected) is int
        ansatz = Ansatz(rev, [selected])
        assert ansatz.pool[ansatz.ids[0]] is pool[-1]
        assert pool[-1].description == "double 00->22 (paired)"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradients_rejected(self, bad):
        pool = build_uccsd_pool(3, 2)
        for position in (0, 3):
            grads = [0.1] * len(pool)
            grads[position] = bad
            with pytest.raises(ValueError, match="gradients must be finite"):
                select_operator(grads, pool)


class TestRunAdapt:
    def test_h2_reaches_fci(self, h2):
        sol = solve_fci(h2)
        for opt in ("nelder_mead", "lbfgs"):
            res = run_adapt(h2, AdaptConfig(optimizer=opt))
            assert res.converged
            assert res.energy == pytest.approx(sol.energy, abs=2e-6)
            assert res.final_grad_norm <= 1e-2

    def test_first_selection_is_the_double(self, h2):
        res = run_adapt(h2, AdaptConfig(optimizer="lbfgs"))
        first = res.trace[0]
        assert "double" in res.ansatz.pool[first.selected_pool_id].description

    def test_exact_reference_converges_with_empty_ansatz(self):
        res = run_adapt(diagonal_problem(), AdaptConfig())
        assert res.converged
        assert len(res.ansatz) == 0
        assert len(res.trace) == 1
        assert res.trace[0].selected_pool_id is None
        # energy is the HF determinant energy: 2 * (-1.0) + core
        assert res.energy == pytest.approx(-1.7)

    def test_empty_ansatz_state_is_not_the_problem_reference(self):
        problem = diagonal_problem()
        res = run_adapt(problem, AdaptConfig())
        assert len(res.ansatz) == 0
        state = res.prepared_state()
        assert state is not problem.reference
        state[:] = 7.0  # an in-place edit must not reach the problem
        np.testing.assert_array_equal(problem.reference, [1.0, 0, 0, 0])

    def test_trace_invariants(self, nah):
        res = run_adapt(nah, AdaptConfig(optimizer="lbfgs"))
        energies = [rec.energy for rec in res.trace]
        assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:]))
        counts = [rec.measurement_count_cumulative for rec in res.trace]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        assert counts[-1] == res.ledger.total()
        for rec in res.trace:
            assert rec.grad_norm == pytest.approx(
                float(np.linalg.norm(rec.grad_vector)), abs=1e-12)

    def test_converged_run_ends_below_threshold(self, nah):
        cfg = AdaptConfig(optimizer="lbfgs", grad_norm_threshold=1e-2)
        res = run_adapt(nah, cfg)
        assert res.converged
        assert res.final_grad_norm <= 1e-2

    def test_tight_threshold_forces_more_operators(self, nah):
        loose = run_adapt(nah, AdaptConfig(optimizer="lbfgs"))
        tight = run_adapt(nah, AdaptConfig(optimizer="lbfgs",
                                           grad_norm_threshold=1e-5))
        assert len(tight.ansatz) > len(loose.ansatz)
        assert tight.energy <= loose.energy + 1e-10
        # repeated selection of the same pool operator is legal
        ids = tight.ansatz.ids
        assert len(ids) > len(set(ids)) or len(tight.ansatz) <= len(
            tight.ansatz.pool)

    def test_unconverged_at_max_iterations(self, nah):
        cfg = AdaptConfig(optimizer="lbfgs", max_iterations=1)
        res = run_adapt(nah, cfg)
        assert not res.converged
        assert len(res.ansatz) == 1

    def test_final_grad_norm_is_that_of_the_returned_state(self):
        problem = QubitProblem(load_fcidump(DATA / "nah_r1.500.fcidump"))
        res = run_adapt(problem, AdaptConfig(optimizer="lbfgs",
                                             max_iterations=1))
        psi = res.prepared_state()
        basis = problem.h_p.basis
        grads = [expectation(psi, commutator(problem.h_p,
                                             op.qubit_form).restrict(basis))
                 for op in res.ansatz.pool]
        assert not res.converged
        assert res.final_grad_norm == pytest.approx(np.linalg.norm(grads),
                                                    abs=1e-10)
        assert res.final_grad_norm < res.trace[-1].grad_norm

    def test_empty_pool_returns_reference_energy(self):
        ham = MolecularHamiltonian(1, 2, 0.2, np.array([[-0.7]]),
                                   np.full((1, 1, 1, 1), 0.3), label="1orb")
        res = run_adapt(QubitProblem(ham), AdaptConfig())
        assert res.converged
        assert len(res.ansatz) == 0
        assert res.energy == pytest.approx(2 * -0.7 + 0.3 + 0.2)

    def test_variational_floor(self, nah):
        sol = solve_fci(nah)
        for opt in ("nelder_mead", "lbfgs"):
            res = run_adapt(nah, AdaptConfig(optimizer=opt))
            assert res.energy >= sol.energy - 1e-9


class TestRunVqe:
    def test_h2_both_optimizers(self, h2):
        sol = solve_fci(h2)
        for opt in ("nelder_mead", "lbfgs"):
            res = run_vqe(h2, AdaptConfig(optimizer=opt))
            assert res.energy == pytest.approx(sol.energy, abs=5e-6)
            assert len(res.ansatz) == 2  # the full CAS(2,2) UCCSD ansatz

    def test_empty_pool_returns_hf(self):
        ham = MolecularHamiltonian(1, 2, 0.0, np.array([[-0.9]]),
                                   np.zeros((1, 1, 1, 1)), label="1orb")
        res = run_vqe(QubitProblem(ham), AdaptConfig())
        assert res.energy == pytest.approx(-1.8)
        assert len(res.ansatz) == 0
        assert res.resources == {"gate_count": 0, "depth": 0}

    def test_adapt_ledger_exceeds_vqe_ledger_on_nah(self, nah):
        for opt in ("nelder_mead", "lbfgs"):
            cfg = AdaptConfig(optimizer=opt)
            assert (run_adapt(nah, cfg).ledger.total()
                    > run_vqe(nah, cfg).ledger.total())

    def test_infidelity_below_threshold(self, h2):
        sol = solve_fci(h2)
        res = run_vqe(h2, AdaptConfig(optimizer="lbfgs"))
        assert infidelity_vs_fci(res.prepared_state(), sol) < 1e-6

    def test_deterministic(self, h2):
        a = run_vqe(h2, AdaptConfig(optimizer="lbfgs"))
        b = run_vqe(h2, AdaptConfig(optimizer="lbfgs"))
        assert a.energy == b.energy
        np.testing.assert_array_equal(a.theta, b.theta)
        assert a.ledger.as_dict() == b.ledger.as_dict()


class TestAdjointGradients:
    """L-BFGS takes exact adjoint gradients, each charged as the ``2n``
    evaluations of central differences, so the ledger and the selected
    operators do not depend on how the gradient was found."""

    @staticmethod
    def counted_fits(monkeypatch):
        """Record, per fit, the objective's own evaluations and the angle
        count of every gradient taken."""
        fits = []
        objective, gradient = adapt.Objective, adapt.energy_gradient

        def counting_objective(fn, dimension, on_evaluation=None):
            fits.append({"energies": 0, "gradients": []})

            def counted(theta, fit=fits[-1]):
                fit["energies"] += 1
                return fn(theta)
            return objective(counted, dimension, on_evaluation)

        def counting_gradient(ansatz, thetas, reference, h_p):
            fits[-1]["gradients"].append(len(thetas))
            return gradient(ansatz, thetas, reference, h_p)

        monkeypatch.setattr(adapt, "Objective", counting_objective)
        monkeypatch.setattr(adapt, "energy_gradient", counting_gradient)
        return fits

    @pytest.mark.parametrize("runner", [run_vqe, run_adapt])
    def test_each_gradient_costs_2n_evaluations(
            self, runner, monkeypatch):
        h4 = problem_of("h4")
        fits = self.counted_fits(monkeypatch)
        result = runner(h4, AdaptConfig(optimizer="lbfgs"))
        assert fits and all(fit["gradients"] for fit in fits)
        charged = sum(fit["energies"] + 2 * sum(fit["gradients"])
                      for fit in fits)
        ledger = result.ledger
        assert ledger.energy_evaluations == charged
        n_terms = h4.h_p.non_identity_term_count()
        screened = ledger.commutator_evaluations // len(h4.pool)
        assert ledger.pauli_term_measurements == \
            charged * n_terms + screened * sum(h4.commutator_counts)

    @pytest.mark.parametrize("path,ids,measurements,energies", [
        pytest.param(DATA / SYSTEMS["h4"], (10, 15, 7, 11, 12, 4, 18, 3, 0),
                     235984, 826, id="h4"),
        pytest.param(DATA / "h6" / "h6_r1.000.fcidump",
                     (59, 38, 72, 28, 53, 17, 20, 67, 39, 61, 60, 40, 29, 48,
                      77, 14, 80, 9, 30, 21, 56, 68, 69, 51, 52, 22, 42, 41,
                      13, 12, 47, 46, 3, 7, 76, 75, 5, 33, 1, 34),
                     26213476, 18012, id="h6")])
    def test_adapt_matches_the_finite_difference_run(
            self, path, ids, measurements, energies, monkeypatch):
        problem = QubitProblem(load_fcidump(path))
        runs = [run_adapt(problem)]
        monkeypatch.setattr(adapt, "energy_gradient",
                            finite_difference_gradient)
        runs.append(run_adapt(problem))
        for result in runs:
            assert result.converged and result.ansatz.ids == ids
            assert result.ledger.total() == measurements
            assert result.ledger.energy_evaluations == energies
        assert runs[0].ledger.as_dict() == runs[1].ledger.as_dict()
        assert runs[0].energy == pytest.approx(runs[1].energy, abs=1e-10)

    def test_gradient_of_the_wrong_length_is_an_internal_error(
            self, monkeypatch, capsys):
        from vqebench.cli import main

        def one_short(*args):
            return energy_gradient(*args)[:-1]

        monkeypatch.setattr(adapt, "energy_gradient", one_short)
        with pytest.raises(ValueError, match="gradient of 2 components"):
            run_vqe(problem_of("h2"), AdaptConfig(optimizer="lbfgs"))
        assert main(["run", "--fcidump", str(DATA / SYSTEMS["h2"]),
                     "--method", "vqe", "--optimizer", "lbfgs"]) == 2
        assert "gradient of 2 components" in capsys.readouterr().err


class TestRecords:
    @pytest.mark.parametrize("optimizer", adapt.OPTIMIZERS)
    def test_records_hold_python_scalars(self, h2, optimizer, monkeypatch):
        # a numpy scalar would print as np.float64(...) in a record's repr
        fits, name = [], f"minimize_{optimizer}"
        minimize = getattr(adapt, name)

        def recorded(*args, **kwargs):
            fits.append(minimize(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(adapt, name, recorded)
        cfg = AdaptConfig(optimizer=optimizer)
        vqe, adapted = run_vqe(h2, cfg), run_adapt(h2, cfg)
        assert fits and adapted.trace
        for record in fits + [vqe, adapted]:
            assert type(record.energy) is float
            assert type(record.converged) is bool
        for record in adapted.trace:
            assert type(record.energy) is float
            assert type(record.grad_norm) is float
        assert type(solve_fci(h2).energy) is float

    def test_trace_records_each_fit_convergence(self, h2, monkeypatch):
        fits, minimize = [], adapt.minimize_lbfgs

        def second_unconverged(*args, **kwargs):
            fits.append(minimize(*args, **kwargs))
            return fits[-1]._replace(converged=len(fits) != 2)

        monkeypatch.setattr(adapt, "minimize_lbfgs", second_unconverged)
        result = run_adapt(h2, AdaptConfig(grad_norm_threshold=1e-6))
        assert len(fits) == 3 and len(result.trace) == 4
        assert [record.optimizer_converged for record in result.trace] == [
            True, False, True, True]


class TestAdaptConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptConfig(grad_norm_threshold=0.0)
        with pytest.raises(ValueError):
            AdaptConfig(max_iterations=0)
        with pytest.raises(ValueError):
            AdaptConfig(optimizer="cobyla")
        with pytest.raises(ValueError):
            AdaptConfig(max_iterations=1.7)

    @pytest.mark.parametrize("name", ["grad_norm_threshold",
                                      "tol_rel_energy"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_thresholds_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            AdaptConfig(**{name: value})


class TestQubitProblem:
    def test_odd_electron_count_rejected_before_any_transform(
            self, monkeypatch):
        def no_transform(ham):
            raise AssertionError("transform ran on an open-shell input")

        monkeypatch.setattr(adapt, "to_fermion_hamiltonian", no_transform)
        with pytest.raises(OpenShellError, match="closed-shell"):
            QubitProblem(MolecularHamiltonian(
                2, 1, 0.0, np.eye(2), np.zeros((2, 2, 2, 2)), label="odd"))
