"""Minimization solver: schedules, stepping, trace layout, convergence laws."""

import math

import numpy as np
import pytest

import cgm.cgm_min
from cgm.cgm_min import (
    CONSTANT,
    VARYING,
    MinSolverConfig,
    ScheduleInvalid,
    build_polytope,
    cgm_iterate,
    cgm_min_run,
    cgm_step,
    step_sizes,
)
from cgm.cgm_vi import VISolverConfig, cgm_vi_run
from cgm.problems import (
    ConstraintSet,
    MinProblem,
    hbg_instantiate,
    rap_generate,
    violated_set,
)
from cgm.qp import KKT_TOL


@pytest.fixture(scope="module")
def small_problem():
    return rap_generate(10, seed=3)


class TestSchedules:
    def test_constant_step_value(self, small_problem):
        etas = step_sizes(small_problem, 100, CONSTANT)
        np.testing.assert_array_equal(etas, math.log(100) / (small_problem.mu * 100))
        assert etas.size == 100

    def test_constant_step_needs_two_iterations(self, small_problem):
        with pytest.raises(ScheduleInvalid, match="constant schedule needs T >= 2"):
            step_sizes(small_problem, 1, CONSTANT)

    def test_varying_step_decreases(self):
        problem = MinProblem(
            value_f=None, grad_f=None, mu=1.0, ell_f=3.0,
            constraints=ConstraintSet(n_bounds=0, W=[[1.0, 0.0]], c=[-1.0]),
            x0=np.zeros(2), dim=2,
        )
        steps = step_sizes(problem, 10, VARYING)
        assert all(a > b for a, b in zip(steps, steps[1:]))
        assert steps[0] == pytest.approx(1.0 / 3.0)

    def test_validate_rejects_short_constant_horizon(self, small_problem):
        # kappa log T > T for tiny T relative to the condition number
        kappa = small_problem.ell_f / small_problem.mu
        bad_T = 2
        if bad_T >= kappa * math.log(bad_T):
            pytest.skip("instance too well conditioned to trigger")
        with pytest.raises(ScheduleInvalid, match="violates T >= kappa"):
            step_sizes(small_problem, bad_T, CONSTANT)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MinSolverConfig(horizon=0)
        with pytest.raises(ValueError):
            MinSolverConfig(horizon=10, schedule="bogus")


class TestStep:
    def test_gradient_step_when_feasible_interior(self):
        # strictly interior point of a single-halfspace problem
        from cgm.problems import ConstraintSet, MinProblem

        problem = MinProblem(
            value_f=lambda x: 0.5 * float(x @ x),
            grad_f=lambda x: x,
            mu=1.0,
            ell_f=1.0,
            constraints=ConstraintSet(n_bounds=0, W=[[1.0, 0.0]], c=[-1.0]),
            x0=np.array([0.5, 0.5]),
            dim=2,
        )
        x = np.array(problem.x0)
        eta = 0.5
        x_new, v, diag = cgm_step(problem.grad_f(x), problem.constraints, x, problem.mu, eta)
        assert diag["violated"] == 0
        assert diag["qp_path"] == ""
        np.testing.assert_allclose(v, -x)
        np.testing.assert_allclose(x_new, x + eta * v)

    def test_projected_step_when_violated(self, small_problem):
        x = np.array(small_problem.x0) - 0.2  # pushes coordinates negative
        eta = 1e-3
        _, v, diag = cgm_step(
            small_problem.grad_f(x), small_problem.constraints, x, small_problem.mu, eta
        )
        assert diag["violated"] > 0
        assert diag["max_violation"] == small_problem.constraints.max_violation(x)
        assert diag["qp_path"] in ("direct", "dual", "gi")
        # velocity must satisfy every polytope row
        constraints = small_problem.constraints
        values = constraints.values(x)
        polytope = build_polytope(constraints, x, small_problem.mu, values, violated_set(values))
        a, b = polytope.matrix()
        assert float(np.max(a @ v - b)) <= 1e-8


class TestRun:
    def test_trace_shapes(self, small_problem):
        T = 50
        trace = cgm_min_run(small_problem, MinSolverConfig(horizon=T))
        assert trace.xs.shape == (T + 1, small_problem.dim)
        assert trace.vs.shape == (T, small_problem.dim)
        assert trace.etas.shape == (T,)
        assert trace.max_violation.shape == (T + 1,)
        assert trace.f_values.shape == (T + 1,)
        assert trace.n_active.shape == trace.qp_path.shape == (T,)
        assert np.all(trace.n_active[trace.qp_path == ""] == 0)
        assert trace.horizon == T

    @pytest.mark.parametrize("family", ["rap", "hbg", "interior"])
    def test_trace_records_violations_and_kkt_residuals(self, family):
        # rap and hbg run a QP at every step; the interior run never does
        if family == "hbg":
            problem = hbg_instantiate(10, 0.8, seed=0)
            trace = cgm_vi_run(problem, VISolverConfig(horizon=200))
            constraints, direction = trace.constraints, problem.op_F
        else:
            problem = rap_generate(50, seed=0) if family == "rap" else MinProblem(
                value_f=lambda x: 0.5 * (x * x).sum(axis=-1), grad_f=lambda x: x, mu=1.0, ell_f=1.0,
                constraints=ConstraintSet(n_bounds=0, W=[[1.0, 0.0]], c=[-1.0]),
                x0=np.array([0.5, 0.5]), dim=2,
            )
            trace = cgm_min_run(problem, MinSolverConfig(horizon=200))
            constraints, direction = problem.constraints, problem.grad_f
            assert trace.constraints is constraints
        qp = trace.qp_path != ""
        assert trace.n_violated.shape == trace.kkt_residual.shape == (trace.horizon,)
        assert qp.all() if family != "interior" else not qp.any()
        for t in range(trace.horizon):
            x = trace.xs[t]
            assert trace.n_violated[t] == violated_set(constraints.values(x)).size
            assert qp[t] == (trace.n_violated[t] > 0)
            gate = max(KKT_TOL, 1e3 * KKT_TOL * (1.0 + np.linalg.norm(direction(x))))
            assert 0.0 <= trace.kkt_residual[t] <= (gate if qp[t] else 0.0)

    def test_constraints_evaluated_once_per_iterate(self, small_problem, monkeypatch):
        # the start-point feasibility check, one evaluation per step, and x^T
        calls = []
        values = ConstraintSet.values

        def counted(self, x):
            calls.append(None)
            return values(self, x)

        monkeypatch.setattr(ConstraintSet, "values", counted)
        T = 30
        trace = cgm_min_run(small_problem, MinSolverConfig(horizon=T))
        assert len(calls) <= T + 2
        monkeypatch.undo()
        for x, viol in zip(trace.xs, trace.max_violation):
            assert viol == small_problem.constraints.max_violation(x)

    def test_constant_schedule_uses_one_step_size(self, small_problem):
        trace = cgm_min_run(small_problem, MinSolverConfig(horizon=30))
        assert np.ptp(trace.etas) == 0.0

    def test_varying_schedule_matches_formula(self, small_problem):
        trace = cgm_min_run(
            small_problem, MinSolverConfig(horizon=30, schedule=VARYING)
        )
        kappa = small_problem.ell_f / small_problem.mu
        expected = 1.0 / (small_problem.mu * (np.arange(30) + kappa))
        np.testing.assert_allclose(trace.etas, expected)

    def test_function_values_decrease_overall(self, small_problem):
        trace = cgm_min_run(small_problem, MinSolverConfig(horizon=200))
        assert trace.f_values[-1] < trace.f_values[0]

    def test_violation_stays_small(self, small_problem):
        trace = cgm_min_run(small_problem, MinSolverConfig(horizon=200))
        assert float(np.max(trace.max_violation)) < 1.0

    def test_infeasible_start_rejected(self, small_problem):
        from dataclasses import replace

        bad = replace(small_problem, x0=-np.ones(small_problem.dim))
        with pytest.raises(ValueError):
            cgm_min_run(bad, MinSolverConfig(horizon=5, schedule=VARYING))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_start_rejected(self, small_problem, bad):
        # NaN compares false against any bound, so the start check must not read
        # "violation > tol"; the run stops before its first gradient
        from dataclasses import replace

        calls = []
        x0 = np.array(small_problem.x0)
        x0[0] = bad
        problem = replace(small_problem, x0=x0, grad_f=lambda x: calls.append(None) or x)
        for schedule in (CONSTANT, VARYING):
            with pytest.raises(ValueError, match="finite"):
                cgm_min_run(problem, MinSolverConfig(horizon=30, schedule=schedule))
        assert not calls

    @pytest.mark.parametrize("d, seed, horizon", [(10, 3, 30), (10, 7, 60), (50, 5, 100)])
    def test_step_sizes_stay_in_range(self, d, seed, horizon):
        # the range (0, min(1/ell_f, 1/alpha)] the analysis allows, which the
        # run no longer checks per step
        problem = rap_generate(d, seed=seed)
        for alpha in (problem.mu, problem.mu / 2):
            eta_max = min(1.0 / problem.ell_f, 1.0 / alpha)
            for schedule in (CONSTANT, VARYING):
                config = MinSolverConfig(horizon=horizon, schedule=schedule, alpha=alpha)
                etas = cgm_min_run(problem, config).etas
                assert etas.shape == (horizon,)
                assert (etas > 0).all() and (etas <= eta_max).all()

    def test_alpha_above_mu_rejected(self, small_problem):
        config = MinSolverConfig(
            horizon=5, schedule=VARYING, alpha=small_problem.mu * 2
        )
        with pytest.raises(ValueError):
            cgm_min_run(small_problem, config)

    def test_reference_fills_residuals(self, small_problem):
        trace = cgm_min_run(
            small_problem,
            MinSolverConfig(horizon=20, schedule=VARYING),
            reference=(None, 0.0),
        )
        np.testing.assert_allclose(trace.f_resid, trace.f_values)

    def test_nonfinite_iterate_stops_run(self):
        # one halfspace row that never binds; the 5th gradient (step t=4, the
        # last one) is inf, so the final iterate is -inf and must not be returned
        from cgm.problems import ConstraintSet, MinProblem

        calls = []

        def grad_f(x):
            calls.append(None)
            return np.full(2, np.inf) if len(calls) == 5 else x

        problem = MinProblem(
            value_f=lambda x: 0.5 * (x * x).sum(axis=-1),
            grad_f=grad_f,
            mu=1.0,
            ell_f=1.0,
            constraints=ConstraintSet(n_bounds=0, W=[[1.0, 0.0]], c=[-1.0]),
            x0=np.array([0.5, 0.5]),
            dim=2,
        )
        with pytest.raises(RuntimeError, match="iteration 4: non-finite iterate"):
            cgm_min_run(problem, MinSolverConfig(horizon=5, schedule=VARYING))

    @pytest.mark.parametrize("entry", [1e200, np.inf, np.nan])
    def test_iterate_check_scans_entries_when_the_dot_overflows(self, entry, monkeypatch):
        # x . x overflows at 1e200 as it does at inf; only a non-finite entry aborts
        diag = {"max_violation": 0.0, "violated": 0, "n_active": 0, "kkt_residual": 0.0,
                "qp_path": ""}

        def step(direction, constraints, x, alpha, eta):
            return np.array([entry, 0.5]), np.zeros(2), diag

        monkeypatch.setattr(cgm.cgm_min, "cgm_step", step)
        constraints = ConstraintSet(n_bounds=0, W=[[0.0, 1.0]], c=[-1.0])
        x0, etas = np.array([0.5, 0.5]), np.ones(3)
        if math.isfinite(entry):
            xs = cgm_iterate(lambda x: x, constraints, x0, 1.0, etas)["xs"]
            np.testing.assert_array_equal(xs[1:], [[entry, 0.5]] * 3)
        else:
            with pytest.raises(RuntimeError, match="iteration 0: non-finite iterate"):
                cgm_iterate(lambda x: x, constraints, x0, 1.0, etas)

    def test_determinism(self, small_problem):
        t1 = cgm_min_run(small_problem, MinSolverConfig(horizon=40))
        t2 = cgm_min_run(small_problem, MinSolverConfig(horizon=40))
        np.testing.assert_array_equal(t1.xs, t2.xs)
