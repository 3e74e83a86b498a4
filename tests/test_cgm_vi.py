"""VI solver: ball constraint, schedule, ergodic averaging, trace layout."""

from dataclasses import replace

import numpy as np
import pytest

from cgm.cgm_vi import (
    DegenerateStart,
    VISolverConfig,
    cgm_vi_run,
    delta_default,
    ergodic_average,
)
from cgm.problems import ConstraintSet, QuadraticRow, VIProblem, hbg_instantiate
from conftest import stepped_velocities


@pytest.fixture(scope="module")
def small_problem():
    return hbg_instantiate(8, 0.7, seed=2)


@pytest.fixture(scope="module")
def small_trace(small_problem):
    return cgm_vi_run(small_problem, VISolverConfig(horizon=120))


class TestDelta:
    def test_floor_at_one(self):
        assert delta_default(100.0, 0.0, 1.0, 1.0) == 1.0

    def test_tight_value(self):
        # D^2 ell^2 / energy when that exceeds one
        assert delta_default(1.0, 0.0, 4.0, 1.0) == pytest.approx(16.0)

    def test_zero_energy_rejected(self):
        with pytest.raises(DegenerateStart):
            delta_default(0.0, 0.0, 1.0, 1.0)


class TestAuxConstraint:
    # the ball row is a QuadraticRow with Q = None (the identity)
    def test_ball_membership_sign(self):
        g = QuadraticRow(center=np.zeros(2), r=1.0)
        assert g.value(np.zeros(2)) == pytest.approx(-1.0)
        assert g.value(np.array([2.0, 0.0])) == pytest.approx(3.0)
        np.testing.assert_allclose(g.gradient(np.array([1.0, 1.0])), [2.0, 2.0])
        assert g.smoothness == 2.0

    def test_trace_holds_the_rows_it_stepped_on(self, small_problem, small_trace):
        # the problem's rows, then the ball ||x - x0||^2 <= r as the last row
        rows, problem_rows = small_trace.constraints, small_problem.constraints
        assert rows.n_bounds == problem_rows.n_bounds
        np.testing.assert_array_equal(rows.W, problem_rows.W)
        np.testing.assert_array_equal(rows.c, problem_rows.c)
        assert len(rows.smooth) == len(problem_rows.smooth) + 1
        ball = rows.smooth[-1]
        np.testing.assert_array_equal(ball.center, small_problem.x0)
        energy = small_trace.normFx0_sq + small_problem.B
        assert ball.Q is None and ball.r == small_trace.delta / small_problem.ell_F**2 * energy

    def test_nonpositive_radius_rejected(self):
        for r in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                QuadraticRow(center=np.zeros(2), r=r)
        # a NaN in Q made eigvalsh report the smoothness -0.0
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                QuadraticRow(center=np.zeros(2), r=1.0, Q=np.diag([1.0, bad]))


class TestSchedule:
    def test_step_formula(self, small_problem, small_trace):
        kappa = small_problem.ell_F / small_problem.mu
        eta0 = small_trace.etas[0]
        assert eta0 == pytest.approx(
            1.0 / (small_problem.mu * 16.0 * kappa**2)
        )
        t = np.arange(small_trace.horizon)
        np.testing.assert_allclose(
            small_trace.etas, 1.0 / (small_problem.mu * (t + 16.0 * kappa**2)), rtol=1e-15)

    def test_steps_decrease(self, small_trace):
        steps = small_trace.etas
        assert all(a > b for a, b in zip(steps, steps[1:]))


class TestRun:
    def test_trace_shapes(self, small_problem, small_trace):
        T = 120
        assert small_trace.xs.shape == (T + 1, small_problem.dim)
        _, vs = stepped_velocities(cgm_vi_run, small_problem, VISolverConfig(horizon=T))
        assert vs.shape == (T, small_problem.dim)
        assert not hasattr(small_trace, "vs")
        assert small_trace.dist_x0.shape == (T + 1,)
        assert small_trace.n_active.shape == small_trace.qp_path.shape == (T,)
        assert np.all(small_trace.n_active[small_trace.qp_path == ""] == 0)
        assert small_trace.horizon == T

    def test_iterates_stay_in_ball(self, small_trace):
        radius = np.sqrt(small_trace.constraints.smooth[-1].r)
        # ball violations are possible transiently but distances stay bounded
        assert float(np.max(small_trace.dist_x0)) <= 2.0 * radius

    def test_converges_to_uniform_equilibrium(self, small_problem):
        trace = cgm_vi_run(small_problem, VISolverConfig(horizon=2000))
        d = small_problem.dim // 2
        x_eq = np.full(2 * d, 1.0 / d)
        assert float(np.linalg.norm(trace.xs[-1] - x_eq)) < 0.05

    def test_delta_below_minimum_rejected(self, small_problem):
        with pytest.raises(ValueError):
            cgm_vi_run(small_problem, VISolverConfig(horizon=5, delta=1.0))

    def test_larger_delta_accepted(self, small_problem):
        f0 = small_problem.op_F(small_problem.x0)
        tight = delta_default(
            float(f0 @ f0), small_problem.B, small_problem.diameter_D,
            small_problem.ell_F,
        )
        trace = cgm_vi_run(
            small_problem, VISolverConfig(horizon=5, delta=tight * 2)
        )
        assert trace.delta == pytest.approx(tight * 2)

    def test_constraints_evaluated_once_per_iterate(self, small_problem, monkeypatch):
        # one evaluation per step and one for x^T
        calls = []
        values = ConstraintSet.values

        def counted(self, x):
            calls.append(None)
            return values(self, x)

        monkeypatch.setattr(ConstraintSet, "values", counted)
        T = 30
        trace = cgm_vi_run(small_problem, VISolverConfig(horizon=T))
        assert len(calls) <= T + 2
        monkeypatch.undo()
        for x, viol in zip(trace.xs, trace.max_violation):
            assert viol == trace.constraints.max_violation(x)

    def test_determinism(self, small_problem):
        t1 = cgm_vi_run(small_problem, VISolverConfig(horizon=60))
        t2 = cgm_vi_run(small_problem, VISolverConfig(horizon=60))
        np.testing.assert_array_equal(t1.xs, t2.xs)

    def test_nonfinite_iterate_stops_run(self):
        # F(x) = x inside a ball-only problem; the 4th evaluation (step t=2,
        # after the start-point one) returns inf, so x^3 is -inf
        calls = []

        def op_F(x):
            calls.append(None)
            return np.full(2, np.inf) if len(calls) == 4 else x

        problem = VIProblem(
            op_F=op_F, mu=1.0, ell_F=1.0, B=0.0,
            constraints=ConstraintSet(n_bounds=0, W=np.zeros((0, 2)), c=[]),
            x0=np.array([0.5, 0.5]), diameter_D=1.0, dim=2,
        )
        with pytest.raises(RuntimeError, match="iteration 2: non-finite iterate"):
            cgm_vi_run(problem, VISolverConfig(horizon=3))

    def test_operator_failure_names_iteration(self, small_problem):
        # the start-point evaluation is call 1, so call 4 is made at step t=2
        calls = []

        def op_F(x):
            calls.append(None)
            if len(calls) == 4:
                raise ArithmeticError("operator blew up")
            return small_problem.op_F(x)

        problem = replace(small_problem, op_F=op_F)
        with pytest.raises(RuntimeError, match="iteration 2 failed: operator blew up"):
            cgm_vi_run(problem, VISolverConfig(horizon=5))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VISolverConfig(horizon=0)
        for delta in (0.5, np.nan, -np.inf):
            with pytest.raises(ValueError):
                VISolverConfig(horizon=5, delta=delta)


class TestErgodicAverage:
    def test_weights_match_formula(self, small_trace):
        T = 40
        w = np.arange(T) + 16.0 * small_trace.kappa**2 - 1.0
        expected = (w[:, None] * small_trace.xs[:T]).sum(axis=0) / w.sum()
        np.testing.assert_allclose(ergodic_average(small_trace, T), expected)

    def test_contraction_is_the_two_step_sum_bitwise(self, hbg_seed_runs, vi_trace):
        # ergodic_average's one einsum must add the same products in the same
        # order as the (T, n) product summed over axis 0
        cases = [(trace, T) for _, trace in hbg_seed_runs for T in (1, 2, 129, 1000)]
        for trace, T in [*cases, (vi_trace["trace"], 3000)]:
            w = np.arange(T) + 16.0 * trace.kappa**2 - 1.0
            expected = (w[:, None] * trace.xs[:T]).sum(axis=0) / w.sum()
            assert ergodic_average(trace, T).tobytes() == expected.tobytes(), T

    def test_weight_sum_closed_form(self, small_trace):
        T = 40
        w = np.arange(T) + 16.0 * small_trace.kappa**2 - 1.0
        closed = T * (T + 32.0 * small_trace.kappa**2 - 3.0) / 2.0
        assert float(np.sum(w)) == pytest.approx(closed)

    def test_average_stays_in_hull(self, small_trace):
        x_bar = small_trace.ergodic
        lo = small_trace.xs[: small_trace.horizon].min(axis=0)
        hi = small_trace.xs[: small_trace.horizon].max(axis=0)
        assert np.all(x_bar >= lo - 1e-12)
        assert np.all(x_bar <= hi + 1e-12)

    def test_horizon_overflow_rejected(self, small_trace):
        with pytest.raises(ValueError):
            ergodic_average(small_trace, small_trace.xs.shape[0] + 1)
