"""Instance generation invariants and velocity-polytope membership laws."""

import numpy as np
import pytest

from cgm.problems import (
    ConstraintSet,
    RapData,
    SmoothConstraint,
    build_polytope,
    hbg_instantiate,
    hbg_operator,
    rap_generate,
    rap_unconstrained_min,
    violated_set,
)
from cgm.qp import VelocityPolytope


def feasible_rap_point(problem, rng):
    # random simplex point scaled toward the interior start until feasible
    d = problem.dim
    y = rng.random(d)
    y /= np.sum(y)
    for _ in range(60):
        if np.all(problem.constraints.values(y) <= 0):
            return y
        y = 0.5 * y + 0.5 * problem.x0
    return np.array(problem.x0)


class TestRapGeneration:
    def test_deterministic_given_seed(self):
        p1 = rap_generate(20, seed=5)
        p2 = rap_generate(20, seed=5)
        np.testing.assert_array_equal(p1.data.Sigma, p2.data.Sigma)
        np.testing.assert_array_equal(p1.data.r, p2.data.r)

    def test_seed_changes_instance(self):
        p1 = rap_generate(20, seed=5)
        p2 = rap_generate(20, seed=6)
        assert np.max(np.abs(p1.data.Sigma - p2.data.Sigma)) > 1e-6

    def test_curvature_constants_bound_the_hessian(self):
        problem = rap_generate(15, seed=1)
        eigs = np.linalg.eigvalsh(problem.data.Sigma)
        assert problem.mu == pytest.approx(eigs[0])
        assert problem.ell_f == pytest.approx(eigs[-1])
        assert problem.mu >= 5.0 - 1e-9  # the identity shift floors the spectrum

    def test_start_is_feasible_and_tight(self):
        problem = rap_generate(30, seed=2)
        x0 = problem.x0
        assert np.all(problem.constraints.values(x0) <= 1e-12)
        data = problem.data
        assert float(data.r @ x0) == pytest.approx(data.Rmax)
        assert float(x0 @ data.E @ x0) == pytest.approx(data.Emax)
        assert float(np.sum(x0)) == pytest.approx(1.0)

    def test_constraint_count(self):
        problem = rap_generate(12, seed=0)
        assert len(problem.constraints) == 12 + 4

    def test_gradients_match_finite_differences(self):
        problem = rap_generate(8, seed=3)
        constraints = problem.constraints
        rng = np.random.default_rng(0)
        x = rng.random(8)
        eps = 1e-6
        grads = constraints.gradients(x, np.arange(len(constraints)))
        assert grads.shape == (len(constraints), 8)
        for j in range(8):
            e = np.zeros(8)
            e[j] = eps
            fd = (constraints.values(x + e) - constraints.values(x - e)) / (2 * eps)
            np.testing.assert_allclose(grads[:, j], fd, rtol=0, atol=1e-5)
        # any index subset returns the same rows, in the order asked for
        idx = np.array([8 + 3, 0, 8 + 1, 5])
        np.testing.assert_array_equal(constraints.gradients(x, idx), grads[idx])

    def test_dimension_too_small_rejected(self):
        with pytest.raises(ValueError):
            rap_generate(1)

    def test_unconstrained_minimum_is_stationary(self):
        problem = rap_generate(10, seed=4)
        x_star, f_star = rap_unconstrained_min(problem.data)
        grad = problem.data.Sigma @ x_star + problem.data.a
        assert float(np.linalg.norm(grad)) <= 1e-9
        assert f_star == pytest.approx(problem.value_f(x_star))

    def test_rap_data_validation(self):
        with pytest.raises(np.linalg.LinAlgError):
            RapData(
                Sigma=-np.eye(2), a=np.zeros(2), r=np.ones(2), E=np.eye(2),
                Rmax=1.0, Emax=1.0,
            )


class TestHbgGeneration:
    def test_operator_closed_form(self):
        beta = 0.6
        op = hbg_operator(beta)
        x = np.array([1.0, 0.0, 0.0, 1.0])
        out = op(x)
        np.testing.assert_allclose(
            out, [2 * beta, 1 - beta, -(1 - beta), 2 * beta]
        )

    def test_strong_monotonicity_and_lipschitz(self):
        problem = hbg_instantiate(10, 0.7, seed=0)
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = rng.standard_normal(problem.dim)
            y = rng.standard_normal(problem.dim)
            fx, fy = problem.op_F(x), problem.op_F(y)
            inner = float((fx - fy) @ (x - y))
            dist_sq = float((x - y) @ (x - y))
            assert inner >= problem.mu * dist_sq - 1e-9
            assert float((fx - fy) @ (fx - fy)) <= (
                problem.ell_F**2 * dist_sq + problem.B + 1e-9
            )

    def test_start_on_product_of_simplices(self):
        problem = hbg_instantiate(25, 0.8, seed=42)
        d = problem.dim // 2
        assert float(np.sum(problem.x0[:d])) == pytest.approx(1.0)
        assert float(np.sum(problem.x0[d:])) == pytest.approx(1.0)
        assert float(np.min(problem.x0)) >= 0.0

    def test_beta_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            hbg_instantiate(5, 1.5)
        with pytest.raises(ValueError):
            hbg_instantiate(5, 0.0)

    def test_constraint_count(self):
        problem = hbg_instantiate(7, 0.5)
        assert len(problem.constraints) == 2 * 7 + 4


def _per_row_values(x, bounds, affine, quad=None):
    """Row values evaluated one row at a time, as scalar oracles would."""
    values = [-x[i] for i in range(bounds)]
    values += [float(w @ x) + c for w, c in affine]
    if quad is not None:
        e_mat, emax = quad
        values.append(float(x @ e_mat @ x) - emax)
    return np.array(values)


class TestConstraintSet:
    def test_values_match_per_row_arithmetic_bitwise(self):
        # a row that flips sign on the boundary would change the violated set,
        # so the batched values must equal per-row dot products exactly
        rng = np.random.default_rng(12)
        rap = rap_generate(50, seed=3)
        data = rap.data
        ones = np.ones(50)
        rap_affine = [(ones, -1.0), (-ones, 1.0), (data.r, -data.Rmax)]
        hbg = hbg_instantiate(50, 0.8, seed=3)
        top = np.concatenate([ones, np.zeros(50)])
        bot = np.concatenate([np.zeros(50), ones])
        hbg_affine = [(top, -1.0), (-top, 1.0), (bot, -1.0), (-bot, 1.0)]
        for _ in range(200):
            x = rng.random(50)
            x /= np.sum(x)
            expected = _per_row_values(x, 50, rap_affine, (data.E, data.Emax))
            assert np.array_equal(rap.constraints.values(x), expected)
            y = _random_product_simplex(rng, 50)
            expected = _per_row_values(y, 100, hbg_affine)
            assert np.array_equal(hbg.constraints.values(y), expected)

    def test_append_and_smoothness(self):
        problem = rap_generate(6, seed=0)
        base = problem.constraints
        ball = SmoothConstraint(
            value=lambda x: float(x @ x) - 1.0, gradient=lambda x: 2.0 * x, smoothness=9e9
        )
        grown = base.append(ball)
        assert len(grown) == len(base) + 1
        assert grown.smoothness == 9e9
        assert base.smoothness == 2.0 * float(np.max(np.linalg.eigvalsh(problem.data.E)))
        x = np.full(6, 0.5)
        assert grown.values(x)[-1] == float(x @ x) - 1.0
        np.testing.assert_array_equal(grown.gradients(x, [len(base)]), [2.0 * x])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ConstraintSet(n_bounds=0, W=np.ones(3), c=np.zeros(1))
        with pytest.raises(ValueError):
            ConstraintSet(n_bounds=0, W=np.ones((2, 3)), c=np.zeros(3))
        with pytest.raises(ValueError):
            ConstraintSet(n_bounds=4, W=np.zeros((0, 3)), c=np.zeros(0))


class TestVelocityPolytope:
    def test_violated_set_strict_positivity(self):
        problem = rap_generate(10, seed=1)
        # exactly the strictly positive rows appear, in index order; tight rows
        # can surface with roundoff-sized values at the start point
        values = problem.constraints.values(problem.x0)
        idx = violated_set(values)
        assert np.all(np.diff(idx) > 0)
        assert np.all(values[idx] > 0.0)
        assert np.all(values[idx] <= 1e-12)
        assert np.all(np.delete(values, idx) <= 0.0)

    def test_violated_set_interior_point_empty(self):
        problem = hbg_instantiate(5, 0.5, seed=0)
        # strict interior of the nonnegativity rows, block sums exactly one
        x = np.full(10, 1.0 / 5)
        assert [i for i in violated_set(problem.constraints.values(x)) if i < 10] == []

    def test_nonfinite_point_rejected(self):
        problem = rap_generate(5, seed=1)
        x = np.full(5, np.inf)
        with np.errstate(invalid="ignore"):  # inf - inf in the affine rows
            values = problem.constraints.values(x)
        with pytest.raises(ValueError):
            build_polytope(problem.constraints, x, 1.0, values, violated_set(values))

    def test_polytope_rows_follow_violations(self):
        problem = rap_generate(10, seed=1)
        x = -np.abs(np.random.default_rng(0).random(10))  # violates all bounds
        values = problem.constraints.values(x)
        violated = violated_set(values)
        polytope = build_polytope(problem.constraints, x, 1.0, values, violated)
        assert polytope.b.size == violated.size

    def test_nonpositive_alpha_rejected(self):
        problem = rap_generate(5, seed=1)
        with pytest.raises(ValueError):
            values = problem.constraints.values(problem.x0)
            build_polytope(problem.constraints, problem.x0, 0.0, values, violated_set(values))


def _membership_samples(problem, feasible_point, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        x = np.array(feasible_point(rng)) + 0.5 * rng.standard_normal(problem.dim)
        y = feasible_point(rng)
        alpha = float(rng.uniform(0.01, 2.0))
        yield x, y, alpha


class TestMembershipLaws:
    """Directions toward feasible points stay inside the velocity polytope."""

    @pytest.mark.parametrize("family", ["rap", "hbg"])
    def test_feasible_direction_membership(self, family):
        if family == "rap":
            problem = rap_generate(12, seed=9)
            feasible = lambda rng: feasible_rap_point(problem, rng)
        else:
            problem = hbg_instantiate(6, 0.6, seed=9)
            feasible = lambda rng: _random_product_simplex(rng, 6)
        for x, y, alpha in _membership_samples(problem, feasible, 150, seed=3):
            values = problem.constraints.values(x)
            polytope = build_polytope(problem.constraints, x, alpha, values, violated_set(values))
            a, b = polytope.a, polytope.b
            if a.shape[0] == 0:
                continue
            direction = alpha * (y - x)
            assert float(np.max(a @ direction - b)) <= 1e-9

    @pytest.mark.parametrize("family", ["rap", "hbg"])
    def test_membership_closed_under_feasible_shift(self, family):
        if family == "rap":
            problem = rap_generate(12, seed=10)
            feasible = lambda rng: feasible_rap_point(problem, rng)
        else:
            problem = hbg_instantiate(6, 0.6, seed=10)
            feasible = lambda rng: _random_product_simplex(rng, 6)
        rng = np.random.default_rng(4)
        for x, y, alpha in _membership_samples(problem, feasible, 150, seed=5):
            values = problem.constraints.values(x)
            polytope = build_polytope(problem.constraints, x, alpha, values, violated_set(values))
            a, b = polytope.a, polytope.b
            if a.shape[0] == 0:
                continue
            v = alpha * (feasible(rng) - x)  # a known member
            assert float(np.max(a @ v - b)) <= 1e-9
            shifted = v + (y - x)
            assert float(np.max(a @ shifted - b)) <= 1e-9


def _same_bits(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("family", ["rap", "hbg"])
def test_dense_view_is_the_violated_rows(family):
    # the structured polytope's dense rows are bitwise the violated rows
    # (gradient, -alpha value), and splitting them again gives the same parts
    if family == "rap":
        problem = rap_generate(12, seed=9)
        feasible = lambda rng: feasible_rap_point(problem, rng)
    else:
        problem = hbg_instantiate(6, 0.6, seed=9)
        feasible = lambda rng: _random_product_simplex(rng, 6)
    constraints = problem.constraints
    bounded = 0
    for x, _, alpha in _membership_samples(problem, feasible, 150, seed=3):
        values = constraints.values(x)
        idx = violated_set(values)
        polytope = build_polytope(constraints, x, alpha, values, idx)
        assert _same_bits(polytope.a, constraints.gradients(x, idx))
        assert _same_bits(polytope.b, -alpha * values[idx])
        assert polytope.matrix()[0] is polytope.a
        again = VelocityPolytope.from_rows(polytope.a, polytope.b, polytope.bound_idx)
        for part in ("g", "h", "bound_idx", "floor", "kept"):
            assert _same_bits(getattr(again, part), getattr(polytope, part)), part
        bounded += polytope.bound_idx.size > 0 and polytope.h.size > 0
    assert bounded > 0


def _random_product_simplex(rng, d):
    u = rng.random(2 * d) + 1e-12
    return np.concatenate([u[:d] / np.sum(u[:d]), u[d:] / np.sum(u[d:])])
