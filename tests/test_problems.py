"""Instance generation invariants and velocity-polytope membership laws."""

import math
from dataclasses import replace

import numpy as np
import pytest

import cgm.cgm_min
from cgm.cgm_min import MinSolverConfig, build_polytope, cgm_min_run
from cgm.cgm_vi import VISolverConfig, cgm_vi_run
from cgm.problems import (
    ConstraintSet,
    QuadraticRow,
    RapData,
    by_row_blocks,
    hbg_constraints,
    hbg_instantiate,
    hbg_operator,
    rap_generate,
    rap_unconstrained_min,
    violated_set,
)
from cgm.qp import Infeasible, VelocityPolytope
from exact_oracle import from_rows


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


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_problem_constants_must_be_finite(bad):
    # ell_f = inf once gave all-zero varying steps, and diameter_D = NaN a
    # delta_default of 1.0, since max(1.0, nan) is 1.0
    rap, hbg = rap_generate(5, seed=0), hbg_instantiate(5, 0.5, seed=0)
    for problem, name in ((rap, "mu"), (rap, "ell_f"), (hbg, "mu"), (hbg, "ell_F"),
                          (hbg, "B"), (hbg, "diameter_D")):
        with pytest.raises(ValueError, match="finite"):
            replace(problem, **{name: bad})
    assert replace(rap, mu=rap.ell_f).mu == rap.ell_f and replace(hbg, B=0.0).B == 0.0


@pytest.mark.parametrize("name", ["Rmax", "Emax"])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_rap_budgets_must_be_finite(name, bad):
    # Rmax = NaN or inf once reached the barrier solve, which failed after 100 iterations
    data = rap_generate(5, seed=0).data
    with pytest.raises(ValueError, match="Rmax and Emax must be finite and positive"):
        replace(data, **{name: bad})


@pytest.mark.parametrize("blocks", [(1, 2), (2, 3), (0, 4), (-1, 5), (2.0, 2.0), ()])
def test_simplex_blocks_must_fit_dim(blocks):
    # blocks summing to less than dim once failed inside gda_eg_run's projection,
    # and a 0 block made it warn "invalid value encountered in subtract"
    hbg = hbg_instantiate(2, 0.5, seed=0)
    with pytest.raises(ValueError, match="simplex_blocks"):
        replace(hbg, simplex_blocks=blocks)
    for fits in ((2, 2), (1, 3), (np.int64(4),), None):
        assert replace(hbg, simplex_blocks=fits).simplex_blocks == fits


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

    def test_objective_on_a_batch_matches_per_point_formula_bitwise(self):
        # cgm_min_run evaluates f on the whole trace at once
        problem = rap_generate(50, seed=2)
        sigma, a = problem.data.Sigma, problem.data.a
        trace = cgm_min_run(problem, MinSolverConfig(horizon=300))
        rng = np.random.default_rng(6)
        for xs in (trace.xs, rng.random((40, 50)) / 50.0):
            batch = problem.value_f(xs)
            assert batch.shape == (xs.shape[0],)
            for x, value in zip(xs, batch):
                assert value == 0.5 * float(x @ sigma @ x) + float(a @ x)
                assert problem.value_f(x) == value
        np.testing.assert_array_equal(problem.value_f(trace.xs), trace.f_values)

    def test_rap_data_validation(self):
        with pytest.raises(np.linalg.LinAlgError):
            RapData(
                Sigma=-np.eye(2), a=np.zeros(2), r=np.ones(2), E=np.eye(2),
                Rmax=1.0, Emax=1.0,
            )

    @pytest.mark.parametrize("name", ["Sigma", "E"])
    def test_rap_data_rejects_a_non_symmetric_matrix(self, name):
        # cholesky and eigvalsh read one triangle, so they would accept this one
        fields = dict(Sigma=np.eye(2), a=np.zeros(2), r=np.ones(2), E=np.eye(2),
                      Rmax=1.0, Emax=1.0)
        fields[name] = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="Sigma and E must be symmetric"):
            RapData(**fields)


class TestHbgGeneration:
    def test_operator_closed_form(self):
        beta = 0.6
        op = hbg_operator(beta)
        x = np.array([1.0, 0.0, 0.0, 1.0])
        out = op(x)
        np.testing.assert_allclose(
            out, [2 * beta, 1 - beta, -(1 - beta), 2 * beta]
        )

    @pytest.mark.parametrize("beta", [0.3, 0.7, 0.8])
    def test_operator_on_a_batch_matches_per_point_formula_bitwise(self, beta):
        def per_point(x):
            d = x.size // 2
            x1, x2 = x[:d], x[d:]
            top = 2.0 * beta * x1 + (1.0 - beta) * x2
            bot = -(1.0 - beta) * x1 + 2.0 * beta * x2
            return np.concatenate([top, bot])

        op = hbg_operator(beta)
        xs = np.random.default_rng(4).standard_normal((3, 5, 2 * 7))
        batch = op(xs)
        assert batch.shape == xs.shape
        for idx in np.ndindex(xs.shape[:-1]):
            assert np.array_equal(batch[idx], per_point(xs[idx]))
            assert np.array_equal(op(xs[idx]), per_point(xs[idx]))

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

    def test_stacked_affine_values_match_per_row_dots_bitwise(self):
        # the affine block is one stacked (1, n) @ (n, 1) product, which takes
        # each row's own dot routine; no affine row (p = 0), n = 1 and rows
        # and points whose entries span many magnitudes included
        rng = np.random.default_rng(17)
        for n, p in ((1, 1), (1, 3), (3, 0), (7, 4), (50, 4), (100, 4), (257, 2)):
            for _ in range(100):
                W = rng.standard_normal((p, n)) * 10.0 ** rng.integers(-6, 7, size=(p, n))
                c = rng.standard_normal(p) * 10.0 ** rng.integers(-6, 7, size=p)
                x = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, size=n)
                k = int(rng.integers(0, n + 1))
                expected = _per_row_values(x, k, zip(W, c.tolist()))
                values = ConstraintSet(n_bounds=k, W=W, c=c).values(x)
                assert values.shape == (k + p,)
                assert values.tobytes() == expected.tobytes()

    def test_append_and_smoothness(self):
        problem = rap_generate(6, seed=0)
        base = problem.constraints
        q_mat = 4.5e9 * np.eye(6)
        grown = base.append(QuadraticRow(np.zeros(6), 1.0, q_mat))
        assert len(grown) == len(base) + 1
        assert grown.smoothness == 9e9
        assert base.smoothness == 2.0 * float(np.max(np.linalg.eigvalsh(problem.data.E)))
        x = np.full(6, 0.5)
        assert grown.values(x)[-1] == float(x @ q_mat @ x) - 1.0
        np.testing.assert_array_equal(grown.gradients(x, [len(base)]), [2.0 * (q_mat @ x)])
        ball = base.append(QuadraticRow(np.zeros(6), 1.0))
        assert ball.smoothness == base.smoothness
        assert ball.values(x)[-1] == float(x @ x) - 1.0
        np.testing.assert_array_equal(ball.gradients(x, [len(base)]), [2.0 * x])

    def test_gradients_reject_rows_that_do_not_exist(self):
        # row -1 once read as bound row 3 of these 8 rows, and row 8 raised IndexError
        constraints = hbg_constraints(2)
        x = np.full(4, 0.5)
        for rows in ([-1], [8], [0, 100], [3, -9]):
            bad = next(i for i in rows if not 0 <= i < 8)
            with pytest.raises(ValueError, match=rf"row {bad} is not in \[0, 8\)"):
                constraints.gradients(x, rows)
        np.testing.assert_array_equal(constraints.gradients(x, [3, 7]),
                                      [[0.0, 0.0, 0.0, -1.0], [0.0, 0.0, -1.0, -1.0]])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ConstraintSet(n_bounds=0, W=np.ones(3), c=np.zeros(1))
        with pytest.raises(ValueError):
            ConstraintSet(n_bounds=0, W=np.ones((2, 3)), c=np.zeros(3))
        with pytest.raises(ValueError):
            ConstraintSet(n_bounds=4, W=np.zeros((0, 3)), c=np.zeros(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rows_rejected(self, bad):
        # checked where the data enters: build_polytope checks affine rows once
        with pytest.raises(ValueError, match="finite"):
            ConstraintSet(2, [[bad, 1.0]], [0.0])
        with pytest.raises(ValueError, match="finite"):
            ConstraintSet(2, [[0.0, 1.0]], [bad])

    def test_fixed_norm_is_the_per_call_form(self):
        # the bound and affine rows are normed once, at construction; the
        # stored value and the bound are bitwise the form that normed them per call
        rng = np.random.default_rng(23)
        rap = rap_generate(12, seed=4)
        ball = QuadraticRow(rng.random(12), 0.5)
        sets = [
            rap.constraints,
            rap.constraints.append(ball),
            hbg_constraints(6),
            ConstraintSet(n_bounds=0, W=rng.standard_normal((3, 12)), c=np.zeros(3)),
            ConstraintSet(n_bounds=5, W=np.zeros((0, 12)), c=np.zeros(0)),
            ConstraintSet(n_bounds=0, W=np.zeros((0, 12)), c=np.zeros(0), smooth=(ball,)),
            ConstraintSet(n_bounds=0, W=np.zeros((0, 12)), c=np.zeros(0)),
        ]
        points = rng.random((30, 12)) * 3.0
        for constraints in sets:
            xs = points[:, : constraints.W.shape[1]]
            norms = [1.0] if constraints.n_bounds else []
            norms += [float(np.linalg.norm(w)) for w in constraints.W]
            assert constraints._fixed_norm == ((max(norms),) if norms else ())
            per_call = max(norms + [g.grad_norm_bound(xs) for g in constraints.smooth],
                           default=0.0)
            assert constraints.grad_norm_bound(xs).hex() == per_call.hex()

    def test_missized_quadratic_row_rejected(self):
        # caught here, not later as a broadcast error inside values()
        base = ConstraintSet(n_bounds=3, W=np.ones((1, 3)), c=np.zeros(1))
        with pytest.raises(ValueError):
            base.append(QuadraticRow(np.zeros(2), 1.0))
        with pytest.raises(ValueError):
            ConstraintSet(n_bounds=3, W=np.ones((1, 3)), c=np.zeros(1),
                          smooth=(QuadraticRow(np.zeros(4), 1.0),))


class TestQuadraticRow:
    def test_arithmetic_matches_closed_forms_bitwise(self):
        # iterates stay bitwise only if each row keeps its per-point arithmetic
        rng = np.random.default_rng(21)
        rap = rap_generate(50, seed=5)
        risk = rap.constraints.smooth[0]
        e_mat, emax = rap.data.E, rap.data.Emax
        center, r = rng.random(30), 0.7
        ball = QuadraticRow(center, r)
        for _ in range(200):
            x = rng.random(50)
            x /= np.sum(x)
            assert risk.value(x) == float(x @ e_mat @ x) - emax
            assert np.array_equal(risk.gradient(x), 2.0 * (e_mat @ x))
            y = rng.standard_normal(30)
            diff = y - center
            assert ball.value(y) == float(diff @ diff) - r
            assert np.array_equal(ball.gradient(y), 2.0 * (y - center))

    @pytest.mark.parametrize("family", ["rap", "hbg"])
    def test_batched_bound_equals_per_point_loop(self, family):
        # on RAP d=50 seed 7, T=2000 the plain batched norms were measured to
        # miss the loop's maximum in the last bit, so this exercises the
        # re-evaluation of the near-maximal points
        if family == "rap":
            problem = rap_generate(50, seed=7)
            trace = cgm_min_run(problem, MinSolverConfig(horizon=2000, schedule="constant"))
            row = problem.constraints.smooth[0]
        else:
            problem = hbg_instantiate(50, 0.8, seed=1)
            trace = cgm_vi_run(problem, VISolverConfig(horizon=1000))
            row = trace.constraints.smooth[-1]
        expected = max(float(np.linalg.norm(row.gradient(x))) for x in trace.xs)
        assert row.grad_norm_bound(trace.xs) == expected

    def test_origin_row_equals_centred_arithmetic(self, rap_runs, monkeypatch):
        # RAP's risk row sits at the origin and computes on x itself; its values,
        # gradients, batched norms and bound stay bitwise those of x - np.zeros(n)
        batched = []
        grad_norm_max = QuadraticRow.grad_norm_max

        def keep_norms(row, xs, norms):
            batched.append(norms)
            return grad_norm_max(row, xs, norms)

        monkeypatch.setattr(QuadraticRow, "grad_norm_max", keep_norms)
        for problem, trace in rap_runs:
            risk = problem.constraints.smooth[0]
            assert risk._at_origin
            e_mat, emax, zeros = problem.data.E, problem.data.Emax, np.zeros(problem.dim)
            for x in trace.xs:
                diff = x - zeros
                assert risk.value(x) == float(diff @ e_mat @ diff) - emax
                assert risk.gradient(x).tobytes() == (2.0 * (e_mat @ diff)).tobytes()

            def centred(block):
                half = (block - zeros) @ e_mat.T
                return 2.0 * np.sqrt(np.einsum("ij,ij->i", half, half))

            norms = by_row_blocks(centred, trace.xs)
            near = np.flatnonzero(norms >= (1.0 - 1e-12) * norms.max(initial=0.0))
            expected = max(float(np.linalg.norm(2.0 * (e_mat @ (trace.xs[i] - zeros))))
                           for i in near)
            batched.clear()
            assert risk.grad_norm_bound(trace.xs) == expected
            assert batched[0].tobytes() == norms.tobytes()

    def test_origin_noted_for_plus_zero_centers_only(self):
        assert QuadraticRow(np.zeros(3), 1.0)._at_origin
        assert QuadraticRow([0, 0], 1.0, np.eye(2))._at_origin
        assert not QuadraticRow(np.array([0.0, 1e-300, 0.0]), 1.0)._at_origin
        # -0.0 - (-0.0) is +0.0, so a center with a -0.0 entry keeps the subtraction
        signed = QuadraticRow(np.array([-0.0, 0.0, 0.0]), 1.0)
        assert not signed._at_origin
        x = np.array([-0.0, 1.0, 2.0])
        expected = 2.0 * (x - signed.center)
        assert np.signbit(signed.gradient(x)).tolist() == np.signbit(expected).tolist()

    def test_center_is_a_read_only_copy(self):
        center = np.zeros(3)
        row = QuadraticRow(center, 1.0)
        with pytest.raises(ValueError):
            row.center[0] = 1.0
        center[0] = 1.0
        assert row._at_origin and not row.center.any()

    def test_center_must_be_finite_1d(self):
        with pytest.raises(ValueError):
            QuadraticRow(np.zeros((2, 2)), 1.0)
        with pytest.raises(ValueError):
            QuadraticRow(np.array([0.0, np.nan]), 1.0)
        with pytest.raises(ValueError):
            QuadraticRow(np.array([0.0, np.inf]), 1.0)

    def test_q_must_be_square_of_center_size(self):
        with pytest.raises(ValueError):
            QuadraticRow(np.zeros(3), 1.0, np.eye(2))
        with pytest.raises(ValueError):
            QuadraticRow(np.zeros(3), 1.0, np.ones(3))

    def test_q_must_be_symmetric(self):
        # value reads the whole Q but eigvalsh one triangle: at x = (0.3, -0.7) this
        # Q's gradient would read (-2.2, -1.4) where its value's is (-0.8, -0.8), and
        # its smoothness 2.0 where 2 lambda_max of (Q + Q') / 2 is 4.0
        with pytest.raises(ValueError, match="Q must be symmetric"):
            QuadraticRow(np.zeros(2), 1.0, np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="Q must be finite"):
            QuadraticRow(np.zeros(2), 1.0, np.array([[1.0, np.nan], [0.0, 1.0]]))
        QuadraticRow(np.zeros(2), 1.0, np.array([[1.0, 1.0], [1.0, 1.0]]))


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
        assert polytope.matrix()[1].size == violated.size

    def test_nonpositive_alpha_rejected(self):
        # and a NaN alpha, which alpha <= 0 let through, or an infinite one
        problem = rap_generate(5, seed=1)
        x = np.array([-0.1, 0.3, 0.3, 0.3, 0.2])  # violates the first bound
        for point in (problem.x0, x):
            values = problem.constraints.values(point)
            for alpha in (0.0, -1.0, np.nan, np.inf):
                with pytest.raises(ValueError, match="alpha"):
                    build_polytope(problem.constraints, point, alpha, values, violated_set(values))

    def test_violated_set_is_flatnonzero_of_positive_values(self):
        # the method behind np.flatnonzero: the same indices and the same intp dtype
        zero_nan_inf = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, -1e-300, 5e-324]
        rng = np.random.default_rng(4)
        for values in (np.array(zero_nan_inf), np.zeros(0), np.array([np.nan]),
                       *(rng.choice(zero_nan_inf, size=n) for n in (1, 7, 60))):
            got, expected = violated_set(values), np.flatnonzero(values > 0)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        assert violated_set(np.array(zero_nan_inf)).tolist() == [3, 5, 7]


def _polytope_parts(polytope):
    return [getattr(polytope, part) for part in ("g", "h", "bound_idx", "floor", "kept")]


def _recorded_run(family, monkeypatch):
    """One d=50 run's build_polytope calls as (constraints, args, polytope)."""
    calls = []
    real = cgm.cgm_min.build_polytope

    def recorded(constraints, x, alpha, values, violated):
        polytope = real(constraints, x, alpha, values, violated)
        calls.append((constraints, (x, alpha, values, violated), polytope))
        return polytope

    monkeypatch.setattr(cgm.cgm_min, "build_polytope", recorded)
    if family == "rap":  # seed 2 violates two affine sets in 6 of 500 steps
        cgm_min_run(rap_generate(50, seed=2), MinSolverConfig(horizon=500))
    else:
        cgm_vi_run(hbg_instantiate(50, 0.8, seed=1), VISolverConfig(horizon=1000))
    monkeypatch.undo()
    return calls


def _affine_key(constraints, violated):
    """The violated general rows when none is quadratic, else None."""
    general = violated[violated >= constraints.n_bounds]
    return tuple(general.tolist()) if (general < len(constraints) - len(constraints.smooth)).all() else None


class TestPolytopeCache:
    """build_polytope reuses the rows of a repeated set of violated affine rows."""

    @pytest.mark.parametrize("family", ["rap", "hbg"])
    def test_every_step_equals_a_fresh_polytope(self, family, monkeypatch):
        calls = _recorded_run(family, monkeypatch)
        keys = set()
        for constraints, (x, alpha, values, violated), polytope in calls:
            s = int(np.searchsorted(violated, constraints.n_bounds))
            rhs = -alpha * values[violated]
            fresh = VelocityPolytope(constraints.gradients(x, violated[s:]), rhs[s:],
                                     violated[:s], -rhs[:s])
            for got, expected in zip(_polytope_parts(polytope), _polytope_parts(fresh)):
                assert _same_bits(got, expected)
            assert polytope.all_kept == fresh.all_kept
            assert _same_bits(polytope.gram, fresh.gram)
            key = _affine_key(constraints, violated)
            if key is not None:
                assert not polytope.g.flags.writeable
                keys.add(key)
        # the cache holds one entry per distinct affine violated set
        constraints = calls[0][0]
        assert all(call[0] is constraints for call in calls)
        assert len(constraints._polytopes) == len(keys) > 0
        assert len(keys) == (2 if family == "rap" else 1)

    def test_quadratic_rows_are_not_cached(self):
        problem = rap_generate(10, seed=1)
        constraints = problem.constraints
        x = np.full(10, 0.2)  # sum 2 > 1: the sum row and the risk row are violated
        values = constraints.values(x)
        violated = violated_set(values)
        assert violated[-1] == len(constraints) - 1
        polytope = build_polytope(constraints, x, 1.0, values, violated)
        assert polytope.g.flags.writeable and constraints._polytopes == {}

    def test_zero_affine_row_is_infeasible_on_every_hit(self):
        # a zero normal whose row is violated gives 0 <= h < 0
        constraints = ConstraintSet(n_bounds=0, W=[[0.0, 0.0], [1.0, 0.0]], c=[1.0, 0.0])
        for x in (np.array([1.0, 0.0]), np.array([2.0, 3.0])):
            values = constraints.values(x)
            with pytest.raises(Infeasible):
                build_polytope(constraints, x, 0.5, values, violated_set(values))
        # a polytope whose zero row is vacuous still checks each new h
        first = VelocityPolytope(np.zeros((1, 2)), np.array([0.0]), np.zeros(0, int), np.zeros(0))
        with pytest.raises(Infeasible):
            first.with_rhs(np.array([-1.0]), np.zeros(0, int), np.zeros(0))

    def test_a_hit_checks_h_and_shares_the_rows(self):
        problem = hbg_instantiate(5, 0.5, seed=0)
        constraints = problem.constraints
        polytopes = []
        for total in (1.25, 1.5):
            x = np.concatenate([np.full(5, total / 5), np.full(5, 0.2)])
            values = constraints.values(x)
            polytopes.append(build_polytope(constraints, x, 1.0, values, violated_set(values)))
        first, second = polytopes
        assert second.g is first.g and second.gram is first.gram
        assert second.h[0] < first.h[0] < 0
        assert len(constraints._polytopes) == 1
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                first.with_rhs(np.array([bad]), first.bound_idx, first.floor)
            with pytest.raises(ValueError, match="finite"):
                first.with_rhs(first.h, np.array([0]), np.array([bad]))

    def test_append_starts_with_an_empty_cache(self):
        problem = hbg_instantiate(5, 0.5, seed=0)
        base = problem.constraints
        x = np.concatenate([np.full(5, 0.3), np.full(5, 0.2)])
        values = base.values(x)
        build_polytope(base, x, 1.0, values, violated_set(values))
        grown = base.append(QuadraticRow(x, 1.0))
        assert len(base._polytopes) == 1 and grown._polytopes == {}


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
            a, b = polytope.matrix()
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
            a, b = polytope.matrix()
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
        a, b = polytope.matrix()
        assert _same_bits(a, constraints.gradients(x, idx))
        assert _same_bits(b, -alpha * values[idx])
        again = from_rows(a, b, polytope.bound_idx)
        for part in ("g", "h", "bound_idx", "floor", "kept"):
            assert _same_bits(getattr(again, part), getattr(polytope, part)), part
        bounded += polytope.bound_idx.size > 0 and polytope.h.size > 0
    assert bounded > 0


def _random_product_simplex(rng, d):
    u = rng.random(2 * d) + 1e-12
    return np.concatenate([u[:d] / np.sum(u[:d]), u[d:] / np.sum(u[d:])])
