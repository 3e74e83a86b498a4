"""Certificate engine: record reduction, slack policy, closed-form gap."""

import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from cgm import metrics
from cgm.cgm_min import MinSolverConfig, cgm_min_run
from cgm.cgm_vi import VISolverConfig, cgm_vi_run
from cgm.harness import ExperimentConfig, run_experiment
from cgm.metrics import (
    ABS_SLACK,
    REL_SLACK,
    BoundsReport,
    CertificateRecord,
    ReferenceMissing,
    _check,
    _feasibility_rhs,
    _slack,
    certify_min,
    certify_vi,
    simplex_gaps,
)
from cgm.problems import (
    ROW_BLOCK,
    ConstraintSet,
    MinProblem,
    QuadraticRow,
    VIProblem,
    hbg_constraints,
    hbg_instantiate,
    hbg_operator,
    rap_generate,
)


def _check_oracle(name, lhs_arr, rhs_arr):
    # _check as it stood before its lean form, copied verbatim but for its inf - inf warning
    lhs_arr = np.atleast_1d(np.asarray(lhs_arr, dtype=float))
    rhs_arr = np.broadcast_to(np.asarray(rhs_arr, dtype=float), lhs_arr.shape)
    with np.errstate(invalid="ignore"):
        margins = rhs_arr - lhs_arr
    worst = int(np.argmin(margins))
    lhs, rhs = float(lhs_arr[worst]), float(rhs_arr[worst])
    slack = _slack(lhs)
    passed = bool(np.all(lhs_arr <= rhs_arr + ABS_SLACK + REL_SLACK * np.abs(lhs_arr)))
    return CertificateRecord(name=name, lhs=lhs, rhs=rhs, slack=slack, passed=passed)


class TestCheck:
    @pytest.mark.parametrize("lhs, rhs", [
        ([0.1, 0.7, 0.3], 0.5),  # scalar rhs
        ([0.1, 0.7, 0.3], [0.2, 0.6, 0.9]),  # array rhs
        (np.array([0.1, 0.2]), np.array([0.3, 0.1])),
        (np.float64(0.4), 0.3),  # 0-d lhs
        (0.4, [0.5]),
        (np.array(2.0), np.array(2.0)),
        ([0.1, 0.9, 0.4], [0.5]),  # (1,) rhs against a longer lhs
        ([0.1, np.nan, 0.4, np.nan], 0.5),  # NaN in lhs fails, first NaN recorded
        ([0.1, 0.2], [np.nan, 1.0]),
        ([1.0, 2.0, 3.0, 2.0], [1.5, 2.5, 3.5, 2.5]),  # tied margins: the first
        ([-0.0, 0.0, -0.0], [0.0, -0.0, -0.0]),  # -0.0 entries
        (-0.0, 0.0),
        ([1.0, 1.0 + 5e-10], 1.0),  # within the slack
        # non-finite points: the broadcast form passed an infinite worst lhs or rhs
        ([np.inf, 1.0], 2.0),
        ([1.0, 2.0], np.inf),
        ([1.0, np.inf], [np.inf, np.inf]),  # inf - inf: a NaN margin, recorded first
        (np.inf, np.inf),
        ([-np.inf, 1.0], 2.0),  # +inf margin; the finite point is the worst
        ([1.0, 2.0], [np.inf, 2.5]),  # an infinite rhs away from the worst point
        ([1.0, 2.0], [np.inf, 1.5]),
    ])
    def test_records_equal_the_broadcast_form(self, lhs, rhs):
        # the same records, except that a non-finite worst lhs or rhs fails
        old = _check_oracle("demo", lhs, rhs)
        finite = math.isfinite(old.lhs) and math.isfinite(old.rhs)
        expected = replace(old, passed=old.passed and finite)
        assert repr(_check("demo", lhs, rhs)) == repr(expected)

    def test_infinite_lhs_fails(self):
        # its slack REL_SLACK * |lhs| is infinite too, so lhs <= rhs + slack held
        rec = _check("x", [np.inf, 1.0], 2.0)
        assert (rec.lhs, rec.rhs, rec.slack, rec.passed) == (np.inf, 2.0, np.inf, False)

    def test_infinite_rhs_fails(self):
        rec = _check("x", [1.0, 0.5], np.inf)
        assert (rec.lhs, rec.rhs, rec.passed) == (1.0, np.inf, False)
        assert _check("x", [1.0, 0.5], [np.inf, 0.75]).passed

    def test_pass_and_margin(self):
        rec = _check("demo", [1.0, 2.0], [1.5, 2.5])
        assert rec.passed
        assert rec.margin == pytest.approx(0.5)

    def test_worst_point_selected(self):
        rec = _check("demo", [1.0, 2.4], [1.5, 2.5])
        assert rec.lhs == pytest.approx(2.4)

    def test_slack_allows_tiny_overshoot(self):
        lhs = 1.0
        rec = _check("demo", [lhs + 0.5 * (ABS_SLACK + REL_SLACK * lhs)], [lhs])
        assert rec.passed

    def test_clear_violation_fails(self):
        rec = _check("demo", [2.0], [1.0])
        assert not rec.passed

    def test_scalar_rhs_broadcast(self):
        rec = _check("demo", [0.1, 0.2, 0.3], 0.5)
        assert rec.passed


class TestBoundsReport:
    def test_all_pass_aggregation(self):
        ok = CertificateRecord("a", 0.0, 1.0, 1e-9, True)
        bad = CertificateRecord("b", 2.0, 1.0, 1e-9, False)
        assert BoundsReport("min", {}, [ok]).all_pass
        assert not BoundsReport("min", {}, [ok, bad]).all_pass

    def test_csv_lines_layout(self):
        rec = CertificateRecord("a", 0.5, 1.0, 1e-9, True)
        lines = BoundsReport("min", {"C1": 3.0}, [rec]).csv_lines()
        assert lines[0] == "certificate,lhs,rhs,slack,pass"
        assert lines[1].startswith("a,0.5,1,")
        assert lines[-1].startswith("const_C1,3,")


class TestMeasures:
    def test_max_violation_feasible_point(self):
        problem = rap_generate(8, seed=0)
        assert problem.constraints.max_violation(problem.x0) <= 1e-12

    def test_max_violation_positive_part(self):
        problem = rap_generate(8, seed=0)
        x = -np.ones(8)
        assert problem.constraints.max_violation(x) >= 1.0

    def test_gap_zero_at_equilibrium(self):
        d = 20
        x_eq = np.full(2 * d, 1.0 / d)
        assert abs(simplex_gaps(hbg_instantiate(d, 0.8), x_eq[None])[0]) <= 1e-12

    def test_gap_positive_off_equilibrium(self):
        d = 5
        x = np.zeros(2 * d)
        x[0] = 1.0
        x[d] = 1.0
        assert simplex_gaps(hbg_instantiate(d, 0.6), x[None])[0] > 0.0

    def test_gap_matches_enumeration(self):
        # compare against explicit maximization over simplex vertices
        rng = np.random.default_rng(3)
        d = 4
        beta = 0.7
        u = rng.random(2 * d)
        x = np.concatenate([u[:d] / u[:d].sum(), u[d:] / u[d:].sum()])
        x1, x2 = x[:d], x[d:]
        top = 2 * beta * x1 + (1 - beta) * x2
        bot = -(1 - beta) * x1 + 2 * beta * x2
        best = -np.inf
        for i in range(d):
            for j in range(d):
                y = np.zeros(2 * d)
                y[i] = 1.0
                y[d + j] = 1.0
                y1, y2 = y[:d], y[d:]
                val = float(top @ (x1 - y1) + bot @ (x2 - y2))
                best = max(best, val)
        assert simplex_gaps(hbg_instantiate(d, beta), x[None])[0] == pytest.approx(best)

    def test_empirical_grad_bound(self):
        problem = hbg_instantiate(5, 0.5, seed=0)
        xs = np.stack([problem.x0, problem.x0 * 0.5])
        bound = problem.constraints.grad_norm_bound(xs)
        # block-sum rows have gradient norm sqrt(d); coordinate rows norm 1
        assert bound == pytest.approx(np.sqrt(5.0))

        # fixed rows normed once must equal the norm of every row at every iterate
        rng = np.random.default_rng(8)
        rap = rap_generate(12, seed=4)
        ball = QuadraticRow(center=problem.x0, r=0.5)
        cases = [
            (problem.constraints, xs),
            (rap.constraints, rng.random((30, 12))),
            (problem.constraints.append(ball), rng.random((30, 10)) * 3.0),
        ]
        for constraints, points in cases:
            expected = 0.0
            for x in points:
                for i in range(len(constraints)):
                    grad = constraints.gradients(x, [i])[0]
                    expected = max(expected, float(np.linalg.norm(grad)))
            assert constraints.grad_norm_bound(points) == expected


class TestCertify:
    def test_missing_reference_raises(self, min_trace_constant, rap_problem):
        with pytest.raises(ReferenceMissing):
            certify_min(min_trace_constant["trace"], rap_problem, None, 0.0)

    def test_min_report_structure(
        self, min_trace_constant, rap_problem, rap_reference, rap_floor
    ):
        reference = (rap_reference["x_star"], rap_reference["f_star"])
        report = certify_min(
            min_trace_constant["trace"], rap_problem, reference, rap_floor
        )
        names = {rec.name for rec in report.records}
        assert "per_iteration_contraction" in names
        assert "velocity_bound_C1" in names
        assert "feasibility_constant_step" in names
        assert report.constants["C1"] > 0


def _certify_min_oracle(trace, problem, reference, f_star_unconstrained):
    # certify_min's records and constants as they stood before the origin skip,
    # the blocked norms and the finite-point rule, with np.linalg.norm throughout
    # and the per-point gradient norms of the rows
    x_star, f_star = reference
    alpha, mu, ell_f = trace.alpha, problem.mu, problem.ell_f
    T, f0 = trace.horizon, trace.f_values[0]
    resid = trace.f_values - f_star
    c1 = math.sqrt(max(4.0 * (2.0 * ell_f - alpha) * (f0 - f_star) + 8.0 * ell_f * (
        f_star - f_star_unconstrained), 0.0))
    grad_star = float(np.linalg.norm(problem.grad_f(x_star)))
    c2 = (grad_star + math.sqrt(grad_star**2 + 2.0 * mu * max(f0 - f_star, 0.0))) / mu
    rows = trace.constraints
    ell_g = rows.smoothness
    l_g = max([1.0] * bool(rows.n_bounds) + [float(np.linalg.norm(w)) for w in rows.W]
              + [max(float(np.linalg.norm(g.gradient(x))) for x in trace.xs)
                 for g in rows.smooth])
    v_norms = np.linalg.norm(trace.vs, axis=1)
    records = [
        _check_oracle("per_iteration_contraction", resid[1:],
                      (1.0 - alpha * trace.etas) * resid[:-1]),
        _check_oracle("velocity_bound_C1", v_norms, c1),
        _check_oracle("distance_bound_C2", np.linalg.norm(trace.xs - x_star, axis=1), c2),
        _check_oracle("velocity_bound_per_iter", v_norms**2,
                      4.0 * (2.0 * ell_f - alpha) * resid[:-1]
                      + 8.0 * ell_f * (f_star - f_star_unconstrained)),
    ]
    if abs(alpha - mu) <= 1e-12 * mu:
        rhs = c1 / mu * max(c1 * ell_g / (2.0 * mu), l_g) * math.log(T) / T
        records.append(_check_oracle("feasibility_constant_step", trace.max_violation, rhs))
    constants = {"C1": c1, "C2": c2, "empirical_Lg": l_g, "ell_g": ell_g}
    return records, constants


def _off_origin_problem():
    # f = x'Sx/2 + a'x with S = diag(s), its minimizer x_u inside the feasible set:
    # the bounds, sum(x) <= 1.2 and an ellipse centred off the origin
    s = np.array([1.0, 2.0, 1.5, 3.0])
    x_u = np.array([0.3, 0.2, 0.25, 0.15])
    a = -s * x_u
    ellipse = QuadraticRow(np.full(4, 0.25), 0.09, np.diag([1.0, 2.0, 1.0, 2.0]))
    rows = ConstraintSet(n_bounds=4, W=np.ones((1, 4)), c=[-1.2], smooth=(ellipse,))
    problem = MinProblem(
        value_f=lambda x: 0.5 * (x * s * x).sum(axis=-1) + x @ a,
        grad_f=lambda x: s * x + a, mu=1.0, ell_f=3.0, constraints=rows,
        x0=np.array([0.35, 0.15, 0.25, 0.25]), dim=4,
    )
    f_u = float(problem.value_f(x_u))
    return problem, (x_u, f_u), f_u


class TestCertifyMinAsBefore:
    def test_off_origin_row(self):
        problem, reference, floor = _off_origin_problem()
        assert not problem.constraints.smooth[0]._at_origin
        trace = cgm_min_run(problem, MinSolverConfig(horizon=300), reference)
        report = certify_min(trace, problem, reference, floor)
        records, constants = _certify_min_oracle(trace, problem, reference, floor)
        assert [repr(rec) for rec in report.records] == [repr(rec) for rec in records]
        assert repr(report.constants) == repr(constants)
        assert report.all_pass

    def test_rap_origin_row(self, min_trace_constant, rap_problem, rap_reference, rap_floor):
        trace = min_trace_constant["trace"]
        reference = (rap_reference["x_star"], rap_reference["f_star"])
        report = certify_min(trace, rap_problem, reference, rap_floor)
        records, constants = _certify_min_oracle(trace, rap_problem, reference, rap_floor)
        assert [repr(rec) for rec in report.records] == [repr(rec) for rec in records]
        assert repr(report.constants) == repr(constants)


class TestSkippedBoundLogged:
    @pytest.mark.parametrize("schedule, name", [
        ("constant", "feasibility_constant_step"), ("varying", "feasibility_varying_step")])
    def test_alpha_below_mu_warns(self, caplog, schedule, name):
        problem, reference, floor = _off_origin_problem()
        config = MinSolverConfig(horizon=300, schedule=schedule, alpha=0.5)
        trace = cgm_min_run(problem, config, reference)
        with caplog.at_level(logging.WARNING, logger="cgm.metrics"):
            report = certify_min(trace, problem, reference, floor)
        assert name not in {rec.name for rec in report.records}
        (record,) = [r for r in caplog.records if r.name == "cgm.metrics"]
        assert record.levelno == logging.WARNING and name in record.getMessage()

    def test_alpha_at_mu_is_silent(self, caplog):
        problem, reference, floor = _off_origin_problem()
        trace = cgm_min_run(problem, MinSolverConfig(horizon=300), reference)
        with caplog.at_level(logging.DEBUG, logger="cgm.metrics"):
            report = certify_min(trace, problem, reference, floor)
        assert "feasibility_constant_step" in {rec.name for rec in report.records}
        assert not [r for r in caplog.records if r.name == "cgm.metrics"]


def _varying_step_rhs(c1, kappa, T, mu, l_g, ell_g):
    # certify_min's formula as it stood before _feasibility_rhs, copied verbatim
    t_idx = np.arange(1, T)
    return 2.0 * c1 / (mu * (t_idx + kappa + 1.0)) * (
        l_g + ell_g * c1 / (2.0 * mu)
    ) + ell_g * c1**2 * np.log(t_idx) / (mu**2 * (t_idx + kappa + 1.0))


def _nonergodic_rhs(c4, kappa, T, mu, l_g, ell_g):
    # certify_vi's formula as it stood before _feasibility_rhs, copied verbatim
    t_idx = np.arange(1, T)
    return 2.0 * c4 / (mu * (t_idx + 16.0 * kappa**2 + 1.0)) * (
        l_g + ell_g * c4 / (2.0 * mu)
    ) + ell_g * c4**2 * np.log(t_idx) / (mu**2 * (t_idx + 16.0 * kappa**2 + 1.0))


@pytest.mark.parametrize("track", ["min", "vi"])
def test_feasibility_records_equal_the_inline_formulas(
    track, request, rap_problem, rap_reference, rap_floor, hbg_problem
):
    # one helper serves both diminishing-step bounds; every rhs value and the
    # record stay bitwise those of each track's own formula
    if track == "min":
        trace = request.getfixturevalue("min_trace_varying")["trace"]
        reference = (rap_reference["x_star"], rap_reference["f_star"])
        report = certify_min(trace, rap_problem, reference, rap_floor)
        name, c, mu = "feasibility_varying_step", report.constants["C1"], rap_problem.mu
        offset, inline = trace.kappa, _varying_step_rhs
    else:
        trace = request.getfixturevalue("vi_trace")["trace"]
        report = certify_vi(trace, hbg_problem)
        name, c, mu = "feasibility_nonergodic", report.constants["C4"], hbg_problem.mu
        offset, inline = 16.0 * trace.kappa**2, _nonergodic_rhs
    l_g, ell_g, T = report.constants["empirical_Lg"], report.constants["ell_g"], trace.horizon
    expected = inline(c, trace.kappa, T, mu, l_g, ell_g)
    assert np.array_equal(_feasibility_rhs(c, offset, T, mu, l_g, ell_g), expected)
    (record,) = [rec for rec in report.records if rec.name == name]
    assert repr(record) == repr(_check(name, trace.max_violation[2:], expected))


def _gap_per_point(x, beta):
    # the one-point closed form: 1-D products of the blocks of F(x) with those of x
    d = x.size // 2
    fx = hbg_operator(beta)(x).reshape(2, d)
    top_min, bot_min = fx.min(axis=1).tolist()
    return float(fx[0] @ x[:d] + fx[1] @ x[d:]) - top_min - bot_min


def _gap_per_point_blocks(problem, x):
    # the one-point closed form over problem.simplex_blocks: 1-D block products
    # summed in block order, then each block's min of F(x) subtracted
    fx = problem.op_F(x)
    bounds = np.cumsum((0, *problem.simplex_blocks))
    blocks = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    dots = [float(fx[block] @ x[block]) for block in blocks]
    gap = dots[0]
    for dot in dots[1:]:
        gap += dot
    for block in blocks:
        gap -= float(fx[block].min())
    return gap


@pytest.fixture(scope="module")
def non_hbg_run():
    w, s = np.array([1.5, 2.0, 3.0, 2.5]), np.array([0.3, -0.2, 0.7, 0.1])
    problem = VIProblem(
        op_F=lambda x: w * x - s, mu=1.5, ell_F=3.0, B=0.0, constraints=hbg_constraints(2),
        x0=np.array([0.4, 0.6, 0.7, 0.3]), diameter_D=2.0, dim=4, simplex_blocks=(2, 2),
    )
    return problem, cgm_vi_run(problem, VISolverConfig(horizon=2000))


NORM_COLUMNS = ["rap50-v_norms", "rap200-v_norms", "hbg-v_norms", "rap50-dist_x0",
                "rap200-dist_x0", "hbg-dist_x0", "cgm_vi-rel_err", "gda-rel_err",
                "eg-rel_err", "certify_min-C2"]


@pytest.fixture(scope="module")
def norm_columns(rap_runs, rap_reference, rap_floor, hbg_seed_runs, hbg_problem,
                 hbg_equilibrium, baseline_traces, baseline_iterates, tmp_path_factory):
    """{NORM_COLUMNS entry: (column, rows, center, scale)}: each column is
    ||x - center|| / scale over the rows x."""
    (rap, rap_trace), (_, d200_trace) = rap_runs
    (_, hbg_trace), *_ = hbg_seed_runs
    x_star, ref_norm = hbg_equilibrium, float(np.linalg.norm(hbg_equilibrium))
    c2, check = [], metrics._check

    def keep_c2(name, lhs, rhs):
        if name == "distance_bound_C2":
            c2.append(lhs)
        return check(name, lhs, rhs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "_check", keep_c2)
        certify_min(rap_trace, rap, (rap_reference["x_star"], rap_reference["f_star"]),
                    rap_floor)
    config = ExperimentConfig(problem="hbg", horizons=(300,), d=50, seed=42,
                              out_dir=str(tmp_path_factory.mktemp("norm_columns")))
    (written,) = run_experiment(config)["columns"].values()
    vi_xs = cgm_vi_run(hbg_problem, VISolverConfig(horizon=300)).xs[1:]
    columns = {"cgm_vi-rel_err": (written["rel_err"], vi_xs, x_star, ref_norm),
               "certify_min-C2": (c2[0], rap_trace.xs, rap_reference["x_star"], 1.0)}
    for label, trace in (("rap50", rap_trace), ("rap200", d200_trace), ("hbg", hbg_trace)):
        columns[f"{label}-v_norms"] = (trace.v_norms, trace.vs, 0.0, 1.0)
        columns[f"{label}-dist_x0"] = (trace.dist_x0, trace.xs, trace.xs[0], 1.0)
    for label, trace in baseline_traces.items():
        columns[f"{label}-rel_err"] = (trace.rel_err, baseline_iterates[label][1:], x_star,
                                       ref_norm)
    return columns


class TestTrajectoryColumns:
    """Trajectory-wide columns equal their per-point formulas bitwise, across row blocks."""

    def test_batched_gap_equals_per_point(self, vi_trace, hbg_problem):
        xs = vi_trace["trace"].xs
        assert len(xs) > 2 * ROW_BLOCK and len(xs) % ROW_BLOCK
        expected = np.array([_gap_per_point(x, 0.8) for x in xs])
        assert np.array_equal(simplex_gaps(hbg_problem, xs), expected)
        assert np.array_equal(simplex_gaps(hbg_problem, xs[7:8]), expected[7:8])

    def test_batched_gap_off_the_simplex(self):
        xs = np.random.default_rng(6).standard_normal((ROW_BLOCK + 3, 12))
        expected = [_gap_per_point(x, 0.6) for x in xs]
        assert np.array_equal(simplex_gaps(hbg_instantiate(6, 0.6), xs), expected)

    def test_unequal_blocks_gap_equals_per_point(self):
        # simplices of sizes 1 and 3 and an operator other than HBG's, on rows
        # on the product of simplices and off it, over three row blocks
        w, s = np.array([2.0, 2.5, 3.0, 2.2]), np.array([0.1, -0.4, 0.3, 0.2])
        top, bot = np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 1.0, 1.0, 1.0])
        rows = ConstraintSet(n_bounds=4, W=np.stack([top, -top, bot, -bot]),
                             c=np.array([-1.0, 1.0, -1.0, 1.0]))
        problem = VIProblem(
            op_F=lambda x: w * x + 0.5 * x[..., ::-1] - s, mu=1.5, ell_F=3.5, B=0.0,
            constraints=rows, x0=np.array([1.0, 0.2, 0.3, 0.5]), diameter_D=2.0, dim=4,
            simplex_blocks=(1, 3),
        )
        rng = np.random.default_rng(11)
        on = rng.random((ROW_BLOCK + 40, 4))
        on[:, 0] = 1.0
        on[:, 1:] /= on[:, 1:].sum(axis=1, keepdims=True)
        xs = np.concatenate([on, rng.standard_normal((ROW_BLOCK + 5, 4))])
        expected = np.array([_gap_per_point_blocks(problem, x) for x in xs])
        assert np.array_equal(simplex_gaps(problem, xs), expected)

    def test_non_hbg_vi_certifies(self, non_hbg_run):
        # F(x) = w x - s over two 2-simplices: the gap certificate once read
        # HBG's operator in place of F and failed, 0.4993 against 0.2140
        problem, trace = non_hbg_run
        report = certify_vi(trace, problem)
        assert report.all_pass
        (record,) = [rec for rec in report.records if rec.name == "ergodic_gap_bound"]
        assert record.lhs == _gap_per_point_blocks(problem, trace.ergodic)

    @pytest.mark.parametrize("column", NORM_COLUMNS)
    def test_norm_column_equals_per_point(self, norm_columns, column):
        # one rule for every trajectory-wide norm: each row's own np.linalg.norm
        values, xs, center, scale = norm_columns[column]
        assert len(xs) > 2 * ROW_BLOCK and len(xs) % ROW_BLOCK
        expected = np.array([np.linalg.norm(x - center) for x in xs]) / scale
        assert values.tobytes() == expected.tobytes()

    def test_distance_column_equals_unblocked(
        self, min_trace_constant, rap_problem, rap_reference, rap_floor
    ):
        xs, x_star = min_trace_constant["trace"].xs, rap_reference["x_star"]
        assert len(xs) > 2 * ROW_BLOCK and len(xs) % ROW_BLOCK
        reference = (x_star, rap_reference["f_star"])
        report = certify_min(min_trace_constant["trace"], rap_problem, reference, rap_floor)
        (record,) = [rec for rec in report.records if rec.name == "distance_bound_C2"]
        assert record.lhs == max(np.linalg.norm(x - x_star) for x in xs)


class TestVIGradNormBound:
    """certify_vi's L_g, with the ball's norms read off dist_x0, is the run's rows' bound."""

    @staticmethod
    def _assert_rows_bound(problem, trace):
        lg = certify_vi(trace, problem).constants["empirical_Lg"]
        assert lg == trace.constraints.grad_norm_bound(trace.xs)
        ball = trace.constraints.smooth[-1]
        from_dist = ball.grad_norm_max(trace.xs, 2.0 * trace.dist_x0)
        assert from_dist == ball.grad_norm_bound(trace.xs)
        return lg, from_dist

    def test_hbg_seeds(self, hbg_seed_runs):
        for problem, trace in hbg_seed_runs:
            self._assert_rows_bound(problem, trace)

    @pytest.mark.parametrize("horizon", [1, 2])
    def test_short_horizons(self, horizon):
        # d=3: the block-sum rows have norm sqrt(3)
        problem = hbg_instantiate(3, 0.8, seed=0)
        self._assert_rows_bound(problem, cgm_vi_run(problem, VISolverConfig(horizon)))

    def test_non_hbg_vi(self, non_hbg_run):
        self._assert_rows_bound(*non_hbg_run)

    def test_ball_row_picked_when_it_dominates(self):
        # one coordinate row's gradient norm is 1 < the ball's 2 ||x - x0||
        rows = ConstraintSet(n_bounds=2, W=np.zeros((0, 2)), c=np.zeros(0))
        problem = VIProblem(op_F=lambda x: 2.0 * x - 3.0, mu=2.0, ell_F=2.0, B=0.0,
                            constraints=rows, x0=np.array([1.0, 1.0]), diameter_D=2.0, dim=2)
        lg, from_dist = self._assert_rows_bound(
            problem, cgm_vi_run(problem, VISolverConfig(horizon=200)))
        assert lg == from_dist > 1.0

    def test_problem_quadratic_row_keeps_its_pass(self):
        # a quadratic row of the problem's own, steep enough to dominate the
        # block-sum rows and the ball, is bounded over the run's points
        steep = QuadraticRow(np.zeros(4), 100.0, np.diag([30.0, 20.0, 25.0, 35.0]))
        problem = VIProblem(
            op_F=hbg_operator(0.8), mu=1.6, ell_F=float(np.sqrt(2.6)), B=0.0,
            constraints=hbg_constraints(2).append(steep), x0=np.array([0.4, 0.6, 0.7, 0.3]),
            diameter_D=2.0, dim=4, simplex_blocks=(2, 2),
        )
        trace = cgm_vi_run(problem, VISolverConfig(horizon=300))
        lg, from_dist = self._assert_rows_bound(problem, trace)
        assert lg == steep.grad_norm_bound(trace.xs) > from_dist
