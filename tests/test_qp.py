"""Least-distance projection: oracle equivalence, KKT checks, edge cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cgm.qp
from cgm.cgm_min import MinSolverConfig, cgm_min_run
from cgm.cgm_vi import VISolverConfig, cgm_vi_run
from cgm.problems import build_polytope, hbg_instantiate, rap_generate
from cgm.qp import (
    Infeasible,
    ProjectionResult,
    VelocityPolytope,
    brute_force_projection,
    kkt_residual_qp,
    project_velocity,
)


def random_instance(rng, n, m):
    a = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    c = rng.standard_normal(n)
    return c, VelocityPolytope(a, b)


def degenerate_instance(rng, n, m):
    # one exact duplicate and one near-parallel copy: the Gram matrix is singular
    a = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    i, j = rng.integers(0, m, size=2)
    a = np.vstack([a, a[i], a[j] + 1e-6 * rng.standard_normal(n)])
    b = np.append(b, [b[i], b[j] + 1e-6 * rng.standard_normal()])
    c = rng.standard_normal(n)
    return c, VelocityPolytope(a, b)


def test_no_rows_returns_negated_target():
    polytope = VelocityPolytope(np.zeros((0, 3)), np.zeros(0))
    c = np.array([1.0, -2.0, 0.5])
    result = project_velocity(c, polytope)
    np.testing.assert_allclose(result.v, -c)
    assert result.kkt_residual == 0.0


def test_inactive_rows_fast_path():
    polytope = VelocityPolytope(np.array([[1.0, 0.0]]), np.array([100.0]))
    result = project_velocity(np.array([-1.0, 2.0]), polytope)
    np.testing.assert_allclose(result.v, [1.0, -2.0])
    assert result.n_active == 0
    assert result.path == "direct"
    assert result.iterations == 0


def test_single_active_row_projection():
    # -c = (1, 0) violates v_0 <= 0; the projection lands on the boundary
    polytope = VelocityPolytope(np.array([[1.0, 0.0]]), np.array([0.0]))
    result = project_velocity(np.array([-1.0, 0.0]), polytope)
    np.testing.assert_allclose(result.v, [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(result.dual, [1.0], atol=1e-12)
    assert result.path == "dual"
    assert result.iterations == 1


def test_bound_rows_must_be_negative_unit_rows():
    # rows -e_1 and a general row; bound_idx names the coordinate of each bound row
    a = np.array([[0.0, -1.0], [1.0, 1.0]])
    b = np.array([0.5, 1.0])
    assert VelocityPolytope(a, b, bound_idx=[1]).bound_idx.tolist() == [1]
    for bad_a, bound_idx in (
        (a, [0]),  # -e_1 is not -e_0
        (np.array([[0.0, 1.0], [1.0, 1.0]]), [1]),  # +e_1
        (np.array([[0.5, -1.0], [1.0, 1.0]]), [1]),  # extra entry
        (np.array([[0.0, -2.0], [1.0, 1.0]]), [1]),  # scaled
        (a, [1, 0]),  # the general row is not a bound row
    ):
        with pytest.raises(ValueError):
            VelocityPolytope(bad_a, b, bound_idx=bound_idx)
    with pytest.raises(ValueError):
        VelocityPolytope(a, b, bound_idx=[1, 0, 1])  # more bound rows than rows


def bounded_instance(rng, n, k):
    """Bound rows -v_i <= b_i on a random coordinate subset, then k dense rows."""
    bound_idx = np.flatnonzero(rng.random(n) < 0.7)
    a = np.vstack([-np.eye(n)[bound_idx], rng.standard_normal((k, n))])
    b = np.concatenate([rng.standard_normal(bound_idx.size), rng.standard_normal(k)])
    c = 2.0 * rng.standard_normal(n)
    return c, VelocityPolytope(a, b, bound_idx=bound_idx)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_bound_rows_match_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    k = int(rng.integers(0, 4))
    c, polytope = bounded_instance(rng, n, k)
    try:
        result = project_velocity(c, polytope)
    except Infeasible:
        with pytest.raises(Infeasible):
            brute_force_projection(c, polytope)
        return
    assert np.max(np.abs(result.v - brute_force_projection(c, polytope))) <= 1e-8
    tol = cgm.qp.KKT_TOL
    gate = max(tol, 1e3 * tol * (1.0 + np.linalg.norm(c)))
    assert kkt_residual_qp(result, c, polytope) <= gate
    assert (result.dual >= 0.0).all()


def test_infeasible_pair_raises():
    polytope = VelocityPolytope(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))
    with pytest.raises(Infeasible):
        project_velocity(np.array([0.0]), polytope)


def test_empty_polytope_beyond_oracle_size_raises():
    # 20 rows, more than the oracle fallback handles; v_0 <= -1 and v_0 >= 1 clash
    rng = np.random.default_rng(5)
    n = 6
    e0 = np.eye(n)[0]
    a = np.vstack([rng.standard_normal((18, n)), e0, -e0])
    b = np.append(np.full(18, 5.0), [-1.0, -1.0])
    polytope = VelocityPolytope(a, b)
    with pytest.raises(Infeasible):
        project_velocity(rng.standard_normal(n), polytope)


def test_zero_normal_negative_rhs_rejected():
    with pytest.raises(Infeasible):
        VelocityPolytope(np.zeros((1, 2)), np.array([-0.5]))
    # checked across the whole array: one bad row among good ones
    with pytest.raises(Infeasible):
        VelocityPolytope(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([-1.0, -0.5]))


def test_zero_normal_nonnegative_rhs_is_vacuous():
    polytope = VelocityPolytope(np.zeros((1, 2)), np.array([1.0]))
    result = project_velocity(np.array([3.0, 4.0]), polytope)
    np.testing.assert_allclose(result.v, [-3.0, -4.0])


def test_row_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        VelocityPolytope(np.ones((1, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        VelocityPolytope(np.ones(3), np.zeros(1))
    with pytest.raises(ValueError):
        VelocityPolytope(np.array([[1.0, np.inf]]), np.zeros(1))


def test_nonfinite_target_rejected():
    polytope = VelocityPolytope(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        project_velocity(np.array([np.nan, 0.0]), polytope)


def test_oracle_equivalence_batch():
    for make_instance in (random_instance, degenerate_instance):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 7))
            c, polytope = make_instance(rng, n, m)
            try:
                fast = project_velocity(c, polytope)
            except Infeasible:
                with pytest.raises(Infeasible):
                    brute_force_projection(c, polytope)
                continue
            oracle = brute_force_projection(c, polytope)
            assert np.max(np.abs(fast.v - oracle)) <= 1e-8


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_oracle_equivalence_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 7))
    c, polytope = random_instance(rng, n, m)
    try:
        fast = project_velocity(c, polytope)
    except Infeasible:
        return
    oracle = brute_force_projection(c, polytope)
    assert np.max(np.abs(fast.v - oracle)) <= 1e-8
    assert fast.kkt_residual <= 1e-6


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_projection_is_feasible_and_certified(seed):
    rng = np.random.default_rng(seed)
    c, polytope = random_instance(rng, 3, 5)
    try:
        result = project_velocity(c, polytope)
    except Infeasible:
        return
    a, b = polytope.matrix()
    assert np.max(a @ result.v - b) <= 1e-8
    assert kkt_residual_qp(result, c, polytope) <= 1e-6


def test_kkt_residual_flags_wrong_dual():
    polytope = VelocityPolytope(np.array([[1.0, 0.0]]), np.array([0.0]))
    bogus = ProjectionResult(
        v=np.zeros(2), dual=np.array([5.0]), kkt_residual=0.0, n_active=0
    )
    assert kkt_residual_qp(bogus, np.array([-1.0, 0.0]), polytope) > 1.0


def test_kkt_residual_rejects_wrong_dual_length():
    polytope = VelocityPolytope(np.zeros((0, 2)), np.zeros(0))
    bad = ProjectionResult(v=np.zeros(2), dual=np.ones(3), kkt_residual=0.0, n_active=0)
    with pytest.raises(ValueError):
        kkt_residual_qp(bad, np.zeros(2), polytope)


def test_duals_are_nonnegative_and_complementary():
    rng = np.random.default_rng(11)
    for _ in range(100):
        c, polytope = random_instance(rng, 3, 4)
        try:
            result = project_velocity(c, polytope)
        except Infeasible:
            continue
        assert np.min(result.dual) >= 0.0
        a, b = polytope.matrix()
        slack = a @ result.v - b
        assert np.max(np.abs(result.dual * slack)) <= 1e-6


def test_large_rap_polytopes_pass_kkt_gate():
    # d=200 RAP steps violate well over 16 rows, where no oracle fallback exists
    problem = rap_generate(200, seed=0)
    trace = cgm_min_run(problem, MinSolverConfig(horizon=20, schedule="varying"))
    tol = cgm.qp.KKT_TOL
    large = 0
    for x in trace.xs[:-1]:
        values = problem.constraints.values(x)
        polytope = build_polytope(problem.constraints, x, trace.alpha, values)
        if polytope.b.size <= 16:
            continue
        large += 1
        c = problem.grad_f(x)
        result = project_velocity(c, polytope)
        gate = max(tol, 1e3 * tol * (1.0 + np.linalg.norm(c)))
        assert kkt_residual_qp(result, c, polytope) <= gate
        assert result.n_active == np.count_nonzero(result.dual > 0)
    assert large >= 10


def test_fallbacks_are_logged(monkeypatch, caplog):
    # row 0 is active at the optimum v = 0 and row 1 is slack; with the active
    # set stubbed out, a perturbed NNLS answer makes both rows "active", so the
    # polish finds a negative multiplier and the KKT gate sends the result to
    # the exhaustive oracle
    real_nnls = cgm.qp.nnls
    calls = []

    def perturbed_nnls(*args, **kwargs):
        y, rnorm = real_nnls(*args, **kwargs)
        calls.append(y)
        return (y + 0.1 if len(calls) == 1 else y), rnorm

    monkeypatch.setattr(cgm.qp, "_active_set", lambda c, polytope, gate: None)
    monkeypatch.setattr(cgm.qp, "nnls", perturbed_nnls)
    polytope = VelocityPolytope(np.eye(2), np.array([0.0, 5.0]))
    c = np.array([-1.0, 0.0])
    with caplog.at_level("WARNING", logger="cgm.qp"):
        result = project_velocity(c, polytope)
    np.testing.assert_allclose(result.v, [0.0, 0.0], atol=1e-12)
    assert result.path == "oracle"
    messages = [rec.getMessage() for rec in caplog.records if rec.name == "cgm.qp"]
    assert len(messages) == 3
    assert "NNLS fallback" in messages[0]
    assert "polish rejected" in messages[1]
    assert "oracle fallback" in messages[2]

    # the unstubbed solve takes the active set and logs nothing
    caplog.clear()
    monkeypatch.undo()
    with caplog.at_level("WARNING", logger="cgm.qp"):
        assert project_velocity(c, polytope).path == "dual"
    assert not [rec for rec in caplog.records if rec.name == "cgm.qp"]


def test_nnls_fallback_is_logged_with_row_counts(caplog):
    # a duplicated row makes the active-set system singular
    polytope = VelocityPolytope(
        np.array([[-1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]), np.array([-1.0, 0.0, 0.0]),
        bound_idx=[0],
    )
    c = np.array([0.0, -1.0])
    with caplog.at_level("WARNING", logger="cgm.qp"):
        result = project_velocity(c, polytope)
    np.testing.assert_allclose(result.v, brute_force_projection(c, polytope), atol=1e-12)
    assert result.path == "nnls"
    assert result.iterations == 0
    messages = [rec.getMessage() for rec in caplog.records if rec.name == "cgm.qp"]
    assert messages == [
        "active set unsettled on 1 bound and 2 general rows: NNLS fallback"
    ]


def _trajectories():
    return {
        "rap-d50": cgm_min_run(rap_generate(50, seed=0), MinSolverConfig(horizon=500)),
        "rap-d200": cgm_min_run(
            rap_generate(200, seed=0), MinSolverConfig(horizon=20, schedule="varying")
        ),
        "hbg-d50": cgm_vi_run(hbg_instantiate(50, 0.8, seed=0), VISolverConfig(horizon=1000)),
    }


@pytest.fixture(scope="module")
def dual_trajectories():
    return _trajectories()


def test_nnls_fallback_matches_dual_trajectories(monkeypatch, dual_trajectories):
    # the NNLS reduction and its polish reach the same iterates as the active set
    monkeypatch.setattr(cgm.qp, "_active_set", lambda c, polytope, gate: None)
    cold = _trajectories()
    for name, trace in dual_trajectories.items():
        assert "dual" not in cold[name].qp_path
        np.testing.assert_allclose(trace.xs, cold[name].xs, rtol=0, atol=1e-12, err_msg=name)
        np.testing.assert_allclose(
            trace.max_violation, cold[name].max_violation, rtol=0, atol=1e-12,
            err_msg=name,
        )


def _qp_paths(trace):
    return set(trace.qp_path[trace.qp_path != ""].tolist())


def test_trajectory_qps_take_the_active_set(dual_trajectories):
    for name, trace in dual_trajectories.items():
        assert _qp_paths(trace) <= {"direct", "dual"}, name
        assert "dual" in _qp_paths(trace), name


@pytest.mark.parametrize(
    "d, seed, horizon",
    [(50, 5, 2000), (50, 7, 2000), (200, 0, 200), (200, 1, 200), (200, 2, 200)],
)
def test_varying_schedule_qps_take_the_active_set(d, seed, horizon):
    # runs where other row-update rules cycle or stall on a roundoff-sized slack
    trace = cgm_min_run(
        rap_generate(d, seed=seed), MinSolverConfig(horizon=horizon, schedule="varying")
    )
    assert _qp_paths(trace) <= {"direct", "dual"}
