"""Least-distance projection: oracle equivalence, KKT checks, edge cases."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cgm.cgm_min
import cgm.qp
from cgm.cgm_min import MinSolverConfig, build_polytope, cgm_min_run
from cgm.cgm_vi import VISolverConfig, cgm_vi_run
from cgm.problems import hbg_instantiate, rap_generate, violated_set
from cgm.qp import (
    KKT_TOL,
    Infeasible,
    MaxIterations,
    ProjectionResult,
    VelocityPolytope,
    kkt_residual_qp,
    project_velocity,
)
from exact_oracle import exact_projection, from_rows


def random_instance(rng, n, m):
    a = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    c = rng.standard_normal(n)
    return c, from_rows(a, b)


def degenerate_instance(rng, n, m):
    # one exact duplicate and one near-parallel copy: the Gram matrix is singular
    a = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    i, j = rng.integers(0, m, size=2)
    a = np.vstack([a, a[i], a[j] + 1e-6 * rng.standard_normal(n)])
    b = np.append(b, [b[i], b[j] + 1e-6 * rng.standard_normal()])
    c = rng.standard_normal(n)
    return c, from_rows(a, b)


def test_no_rows_returns_negated_target():
    polytope = from_rows(np.zeros((0, 3)), np.zeros(0))
    c = np.array([1.0, -2.0, 0.5])
    result = project_velocity(c, polytope)
    np.testing.assert_allclose(result.v, -c)
    assert result.kkt_residual == 0.0


def test_inactive_rows_fast_path():
    polytope = from_rows(np.array([[1.0, 0.0]]), np.array([100.0]))
    result = project_velocity(np.array([-1.0, 2.0]), polytope)
    np.testing.assert_allclose(result.v, [1.0, -2.0])
    assert result.n_active == 0
    assert result.path == "direct"
    assert result.iterations == 0


def test_single_active_row_projection():
    # -c = (1, 0) violates v_0 <= 0; the projection lands on the boundary
    polytope = from_rows(np.array([[1.0, 0.0]]), np.array([0.0]))
    result = project_velocity(np.array([-1.0, 0.0]), polytope)
    np.testing.assert_allclose(result.v, [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(result.dual, [1.0], atol=1e-12)
    assert result.path == "dual"
    assert result.iterations == 1


def test_bound_rows_must_be_negative_unit_rows():
    # rows -e_1 and a general row; bound_idx names the coordinate of each bound row
    a = np.array([[0.0, -1.0], [1.0, 1.0]])
    b = np.array([0.5, 1.0])
    assert from_rows(a, b, bound_idx=[1]).bound_idx.tolist() == [1]
    for bad_a, bound_idx in (
        (a, [0]),  # -e_1 is not -e_0
        (np.array([[0.0, 1.0], [1.0, 1.0]]), [1]),  # +e_1
        (np.array([[0.5, -1.0], [1.0, 1.0]]), [1]),  # extra entry
        (np.array([[0.0, -2.0], [1.0, 1.0]]), [1]),  # scaled
        (a, [1, 0]),  # the general row is not a bound row
        (a, [2]),  # no coordinate 2 in R^2
        (np.array([[0.0, -1.0], [0.0, -1.0]]), [1, 1]),  # one coordinate bounded twice
    ):
        with pytest.raises(ValueError):
            from_rows(bad_a, b, bound_idx=bound_idx)
    with pytest.raises(ValueError):
        from_rows(a, b, bound_idx=[1, 0, 1])  # more bound rows than rows
    with pytest.raises(ValueError):
        from_rows(a, np.array([np.inf, 1.0]), bound_idx=[1])  # floor


def bounded_instance(rng, n, k):
    """Bound rows -v_i <= b_i on a random coordinate subset, then k dense rows."""
    bound_idx = np.flatnonzero(rng.random(n) < 0.7)
    a = np.vstack([-np.eye(n)[bound_idx], rng.standard_normal((k, n))])
    b = np.concatenate([rng.standard_normal(bound_idx.size), rng.standard_normal(k)])
    c = 2.0 * rng.standard_normal(n)
    return c, from_rows(a, b, bound_idx=bound_idx)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
@example(2148883587)  # nearly parallel rows: a Gram-system vertex sits 2.8e-7 off the exact one
@example(23867184)  # a Gram-system vertex sits 1.9e-8 off the exact one
def test_bound_rows_match_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    k = int(rng.integers(0, 4))
    c, polytope = bounded_instance(rng, n, k)
    try:
        result = project_velocity(c, polytope)
    except Infeasible:
        with pytest.raises(Infeasible):
            exact_projection(c, polytope)
        return
    assert np.max(np.abs(result.v - exact_projection(c, polytope))) <= 1e-8
    tol = cgm.qp.KKT_TOL
    gate = max(tol, 1e3 * tol * (1.0 + np.linalg.norm(c)))
    assert kkt_residual_qp(result, c, polytope) <= gate
    assert (result.dual >= 0.0).all()


def test_infeasible_pair_raises():
    polytope = from_rows(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))
    with pytest.raises(Infeasible):
        project_velocity(np.array([0.0]), polytope)


def test_empty_polytope_beyond_oracle_size_raises():
    # 20 rows, more than the oracle fallback handles; v_0 <= -1 and v_0 >= 1 clash
    rng = np.random.default_rng(5)
    n = 6
    e0 = np.eye(n)[0]
    a = np.vstack([rng.standard_normal((18, n)), e0, -e0])
    b = np.append(np.full(18, 5.0), [-1.0, -1.0])
    polytope = from_rows(a, b)
    with pytest.raises(Infeasible):
        project_velocity(rng.standard_normal(n), polytope)


def test_zero_normal_negative_rhs_rejected():
    with pytest.raises(Infeasible):
        from_rows(np.zeros((1, 2)), np.array([-0.5]))
    # checked across the whole array: one bad row among good ones
    with pytest.raises(Infeasible):
        from_rows(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([-1.0, -0.5]))


def test_zero_normal_nonnegative_rhs_is_vacuous():
    polytope = from_rows(np.zeros((1, 2)), np.array([1.0]))
    result = project_velocity(np.array([3.0, 4.0]), polytope)
    np.testing.assert_allclose(result.v, [-3.0, -4.0])
    # a normal below DEGENERATE_NORMAL does not count in the direct test, even
    # when -c violates it by roundoff, next to a kept row
    polytope = from_rows(
        np.array([[1e-15, 0.0], [0.0, 1.0]]), np.array([0.0, 1.0])
    )
    assert list(polytope.kept) == [False, True] and not polytope.all_kept
    result = project_velocity(np.array([-1.0, 0.0]), polytope)
    assert result.path == "direct"
    np.testing.assert_array_equal(result.v, [1.0, 0.0])


def test_row_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        from_rows(np.ones((1, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        from_rows(np.ones(3), np.zeros(1))
    with pytest.raises(ValueError):
        from_rows(np.array([[1.0, np.inf]]), np.zeros(1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_rows_rejected(bad):
    # read off the squared row norms plus h, then g and h when those overflow
    for g, h in (([[1.0, bad], [0.0, 1.0]], [1.0, 1.0]), ([[1.0, 0.0], [0.0, 1.0]], [1.0, bad]),
                 ([[1e200, bad]], [0.0]), ([[1e200, 1.0]], [bad]), ([[bad, 0.0]], [-1e308])):
        with pytest.raises(ValueError, match="finite"):
            VelocityPolytope(np.array(g), np.array(h), np.zeros(0, int), np.zeros(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_floors_rejected(bad):
    # a NaN floor once reached the fallback and an infinite one its step cap
    for floor in ([bad], [0.0, bad]):
        bound_idx = np.arange(len(floor))
        with pytest.raises(ValueError, match="floors must be finite"):
            VelocityPolytope(np.zeros((0, 3)), np.zeros(0), bound_idx, np.array(floor))
        with pytest.raises(ValueError, match="floors must be finite"):
            VelocityPolytope(np.ones((1, 3)), np.ones(1), bound_idx, np.array(floor))


def assert_rejected_alike(first, h, bound_idx, floor, error=ValueError):
    """The constructor on first's rows g and first.with_rhs raise one error with one message."""
    with pytest.raises(error) as fresh:
        VelocityPolytope(first.g, h, bound_idx, floor)
    with pytest.raises(error) as shared:
        first.with_rhs(h, bound_idx, floor)
    assert (shared.type, str(shared.value)) == (fresh.type, str(fresh.value))


def test_constructor_and_with_rhs_reject_alike():
    # one check of h, the floors and the zero-normal rule serves both
    g = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])  # the second row is a zero normal
    first = VelocityPolytope(g, np.array([1.0, 0.0]), np.zeros(0, int), np.zeros(0))
    bound_idx, floor = np.array([0, 2]), np.array([0.5, -1.0])
    for h in (np.ones(3), np.ones((2, 1)), *(np.array([1.0, x]) for x in (np.nan, np.inf, -np.inf))):
        assert_rejected_alike(first, h, bound_idx, floor)
    for bad in ([0.0, np.nan], [np.inf, 0.0], [-np.inf, 1e200]):
        assert_rejected_alike(first, np.ones(2), bound_idx, np.array(bad))
    assert_rejected_alike(first, np.array([1.0, -1e-300]), bound_idx, floor, Infeasible)
    shared = first.with_rhs(np.ones(2), bound_idx, floor)
    assert shared.gram is first.gram and shared.kept is first.kept and not shared.all_kept


def test_bound_rows_are_checked_at_construction():
    # a floor per bound coordinate, distinct integer coordinates in [0, n): one
    # floor for two coordinates once broadcast to both, and a coordinate bounded
    # twice once reached the fallback and raised MaxIterations
    g, h = np.zeros((0, 3)), np.zeros(0)
    first = VelocityPolytope(np.ones((1, 3)), np.ones(1), np.zeros(0, int), np.zeros(0))
    empty = VelocityPolytope(g, h, np.zeros(0, int), np.zeros(0))
    for bound_idx, floor in (
        ([0, 1], [0.5]),
        ([0, 0], [0.5, -1.0]),
        ([2, 0, 2], [0.0, 0.0, 0.0]),
        ([3], [0.0]),
        ([-1], [0.0]),
        ([1, 3], [0.0, 0.0]),
        ([[0]], [[0.0]]),
        (np.array([0.0]), [0.0]),
        (np.array([True]), [0.0]),
    ):
        bound_idx, floor = np.array(bound_idx), np.array(floor)
        for polytope in (empty, first):
            assert_rejected_alike(polytope, polytope.h, bound_idx, floor)
    # distinct coordinates in any order are bounds
    polytope = VelocityPolytope(g, h, np.array([2, 0]), np.array([0.5, -1.0]))
    np.testing.assert_array_equal(project_velocity(np.ones(3), polytope).v, [-1.0, -1.0, 0.5])
    assert first.with_rhs(first.h, np.array([2, 0]), np.array([0.5, -1.0])).bound_idx.size == 2


def parent_row_check(g, h, floor):
    """VelocityPolytope's row check as it was, reduced in numpy: an error name or (kept, all_kept)."""
    with np.errstate(over="ignore", invalid="ignore"):
        squares = (g * g).sum(axis=1)
        if not (np.isfinite(squares + h).all() or np.isfinite(g).all() and np.isfinite(h).all()):
            return "ValueError"
    if not np.isfinite(floor).all():
        return "ValueError"
    degenerate = squares < cgm.qp.DEGENERATE_NORMAL**2
    if degenerate.any() and (h[degenerate] < 0).any():
        return "Infeasible"
    return (~degenerate).tolist(), not degenerate.any()


def test_row_check_accepts_and_rejects_as_the_numpy_check_did():
    # the fresh check scans Python floats and reads g and h only when that scan fails
    cases = [([[1.0, 0.5], [0.0, 1.0]], [1.0, -1.0], [0.0]),
             ([[1e200, 0.0], [0.0, 1.0]], [1.0, -1e300], [0.0]),  # squares overflow: accepted
             ([[1e153, 0.0]], [1.7e308], [-1e308]),
             ([[0.0, 0.0], [1.0, 0.0]], [-1.0, 1.0], [0.0]),  # zero normal, h < 0: Infeasible
             ([[0.0, 0.0], [1.0, 0.0]], [0.0, 1.0], [0.0]),  # zero normal, h >= 0: not kept
             ([[1e-14, 0.0]], [-1.0], []),  # on the degenerate threshold: kept
             ([[9e-15, 0.0]], [-1.0], []),
             ([[9e-15, 0.0]], [2.0], [1.0])]
    for bad in (np.nan, np.inf, -np.inf):
        cases += [([[1.0, bad], [0.0, 1.0]], [1.0, 1.0], [0.0]),
                  ([[1.0, 0.0], [0.0, 1.0]], [1.0, bad], [0.0]),
                  ([[1e200, bad]], [0.0], []), ([[1e200, 1.0]], [bad], []),
                  ([[bad, 0.0]], [-1e308], []), ([[1.0, 0.0]], [1.0], [bad]),
                  ([[1.0, 0.0]], [1.0], [0.0, bad])]
    outcomes = set()
    for g, h, floor in cases:
        g, h, floor = np.array(g, dtype=float), np.array(h, dtype=float), np.array(floor)
        expected = parent_row_check(g, h, floor)
        try:
            polytope = VelocityPolytope(g, h, np.arange(floor.size), floor)
        except (ValueError, Infeasible) as exc:
            got = type(exc).__name__
        else:
            got = polytope.kept.tolist(), polytope.all_kept
        assert got == expected, (g, h, floor)
        outcomes.add(expected if isinstance(expected, str) else expected[1])
    assert outcomes == {"ValueError", "Infeasible", True, False}


def test_rows_whose_squares_overflow_are_accepted():
    # 1e200 squares to inf, and 1.7e308 + 1e307 overflows, but every entry is finite
    for g, h in (([[1e200, 0.0], [0.0, 1.0]], [1.0, -1e300]), ([[1e153, 0.0]], [1.7e308])):
        polytope = VelocityPolytope(np.array(g), np.array(h), np.zeros(0, int), np.zeros(0))
        assert polytope.all_kept


def test_norms_are_bitwise_np_linalg_norm(monkeypatch):
    # the KKT stationarity and the gate take sqrt(x . x), np.linalg.norm's arithmetic on 1-D x
    rng = np.random.default_rng(8)
    gates = []
    real = cgm.qp._active_set
    monkeypatch.setattr(cgm.qp, "_active_set",
                        lambda c, p, gate, u, gu: gates.append(gate) or real(c, p, gate, u, gu))
    for n in (1, 2, 50, 257):
        no_rows = from_rows(np.zeros((0, n)), np.zeros(0))
        row = from_rows(-np.ones((1, n)), np.full(1, -1.0))  # sum(v) >= 1
        for _ in range(100):
            c = rng.standard_normal(n) * 10.0 ** rng.integers(-100, 101, size=n)
            v = rng.standard_normal(n) * 10.0 ** rng.integers(-100, 101, size=n)
            result = ProjectionResult(v=v, dual=np.zeros(0), kkt_residual=np.nan, n_active=0)
            assert kkt_residual_qp(result, c, no_rows) == float(np.linalg.norm(v + c))
            c = np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-3, 4, size=n)
            project_velocity(c, row)
            assert gates.pop() == max(KKT_TOL, 1e3 * KKT_TOL * (1.0 + np.linalg.norm(c)))


def test_nonfinite_target_rejected():
    polytope = from_rows(np.zeros((0, 2)), np.zeros(0))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            project_velocity(np.array([bad, 0.0]), polytope)
        with pytest.raises(ValueError, match="finite"):
            project_velocity(np.array([1e200, bad]), polytope)


def test_target_whose_squares_overflow_is_projected():
    # c . c overflows at 1e200, but every entry is finite
    c = np.array([-1e200, 1e200])
    result = project_velocity(c, from_rows(np.zeros((0, 2)), np.zeros(0)))
    assert result.path == "direct"
    np.testing.assert_array_equal(result.v, -c)
    result = project_velocity(c, from_rows(np.array([[1.0, 0.0]]), np.array([0.0])))
    assert result.path == "dual"
    np.testing.assert_array_equal(result.v, [0.0, -1e200])
    np.testing.assert_array_equal(result.dual, [1e200])


def test_oracle_equivalence_batch():
    # the worst gap to the exact projection is 3.8e-10, at draw 1821 of the
    # degenerate family (duplicate rows, multipliers near 2.3e6)
    for make_instance in (random_instance, degenerate_instance):
        rng = np.random.default_rng(7)
        for draw in range(2000):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 7))
            c, polytope = make_instance(rng, n, m)
            try:
                fast = project_velocity(c, polytope)
            except Infeasible:
                with pytest.raises(Infeasible):
                    exact_projection(c, polytope)
                continue
            oracle = exact_projection(c, polytope, fast.dual)
            assert np.max(np.abs(fast.v - oracle)) <= 1e-9, (make_instance.__name__, draw)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
@example(761)  # nearly parallel rows: a Gram-system vertex sits 4.4e-8 off the exact one
@example(662110862)  # a Gram-system vertex misses a row by more than 1e-9
@example(331237)  # likewise, with multipliers up to 5.2e6
@example(9457573)  # the Gram vertex sits inside its active rows by 2.6e-11, 3.4e-8 off exact
def test_oracle_equivalence_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 7))
    c, polytope = random_instance(rng, n, m)
    try:
        fast = project_velocity(c, polytope)
    except Infeasible:
        return
    oracle = exact_projection(c, polytope)
    assert np.max(np.abs(fast.v - oracle)) <= 1e-8
    assert fast.kkt_residual <= 1e-6


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
@example(1165)  # nearly parallel rows: the Gram vertex missed a row by 1.8e-8
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


def test_ill_conditioned_vertices_are_solved_on_the_rows():
    # draws whose active rows are nearly parallel, with multipliers of 3e5 to
    # 1e8: the Gram system squares their condition number, so a vertex solved
    # there misses a row by up to 3e-8, or sits up to 2.8e-7 off the exact one
    for seed in (1165, 1609212826, 2569506634):
        c, polytope = random_instance(np.random.default_rng(seed), 3, 5)
        result = project_velocity(c, polytope)
        assert result.path == "gi"  # the active set hands the vertex to the fallback
        a, b = polytope.matrix()
        assert np.max(a @ result.v - b) <= 1e-11, seed
        assert kkt_residual_qp(result, c, polytope) <= 1e-6, seed
    draws = [(seed, "dense") for seed in (761, 1295048895, 662110862, 939195338)]
    draws += [(seed, "bounded") for seed in (2148883587, 2447850742, 1411521251)]
    for seed, family in draws:
        rng = np.random.default_rng(seed)
        if family == "dense":
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 7))
            c, polytope = random_instance(rng, n, m)
        else:
            n, k = int(rng.integers(1, 6)), int(rng.integers(0, 4))
            c, polytope = bounded_instance(rng, n, k)
        result = project_velocity(c, polytope)
        oracle = exact_projection(c, polytope)
        assert np.max(np.abs(result.v - oracle)) <= 1e-8, seed
        a, b = polytope.matrix()
        assert np.max(a @ oracle - b) <= 1e-11, seed


def test_kkt_residual_flags_wrong_dual():
    polytope = from_rows(np.array([[1.0, 0.0]]), np.array([0.0]))
    bogus = ProjectionResult(
        v=np.zeros(2), dual=np.array([5.0]), kkt_residual=0.0, n_active=0
    )
    assert kkt_residual_qp(bogus, np.array([-1.0, 0.0]), polytope) > 1.0


def test_kkt_residual_rejects_wrong_dual_length():
    polytope = from_rows(np.zeros((0, 2)), np.zeros(0))
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
        polytope = build_polytope(
            problem.constraints, x, trace.alpha, values, violated_set(values)
        )
        if polytope.matrix()[1].size <= 16:
            continue
        large += 1
        c = problem.grad_f(x)
        result = project_velocity(c, polytope)
        gate = max(tol, 1e3 * tol * (1.0 + np.linalg.norm(c)))
        assert kkt_residual_qp(result, c, polytope) <= gate
        assert result.n_active == np.count_nonzero(result.dual > 0)
    assert large >= 10


def test_fallbacks_are_logged(monkeypatch, caplog):
    # with the active set stubbed out, the dual fallback logs one warning and
    # still returns the projection v = 0 (row 0 active, row 1 slack)
    monkeypatch.setattr(cgm.qp, "_active_set", lambda c, polytope, gate, u, gu: None)
    polytope = from_rows(np.eye(2), np.array([0.0, 5.0]))
    c = np.array([-1.0, 0.0])
    with caplog.at_level("WARNING", logger="cgm.qp"):
        result = project_velocity(c, polytope)
    np.testing.assert_allclose(result.v, [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(result.dual, [1.0, 0.0], atol=1e-12)
    assert result.path == "gi"
    messages = [rec.getMessage() for rec in caplog.records if rec.name == "cgm.qp"]
    assert messages == [
        "active set unsettled on 0 bound and 2 general rows: dual fallback"
    ]

    # the unstubbed solve takes the active set and logs nothing
    caplog.clear()
    monkeypatch.undo()
    with caplog.at_level("WARNING", logger="cgm.qp"):
        assert project_velocity(c, polytope).path == "dual"
    assert not [rec for rec in caplog.records if rec.name == "cgm.qp"]


def _raises_on_a_shifted_fallback_answer(monkeypatch, shift, target=(-1.0, 0.0)):
    real = cgm.qp._goldfarb_idnani

    def perturbed(c, polytope):
        result = real(c, polytope)
        result.v = result.v + shift
        result.kkt_residual = kkt_residual_qp(result, c, polytope)
        return result

    monkeypatch.setattr(cgm.qp, "_active_set", lambda c, polytope, gate, u, gu: None)
    monkeypatch.setattr(cgm.qp, "_goldfarb_idnani", perturbed)
    polytope = from_rows(np.eye(2), np.array([0.0, 5.0]))
    with pytest.raises(MaxIterations):
        project_velocity(np.array(target), polytope)


def test_fallback_answer_must_pass_the_gate(monkeypatch):
    # a fallback answer off the optimum by 1e-3 fails the KKT gate and raises
    _raises_on_a_shifted_fallback_answer(monkeypatch, 1e-3)


def test_nan_fallback_answer_fails_the_gate(monkeypatch):
    # a NaN residual compares False with the gate either way round
    _raises_on_a_shifted_fallback_answer(monkeypatch, np.nan)


def test_overflowing_target_keeps_a_finite_gate(monkeypatch):
    # c . c overflows at |c| = 1e200, so the gate's scale 1 + |c| takes |c| from
    # hypot; v = [3e200, 1e140] misses v_0 <= 0 by 3e200 and fails the gate
    with np.errstate(over="ignore"):
        _raises_on_a_shifted_fallback_answer(monkeypatch, np.array([2e200, 1e140]), (-1e200, 0.0))


def test_fallback_projects_an_overflowing_target():
    # c . c overflows, so the rows' scale takes |c| from hypot: the tolerance is
    # 1e190, not inf, and v_0 <= 0 is added
    polytope = from_rows(np.eye(2), np.array([0.0, 5.0]))
    with np.errstate(over="ignore"):
        result = cgm.qp._goldfarb_idnani(np.array([-1e200, 0.0]), polytope)
    assert result.v.tolist() == [0.0, 0.0] and result.kkt_residual == 0.0
    assert result.dual.tolist() == [1e200, 0.0]


def test_direct_test_hands_g_u_to_the_active_set(monkeypatch):
    # gu = g u reaches the first iteration without bound rows when every row is
    # kept; a violated bound skips the product, and dropped rows change its rows
    real, handed = cgm.qp._active_set, []

    def spy(c, polytope, gate, u, gu):
        handed.append(gu)
        assert u.tobytes() == (-c).tobytes()
        return real(c, polytope, gate, u, gu)

    monkeypatch.setattr(cgm.qp, "_active_set", spy)
    c = np.array([-1.0, -2.0, 0.5])
    g = np.array([[1.0, 0.0, 0.0], [0.3, 1.0, -2.0]])
    assert project_velocity(c, from_rows(g, np.zeros(2))).path == "dual"
    assert handed.pop().tobytes() == (g @ -c).tobytes()
    assert project_velocity(c, from_rows(np.vstack([-np.eye(3)[2], g]), [0.0, 0.0, 0.0],
                                         bound_idx=[2])).path == "dual"
    assert handed.pop() is None  # -c = (1, 2, -0.5) misses v_2 >= 0
    with_zero_row = from_rows(np.vstack([g, np.zeros(3)]), np.zeros(3))
    assert not with_zero_row.all_kept
    project_velocity(c, with_zero_row)
    assert handed.pop() is None


def test_fallback_is_logged_with_row_counts(caplog):
    # a duplicated row makes the active-set system singular
    polytope = from_rows(
        np.array([[-1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]), np.array([-1.0, 0.0, 0.0]),
        bound_idx=[0],
    )
    c = np.array([0.0, -1.0])
    with caplog.at_level("WARNING", logger="cgm.qp"), warnings.catch_warnings():
        warnings.simplefilter("error")  # the singular Gram solve warns about nothing
        result = project_velocity(c, polytope)
    np.testing.assert_allclose(result.v, exact_projection(c, polytope), atol=1e-12)
    assert result.path == "gi"
    assert result.iterations == 2  # two full steps
    assert np.count_nonzero(result.dual[1:]) == 1  # one of the duplicates stays inactive
    messages = [rec.getMessage() for rec in caplog.records if rec.name == "cgm.qp"]
    assert messages == [
        "active set unsettled on 1 bound and 2 general rows: dual fallback"
    ]


def test_fallback_settles_on_duplicate_rows_with_large_multipliers():
    # draw 1821 of test_oracle_equivalence_batch's degenerate stream: exact
    # duplicate rows with multipliers near 2.3e6, whose slacks carry roundoff
    # near 1e-9; a fallback that re-solves v after each full step swaps the
    # two duplicates until the step cap
    rng = np.random.default_rng(7)
    for _ in range(1822):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 7))
        c, polytope = degenerate_instance(rng, n, m)
    result = project_velocity(c, polytope)
    assert result.path == "gi"
    assert result.iterations <= polytope.matrix()[1].size
    a, b = polytope.matrix()
    assert np.max(a @ result.v - b) <= 1e-8


def test_bounded_oracle_batch():
    # test_bound_rows_match_oracle's family at seeds 0-2999: about a third of
    # the feasible draws reach the dual fallback (a general row whose
    # coordinates are all clamped, duplicate rows, or the active-set cap), and
    # seed 711 has two nearly parallel rows with multipliers near 4e6
    tol = cgm.qp.KKT_TOL
    paths = {}
    for seed in range(3000):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        k = int(rng.integers(0, 4))
        c, polytope = bounded_instance(rng, n, k)
        try:
            result = project_velocity(c, polytope)
        except Infeasible:
            with pytest.raises(Infeasible):
                exact_projection(c, polytope)
            continue
        paths[result.path] = paths.get(result.path, 0) + 1
        oracle = exact_projection(c, polytope, result.dual)
        assert np.max(np.abs(result.v - oracle)) <= 1e-9, seed
        gate = max(tol, 1e3 * tol * (1.0 + np.linalg.norm(c)))
        assert kkt_residual_qp(result, c, polytope) <= gate, seed
        assert (result.dual >= 0.0).all(), seed
    assert sum(paths.values()) == 2651
    assert paths["gi"] >= 800


def fresh_interpreter(probe):
    """Stdout lines of a new interpreter that runs probe against this cgm package."""
    package_root = str(Path(cgm.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    return out.stdout.splitlines()


def test_import_cgm_does_not_load_scipy():
    # a fresh interpreter that builds both benchmark instances never loads scipy,
    # and of cgm only the package and the module that builds them
    probe = (
        "import sys, cgm; cgm.rap_generate(50); cgm.hbg_instantiate(50, 0.8)\n"
        "for top in ('scipy', 'cgm'):\n"
        "    print(sorted(m for m in sys.modules if m.split('.')[0] == top))"
    )
    assert fresh_interpreter(probe) == ["[]", "['cgm', 'cgm.problems']"]


def test_solvers_do_not_load_the_certificates():
    # both solvers and the baselines norm their own columns, so running them
    # loads neither the certificate module nor the harness
    probe = (
        "import sys, cgm\n"
        "vi = cgm.hbg_instantiate(3, 0.8, seed=0)\n"
        "cgm.cgm_vi_run(vi, cgm.VISolverConfig(horizon=5))\n"
        "cgm.cgm_min_run(cgm.rap_generate(5, seed=0), cgm.MinSolverConfig(5, 'varying'))\n"
        "cgm.gda_eg_run(vi, 0.005, 0.1, 5, vi.x0)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'cgm'))"
    )
    (loaded,) = fresh_interpreter(probe)
    assert loaded == str(["cgm", "cgm.baselines", "cgm.cgm_min", "cgm.cgm_vi", "cgm.problems",
                          "cgm.qp"])


SUBMODULES = ("baselines", "cgm_min", "cgm_vi", "harness", "metrics", "plots", "problems",
              "qp", "reference")


def test_public_names_resolve():
    # every name cgm exports exists, and a star import binds them all
    namespace = {}
    exec("from cgm import *", namespace)
    for name in cgm.__all__:
        assert namespace[name] is getattr(cgm, name), name
    assert len(set(cgm.__all__)) == len(cgm.__all__)
    # in a fresh interpreter, each name resolves on first lookup to its defining
    # module's object, and dir() lists it before any lookup
    probe = (
        "import importlib, cgm\n"
        "listed = dir(cgm)\n"
        f"for name in [*cgm.__all__, '__version__', *{SUBMODULES!r}]:\n"
        "    value = getattr(cgm, name)\n"
        "    home = getattr(value, '__module__', None) or getattr(value, '__name__', 'cgm')\n"
        "    owner = importlib.import_module(home)\n"
        "    same = value is owner or getattr(owner, name) is value\n"
        "    print(name, name in listed, same)\n"
        "try:\n"
        "    cgm.nope\n"
        "except AttributeError as exc:\n"
        "    print(exc)"
    )
    lines = fresh_interpreter(probe)
    names = [*cgm.__all__, "__version__", *SUBMODULES]
    assert lines[:-1] == [f"{name} True True" for name in names]
    assert lines[-1] == "module 'cgm' has no attribute 'nope'"
    assert {"build_polytope", "project_velocity", "rap_generate"} <= set(cgm.__all__)
    assert len(cgm.__all__) == 30


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


def test_fallback_matches_dual_trajectories(monkeypatch, dual_trajectories):
    # the dual fallback reaches the same iterates as the active set
    monkeypatch.setattr(cgm.qp, "_active_set", lambda c, polytope, gate, u, gu: None)
    cold = _trajectories()
    for name, trace in dual_trajectories.items():
        assert "dual" not in cold[name].qp_path
        assert "gi" in cold[name].qp_path  # the path name fits the trace's dtype
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


def dense_kkt_residual(result, target, polytope):
    """kkt_residual_qp's formula on the dense rows a v <= b."""
    c = np.asarray(target, dtype=float)
    v, lam = result.v, result.dual
    a, b = polytope.matrix()
    if a.shape[0] == 0:
        return float(np.linalg.norm(v + c))
    slack = a @ v - b
    stationarity = np.linalg.norm(v + c + a.T @ lam)
    primal = max(0.0, float(np.max(slack)))
    comp = float(np.max(np.abs(lam * slack) / (1.0 + lam)))
    return max(float(stationarity), primal, comp)


def reference_active_set(c, polytope, gate):
    """_active_set as it was before its lean form: np.linalg.solve, every product recomputed."""
    bounds, g, h = polytope.bound_idx, polytope.g, polytope.h
    s = bounds.size
    u = -c
    if s:
        floor = np.full(u.size, -np.inf)
        floor[bounds] = polytope.floor
        free = floor == -np.inf
    active = np.ones(h.size, dtype=bool)
    for iteration in range(1, cgm.qp.ACTIVE_SET_ITERATIONS + 1):
        mu = np.zeros(h.size)
        g_active = g[active]
        try:
            if s:
                gram = (g_active * free) @ g_active.T
                rhs = g_active @ np.where(free, u, floor) - h[active]
            else:
                gram, rhs = g_active @ g_active.T, g_active @ u - h[active]
            mu[active] = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(mu).all():
            return None
        w = u - g.T @ mu
        v = np.maximum(w, floor) if s else w
        slack = g @ v - h
        if mu.min(initial=0.0) >= 0 and slack.max(initial=-np.inf) <= gate:
            dual = np.concatenate(((v - w)[bounds], mu)) if s else mu
            result = ProjectionResult(v=v, dual=dual, kkt_residual=np.nan, n_active=0,
                                      path="dual", iterations=iteration)
            result.kkt_residual = kkt_residual_qp(result, c, polytope)
            if result.kkt_residual <= gate:
                return result
        if s:
            free = w >= floor
        active = np.where(active, mu > 0, slack > 0)
    return None


def reference_projection(c, polytope):
    """project_velocity's direct test and reference_active_set, without the fallback."""
    bounds, keep = polytope.bound_idx, polytope.kept
    if (c[bounds] <= -polytope.floor).all() and (polytope.g[keep] @ -c <= polytope.h[keep]).all():
        dual = np.zeros(bounds.size + polytope.h.size)
        result = ProjectionResult(v=-c, dual=dual, kkt_residual=np.nan, n_active=0, path="direct")
        result.kkt_residual = kkt_residual_qp(result, c, polytope)
        return result
    gate = max(KKT_TOL, 1e3 * KKT_TOL * (1.0 + np.linalg.norm(c)))
    return reference_active_set(c, polytope, gate)


def test_projections_match_the_reference_active_set_bitwise(monkeypatch):
    # every projection of the runs: the gesv helper and the shared products
    # leave each result's bits as the reference computes them
    real = cgm.cgm_min.project_velocity
    paths = []

    def checked_projection(c, polytope):
        result = real(c, polytope)
        expected = reference_projection(c, polytope)
        for part in ("v", "dual"):
            assert getattr(result, part).tobytes() == getattr(expected, part).tobytes(), part
        assert (result.kkt_residual, result.path, result.iterations) == (
            expected.kkt_residual, expected.path, expected.iterations)
        paths.append(result.path)
        return result

    monkeypatch.setattr(cgm.cgm_min, "project_velocity", checked_projection)
    for schedule in ("constant", "varying"):
        cgm_min_run(rap_generate(50, seed=0), MinSolverConfig(horizon=500, schedule=schedule))
    cgm_vi_run(hbg_instantiate(50, 0.8, seed=0), VISolverConfig(horizon=1000))
    assert paths.count("dual") >= 1900 and set(paths) == {"direct", "dual"}


def test_gram_solve_matches_numpy_bitwise():
    rng = np.random.default_rng(5)
    for k in (1, 2, 3):
        for _ in range(200):
            rows = rng.standard_normal((k, 50)) * 10.0 ** rng.integers(-3, 4)
            for gram in (rows @ rows.T, rng.standard_normal((k, k))):
                rhs = rng.standard_normal(k)
                assert cgm.qp._solve(gram, rhs).tobytes() == np.linalg.solve(gram, rhs).tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.isfinite(cgm.qp._solve(np.ones((2, 2)), np.ones(2))).any()


def numpy_certified(result, target, polytope):
    """(kkt_residual, n_active) by _certified's formula, reduced in numpy."""
    c = np.asarray(target, dtype=float)
    v, dual, bounds = result.v, result.dual, polytope.bound_idx
    s = bounds.size
    gradient = v + c + polytope.g.T @ dual[s:]
    gradient[bounds] -= dual[:s]
    slack = np.concatenate((polytope.floor - v[bounds], polytope.g @ v - polytope.h))
    stationarity = math.sqrt(gradient.dot(gradient))
    primal = float(slack.max(initial=0.0))
    comp = float((np.abs(dual * slack) / (1.0 + dual)).max(initial=0.0))
    return max(stationarity, primal, comp), int(np.count_nonzero(dual > 0))


def _assert_kkt_matches_dense(result, c, polytope):
    dense = dense_kkt_residual(result, c, polytope)
    structural = kkt_residual_qp(result, c, polytope)
    assert abs(structural - dense) <= 1e-12 * (1.0 + abs(dense)), (structural, dense)
    assert result.kkt_residual == structural
    # _certified's reductions (the bound rows skipped on the dual path) give the
    # bits of the numpy formula over every row
    residual, n_active = numpy_certified(result, c, polytope)
    assert (float(result.kkt_residual).hex(), result.n_active) == (residual.hex(), n_active)


def fancy_index_gradient(c, polytope, v, dual, g_dual):
    """_certified's stationarity vector as it was: the bound duals subtracted by fancy index."""
    gradient = v + c + g_dual
    gradient[polytope.bound_idx] -= dual[: polytope.bound_idx.size]
    return gradient


@pytest.mark.parametrize("n", [5, 60])
def test_bound_stationarity_keeps_the_fancy_index_bits(monkeypatch, n):
    # the dual path subtracts clamp = v - w over all coordinates; it is +0.0 off
    # the bound coordinates, so every entry keeps its bits; at n = 60 every
    # dual-path QP holds more than 32 rows (about 42 bound rows), which
    # _certified leaves out of its reductions and numpy_certified reduces
    real = cgm.qp._certified
    sizes = []

    def checked(c, polytope, v, dual, path, iterations=0, g_dual=None, slack=None, clamp=None):
        if clamp is not None:
            s = polytope.bound_idx.size
            assert clamp[polytope.bound_idx].tobytes() == dual[:s].tobytes()
            gradient = v + c + g_dual
            gradient -= clamp
            assert gradient.tobytes() == fancy_index_gradient(c, polytope, v, dual, g_dual).tobytes()
            sizes.append(dual.size)
        return real(c, polytope, v, dual, path, iterations, g_dual, slack, clamp)

    monkeypatch.setattr(cgm.qp, "_certified", checked)
    rng = np.random.default_rng(25)
    for _ in range(300):
        c, polytope = bounded_instance(rng, n, int(rng.integers(1, 4)))
        try:
            result = project_velocity(c, polytope)
        except Infeasible:
            continue
        _assert_kkt_matches_dense(result, c, polytope)
    assert len(sizes) >= 100 and {size > 32 for size in sizes} == {n == 60}, sizes


def test_structural_kkt_matches_dense_on_trajectories(monkeypatch):
    # every projection of the runs, on the polytope and target the step passed
    real = cgm.cgm_min.project_velocity
    checked = []

    def checked_projection(c, polytope):
        result = real(c, polytope)
        _assert_kkt_matches_dense(result, c, polytope)
        checked.append((polytope.bound_idx.size, result.path))
        return result

    monkeypatch.setattr(cgm.cgm_min, "project_velocity", checked_projection)
    for schedule in ("constant", "varying"):
        cgm_min_run(rap_generate(50, seed=0), MinSolverConfig(horizon=500, schedule=schedule))
    # d=200 dual-path polytopes hold more than 32 bound rows, left out of
    # _certified's reductions and reduced by numpy_certified
    cgm_min_run(rap_generate(200, seed=0), MinSolverConfig(horizon=20, schedule="varying"))
    rap_qps = len(checked)
    cgm_vi_run(hbg_instantiate(50, 0.8, seed=0), VISolverConfig(horizon=1000))
    assert rap_qps >= 500 and max(s for s, path in checked[:rap_qps] if path == "dual") > 32
    assert len(checked) - rap_qps >= 500 and max(checked[rap_qps:])[0] == 0


def test_structural_kkt_matches_dense_on_bounded_batch():
    for seed in range(3000):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        k = int(rng.integers(0, 4))
        c, polytope = bounded_instance(rng, n, k)
        try:
            result = project_velocity(c, polytope)
        except Infeasible:
            continue
        _assert_kkt_matches_dense(result, c, polytope)


def test_polytopes_round_tripped_through_dense_rows_keep_trajectories(monkeypatch):
    # a polytope rebuilt from its dense view drives the solvers to the same bits
    runs = {
        "rap-constant": lambda: cgm_min_run(
            rap_generate(50, seed=1), MinSolverConfig(horizon=300, schedule="constant")
        ),
        "rap-varying": lambda: cgm_min_run(
            rap_generate(50, seed=1), MinSolverConfig(horizon=300, schedule="varying")
        ),
        "hbg": lambda: cgm_vi_run(hbg_instantiate(50, 0.8, seed=1), VISolverConfig(horizon=300)),
    }
    direct = {name: run() for name, run in runs.items()}
    real = cgm.cgm_min.build_polytope

    def round_tripped(*args):
        polytope = real(*args)
        return from_rows(*polytope.matrix(), polytope.bound_idx)

    monkeypatch.setattr(cgm.cgm_min, "build_polytope", round_tripped)
    for name, run in runs.items():
        trace = run()
        assert trace.xs.tobytes() == direct[name].xs.tobytes(), name
        assert trace.vs.tobytes() == direct[name].vs.tobytes(), name
        np.testing.assert_array_equal(trace.qp_path, direct[name].qp_path, err_msg=name)
