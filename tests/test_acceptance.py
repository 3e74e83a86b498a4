"""Acceptance gate: one test and one printed pass/fail line per criterion.

The expensive solver runs are shared through session fixtures; each test
reduces its criterion to explicit inequalities at the stated tolerances.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from cgm.cgm_min import MinSolverConfig, build_polytope, cgm_min_run
from cgm.cgm_vi import VISolverConfig, cgm_vi_run
from cgm.harness import ExperimentConfig, run_experiment
from cgm.metrics import ABS_SLACK, REL_SLACK, certify_min, certify_vi, simplex_gaps
from cgm.problems import hbg_instantiate, rap_generate, violated_set
from cgm.qp import Infeasible, project_velocity
from exact_oracle import exact_projection
from test_problems import _random_product_simplex, feasible_rap_point
from test_qp import random_instance


def report(number, label, passed):
    print(f"[criterion {number:02d}] {label}: {'PASS' if passed else 'FAIL'}")
    return passed


def slack(lhs):
    return ABS_SLACK + REL_SLACK * np.abs(lhs)


def test_criterion_01_qp_oracle_equivalence():
    rng = np.random.default_rng(2024)
    # one untimed solve first, so the budget excludes first-call set-up
    c, polytope = random_instance(rng, 3, 4)
    try:
        project_velocity(c, polytope)
    except Infeasible:
        pass

    mismatches = 0
    tic = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 7))
        c, polytope = random_instance(rng, n, m)
        try:
            fast = project_velocity(c, polytope)
        except Infeasible:
            try:
                exact_projection(c, polytope)
                mismatches += 1
            except Infeasible:
                pass
            continue
        oracle = exact_projection(c, polytope, fast.dual)
        if float(np.max(np.abs(fast.v - oracle))) > 1e-8:
            mismatches += 1
    elapsed = time.perf_counter() - tic

    ok = mismatches == 0 and elapsed < 5.0
    assert report(1, f"qp oracle equivalence ({elapsed:.2f}s, {mismatches} mismatches)", ok)


def test_criterion_02_membership_laws():
    failures = 0
    rap = rap_generate(12, seed=7)
    hbg = hbg_instantiate(6, 0.6, seed=7)
    cases = [
        (rap, lambda rng: feasible_rap_point(rap, rng)),
        (hbg, lambda rng: _random_product_simplex(rng, 6)),
    ]
    rng = np.random.default_rng(99)
    for problem, feasible in cases:
        for _ in range(1000):
            x = feasible(rng) + 0.5 * rng.standard_normal(problem.dim)
            y = feasible(rng)
            alpha = float(rng.uniform(0.01, 2.0))
            values = problem.constraints.values(x)
            polytope = build_polytope(
                problem.constraints, x, alpha, values, violated_set(values)
            )
            a, b = polytope.matrix()
            if a.shape[0] == 0:
                continue
            direction = alpha * (y - x)
            if float(np.max(a @ direction - b)) > 1e-9:
                failures += 1
            shifted = direction + (feasible(rng) - x)
            if float(np.max(a @ shifted - b)) > 1e-9:
                failures += 1
    assert report(2, f"membership laws ({failures} failures)", failures == 0)


def test_criterion_03_constant_schedule_convergence(
    rap_problem, rap_reference, min_trace_constant
):
    trace = min_trace_constant["trace"]
    f_star = rap_reference["f_star"]
    T = trace.horizon
    f0 = trace.f_values[0]
    final_ok = trace.f_resid[-1] <= (f0 - f_star) / T + slack(trace.f_resid[-1])
    cert_ok = rap_reference["cert"].ok

    resid = trace.f_resid
    lhs = resid[1:]
    rhs = (1.0 - trace.alpha * trace.etas) * resid[:-1]
    contraction_ok = bool(np.all(lhs <= rhs + slack(lhs)))
    runtime_ok = min_trace_constant["seconds"] + rap_reference["seconds"] < 120.0

    ok = final_ok and cert_ok and contraction_ok and runtime_ok
    assert report(3, "constant-schedule convergence and contraction", ok)


def test_criterion_04_varying_schedule_rate(rap_reference, min_trace_varying):
    trace = min_trace_varying["trace"]
    kappa = trace.kappa
    resid = trace.f_resid
    t_idx = np.arange(1, trace.horizon + 1)
    rhs = (kappa - 1.0) / (t_idx + kappa - 1.0) * resid[0]
    lhs = resid[1:]
    ok = bool(np.all(lhs <= rhs + slack(lhs)))
    assert report(4, "varying-schedule residual rate", ok)


def test_criterion_05_boundedness_certificates(
    rap_problem, rap_reference, rap_floor, min_trace_constant
):
    reference = (rap_reference["x_star"], rap_reference["f_star"])
    bounds = certify_min(
        min_trace_constant["trace"], rap_problem, reference, rap_floor
    )
    wanted = {"velocity_bound_C1", "distance_bound_C2", "velocity_bound_per_iter"}
    records = {rec.name: rec for rec in bounds.records}
    ok = all(records[name].passed for name in wanted)
    assert report(5, "velocity and distance boundedness", ok)


def test_criterion_06_feasibility_certificates(
    rap_problem, rap_reference, rap_floor, min_trace_constant, min_trace_varying
):
    reference = (rap_reference["x_star"], rap_reference["f_star"])
    constant = certify_min(
        min_trace_constant["trace"], rap_problem, reference, rap_floor
    )
    varying = certify_min(
        min_trace_varying["trace"], rap_problem, reference, rap_floor
    )
    const_rec = {r.name: r for r in constant.records}["feasibility_constant_step"]
    vary_rec = {r.name: r for r in varying.records}["feasibility_varying_step"]
    ok = const_rec.passed and vary_rec.passed
    assert report(6, "feasibility rate certificates", ok)


def test_criterion_07_vi_bounds(hbg_problem, vi_trace, hbg_equilibrium):
    trace = vi_trace["trace"]
    bounds = certify_vi(trace, hbg_problem)
    wanted = {
        "distance_bound_C3",
        "velocity_bound_C4",
        "velocity_distance_control",
        "ergodic_gap_bound",
        "feasibility_nonergodic",
        "feasibility_ergodic",
    }
    records = {rec.name: rec for rec in bounds.records}
    bounds_ok = all(records[name].passed for name in wanted)
    gap_at_star = abs(simplex_gaps(hbg_problem, hbg_equilibrium[None])[0])
    gap_ok = gap_at_star <= 1e-12
    runtime_ok = vi_trace["seconds"] < 180.0
    ok = bounds_ok and gap_ok and runtime_ok
    assert report(7, "vi boundedness, gap, and feasibility bounds", ok)


@pytest.fixture(scope="module")
def trend_runs(rap_problem, rap_reference):
    reference = (rap_reference["x_star"], rap_reference["f_star"])
    out = {}
    for T in (100, 150, 200, 250, 1500, 2000, 2500, 3000):
        config = MinSolverConfig(horizon=T, schedule="constant")
        out[T] = cgm_min_run(rap_problem, config, reference=reference)
    return out


def test_criterion_08a_horizon_trend(trend_runs):
    horizons = sorted(trend_runs)
    resids = [abs(trend_runs[T].f_resid[-1]) for T in horizons]
    viols = [trend_runs[T].max_violation[-1] for T in horizons]
    resid_ok = all(b <= a for a, b in zip(resids, resids[1:]))
    viol_ok = all(b <= a for a, b in zip(viols, viols[1:]))
    assert report(8, "trend (a): residual and violation shrink with T", resid_ok and viol_ok)


def test_criterion_08b_varying_overshoot(min_trace_constant, min_trace_varying):
    varying = min_trace_varying["trace"]
    overshoot = bool(
        np.any((varying.f_resid[1:] < 0) & (varying.max_violation[1:] > 0))
    )
    initial = varying.f_resid[0]
    converged = (
        abs(varying.f_resid[-1]) < 0.1 * initial
        and abs(min_trace_constant["trace"].f_resid[-1]) < 0.1 * initial
    )
    assert report(8, "trend (b): overshoot then convergence", overshoot and converged)


def test_criterion_08c_baseline_comparison(
    hbg_problem, hbg_equilibrium, baseline_traces
):
    trace = cgm_vi_run(hbg_problem, VISolverConfig(horizon=1000))
    ref_norm = float(np.linalg.norm(hbg_equilibrium))
    cgm_rel = float(np.linalg.norm(trace.xs[-1] - hbg_equilibrium)) / ref_norm
    gda_rel = baseline_traces["gda"].rel_err[-1]
    eg_rel = baseline_traces["eg"].rel_err[-1]
    ok = cgm_rel <= gda_rel and cgm_rel <= eg_rel
    label = (
        f"trend (c): rel err at T=1000, cgm={cgm_rel:.2e} vs "
        f"gda={gda_rel:.2e}, eg={eg_rel:.2e}"
    )
    assert report(8, label, ok)


def test_criterion_09_reference_self_consistency(rap_reference, rap_trust_constr):
    agree = abs(rap_trust_constr - rap_reference["f_star"]) <= 1e-7
    ok = agree and rap_reference["cert"].ok
    assert report(9, "reference agrees with scipy trust-constr", ok)


def test_criterion_10_determinism(tmp_path):
    def run_to(name):
        config = ExperimentConfig(
            problem="rap", horizons=(30,), d=10, seed=5,
            out_dir=str(tmp_path / name), check_bounds=True,
        )
        return run_experiment(config)["files"][0]

    def strip_wall(path):
        out = []
        for line in Path(path).read_text().splitlines():
            parts = line.split(",")
            if parts and parts[-1] != "" and line.split(",")[0].isdigit():
                parts = parts[:-1]  # drop the timing column on data rows
            out.append(",".join(parts))
        return out

    first = strip_wall(run_to("a"))
    second = strip_wall(run_to("b"))
    assert report(10, "byte-identical reruns (timing excluded)", first == second)
