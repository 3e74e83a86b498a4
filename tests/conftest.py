"""Shared fixtures; expensive solver runs are session-scoped and timed."""

import time

import numpy as np
import pytest

import cgm.cgm_min
from cgm.baselines import _lockstep, gda_eg_run
from cgm.cgm_min import MinSolverConfig, cgm_min_run
from cgm.cgm_vi import VISolverConfig, cgm_vi_run
from cgm.problems import hbg_instantiate, rap_generate, rap_unconstrained_min
from cgm.reference import solve_rap_reference


def lockstep_iterates(problem, eta_gda, eta_eg, T):
    """Every iterate of both baselines, (T+1, 2, n), copied off the blocks that
    gda_eg_run consumes; row 0 of each block repeats the last of the one before."""
    rows = [np.array([problem.x0, problem.x0], dtype=float)[None]]
    rows += [block[1:].copy() for block, _ in _lockstep(problem, eta_gda, eta_eg, T)]
    return np.concatenate(rows)


def stepped_velocities(fn, *args, **kwargs):
    """(fn(*args, **kwargs), vs): the result and a copy of every v that
    cgm_step returned during the call, (steps, n) in step order."""
    vs, step = [], cgm.cgm_min.cgm_step

    def recording(*step_args):
        out = step(*step_args)
        vs.append(out[1].copy())
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cgm.cgm_min, "cgm_step", recording)
        result = fn(*args, **kwargs)
    return result, np.array(vs)


def _timed(fn, *args, **kwargs):
    tic = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - tic


@pytest.fixture(scope="session")
def rap_problem():
    return rap_generate(50, seed=42)


@pytest.fixture(scope="session")
def rap_reference(rap_problem):
    (x_star, f_star, cert), seconds = _timed(solve_rap_reference, rap_problem.data)
    return {"x_star": x_star, "f_star": f_star, "cert": cert, "seconds": seconds}


@pytest.fixture(scope="session")
def rap_trust_constr(rap_problem):
    """Optimal value of the RAP fixture from scipy's trust-constr, an
    interior-point method independent of cgm.reference; skipped without scipy."""
    optimize = pytest.importorskip("scipy.optimize")
    data = rap_problem.data
    d = data.a.size
    result = optimize.minimize(
        lambda x: 0.5 * x @ data.Sigma @ x + data.a @ x,
        np.full(d, 1.0 / d),
        jac=lambda x: data.Sigma @ x + data.a,
        hess=lambda x: data.Sigma,
        method="trust-constr",
        bounds=optimize.Bounds(0.0, np.inf),
        constraints=[
            optimize.LinearConstraint(
                np.vstack([np.ones(d), data.r]), [1.0, -np.inf], [1.0, data.Rmax]
            ),
            optimize.NonlinearConstraint(
                lambda x: x @ data.E @ x, -np.inf, data.Emax,
                jac=lambda x: 2.0 * data.E @ x, hess=lambda x, v: 2.0 * v[0] * data.E,
            ),
        ],
        options=dict(gtol=1e-12, xtol=1e-14),
    )
    assert result.success, result.message
    return float(result.fun)


@pytest.fixture(scope="session")
def rap_floor(rap_problem):
    return rap_unconstrained_min(rap_problem.data)[1]


@pytest.fixture(scope="session")
def min_trace_constant(rap_problem, rap_reference):
    config = MinSolverConfig(horizon=2000, schedule="constant")
    reference = (rap_reference["x_star"], rap_reference["f_star"])
    (trace, vs), seconds = _timed(
        stepped_velocities, cgm_min_run, rap_problem, config, reference=reference)
    return {"trace": trace, "seconds": seconds, "vs": vs}


@pytest.fixture(scope="session")
def min_trace_varying(rap_problem, rap_reference):
    config = MinSolverConfig(horizon=2000, schedule="varying")
    reference = (rap_reference["x_star"], rap_reference["f_star"])
    trace, seconds = _timed(cgm_min_run, rap_problem, config, reference=reference)
    return {"trace": trace, "seconds": seconds}


@pytest.fixture(scope="session")
def rap_runs(rap_problem, min_trace_constant):
    """(problem, trace) of CGM-Min on RAP d=50 (seed 42, constant, T=2000) and
    d=200 (seed 0, varying, T=300)."""
    d200 = rap_generate(200, seed=0)
    return [(rap_problem, min_trace_constant["trace"]),
            (d200, cgm_min_run(d200, MinSolverConfig(horizon=300, schedule="varying")))]


@pytest.fixture(scope="session")
def hbg_problem():
    return hbg_instantiate(50, 0.8, seed=42)


@pytest.fixture(scope="session")
def vi_trace(hbg_problem):
    trace, seconds = _timed(cgm_vi_run, hbg_problem, VISolverConfig(horizon=3000))
    return {"trace": trace, "seconds": seconds}


@pytest.fixture(scope="session")
def hbg_seed_runs():
    """(problem, trace) of CGM-VI on HBG d=50, beta 0.8, seeds 0-3, T=1000."""
    problems = [hbg_instantiate(50, 0.8, seed=seed) for seed in range(4)]
    return [(p, cgm_vi_run(p, VISolverConfig(horizon=1000))) for p in problems]


@pytest.fixture(scope="session")
def hbg_equilibrium(hbg_problem):
    d = hbg_problem.dim // 2
    return np.full(2 * d, 1.0 / d)


@pytest.fixture(scope="session")
def baseline_traces(hbg_problem, hbg_equilibrium):
    gda, eg = gda_eg_run(hbg_problem, 0.005, 1.0 / hbg_problem.ell_F, 1000, hbg_equilibrium)
    return {"gda": gda, "eg": eg}


@pytest.fixture(scope="session")
def baseline_iterates(hbg_problem):
    """{"gda": xs, "eg": xs}: every iterate of baseline_traces' run, (T+1, n) each."""
    xs = lockstep_iterates(hbg_problem, 0.005, 1.0 / hbg_problem.ell_F, 1000)
    return {"gda": xs[:, 0], "eg": xs[:, 1]}
