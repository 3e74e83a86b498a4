"""Shared fixtures; expensive solver runs are session-scoped and timed."""

import time

import numpy as np
import pytest

from cgm.baselines import gda_eg_run
from cgm.cgm_min import MinSolverConfig, cgm_min_run
from cgm.cgm_vi import VISolverConfig, cgm_vi_run
from cgm.problems import hbg_instantiate, rap_generate, rap_unconstrained_min
from cgm.reference import solve_rap_reference


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
    trace, seconds = _timed(cgm_min_run, rap_problem, config, reference=reference)
    return {"trace": trace, "seconds": seconds}


@pytest.fixture(scope="session")
def min_trace_varying(rap_problem, rap_reference):
    config = MinSolverConfig(horizon=2000, schedule="varying")
    reference = (rap_reference["x_star"], rap_reference["f_star"])
    trace, seconds = _timed(cgm_min_run, rap_problem, config, reference=reference)
    return {"trace": trace, "seconds": seconds}


@pytest.fixture(scope="session")
def hbg_problem():
    return hbg_instantiate(50, 0.8, seed=42)


@pytest.fixture(scope="session")
def vi_trace(hbg_problem):
    trace, seconds = _timed(cgm_vi_run, hbg_problem, VISolverConfig(horizon=3000))
    return {"trace": trace, "seconds": seconds}


@pytest.fixture(scope="session")
def hbg_equilibrium(hbg_problem):
    d = hbg_problem.dim // 2
    return np.full(2 * d, 1.0 / d)


@pytest.fixture(scope="session")
def baseline_traces(hbg_problem):
    gda, eg = gda_eg_run(hbg_problem, 0.005, 1.0 / hbg_problem.ell_F, 1000)
    return {"gda": gda, "eg": eg}
