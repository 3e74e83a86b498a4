"""Constrained gradient method for strongly convex minimization (CGM-Min).

Each step projects the negative objective gradient onto the velocity polytope
of currently violated constraints and moves along the result. Supports the
constant schedule eta = log(T)/(mu T) and the varying schedule
eta_t = 1/(mu (t + kappa)).
"""

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problems import build_polytope, max_violation_of, violated_set
from .qp import project_velocity


class ScheduleInvalid(Exception):
    pass


CONSTANT = "constant"
VARYING = "varying"


@dataclass(frozen=True)
class MinSolverConfig:
    horizon: int
    schedule: str = CONSTANT
    alpha: Optional[float] = None  # defaults to mu at run time
    qp_tol: float = 1e-10

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.schedule not in (CONSTANT, VARYING):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.qp_tol <= 0:
            raise ValueError("qp_tol must be positive")


def step_constant(T, mu):
    """Constant step log(T)/(mu T); requires T >= kappa log T (checked upstream)."""
    if T < 2:
        raise ScheduleInvalid("constant schedule needs T >= 2 (log 1 = 0 step)")
    return math.log(T) / (mu * T)


def step_varying(t, mu, kappa):
    """Diminishing step 1/(mu (t + kappa))."""
    return 1.0 / (mu * (t + kappa))


def validate_schedule(config, problem):
    kappa = problem.ell_f / problem.mu
    if config.schedule == CONSTANT:
        T = config.horizon
        if T < 2:
            raise ScheduleInvalid("constant schedule needs T >= 2")
        if T < kappa * math.log(T):
            raise ScheduleInvalid(
                f"T={T} violates T >= kappa*log(T) with kappa={kappa:.3g}"
            )


def cgm_min_step(problem, x, alpha, eta, qp_tol=1e-10):
    """One iteration: build the violated-set polytope, project, and move.

    When no constraint is violated the step is a plain gradient step and no
    projection subproblem is solved. The constraint rows are evaluated once;
    diag reports the max violation of the input x and the QP path taken
    ("" when no QP ran).
    """
    grad = problem.grad_f(x)
    eta_max = min(1.0 / problem.ell_f, 1.0 / alpha)
    if not 0 < eta <= eta_max * (1 + 1e-12):
        raise ValueError(f"eta={eta} outside (0, {eta_max}]")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    values = problem.constraints.values(x)
    violated = violated_set(values)
    diag = {
        "violated": violated.size,
        "max_violation": max_violation_of(values),
        "n_active": 0,
        "kkt_residual": 0.0,
        "qp_path": "",
    }
    if not violated.size:
        v = -grad
    else:
        polytope = build_polytope(problem.constraints, x, alpha, values)
        result = project_velocity(grad, polytope, tol=qp_tol)
        v = result.v
        diag.update(
            n_active=result.n_active, kkt_residual=result.kkt_residual,
            qp_path=result.path,
        )
    return x + eta * v, v, diag


@dataclass
class MinTrace:
    """Per-iteration record of a CGM-Min run; xs has T+1 states, vs/etas have T.

    n_active and qp_path record each step's projection ("" where no QP ran).
    """

    xs: np.ndarray
    vs: np.ndarray
    etas: np.ndarray
    max_violation: np.ndarray
    wall_s: np.ndarray
    config: MinSolverConfig
    alpha: float
    kappa: float
    f_values: np.ndarray
    n_active: np.ndarray
    qp_path: np.ndarray
    f_resid: Optional[np.ndarray] = None

    @property
    def horizon(self):
        return self.vs.shape[0]

    @property
    def v_norms(self):
        return np.linalg.norm(self.vs, axis=1)

    def fill_reference(self, f_star):
        """Populate residual columns once the reference optimum is known."""
        self.f_resid = self.f_values - f_star
        return self.f_resid


def cgm_min_run(problem, config, reference=None):
    """Run the full loop for config.horizon iterations from problem.x0.

    reference, when given, is an (x_star, f_star) pair used to fill the
    residual columns of the trace. QP failures and non-finite iterates abort
    with the iteration index.
    """
    validate_schedule(config, problem)
    alpha = problem.mu if config.alpha is None else config.alpha
    if not 0 < alpha <= problem.mu:
        raise ValueError("need 0 < alpha <= mu")
    kappa = problem.ell_f / problem.mu
    T = config.horizon

    n = problem.dim
    xs = np.empty((T + 1, n))
    vs = np.empty((T, n))
    etas = np.empty(T)
    viol = np.empty(T + 1)
    wall = np.empty(T)
    fvals = np.empty(T + 1)
    n_active = np.zeros(T, dtype=int)
    qp_path = np.full(T, "", dtype="U6")

    x = np.array(problem.x0, dtype=float)
    viol[0] = problem.constraints.max_violation(x)
    if viol[0] > 1e-12:
        raise ValueError("x0 must be feasible")
    xs[0] = x
    fvals[0] = problem.value_f(x)

    eta_const = step_constant(T, problem.mu) if config.schedule == CONSTANT else None
    for t in range(T):
        eta = eta_const if eta_const is not None else step_varying(t, problem.mu, kappa)
        tic = time.perf_counter()
        try:
            x, v, diag = cgm_min_step(problem, x, alpha, eta, config.qp_tol)
        except Exception as exc:
            raise RuntimeError(f"iteration {t} failed: {exc}") from exc
        wall[t] = time.perf_counter() - tic
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise RuntimeError(f"iteration {t}: non-finite iterate")
        xs[t + 1] = x
        vs[t] = v
        etas[t] = eta
        viol[t] = diag["max_violation"]
        n_active[t] = diag["n_active"]
        qp_path[t] = diag["qp_path"]
        fvals[t + 1] = problem.value_f(x)
    viol[T] = problem.constraints.max_violation(x)

    trace = MinTrace(
        xs=xs, vs=vs, etas=etas, max_violation=viol, wall_s=wall, config=config,
        alpha=alpha, kappa=kappa, f_values=fvals, n_active=n_active, qp_path=qp_path,
    )
    if reference is not None:
        trace.fill_reference(reference[1])
    return trace
