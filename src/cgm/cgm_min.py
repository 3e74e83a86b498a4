"""Constrained gradient method for strongly convex minimization (CGM-Min).

Each step projects the negative objective gradient onto the velocity polytope
of currently violated constraints and moves along the result. Supports the
constant schedule eta = log(T)/(mu T) and the varying schedule
eta_t = 1/(mu (t + kappa)). The step (cgm_step), the loop (cgm_iterate) and
the trace base (CgmTrace) are shared with CGM-VI, which passes its operator
in place of the gradient; cgm_min_run passes the objective gradient.
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

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.schedule not in (CONSTANT, VARYING):
            raise ValueError(f"unknown schedule {self.schedule!r}")


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


def cgm_step(direction, constraints, x, alpha, eta):
    """One CGM iteration x + eta v for the operator value direction at finite x.

    v is -direction when no row is violated; otherwise it is the projection of
    -direction onto the velocity polytope of the violated rows. The rows are
    evaluated once; diag reports the violated rows and max violation of the
    input x and the QP's n_active, kkt_residual and path ("" when no QP ran).
    """
    values = constraints.values(x)
    violated = violated_set(values)
    if not violated.size:
        v = -direction
        diag = {"violated": 0, "max_violation": max_violation_of(values),
                "n_active": 0, "kkt_residual": 0.0, "qp_path": ""}
    else:
        polytope = build_polytope(constraints, x, alpha, values, violated)
        result = project_velocity(direction, polytope)
        v = result.v
        diag = {"violated": violated.size, "max_violation": max_violation_of(values),
                "n_active": result.n_active, "kkt_residual": result.kkt_residual,
                "qp_path": result.path}
    return x + eta * v, v, diag


def cgm_iterate(step, constraints, x0, etas):
    """Run x_{t+1}, v_t, diag = step(x_t, etas[t]) from x0 for len(etas) steps.

    Returns the CgmTrace fields as a dict. A failing step or a non-finite
    iterate aborts with the iteration index; as x_{t+1} = x_t + eta v_t, one
    check per iterate covers x0 and every v_t, and step may assume finite x.
    """
    T = etas.size
    x = np.array(x0, dtype=float)
    xs = np.empty((T + 1, x.size))
    vs = np.empty((T, x.size))
    viol = np.empty(T + 1)
    wall = np.empty(T)
    n_violated = np.zeros(T, dtype=int)
    n_active = np.zeros(T, dtype=int)
    kkt_residual = np.zeros(T)
    qp_path = np.full(T, "", dtype="U6")
    xs[0] = x
    for t in range(T):
        tic = time.perf_counter()
        try:
            x, v, diag = step(x, etas[t])
        except Exception as exc:
            raise RuntimeError(f"iteration {t} failed: {exc}") from exc
        wall[t] = time.perf_counter() - tic
        if not np.isfinite(x).all():
            raise RuntimeError(f"iteration {t}: non-finite iterate")
        xs[t + 1] = x
        vs[t] = v
        viol[t] = diag["max_violation"]
        n_violated[t] = diag["violated"]
        n_active[t] = diag["n_active"]
        kkt_residual[t] = diag["kkt_residual"]
        qp_path[t] = diag["qp_path"]
    viol[T] = constraints.max_violation(x)
    return dict(
        xs=xs, vs=vs, etas=etas, max_violation=viol, wall_s=wall,
        n_violated=n_violated, n_active=n_active, kkt_residual=kkt_residual,
        qp_path=qp_path, v_norms=np.linalg.norm(vs, axis=1),
    )


@dataclass(kw_only=True)
class CgmTrace:
    """Per-iteration record of a CGM run; xs has T+1 states, vs/etas have T.

    max_violation has T+1 entries; n_violated counts each step's violated
    rows, and n_active, kkt_residual and qp_path record its projection (0, 0
    and "" where no QP ran). v_norms holds each ||v_t||, computed once per run
    for the CSV column and the certificates.
    """

    xs: np.ndarray
    vs: np.ndarray
    etas: np.ndarray
    max_violation: np.ndarray
    wall_s: np.ndarray
    n_violated: np.ndarray
    n_active: np.ndarray
    kkt_residual: np.ndarray
    qp_path: np.ndarray
    v_norms: np.ndarray

    @property
    def horizon(self):
        return self.vs.shape[0]


@dataclass(kw_only=True)
class MinTrace(CgmTrace):
    """A CGM-Min run with its objective values at every state."""

    config: MinSolverConfig
    alpha: float
    kappa: float
    f_values: np.ndarray
    f_resid: Optional[np.ndarray] = None  # f_values - f_star, when a reference is given


def cgm_min_run(problem, config, reference=None):
    """Run the full loop for config.horizon iterations from problem.x0.

    reference, when given, is an (x_star, f_star) pair; the trace's f_resid
    is then f_values - f_star. QP failures and non-finite iterates abort
    with the iteration index. Validated schedules keep every eta within
    (0, min(1/ell_f, 1/alpha)], the step sizes the analysis allows, and a start
    point that is not finite or not feasible is rejected before any step.
    """
    validate_schedule(config, problem)
    alpha = problem.mu if config.alpha is None else config.alpha
    if not 0 < alpha <= problem.mu:
        raise ValueError("need 0 < alpha <= mu")
    kappa = problem.ell_f / problem.mu
    T = config.horizon
    if not problem.constraints.max_violation(np.asarray(problem.x0, dtype=float)) <= 1e-12:
        raise ValueError("x0 must be finite and feasible")
    if config.schedule == CONSTANT:
        etas = np.full(T, step_constant(T, problem.mu))
    else:
        etas = step_varying(np.arange(T), problem.mu, kappa)

    arrays = cgm_iterate(
        lambda x, eta: cgm_step(problem.grad_f(x), problem.constraints, x, alpha, eta),
        problem.constraints, problem.x0, etas,
    )
    f_values = np.array([problem.value_f(x) for x in arrays["xs"]])
    return MinTrace(
        **arrays, config=config, alpha=alpha, kappa=kappa, f_values=f_values,
        f_resid=None if reference is None else f_values - reference[1],
    )
