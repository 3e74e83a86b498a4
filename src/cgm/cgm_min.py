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

from .problems import ConstraintSet, max_violation_of, row_norms, violated_set
from .qp import VelocityPolytope, project_velocity


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


def diminishing_steps(mu, offset, horizon):
    """1/(mu (t + offset)), t < horizon: offset kappa on CGM-Min, 16 kappa^2 on CGM-VI."""
    return 1.0 / (mu * (np.arange(horizon) + offset))


def step_sizes(problem, horizon, schedule):
    """The T = horizon step sizes: diminishing with offset kappa when varying, else log(T)/(mu T).

    The constant schedule raises ScheduleInvalid unless T >= 2 and T >= kappa log T.
    """
    mu, kappa = problem.mu, problem.ell_f / problem.mu
    if schedule == VARYING:
        return diminishing_steps(mu, kappa, horizon)
    if horizon < 2:
        raise ScheduleInvalid("constant schedule needs T >= 2")
    if horizon < kappa * math.log(horizon):
        raise ScheduleInvalid(f"T={horizon} violates T >= kappa*log(T) with kappa={kappa:.3g}")
    return np.full(horizon, math.log(horizon) / (mu * horizon))


def build_polytope(constraints, x, alpha, values, violated):
    """Rows grad g_i(x) v <= -alpha g_i(x) over violated = violated_set(values = g(x)).

    The violated bound rows become floors on their coordinates (bound_idx) and
    the others the general rows (g, h). When those hold no quadratic row, g
    does not depend on x, so the polytope first built on the same general
    rows (kept in the ConstraintSet, g read-only) lends its g, row check and
    Gram matrix; each step builds its own h, checked again, and bound rows.
    x must be finite; the solvers check each iterate. A non-finite general
    row is rejected by VelocityPolytope.
    """
    if not 0 < alpha < math.inf:  # NaN fails
        raise ValueError("alpha must be positive and finite")
    s = int(violated.searchsorted(constraints.n_bounds))
    rhs = -alpha * values[violated]
    general, h, bound_idx, floor = violated[s:], rhs[s:], violated[:s], -rhs[:s]
    if general.size and general[-1] >= constraints.n_bounds + constraints.c.size:
        return VelocityPolytope(constraints.gradients(x, general), h, bound_idx, floor)
    key = general.tobytes()
    first = constraints._polytopes.get(key)
    if first is not None:
        return first.with_rhs(h, bound_idx, floor)
    g = constraints.gradients(x, general)
    g.flags.writeable = False
    polytope = VelocityPolytope(g, h, bound_idx, floor)
    constraints._polytopes[key] = polytope
    return polytope


def cgm_step(direction, constraints, x, alpha, eta):
    """One CGM iteration x + eta v for the operator value direction at finite x.

    v is -direction when no row is violated; otherwise it is the projection of
    -direction onto the velocity polytope of the violated rows. The rows are
    evaluated once; diag reports the violated rows and max violation of the
    input x and the QP's n_active, kkt_residual and path ("" when no QP ran).
    """
    values = constraints.values(x)
    violated = violated_set(values)
    if violated.size:
        polytope = build_polytope(constraints, x, alpha, values, violated)
        result = project_velocity(direction, polytope)
        v, n_active, residual, path = result.v, result.n_active, result.kkt_residual, result.path
    else:
        v, n_active, residual, path = -direction, 0, 0.0, ""
    diag = {"violated": violated.size, "max_violation": max_violation_of(values),
            "n_active": n_active, "kkt_residual": residual, "qp_path": path}
    return x + eta * v, v, diag


def cgm_iterate(direction, constraints, x0, alpha, etas):
    """Run x_{t+1}, v_t, diag = cgm_step(direction(x_t), constraints, x_t, alpha, etas[t]).

    Runs from x0 for len(etas) steps and returns the CgmTrace fields as a dict.
    A failing step or a non-finite iterate aborts with the iteration index; as
    x_{t+1} = x_t + eta v_t, one check per iterate covers x0 and every v_t, and
    the step may assume finite x.
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
            x, v, diag = cgm_step(direction(x), constraints, x, alpha, etas[t])
        except Exception as exc:
            raise RuntimeError(f"iteration {t} failed: {exc}") from exc
        wall[t] = time.perf_counter() - tic
        if not (math.isfinite(x.dot(x)) or np.isfinite(x).all()):  # x read only on overflow
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
        qp_path=qp_path, v_norms=row_norms(vs), dist_x0=row_norms(xs, xs[0]),
        constraints=constraints,
    )


@dataclass(kw_only=True)
class CgmTrace:
    """Per-iteration record of a CGM run; xs has T+1 states, vs/etas have T.

    max_violation has T+1 entries; n_violated counts each step's violated
    rows, and n_active, kkt_residual and qp_path record its projection (0, 0
    and "" where no QP ran). v_norms holds each ||v_t|| and dist_x0 each
    ||x_t - x_0|| (T+1 entries), computed once per run for the CSV columns and
    the certificates.
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
    dist_x0: np.ndarray
    constraints: ConstraintSet  # the rows the run stepped on, which the certificates read

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
    etas = step_sizes(problem, config.horizon, config.schedule)
    alpha = problem.mu if config.alpha is None else config.alpha
    if not 0 < alpha <= problem.mu:
        raise ValueError("need 0 < alpha <= mu")
    kappa = problem.ell_f / problem.mu
    if not problem.constraints.max_violation(np.asarray(problem.x0, dtype=float)) <= 1e-12:
        raise ValueError("x0 must be finite and feasible")
    arrays = cgm_iterate(problem.grad_f, problem.constraints, problem.x0, alpha, etas)
    f_values = problem.value_f(arrays["xs"])
    return MinTrace(
        **arrays, config=config, alpha=alpha, kappa=kappa, f_values=f_values,
        f_resid=None if reference is None else f_values - reference[1],
    )
