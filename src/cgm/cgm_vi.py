"""Constrained gradient method for strongly monotone VIs (CGM-VI).

Appends a ball constraint around the start point to keep iterates bounded,
runs the fixed schedule eta_t = 1/(mu (t + 16 kappa^2)), and carries the
weighted ergodic average with weights t + 16 kappa^2 - 1.
"""

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problems import SmoothConstraint, build_polytope, max_violation_of, violated_set
from .qp import project_velocity


class DegenerateStart(Exception):
    """||F(x0)||^2 + B = 0; the ball radius would vanish. Redraw x0."""


def delta_default(normFx0_sq, B, D, ell_F):
    """Tightest admissible ball scale max{1, D^2 ell_F^2 / (||F(x0)||^2 + B)}."""
    denom = normFx0_sq + B
    if denom <= 0:
        raise DegenerateStart("||F(x0)||^2 + B must be positive")
    return max(1.0, D**2 * ell_F**2 / denom)


def step_vi(t, mu, kappa):
    """Fixed schedule 1/(mu (t + 16 kappa^2)); at most mu/(16 ell_F^2)."""
    return 1.0 / (mu * (t + 16.0 * kappa**2))


@dataclass(frozen=True)
class VISolverConfig:
    horizon: int
    delta: Optional[float] = None  # defaults to delta_default at run time
    qp_tol: float = 1e-10

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.delta is not None and self.delta < 1.0:
            raise ValueError("delta must be >= 1")
        if self.qp_tol <= 0:
            raise ValueError("qp_tol must be positive")


@dataclass(frozen=True)
class AuxConstraint:
    """Ball row ||x - center||^2 <= radius_sq appended as constraint m+1."""

    center: np.ndarray
    radius_sq: float

    def __post_init__(self):
        if self.radius_sq <= 0:
            raise ValueError("radius_sq must be positive")

    def as_constraint(self):
        center = self.center
        radius_sq = self.radius_sq

        def value(x):
            diff = x - center
            return float(diff @ diff) - radius_sq

        def gradient(x):
            return 2.0 * (x - center)

        return SmoothConstraint(value=value, gradient=gradient, smoothness=2.0)


@dataclass
class VITrace:
    """Iterates and velocities of a CGM-VI run over constraints [m+1].

    n_active and qp_path record each step's projection ("" where no QP ran).
    """

    xs: np.ndarray
    vs: np.ndarray
    etas: np.ndarray
    max_violation: np.ndarray
    dist_x0: np.ndarray
    wall_s: np.ndarray
    kappa: float
    delta: float
    aux: AuxConstraint
    normFx0_sq: float
    n_active: np.ndarray
    qp_path: np.ndarray

    @property
    def horizon(self):
        return self.vs.shape[0]

    @property
    def v_norms(self):
        return np.linalg.norm(self.vs, axis=1)

    @property
    def ergodic(self):
        return ergodic_average(self, self.horizon)


def ergodic_average(trace, T):
    """Weighted average of x^0..x^{T-1} with weights t + 16 kappa^2 - 1."""
    if T < 1 or trace.xs.shape[0] < T:
        raise ValueError("trace holds fewer than T iterates")
    w = np.arange(T) + 16.0 * trace.kappa**2 - 1.0
    return (w[:, None] * trace.xs[:T]).sum(axis=0) / w.sum()


def cgm_vi_run(problem, config):
    """Run the VI loop for config.horizon iterations from problem.x0.

    QP failures and non-finite iterates abort with the iteration index.
    """
    f0 = problem.op_F(problem.x0)
    norm_f0_sq = float(f0 @ f0)
    tight = delta_default(norm_f0_sq, problem.B, problem.diameter_D, problem.ell_F)
    delta = tight if config.delta is None else config.delta
    if delta < tight:
        raise ValueError(f"delta={delta} below admissible minimum {tight}")
    radius_sq = delta / problem.ell_F**2 * (norm_f0_sq + problem.B)
    aux = AuxConstraint(center=np.array(problem.x0, dtype=float), radius_sq=radius_sq)
    constraints = problem.constraints.append(aux.as_constraint())

    kappa = problem.ell_F / problem.mu
    T = config.horizon
    n = problem.dim
    xs = np.empty((T + 1, n))
    vs = np.empty((T, n))
    etas = np.empty(T)
    viol = np.empty(T + 1)
    dist = np.empty(T + 1)
    wall = np.empty(T)
    n_active = np.zeros(T, dtype=int)
    qp_path = np.full(T, "", dtype="U6")

    x = np.array(problem.x0, dtype=float)
    xs[0] = x
    dist[0] = 0.0
    for t in range(T):
        eta = step_vi(t, problem.mu, kappa)
        tic = time.perf_counter()
        fx = problem.op_F(x)
        v = -fx
        try:
            values = constraints.values(x)
            viol[t] = max_violation_of(values)
            if violated_set(values).size:
                polytope = build_polytope(constraints, x, problem.mu, values)
                result = project_velocity(fx, polytope, tol=config.qp_tol)
                v = result.v
                n_active[t] = result.n_active
                qp_path[t] = result.path
        except Exception as exc:
            raise RuntimeError(f"iteration {t} failed: {exc}") from exc
        x = x + eta * v
        wall[t] = time.perf_counter() - tic
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise RuntimeError(f"iteration {t}: non-finite iterate")
        xs[t + 1] = x
        vs[t] = v
        etas[t] = eta
        dist[t + 1] = float(np.linalg.norm(x - xs[0]))
    viol[T] = constraints.max_violation(x)

    return VITrace(
        xs=xs, vs=vs, etas=etas, max_violation=viol, dist_x0=dist, wall_s=wall,
        kappa=kappa, delta=delta, aux=aux, normFx0_sq=norm_f0_sq,
        n_active=n_active, qp_path=qp_path,
    )
