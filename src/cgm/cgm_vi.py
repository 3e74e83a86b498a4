"""Constrained gradient method for strongly monotone VIs (CGM-VI).

Appends a ball constraint around the start point to keep iterates bounded,
runs the fixed schedule eta_t = 1/(mu (t + 16 kappa^2)), and carries the
weighted ergodic average with weights t + 16 kappa^2 - 1.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cgm_min import CgmTrace, cgm_iterate, diminishing_steps
from .metrics import row_norms
from .problems import QuadraticRow


class DegenerateStart(Exception):
    """||F(x0)||^2 + B = 0; the ball radius would vanish. Redraw x0."""


def delta_default(normFx0_sq, B, D, ell_F):
    """Tightest admissible ball scale max{1, D^2 ell_F^2 / (||F(x0)||^2 + B)}."""
    denom = normFx0_sq + B
    if denom <= 0:
        raise DegenerateStart("||F(x0)||^2 + B must be positive")
    return max(1.0, D**2 * ell_F**2 / denom)


@dataclass(frozen=True)
class VISolverConfig:
    horizon: int
    delta: Optional[float] = None  # defaults to delta_default at run time

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.delta is not None and not self.delta >= 1.0:
            raise ValueError("delta must be >= 1")


@dataclass(kw_only=True)
class VITrace(CgmTrace):
    """A CGM-VI run with each state's distance to x0, over constraints [m+1]
    whose last row, constraints.smooth[-1], is the ball ||x - x0||^2 <= r."""

    dist_x0: np.ndarray
    kappa: float
    delta: float
    normFx0_sq: float

    @property
    def ergodic(self):
        return ergodic_average(self, self.horizon)


def ergodic_average(trace, T):
    """Weighted average of x^0..x^{T-1} with weights t + 16 kappa^2 - 1.

    einsum adds the products w_t x_t into each coordinate in t order, as
    (w[:, None] * xs).sum(axis=0) does, so the two agree bitwise; it skips the
    (T, n) temporary. gemv (w @ xs) sums in another order."""
    if T < 1 or trace.xs.shape[0] < T:
        raise ValueError("trace holds fewer than T iterates")
    w = np.arange(T) + 16.0 * trace.kappa**2 - 1.0
    return np.einsum("t,tj->j", w, trace.xs[:T]) / w.sum()


def cgm_vi_run(problem, config):
    """Run config.horizon CGM steps from problem.x0 with F in place of the gradient.

    The step uses alpha = mu over the problem's rows and the ball row.
    Failures of F or of the QP and non-finite iterates abort with the
    iteration index.
    """
    f0 = problem.op_F(problem.x0)
    norm_f0_sq = float(f0 @ f0)
    tight = delta_default(norm_f0_sq, problem.B, problem.diameter_D, problem.ell_F)
    delta = tight if config.delta is None else config.delta
    if not delta >= tight:
        raise ValueError(f"delta={delta} below admissible minimum {tight}")
    ball = QuadraticRow(problem.x0, delta / problem.ell_F**2 * (norm_f0_sq + problem.B))
    constraints = problem.constraints.append(ball)

    kappa = problem.ell_F / problem.mu
    etas = diminishing_steps(problem.mu, 16.0 * kappa**2, config.horizon)  # <= mu/(16 ell_F^2)
    arrays = cgm_iterate(problem.op_F, constraints, problem.x0, problem.mu, etas)
    xs = arrays["xs"]
    return VITrace(
        **arrays, dist_x0=row_norms(xs, xs[0]),
        kappa=kappa, delta=delta, normFx0_sq=norm_f0_sq,
    )
