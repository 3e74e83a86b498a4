"""Optimality/feasibility measures and the theoretical-bound certificate engine.

Certificates re-evaluate each proven inequality along a realized trajectory,
post hoc, with a small numerical slack; a report line per inequality records
the worst margin encountered.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .cgm_min import CONSTANT
from .problems import by_row_blocks, row_dots, row_norms

logger = logging.getLogger(__name__)

ABS_SLACK = 1e-9
REL_SLACK = 1e-7


class ReferenceMissing(Exception):
    pass


@dataclass(frozen=True)
class CertificateRecord:
    """Worst-case evaluation of one inequality: lhs <= rhs + slack at every t."""

    name: str
    lhs: float
    rhs: float
    slack: float
    passed: bool

    @property
    def margin(self):
        return self.rhs - self.lhs


@dataclass
class BoundsReport:
    track: str
    constants: dict
    records: list = field(default_factory=list)

    @property
    def all_pass(self):
        return all(rec.passed for rec in self.records)

    def csv_lines(self):
        """Flat CSV section appended to a run's output file."""
        lines = ["certificate,lhs,rhs,slack,pass"]
        for rec in self.records:
            lines.append(
                f"{rec.name},{rec.lhs:.17g},{rec.rhs:.17g},{rec.slack:.17g},"
                f"{int(rec.passed)}"
            )
        for key, val in sorted(self.constants.items()):
            lines.append(f"const_{key},{val:.17g},,,")
        return lines


def _slack(lhs):
    return ABS_SLACK + REL_SLACK * abs(lhs)


def _check(name, lhs_arr, rhs_arr):
    """Reduce pointwise inequalities to the record of the first least (or NaN) margin
    rhs - lhs; it passes if lhs <= rhs + slack everywhere and that record's lhs and
    rhs are finite (an infinite lhs has an infinite slack). rhs has lhs's shape or
    one value."""
    lhs_arr = np.asarray(lhs_arr, dtype=float)
    rhs_arr = np.asarray(rhs_arr, dtype=float)
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN margin, which argmin picks
        worst = int((rhs_arr - lhs_arr).argmin())
    lhs, rhs = lhs_arr.item(worst), rhs_arr.item(worst if rhs_arr.size > 1 else 0)
    bound = np.abs(lhs_arr)  # rhs + ABS_SLACK + REL_SLACK |lhs|, in place
    bound *= REL_SLACK
    bound += rhs_arr + ABS_SLACK
    passed = bool((lhs_arr <= bound).all()) and math.isfinite(lhs) and math.isfinite(rhs)
    return CertificateRecord(name=name, lhs=lhs, rhs=rhs, slack=_slack(lhs), passed=passed)


def simplex_gaps(problem, xs):
    """Strong gap max_{y in product of simplices} <F(x), x - y> of each row x of xs.

    F is problem.op_F and the simplices are problem.simplex_blocks. Each row's
    gap is bitwise that of the row alone: the block dots summed in block order,
    then each block's min of F(x) subtracted in block order.
    """
    bounds = np.cumsum((0, *problem.simplex_blocks)).tolist()
    blocks = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    def gaps(rows):
        fx = problem.op_F(rows)
        dots = [row_dots(fx[:, block], rows[:, block]) for block in blocks]
        gap = sum(dots[1:], dots[0])  # not from 0, which would turn a -0.0 into +0.0
        for block in blocks:
            gap = gap - fx[:, block].min(axis=-1)
        return gap

    return by_row_blocks(gaps, xs)


def _feasibility_rhs(c, offset, T, mu, l_g, ell_g):
    """Bound on g_i(x^{t+1}), t = 1..T-1, for steps 1/(mu (t + offset)) and |v| <= c."""
    t_idx = np.arange(1, T)
    return 2.0 * c / (mu * (t_idx + offset + 1.0)) * (
        l_g + ell_g * c / (2.0 * mu)
    ) + ell_g * c**2 * np.log(t_idx) / (mu**2 * (t_idx + offset + 1.0))


def certify_min(trace, problem, reference, f_star_unconstrained):
    """Evaluate every proven bound of the minimization track along the trace."""
    if reference is None:
        raise ReferenceMissing("certify_min needs the reference (x*, f*)")
    x_star, f_star = reference
    alpha = trace.alpha
    mu, ell_f = problem.mu, problem.ell_f
    kappa = trace.kappa
    T = trace.horizon
    f0 = trace.f_values[0]
    resid = trace.f_values - f_star

    c1_sq = 4.0 * (2.0 * ell_f - alpha) * (f0 - f_star) + 8.0 * ell_f * (
        f_star - f_star_unconstrained
    )
    c1 = math.sqrt(max(c1_sq, 0.0))
    g_star = problem.grad_f(x_star)
    grad_star = math.sqrt(g_star.dot(g_star))  # np.linalg.norm's 1-D rule
    c2 = (grad_star + math.sqrt(grad_star**2 + 2.0 * mu * max(f0 - f_star, 0.0))) / mu
    ell_g = trace.constraints.smoothness
    l_g = trace.constraints.grad_norm_bound(trace.xs)

    report = BoundsReport(
        track="min",
        constants={"C1": c1, "C2": c2, "empirical_Lg": l_g, "ell_g": ell_g},
    )
    recs = report.records

    contraction = (1.0 - alpha * trace.etas) * resid[:-1]
    recs.append(_check("per_iteration_contraction", resid[1:], contraction))
    recs.append(_check("velocity_bound_C1", trace.v_norms, c1))
    recs.append(_check("distance_bound_C2", row_norms(trace.xs, x_star), c2))
    sharp_rhs = 4.0 * (2.0 * ell_f - alpha) * resid[:-1] + 8.0 * ell_f * (
        f_star - f_star_unconstrained
    )
    recs.append(_check("velocity_bound_per_iter", trace.v_norms**2, sharp_rhs))

    # feasibility bounds are proven for alpha = mu only
    if abs(alpha - mu) <= 1e-12 * mu:
        viol = trace.max_violation
        if trace.config.schedule == CONSTANT:
            rhs = c1 / mu * max(c1 * ell_g / (2.0 * mu), l_g) * math.log(T) / T
            recs.append(_check("feasibility_constant_step", viol, rhs))
        elif T >= 2:
            rhs = _feasibility_rhs(c1, kappa, T, mu, l_g, ell_g)
            recs.append(_check("feasibility_varying_step", viol[2:], rhs))
    else:
        skipped = ("feasibility_constant_step" if trace.config.schedule == CONSTANT
                   else "feasibility_varying_step")
        logger.warning("certify_min: %s not checked: it is proven for alpha = mu only "
                       "(alpha=%r, mu=%r)", skipped, alpha, mu)
    return report


def certify_vi(trace, problem):
    """Evaluate every proven bound of the VI track along the trace."""
    mu, ell_f_op = problem.mu, problem.ell_F
    kappa = trace.kappa
    delta = trace.delta
    T = trace.horizon
    energy = trace.normFx0_sq + problem.B

    c3 = math.sqrt((2.0 * delta + 1.25) * energy / ell_f_op**2)
    c4 = math.sqrt((16.0 * delta + 20.0) * energy)
    ell_g = trace.constraints.smoothness
    # the run's rows are the problem's and the ball, whose ||2 (x - x0)|| is 2 dist_x0
    ball = trace.constraints.smooth[-1]
    l_g = max(problem.constraints.grad_norm_bound(trace.xs),
              ball.grad_norm_max(trace.xs, 2.0 * trace.dist_x0))

    report = BoundsReport(
        track="vi",
        constants={"C3": c3, "C4": c4, "empirical_Lg": l_g, "ell_g": ell_g,
                   "delta": delta},
    )
    recs = report.records

    recs.append(_check("distance_bound_C3", trace.dist_x0, c3))
    recs.append(_check("velocity_bound_C4", trace.v_norms, c4))
    ctrl_rhs = 8.0 * ell_f_op**2 * trace.dist_x0[:-1] ** 2 + 10.0 * energy
    recs.append(_check("velocity_distance_control", trace.v_norms**2, ctrl_rhs))

    denom = T + 32.0 * kappa**2 - 3.0
    x_bar = trace.ergodic
    if problem.simplex_blocks is not None:
        gap = simplex_gaps(problem, x_bar[None])
        gap_rhs = (
            2.0 * mu * problem.diameter_D**2
            * (8.0 * kappa**2 - 1.0) * (16.0 * kappa**2 - 1.0) / (T * denom)
            + (16.0 * delta + 20.0) * energy / (mu * denom)
        )
        recs.append(_check("ergodic_gap_bound", gap, gap_rhs))

    if T >= 2:
        rhs = _feasibility_rhs(c4, 16.0 * kappa**2, T, mu, l_g, ell_g)
        recs.append(_check("feasibility_nonergodic", trace.max_violation[2:], rhs))

    erg_viol = trace.constraints.max_violation(x_bar)
    erg_rhs = 4.0 * c4 / (mu * denom) * (l_g + ell_g * c4 / (2.0 * mu)) + (
        2.0 * ell_g * c4**2 * math.log(T) / (mu**2 * denom)
    )
    recs.append(_check("feasibility_ergodic", erg_viol, erg_rhs))
    return report
