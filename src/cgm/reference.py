"""High-accuracy ground truth for the resource-allocation instance.

Log-barrier interior-point solve of min 0.5 x'Sigma x + a'x over
{x >= 0, 1'x = 1, r'x <= Rmax, x'Ex <= Emax}, with the sum constraint held as
a hard equality inside the Newton KKT system. Late central-path points are
polished on their active set, and the first polish whose KKT certificate
holds is the answer.
"""

import math
from dataclasses import dataclass

import numpy as np

from .baselines import project_simplex


# the duality gap (#inequalities)/t at which polishing starts, and the last
# gap tried before the solve gives up
POLISH_GAP = 1e-6
FINAL_GAP = 1e-10


class BarrierFailure(Exception):
    pass


class StartInfeasible(Exception):
    pass


@dataclass(frozen=True)
class KktCertificate:
    stationarity_norm: float
    max_primal_violation: float
    max_complementarity: float
    equality_residual: float

    @property
    def ok(self):
        return max(
            self.stationarity_norm,
            self.max_primal_violation,
            self.max_complementarity,
            self.equality_residual,
        ) <= 1e-8


def _interior_start(data, steps=400):
    """Strictly feasible point: projected subgradient on the simplex, then a
    pull toward uniform (both tight constraints are exactly tight at uniform,
    so mixing keeps strict inequalities strict and restores positivity)."""
    d = data.a.size
    x = np.full(d, 1.0 / d)
    best, best_val = x, max(float(data.r @ x) - data.Rmax, float(x @ data.E @ x) - data.Emax)
    for k in range(1, steps + 1):
        lin = float(data.r @ x) - data.Rmax
        quad = float(x @ data.E @ x) - data.Emax
        grad = data.r if lin >= quad else 2.0 * (data.E @ x)
        x = project_simplex(x - 0.5 / k * grad)
        val = max(float(data.r @ x) - data.Rmax, float(x @ data.E @ x) - data.Emax)
        if val < best_val:
            best, best_val = x, val
    if best_val >= 0:
        raise StartInfeasible("no strictly interior point found")
    x = 0.5 * best + 0.5 * np.full(d, 1.0 / d)
    if (
        np.min(x) <= 0
        or float(data.r @ x) >= data.Rmax
        or float(x @ data.E @ x) >= data.Emax
    ):
        raise StartInfeasible("interior candidate not strictly feasible")
    return x


def _barrier_value(data, x):
    """Log-barrier value over the inequalities with its slacks
    (value, Rmax - r'x, E x, Emax - x'Ex); None outside the domain."""
    slack_lin = data.Rmax - float(data.r @ x)
    ex = data.E @ x
    slack_quad = data.Emax - float(x @ ex)
    if np.min(x) <= 0 or slack_lin <= 0 or slack_quad <= 0:
        return None
    val = -float(np.sum(np.log(x))) - math.log(slack_lin) - math.log(slack_quad)
    return val, slack_lin, ex, slack_quad


def _barrier_terms(data, x):
    """Value, gradient, Hessian of the log barrier over the inequalities."""
    parts = _barrier_value(data, x)
    if parts is None:
        return None
    val, slack_lin, ex, slack_quad = parts
    grad = -1.0 / x + data.r / slack_lin + 2.0 * ex / slack_quad
    hess = (
        np.diag(1.0 / x**2)
        + np.outer(data.r, data.r) / slack_lin**2
        + 2.0 * data.E / slack_quad
        + np.outer(2.0 * ex, 2.0 * ex) / slack_quad**2
    )
    return val, grad, hess


def _newton_equality(data, x, t_barrier, tol=1e-12, max_iter=80):
    """Damped Newton for t*f + barrier subject to 1'x = 1."""
    d = x.size
    ones = np.ones(d)
    for _ in range(max_iter):
        terms = _barrier_terms(data, x)
        if terms is None:
            raise BarrierFailure("iterate left the barrier domain")
        bval, bgrad, bhess = terms
        grad = t_barrier * (data.Sigma @ x + data.a) + bgrad
        hess = t_barrier * data.Sigma + bhess
        kkt = np.zeros((d + 1, d + 1))
        kkt[:d, :d] = hess
        kkt[:d, d] = ones
        kkt[d, :d] = ones
        rhs = np.concatenate([-grad, [0.0]])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError as exc:
            raise BarrierFailure("Newton KKT system singular") from exc
        dx = sol[:d]
        decrement_sq = float(dx @ hess @ dx)
        if decrement_sq / 2.0 <= tol:
            return x
        # backtracking with halving, Armijo constant 0.01
        merit = t_barrier * (0.5 * float(x @ data.Sigma @ x) + float(data.a @ x)) + bval
        slope = float(grad @ dx)
        step = 1.0
        while step > 1e-14:
            x_new = x + step * dx
            value_new = _barrier_value(data, x_new)
            if value_new is not None:
                merit_new = (
                    t_barrier
                    * (0.5 * float(x_new @ data.Sigma @ x_new) + float(data.a @ x_new))
                    + value_new[0]
                )
                if merit_new <= merit + 0.01 * step * slope:
                    break
            step *= 0.5
        else:
            # stalled by conditioning near the central path; accept if close
            if decrement_sq / 2.0 <= 1e-6:
                return x
            raise BarrierFailure("backtracking line search failed")
        x = x + step * dx
    if decrement_sq / 2.0 <= 1e-6:
        return x
    raise BarrierFailure("Newton did not converge")


def kkt_residual(data, x, multipliers):
    """Four KKT residuals for the collapsed-equality formulation.

    multipliers is (lam, nu): d nonnegativity rows, then the budget and risk
    rows, then the equality multiplier.
    """
    lam, nu = multipliers
    d = x.size
    if lam.size != d + 2:
        raise ValueError("multiplier vector sized to constraints expected")
    g_vals = np.concatenate(
        [-x, [float(data.r @ x) - data.Rmax, float(x @ data.E @ x) - data.Emax]]
    )
    grad_g = np.vstack([-np.eye(d), data.r[None, :], 2.0 * (data.E @ x)[None, :]])
    stat = data.Sigma @ x + data.a + grad_g.T @ lam + nu * np.ones(d)
    return KktCertificate(
        stationarity_norm=float(np.linalg.norm(stat)),
        max_primal_violation=max(0.0, float(np.max(g_vals))),
        max_complementarity=float(np.max(np.abs(lam * g_vals))),
        equality_residual=abs(float(np.sum(x)) - 1.0),
    )


def _polish_active_set(data, x):
    """Newton refinement on the active-set KKT system.

    The barrier solve identifies the active set but stalls near the central
    path at large barrier weight; re-solving the equality-constrained KKT
    system on that active set restores machine-precision residuals.
    Returns (x, (lam, nu)) or None when the guessed active set is wrong.
    """
    d = x.size
    slack_lin = data.Rmax - float(data.r @ x)
    slack_quad = data.Emax - float(x @ data.E @ x)
    bound_active = x < 1e-6
    lin_active = slack_lin < 1e-6
    quad_active = slack_quad < 1e-6
    free = np.where(~bound_active)[0]
    if free.size == 0:
        return None

    xf = x[free].copy()
    sig = data.Sigma[np.ix_(free, free)]
    af = data.a[free]
    rf = data.r[free]
    ef = data.E[np.ix_(free, free)]
    ones = np.ones(free.size)
    n_mult = 1 + int(lin_active) + int(quad_active)
    mult = np.zeros(n_mult)  # nu, then lambda_lin, lambda_quad as present

    for _ in range(50):
        ex = ef @ xf
        lam_quad = mult[-1] if quad_active else 0.0
        grad = sig @ xf + af + mult[0] * ones
        jac_rows = [ones]
        cons = [float(np.sum(xf)) - 1.0]
        pos = 1
        if lin_active:
            grad = grad + mult[pos] * rf
            jac_rows.append(rf)
            cons.append(float(rf @ xf) - data.Rmax)
            pos += 1
        if quad_active:
            grad = grad + mult[pos] * 2.0 * ex
            jac_rows.append(2.0 * ex)
            cons.append(float(xf @ ex) - data.Emax)
        m = free.size
        kkt = np.zeros((m + n_mult, m + n_mult))
        kkt[:m, :m] = sig + (2.0 * lam_quad * ef if quad_active else 0.0)
        for j, row in enumerate(jac_rows):
            kkt[:m, m + j] = row
            kkt[m + j, :m] = row
        rhs = -np.concatenate([grad, cons])
        resid = float(np.linalg.norm(rhs))
        if resid <= 1e-13:
            break
        try:
            step = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            return None
        xf = xf + step[:m]
        mult = mult + step[m:]
    else:
        return None

    x_new = np.zeros(d)
    x_new[free] = xf
    nu = mult[0]
    lam_lin = mult[1] if lin_active else 0.0
    lam_quad = mult[-1] if quad_active else 0.0
    # bound multipliers from the stationarity rows of the fixed coordinates
    full_grad = (
        data.Sigma @ x_new + data.a + nu + lam_lin * data.r
        + lam_quad * 2.0 * (data.E @ x_new)
    )
    lam_bounds = np.zeros(d)
    lam_bounds[bound_active] = full_grad[bound_active]
    if np.min(lam_bounds) < -1e-9 or lam_lin < -1e-9 or lam_quad < -1e-9:
        return None
    if np.min(x_new) < -1e-12:
        return None
    lam = np.concatenate([np.maximum(lam_bounds, 0.0), [max(lam_lin, 0.0), max(lam_quad, 0.0)]])
    return x_new, (lam, nu)


def solve_rap_reference(data, barrier_decrease=10.0):
    """Central-path solve; the barrier weight t grows by barrier_decrease per stage.

    Once the gap (#inequalities)/t is at most POLISH_GAP, each stage's point
    is polished on its active set, and the first polish whose certificate is
    ok is returned as (x, f, certificate). Raises BarrierFailure when no stage
    down to FINAL_GAP certifies.
    """
    m_ineq = data.a.size + 2
    x = _interior_start(data)
    t_barrier = 1.0
    while True:
        x = _newton_equality(data, x, t_barrier)
        gap = m_ineq / t_barrier
        if gap <= POLISH_GAP:
            polished = _polish_active_set(data, x)
            if polished is not None:
                x_star, multipliers = polished
                cert = kkt_residual(data, x_star, multipliers)
                if cert.ok:
                    f_star = 0.5 * float(x_star @ data.Sigma @ x_star) + float(data.a @ x_star)
                    return x_star, f_star, cert
            if gap <= FINAL_GAP:
                raise BarrierFailure(f"no active-set polish certified down to gap {gap:.1e}")
        t_barrier *= barrier_decrease
