"""High-accuracy ground truth for the resource-allocation instance.

Mehrotra predictor-corrector primal-dual interior-point solve of
min 0.5 x'Sigma x + a'x over {x >= 0, 1'x = 1, r'x <= Rmax, x'Ex <= Emax}
(Mehrotra, 1992; Nocedal & Wright, ch. 16 and 19), started from the uniform
point with unit slacks and multipliers. Late iterates are polished on their
active set, and the first polish whose KKT certificate holds is the answer.
"""

import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

# the duality gap x'z + s'w (and residual size) at which polishing starts,
# and the gap below which the solve gives up
POLISH_GAP = 1e-6
FINAL_GAP = 1e-10
MAX_ITERATIONS = 100
STEP_TO_BOUNDARY = 0.995


class BarrierFailure(Exception):
    pass


@dataclass(frozen=True)
class KktCertificate:
    stationarity_norm: float
    max_primal_violation: float
    max_complementarity: float
    equality_residual: float

    @property
    def residual(self):
        return max(
            self.stationarity_norm,
            self.max_primal_violation,
            self.max_complementarity,
            self.equality_residual,
        )

    @property
    def ok(self):
        return self.residual <= 1e-8


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

    The interior-point iterate identifies the active set, but its bound and
    slack values only approach zero with the gap; re-solving the
    equality-constrained KKT system on that active set restores
    machine-precision residuals.
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


def _max_step(*pairs):
    """Largest step keeping every v + step * dv >= 0 over the (v, dv) pairs."""
    return min(
        (float(np.min(-v[dv < 0] / dv[dv < 0])) for v, dv in pairs if np.any(dv < 0)),
        default=np.inf,
    )


def solve_rap_reference(data):
    """Primal-dual solve; returns (x, f, certificate) of the first certified polish.

    x >= 0 carries the multipliers z, and the budget and risk rows c(x) <= 0
    carry slacks s (c(x) + s = 0) and multipliers w. Each Newton system keeps
    the equality multiplier y next to dx in one (d+1)x(d+1) matrix with Hessian
    Sigma + 2 w_risk E + X^-1 Z + J' S^-1 W J, J = [r'; 2 (E x)']. Once the
    duality gap x'z + s'w and the residuals are at most POLISH_GAP, each
    iterate is polished on its active set. Raises BarrierFailure when the gap
    falls below FINAL_GAP or MAX_ITERATIONS pass without a certified polish.
    """
    d = data.a.size
    x = np.full(d, 1.0 / d)
    z = np.ones(d)
    s = np.ones(2)
    w = np.ones(2)
    y = 0.0
    kkt = np.zeros((d + 1, d + 1))
    kkt[:d, d] = 1.0
    kkt[d, :d] = 1.0
    for iteration in range(MAX_ITERATIONS):
        ex = data.E @ x
        jac = np.vstack([data.r, 2.0 * ex])
        grad = data.Sigma @ x + data.a + y
        r_ineq = np.array([data.r @ x - data.Rmax, x @ ex - data.Emax]) + s
        r_eq = float(np.sum(x)) - 1.0
        gap = x @ z + s @ w
        mu = gap / (d + 2)
        residual = max(
            float(np.max(np.abs(grad - z + jac.T @ w))), abs(r_eq), float(np.max(np.abs(r_ineq)))
        )
        if gap <= POLISH_GAP and residual <= POLISH_GAP:
            polished = _polish_active_set(data, x)
            if polished is None:
                cause = "polish returned None"
            else:
                x_star, multipliers = polished
                cert = kkt_residual(data, x_star, multipliers)
                if cert.ok:
                    f_star = 0.5 * float(x_star @ data.Sigma @ x_star) + float(data.a @ x_star)
                    return x_star, f_star, cert
                cause = f"certificate residual {cert.residual:.1e}"
            logger.debug("iteration %d, mu %.1e: polish rejected (%s)", iteration, mu, cause)
            if gap <= FINAL_GAP:
                raise BarrierFailure(
                    f"no active-set polish certified down to gap {gap:.1e} "
                    f"(mu {mu:.1e}) after {iteration} iterations"
                )

        kkt[:d, :d] = data.Sigma + 2.0 * w[1] * data.E + np.diag(z / x) + jac.T @ (
            (w / s)[:, None] * jac
        )

        def direction(target_xz, target_sw):
            # Newton step toward x*z = target_xz, s*w = target_sw with the
            # dual, equality and slack residuals driven to zero
            rhs = -grad + target_xz / x - jac.T @ (target_sw / s + w / s * r_ineq)
            sol = np.linalg.solve(kkt, np.append(rhs, -r_eq))
            dx = sol[:d]
            ds = -r_ineq - jac @ dx
            dz = target_xz / x - z - z / x * dx
            dw = target_sw / s - w - w / s * ds
            return dx, ds, dz, dw, sol[d]

        dx, ds, dz, dw, _ = direction(np.zeros(d), np.zeros(2))
        step_primal = min(1.0, _max_step((x, dx), (s, ds)))
        step_dual = min(1.0, _max_step((z, dz), (w, dw)))
        mu_affine = (
            (x + step_primal * dx) @ (z + step_dual * dz)
            + (s + step_primal * ds) @ (w + step_dual * dw)
        ) / (d + 2)
        sigma_mu = (mu_affine / mu) ** 3 * mu
        dx, ds, dz, dw, dy = direction(sigma_mu - dx * dz, sigma_mu - ds * dw)
        step = min(1.0, STEP_TO_BOUNDARY * _max_step((x, dx), (s, ds), (z, dz), (w, dw)))
        x, s, z, w, y = x + step * dx, s + step * ds, z + step * dz, w + step * dw, y + step * dy
    raise BarrierFailure(
        f"no active-set polish certified after {MAX_ITERATIONS} iterations (mu {mu:.1e})"
    )
