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


def _rows(data, x):
    """Values [1'x - 1, r'x - Rmax, x'Ex - Emax] and their (3, d) Jacobian [1; r; 2Ex]."""
    ex = data.E.dot(x)
    values = np.array([np.sum(x) - 1.0, data.r.dot(x) - data.Rmax, x.dot(ex) - data.Emax])
    return values, np.vstack([np.ones(x.size), data.r, 2.0 * ex])


def kkt_residual(data, x, multipliers):
    """Four KKT residuals for the collapsed-equality formulation.

    multipliers is (lam, nu): d nonnegativity rows, then the budget and risk
    rows, then the equality multiplier.
    """
    lam, nu = multipliers
    d = x.size
    if lam.size != d + 2:
        raise ValueError("multiplier vector sized to constraints expected")
    values, jac = _rows(data, x)
    g_vals = np.concatenate([-x, values[1:]])
    stat = data.Sigma.dot(x) + data.a - lam[:d] + jac.T.dot(np.append(nu, lam[d:]))
    return KktCertificate(
        stationarity_norm=float(np.linalg.norm(stat)),
        max_primal_violation=max(0.0, float(np.max(g_vals))),
        max_complementarity=float(np.max(np.abs(lam * g_vals))),
        equality_residual=abs(float(values[0])),
    )


def _polish_active_set(data, x):
    """Newton refinement on the active-set KKT system.

    The interior-point iterate identifies the active set, but its bound and
    slack values only approach zero with the gap; re-solving the
    equality-constrained KKT system on that active set restores
    machine-precision residuals. The bounds x_i < 1e-6 are fixed at zero, and
    the sum row and the budget and risk rows with slack < 1e-6 are tight: the
    Newton steps move the free coordinates and the tight rows' multipliers
    (nu, lam_budget, lam_risk).
    Returns (x, (lam, nu)) or None when the guessed active set is wrong.
    """
    bound = x < 1e-6
    free = ~bound
    if not free.any():
        return None
    values, _ = _rows(data, x)
    tight = np.append(True, values[1:] > -1e-6)
    x = np.where(bound, 0.0, x)
    mult = np.zeros(3)
    for _ in range(50):
        values, jac = _rows(data, x)
        grad = data.Sigma.dot(x) + data.a + jac.T.dot(mult)
        hess = (data.Sigma + 2.0 * mult[2] * data.E)[np.ix_(free, free)]
        jac_t = jac[np.ix_(tight, free)]
        kkt = np.block([[hess, jac_t.T], [jac_t, np.zeros((jac_t.shape[0],) * 2)]])
        rhs = -np.concatenate([grad[free], values[tight]])
        if np.linalg.norm(rhs) <= 1e-13:
            break
        try:
            step = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            return None
        x[free] += step[:hess.shape[0]]
        mult[tight] += step[hess.shape[0]:]
    else:
        return None
    # bound multipliers from the stationarity rows of the fixed coordinates
    lam_bounds = np.where(bound, grad, 0.0)
    if min(lam_bounds.min(), mult[1:].min()) < -1e-9 or x.min() < -1e-12:
        return None
    return x, (np.maximum(np.append(lam_bounds, mult[1:]), 0.0), mult[0])


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
        values, jac = _rows(data, x)
        r_eq, r_ineq, jac = values[0], values[1:] + s, jac[1:]
        grad = data.Sigma.dot(x) + data.a + y
        gap = x.dot(z) + s.dot(w)
        mu = gap / (d + 2)
        residual = max(
            float(np.max(np.abs(grad - z + jac.T.dot(w)))), abs(r_eq), float(np.max(np.abs(r_ineq)))
        )
        if gap <= POLISH_GAP and residual <= POLISH_GAP:
            polished = _polish_active_set(data, x)
            if polished is None:
                cause = "polish returned None"
            else:
                x_star, multipliers = polished
                cert = kkt_residual(data, x_star, multipliers)
                if cert.ok:
                    f_star = (0.5 * float(x_star.dot(data.Sigma).dot(x_star))
                              + float(data.a.dot(x_star)))
                    return x_star, f_star, cert
                cause = f"certificate residual {cert.residual:.1e}"
            logger.debug("iteration %d, mu %.1e: polish rejected (%s)", iteration, mu, cause)
            if gap <= FINAL_GAP:
                raise BarrierFailure(
                    f"no active-set polish certified down to gap {gap:.1e} "
                    f"(mu {mu:.1e}) after {iteration} iterations"
                )

        kkt[:d, :d] = data.Sigma + 2.0 * w[1] * data.E + np.diag(z / x) + jac.T.dot(
            (w / s)[:, None] * jac
        )

        def direction(target_xz, target_sw):
            # Newton step toward x*z = target_xz, s*w = target_sw with the
            # dual, equality and slack residuals driven to zero
            rhs = -grad + target_xz / x - jac.T.dot(target_sw / s + w / s * r_ineq)
            sol = np.linalg.solve(kkt, np.append(rhs, -r_eq))
            dx = sol[:d]
            ds = -r_ineq - jac.dot(dx)
            dz = target_xz / x - z - z / x * dx
            dw = target_sw / s - w - w / s * ds
            return dx, ds, dz, dw, sol[d]

        dx, ds, dz, dw, _ = direction(np.zeros(d), np.zeros(2))
        step_primal = min(1.0, _max_step((x, dx), (s, ds)))
        step_dual = min(1.0, _max_step((z, dz), (w, dw)))
        mu_affine = (
            (x + step_primal * dx).dot(z + step_dual * dz)
            + (s + step_primal * ds).dot(w + step_dual * dw)
        ) / (d + 2)
        sigma_mu = (mu_affine / mu) ** 3 * mu
        dx, ds, dz, dw, dy = direction(sigma_mu - dx * dz, sigma_mu - ds * dw)
        step = min(1.0, STEP_TO_BOUNDARY * _max_step((x, dx), (s, ds), (z, dz), (w, dw)))
        x, s, z, w, y = x + step * dx, s + step * ds, z + step * dz, w + step * dw, y + step * dy
    raise BarrierFailure(
        f"no active-set polish certified after {MAX_ITERATIONS} iterations (mu {mu:.1e})"
    )
