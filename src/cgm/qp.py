"""Least-distance projection onto a small polytope of halfspace rows.

Solves min ||v + c||^2 over v[bound_idx] >= floor and g v <= h. The bounds
are handled in closed form and the few general rows by a primal-dual
active-set (semismooth Newton) iteration on their multipliers (Hintermueller,
Ito & Kunisch, 2002). Polytopes it cannot settle fall back to a dual
active-set solve on all dense rows (Goldfarb & Idnani, 1983). A KKT checker
certifies every solution; an exhaustive active-set oracle is kept for the
tests.
"""

import logging
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

logger = logging.getLogger(__name__)

DEGENERATE_NORMAL = 1e-14
KKT_TOL = 1e-10  # scale of the KKT gate every projection must pass
ACTIVE_SET_ITERATIONS = 10  # cap of the bound-aware active-set solve


class QpError(Exception):
    pass


class Infeasible(QpError):
    """The polytope admits no feasible point (or a row certifies 0 > rhs)."""


class MaxIterations(QpError):
    """The dual fallback did not settle or its answer failed the KKT gate."""


@dataclass(frozen=True)
class VelocityPolytope:
    """The polytope {v : v[bound_idx] >= floor, g v <= h} in R^n, n = g.shape[1].

    bound_idx holds distinct coordinates with lower bounds floor; g (p, n) and
    h (p,) are the general rows, of which kept masks the non-degenerate ones
    (a zero normal with h >= 0 is vacuous). The dense rows a v <= b, bound
    rows first as -e_i, are built on demand for the fallback, oracle and tests.
    """

    g: np.ndarray
    h: np.ndarray
    bound_idx: np.ndarray
    floor: np.ndarray
    kept: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g, h = self.g, self.h
        if g.ndim != 2 or g.shape[1] < 1 or h.shape != g.shape[:1]:
            raise ValueError("need g of shape (p, n) with n >= 1 and h of shape (p,)")
        if not (np.isfinite(g).all() and np.isfinite(h).all()):
            raise ValueError("halfspace rows must be finite")
        degenerate = (g * g).sum(axis=1) < DEGENERATE_NORMAL**2
        if degenerate.any() and (h[degenerate] < 0).any():
            raise Infeasible("zero normal with negative rhs: 0 <= rhs is violated")
        object.__setattr__(self, "kept", ~degenerate)

    @classmethod
    def from_rows(cls, a, b, bound_idx=()):
        """The polytope a v <= b whose first s rows are -e_{bound_idx[j]}, j < s."""
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        bounds = np.asarray(bound_idx, dtype=int)
        s = bounds.size
        polytope = cls(a[s:], b[s:], bounds, -b[:s])  # checks the general rows
        if not (bounds.ndim == 1 and s <= b.size and np.isfinite(b[:s]).all()
                and ((0 <= bounds) & (bounds < a.shape[1])).all()
                and np.unique(bounds).size == s and np.array_equal(polytope.a, a)):
            raise ValueError("bound rows must be -e_i for distinct i in bound_idx, finite rhs")
        return polytope

    @cached_property
    def a(self):
        bounds = np.zeros((self.bound_idx.size, self.g.shape[1]))
        bounds[np.arange(self.bound_idx.size), self.bound_idx] = -1.0
        return np.vstack((bounds, self.g))

    @cached_property
    def b(self):
        return np.concatenate((-self.floor, self.h))

    def matrix(self):
        """The dense (a, b) pair; perfbench's tracer counts QP rows through it."""
        return self.a, self.b

    def kept_rows(self):
        """(indices, a, b) of the non-degenerate dense rows: all bound rows, then kept."""
        keep = np.flatnonzero(np.concatenate((np.ones(self.bound_idx.size, bool), self.kept)))
        return keep, self.a[keep], self.b[keep]


@dataclass
class ProjectionResult:
    v: np.ndarray
    dual: np.ndarray
    kkt_residual: float
    n_active: int
    path: str = ""  # "direct", "dual" or "gi"
    iterations: int = 0  # active-set iterations or "gi" steps; 0 on "direct"


def _certified(c, polytope, v, dual, path, iterations=0):
    """The result for (v, dual) with its KKT residual filled in."""
    result = ProjectionResult(
        v=v, dual=dual, kkt_residual=np.nan, n_active=int(np.count_nonzero(dual > 0)),
        path=path, iterations=iterations,
    )
    result.kkt_residual = kkt_residual_qp(result, c, polytope)
    return result


def _active_set(c, polytope, gate):
    """Bound-aware primal-dual active-set solve; None when it does not settle.

    The bound rows read v >= floor on their coordinates (floor = -inf
    elsewhere). For multipliers mu of the general rows G v <= h, the
    point w = -c - G' mu gives v = max(w, floor) and bound duals v - w, which
    meet stationarity, bound feasibility, the bound duals' signs and their
    complementarity by construction; the KKT gate checks what is left. Each
    iteration solves (G_AF G_AF') mu_A = G_A z - h_A over the active rows A
    and the free coordinates F (where v == w; the Gram matrix masks the
    other columns), with z = -c on F and floor elsewhere. It starts with
    every bound clamped and every row active, keeps an active row while
    mu > 0 and activates an inactive row once its slack is positive, and
    returns the first candidate with mu >= 0 that passes the gate. A singular
    system (duplicate or zero-normal rows, or a row with no free coordinate),
    or no such candidate within ACTIVE_SET_ITERATIONS, gives None. Without
    bound rows, F is every coordinate and the floor and mask work is skipped.
    """
    bounds, g, h = polytope.bound_idx, polytope.g, polytope.h
    s = bounds.size
    u = -c
    if s:
        floor = np.full(u.size, -np.inf)
        floor[bounds] = polytope.floor
        free = floor == -np.inf
    active = np.ones(h.size, dtype=bool)
    for iteration in range(1, ACTIVE_SET_ITERATIONS + 1):
        mu = np.zeros(h.size)
        g_active = g[active]
        try:
            if s:
                gram = (g_active * free) @ g_active.T
                rhs = g_active @ np.where(free, u, floor) - h[active]
            else:
                gram, rhs = g_active @ g_active.T, g_active @ u - h[active]
            mu[active] = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(mu).all():
            return None
        w = u - g.T @ mu
        v = np.maximum(w, floor) if s else w
        slack = g @ v - h
        if mu.min(initial=0.0) >= 0 and slack.max(initial=-np.inf) <= gate:
            dual = np.concatenate(((v - w)[bounds], mu)) if s else mu
            result = _certified(c, polytope, v, dual, "dual", iteration)
            if result.kkt_residual <= gate:
                return result
        if s:
            free = w >= floor
        active = np.where(active, mu > 0, slack > 0)
    return None


def _goldfarb_idnani(c, polytope):
    """Dual active-set solve with H = I on the kept rows (Goldfarb & Idnani, 1983).

    Starts from the unconstrained minimum v = -c with no active row and adds
    the most violated row p. With r the coefficients of a_p in the span of
    the active rows and z = a_p minus that projection (from a QR factorization
    of the active rows, grown by one column per added row), raising p's
    multiplier by t moves v by -t z and the active multipliers by -t r. A
    partial step (an active multiplier reaches zero before p's slack does)
    drops that row and retries p; a full step makes p active. A violated row
    with z ~ 0 and no droppable row certifies an empty polytope (Infeasible).
    Active rows stay linearly independent by construction, so duplicate rows
    never both enter. Once no row is violated, the multipliers and v are
    polished on the Gram system of the active rows, as the oracle solves it.
    Returns the certified result; MaxIterations after 10 steps per kept row.
    """
    keep, a, b = polytope.kept_rows()
    norms = np.linalg.norm(a, axis=1)
    tol = KKT_TOL * (1.0 + np.abs(b) + norms * np.linalg.norm(c))
    v, lam, active, p = -c, np.zeros(keep.size), [], None
    q, r_inv = np.zeros((c.size, 0)), np.zeros((0, 0))  # a[active].T = q @ inv(r_inv)
    for step in range(10 * keep.size + 1):
        slack = a @ v - b
        slack[active] = -np.inf
        if p is None:
            p = int(slack.argmax())
            if slack[p] <= tol[p]:
                active.sort()
                rows = a[active]
                lam[active] = np.linalg.lstsq(rows @ rows.T, -rows @ c - b[active], rcond=None)[0]
                dual = np.zeros(polytope.b.size)
                dual[keep] = lam
                return _certified(c, polytope, -c - rows.T @ lam[active], dual, "gi", step)
        d = q.T @ a[p]
        z, r = a[p] - q @ d, r_inv @ d
        norm_z = np.linalg.norm(z)
        full = slack[p] / (z @ z) if norm_z > KKT_TOL * norms[p] else np.inf
        ratios = np.append(np.where(r > 0, lam[active] / np.where(r > 0, r, 1.0), np.inf), np.inf)
        k = int(ratios.argmin())
        t = min(full, ratios[k])
        if t == np.inf:
            raise Infeasible("a violated row is spanned by the active rows: polytope is empty")
        v = v - t * z
        lam[active] -= t * r
        lam[p] += t
        if t == full:
            r_inv, grown = np.zeros((r.size + 1, r.size + 1)), r_inv
            r_inv[:-1, :-1] = grown
            r_inv[:, -1] = np.append(-r, 1.0) / norm_z
            q = np.column_stack((q, z / norm_z))
            active.append(p)
            p = None
        else:
            lam[active.pop(k)] = 0.0
            q, r_last = np.linalg.qr(a[active].T)
            r_inv = np.linalg.inv(r_last)
    raise MaxIterations(f"dual active set unsettled after {step + 1} steps on {keep.size} rows")


def project_velocity(target, polytope):
    """Project -target onto the polytope; certify the KKT system of the result.

    Returns -target when it is feasible ("direct"), else the bound-aware
    active-set solution ("dual"). When that does not settle, it logs a
    warning and runs the Goldfarb-Idnani dual solve on the kept rows ("gi").
    Raises Infeasible when the polytope is empty and MaxIterations when the
    fallback does not settle or its result fails the KKT gate.
    """
    c = np.asarray(target, dtype=float)
    if not np.isfinite(c).all():
        raise ValueError("target must be finite")

    bounds, keep = polytope.bound_idx, polytope.kept
    if (c[bounds] <= -polytope.floor).all() and (polytope.g[keep] @ -c <= polytope.h[keep]).all():
        return _certified(c, polytope, -c, np.zeros(bounds.size + polytope.h.size), "direct")

    gate = max(KKT_TOL, 1e3 * KKT_TOL * (1.0 + np.linalg.norm(c)))
    result = _active_set(c, polytope, gate)
    if result is not None:
        return result
    logger.warning(
        "active set unsettled on %d bound and %d general rows: dual fallback",
        bounds.size, polytope.h.size,
    )
    result = _goldfarb_idnani(c, polytope)
    if result.kkt_residual > gate:
        raise MaxIterations(f"KKT residual {result.kkt_residual:.3e} above tolerance")
    return result


def brute_force_projection(target, polytope):
    """Exhaustive oracle: solve every active subset's KKT system, keep the best.

    Exponential in the row count; intended for small verification instances.
    Among objective ties the lexicographically smallest subset wins.
    """
    c = np.asarray(target, dtype=float)
    keep, a, b = polytope.kept_rows()
    if (a @ -c - b).max(initial=-np.inf) <= 1e-9:
        return -c  # objective 0, which no subset can beat
    best_v, best_obj = None, np.inf
    for size in range(1, keep.size + 1):
        for subset in combinations(range(keep.size), size):
            idx = list(subset)
            rows = a[idx]
            lam = np.linalg.lstsq(rows @ rows.T, -rows @ c - b[idx], rcond=1e-11)[0]
            if lam.min() < -1e-9:
                continue
            v = -c - rows.T @ lam
            if (a @ v - b).max() > 1e-9:
                continue
            obj = float(np.dot(v + c, v + c))
            if obj < best_obj - 1e-12:
                best_v, best_obj = v, obj
    if best_v is None:
        raise Infeasible("no subset KKT system yields a feasible point")
    return best_v


def kkt_residual_qp(result, target, polytope):
    """Max of stationarity norm, positive primal violation, and complementarity.

    Those of the dense rows a v <= b (the dual lists the bound rows first),
    evaluated on the bound coordinates and the general rows without forming a.
    """
    c = np.asarray(target, dtype=float)
    v = result.v
    lam = result.dual
    bounds, g, h = polytope.bound_idx, polytope.g, polytope.h
    s = bounds.size
    if lam.size != s + h.size:
        raise ValueError("dual length must equal row count")
    gradient = v + c + g.T @ lam[s:]
    slack = g @ v - h
    if s:
        gradient[bounds] -= lam[:s]
        slack = np.concatenate((polytope.floor - v[bounds], slack))
    stationarity = np.linalg.norm(gradient)
    primal = float(slack.max(initial=0.0))
    # scale by multiplier size: near-parallel rows make lam huge while the
    # product lam*slack stays a faithful zero up to roundoff in slack alone
    comp = float((np.abs(lam * slack) / (1.0 + lam)).max(initial=0.0))
    return max(float(stationarity), primal, comp)
