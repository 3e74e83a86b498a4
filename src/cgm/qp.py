"""Least-distance projection onto a small polytope of halfspace rows.

Solves min ||v + c||^2 over v[bound_idx] >= floor and g v <= h. The bounds
are handled in closed form and the few general rows by a primal-dual
active-set (semismooth Newton) iteration on their multipliers (Hintermueller,
Ito & Kunisch, 2002). Polytopes it cannot settle fall back to a dual
active-set solve on all dense rows (Goldfarb & Idnani, 1983). A KKT checker
certifies every solution; the tests compare it with an exhaustive oracle in
exact rational arithmetic.
"""

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _gesv

logger = logging.getLogger(__name__)

DEGENERATE_NORMAL = 1e-14
KKT_TOL = 1e-10  # scale of the KKT gate every projection must pass
ACTIVE_SET_ITERATIONS = 10  # cap of the bound-aware active-set solve
ROUNDOFF = 1e-13  # slack, on a row's scale, that an accurate solve stays within


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
    (a zero normal with h >= 0 is vacuous) and all_kept says none is degenerate.
    The dense rows a v <= b, bound rows first as -e_i, are built on demand for
    the fallback and the tests.
    """

    g: np.ndarray
    h: np.ndarray
    bound_idx: np.ndarray
    floor: np.ndarray
    kept: np.ndarray = field(init=False, repr=False, compare=False)
    all_kept: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g, h = self.g, self.h
        if g.ndim != 2 or g.shape[1] < 1 or h.shape != g.shape[:1]:
            raise ValueError("need g of shape (p, n) with n >= 1 and h of shape (p,)")
        squares = (g * g).sum(axis=1)
        # squares + h is finite when g and h are; g and h are read only when a square overflows
        if not (np.isfinite(squares + h).all() or np.isfinite(g).all() and np.isfinite(h).all()):
            raise ValueError("halfspace rows must be finite")
        degenerate = squares < DEGENERATE_NORMAL**2
        object.__setattr__(self, "kept", ~degenerate)
        object.__setattr__(self, "all_kept", not degenerate.any())
        if not self.all_kept and (h[degenerate] < 0).any():
            raise Infeasible("zero normal with negative rhs: 0 <= rhs is violated")

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


def _certified(c, polytope, v, dual, path, iterations=0, g_dual=None, slack=None):
    """The result for (v, dual) with its KKT residual, as kkt_residual_qp defines it.

    The general rows' products g_dual = g' dual[s:] and slack = g v - h are computed unless given.
    """
    bounds, s = polytope.bound_idx, polytope.bound_idx.size
    if g_dual is None:
        g_dual, slack = polytope.g.T @ dual[s:], polytope.g @ v - polytope.h
    gradient = v + c + g_dual
    if s:
        gradient[bounds] -= dual[:s]
        slack = np.concatenate((polytope.floor - v[bounds], slack))
    stationarity = math.sqrt(gradient.dot(gradient))  # np.linalg.norm's own arithmetic
    primal = float(slack.max(initial=0.0))
    # scale by multiplier size: near-parallel rows make dual huge while the
    # product dual*slack stays a faithful zero up to roundoff in slack alone
    comp = float((np.abs(dual * slack) / (1.0 + dual)).max(initial=0.0))
    return ProjectionResult(
        v=v, dual=dual, kkt_residual=max(stationarity, primal, comp),
        n_active=int(np.count_nonzero(dual > 0)), path=path, iterations=iterations,
    )


def _row_scale(c, a, b):
    """The scale 1 + |b_i| + ||a_i|| ||c|| of each row a_i v <= b_i for the target c."""
    return 1.0 + np.abs(b) + np.linalg.norm(a, axis=1) * np.linalg.norm(c)


def _on_rows(c, rows, b):
    """Multipliers lam and shift = rows' lam that put v = -c - shift on the rows, rows v = b.

    Solves the Gram system (rows rows') lam = -rows c - b by least squares. The
    Gram matrix squares the rows' condition number, so when there are at most n
    rows (they can all be met) and one is left with a slack above ROUNDOFF on
    its scale, the least-norm shift and lam are taken from the rows themselves.
    """
    rhs = -rows @ c - b
    lam = np.linalg.lstsq(rows @ rows.T, rhs, rcond=None)[0]
    shift = rows.T @ lam
    slack = rows @ (-c - shift) - b
    if rows.shape[0] <= rows.shape[1] and (slack > ROUNDOFF * _row_scale(c, rows, b)).any():
        shift = np.linalg.lstsq(rows, rhs, rcond=None)[0]
        lam = np.linalg.lstsq(rows.T, shift, rcond=None)[0]
    return lam, shift


def _solve(gram, rhs):
    """np.linalg.solve's LAPACK gesv without its wrapper; singular gives non-finite, no error."""
    with np.errstate(all="ignore"):
        return _gesv(gram, rhs)


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
    or no such candidate within ACTIVE_SET_ITERATIONS, gives None, and so does
    a candidate that leaves a row's slack above ROUNDOFF on its scale: the
    Gram system squares the rows' condition number, and the fallback re-solves
    such a vertex on the rows. Without bound rows, F is every coordinate and
    the floor and mask work is skipped.
    """
    bounds, g, h = polytope.bound_idx, polytope.g, polytope.h
    s = bounds.size
    u = -c
    if s:
        floor = np.full(u.size, -np.inf)
        floor[bounds] = polytope.floor
        free = floor == -np.inf
    active, g_active, h_active = None, g, h  # None: every row, so no copies
    for iteration in range(1, ACTIVE_SET_ITERATIONS + 1):
        if s:
            gram = (g_active * free) @ g_active.T
            rhs = g_active @ np.where(free, u, floor) - h_active
        else:
            gram, rhs = g_active @ g_active.T, g_active @ u - h_active
        if active is None:
            mu = _solve(gram, rhs)
        else:
            mu = np.zeros(h.size)
            mu[active] = _solve(gram, rhs)
        if not np.isfinite(mu).all():
            return None
        g_mu = g.T @ mu
        w = u - g_mu
        v = np.maximum(w, floor) if s else w
        slack = g @ v - h
        worst = slack.max(initial=-np.inf)
        if mu.min(initial=0.0) >= 0 and worst <= gate:
            dual = np.concatenate(((v - w)[bounds], mu)) if s else mu
            result = _certified(c, polytope, v, dual, "dual", iteration, g_mu, slack)
            if result.kkt_residual <= gate:
                if worst > ROUNDOFF and (slack > ROUNDOFF * _row_scale(c, g, h)).any():
                    return None  # the Gram solve lost a row's slack: re-solve on the rows
                return result
        if s:
            free = w >= floor
        active = mu > 0 if active is None else np.where(active, mu > 0, slack > 0)
        g_active, h_active = g[active], h[active]
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
    polished on the active rows by _on_rows.
    Returns the certified result; MaxIterations after 10 steps per kept row.
    """
    keep, a, b = polytope.kept_rows()
    norms = np.linalg.norm(a, axis=1)
    tol = KKT_TOL * _row_scale(c, a, b)
    v, lam, active, p = -c, np.zeros(keep.size), [], None
    q, r_inv = np.zeros((c.size, 0)), np.zeros((0, 0))  # a[active].T = q @ inv(r_inv)
    for step in range(10 * keep.size + 1):
        slack = a @ v - b
        slack[active] = -np.inf
        if p is None:
            p = int(slack.argmax())
            if slack[p] <= tol[p]:
                active.sort()
                lam[active], shift = _on_rows(c, a[active], b[active])
                dual = np.zeros(polytope.b.size)
                dual[keep] = lam
                return _certified(c, polytope, -c - shift, dual, "gi", step)
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

    bounds, keep, u = polytope.bound_idx, polytope.kept, -c
    g, h = (polytope.g, polytope.h) if polytope.all_kept else (polytope.g[keep], polytope.h[keep])
    if (not bounds.size or (c[bounds] <= -polytope.floor).all()) and (g @ u <= h).all():
        return _certified(c, polytope, u, np.zeros(bounds.size + polytope.h.size), "direct")

    gate = max(KKT_TOL, 1e3 * KKT_TOL * (1.0 + math.sqrt(c.dot(c))))
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


def kkt_residual_qp(result, target, polytope):
    """Max of stationarity norm, positive primal violation, and complementarity.

    Those of the dense rows a v <= b (the dual lists the bound rows first),
    evaluated on the bound coordinates and the general rows without forming a.
    """
    if result.dual.size != polytope.bound_idx.size + polytope.h.size:
        raise ValueError("dual length must equal row count")
    c = np.asarray(target, dtype=float)
    return _certified(c, polytope, result.v, result.dual, result.path).kkt_residual
