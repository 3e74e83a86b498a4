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
import operator
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


def _squares(g):
    """The squared norms of the rows of g, by ndarray.sum's own reduction."""
    return np.add.reduce(g * g, axis=1)


@dataclass(frozen=True)
class VelocityPolytope:
    """The polytope {v : v[bound_idx] >= floor, g v <= h} in R^n, n = g.shape[1].

    bound_idx holds distinct coordinates with finite lower bounds floor; g (p, n)
    and h (p,) are the general rows, of which kept masks the non-degenerate ones
    (a zero normal with h >= 0 is vacuous) and all_kept says none is degenerate.
    The mask kept and the Gram matrix g g' are built on demand and cached.
    """

    g: np.ndarray
    h: np.ndarray
    bound_idx: np.ndarray
    floor: np.ndarray
    all_kept: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = self.g
        if g.ndim != 2 or g.shape[1] < 1:
            raise ValueError("need g of shape (p, n) with n >= 1")
        squares = _squares(g).tolist()
        # the squares are finite when g is; g is read only when a square overflows
        if not (all(map(math.isfinite, squares)) or np.isfinite(g).all()):
            raise ValueError("halfspace rows must be finite")
        object.__setattr__(self, "all_kept", min(squares, default=math.inf) >= DEGENERATE_NORMAL**2)
        self._check()

    def _check(self):
        """Raise unless h, bound_idx and floor fit the rows g.

        h must be finite of shape (p,), and h >= 0 on every zero normal
        (Infeasible otherwise). bound_idx must hold distinct coordinates in
        [0, n), one per finite floor: ascending indices, as build_polytope
        makes them, pass one numpy comparison of neighbours at any length,
        others are checked through a set. floor . floor is finite when floor
        is; floor is read entry by entry only when it overflows.
        """
        h, bound_idx, floor, n = self.h, self.bound_idx, self.floor, self.g.shape[1]
        if h.shape != self.g.shape[:1] or not all(map(math.isfinite, h.tolist())):
            raise ValueError("need a finite h of shape (p,)")
        if bound_idx.ndim != 1 or bound_idx.dtype.kind not in "iu" or floor.shape != bound_idx.shape:
            raise ValueError("need integer bound_idx of shape (s,) and floor of its shape")
        s = bound_idx.size
        if s:
            if not (np.count_nonzero(bound_idx[1:] > bound_idx[:-1]) == s - 1
                    and 0 <= bound_idx[0] and bound_idx[-1] < n):
                idx = bound_idx.tolist()
                if len(set(idx)) < s or not 0 <= min(idx) <= max(idx) < n:
                    raise ValueError(f"bound_idx must hold distinct coordinates in [0, {n})")
            if not (math.isfinite(floor.dot(floor)) or np.isfinite(floor).all()):
                raise ValueError("bound floors must be finite")
        if not self.all_kept and (h[~self.kept] < 0).any():
            raise Infeasible("zero normal with negative rhs: 0 <= rhs is violated")

    def with_rhs(self, h, bound_idx, floor):
        """The polytope {v : v[bound_idx] >= floor, g v <= h} on these general rows g.

        g, its row check (kept, all_kept) and its Gram matrix are shared, not
        built again; h, bound_idx and floor get the constructor's check.
        """
        polytope = object.__new__(VelocityPolytope)
        polytope.__dict__.update(g=self.g, h=h, bound_idx=bound_idx, floor=floor,
                                 kept=self.kept, all_kept=self.all_kept, gram=self.gram)
        polytope._check()
        return polytope

    @cached_property
    def kept(self):
        return _squares(self.g) >= DEGENERATE_NORMAL**2

    @cached_property
    def gram(self):
        gram = self.g @ self.g.T
        gram.flags.writeable = False  # shared by every polytope with_rhs makes
        return gram

    def matrix(self):
        """The dense rows (a, b) of a v <= b, bound rows first as -e_i, built on each call.

        The Goldfarb-Idnani fallback reads them; perfbench's tracer counts QP rows with them.
        """
        s = self.bound_idx.size
        bounds = np.zeros((s, self.g.shape[1]))
        bounds[np.arange(s), self.bound_idx] = -1.0
        return np.vstack((bounds, self.g)), np.concatenate((-self.floor, self.h))


@dataclass
class ProjectionResult:
    v: np.ndarray
    dual: np.ndarray
    kkt_residual: float
    n_active: int
    path: str = ""  # "direct", "dual" or "gi"
    iterations: int = 0  # active-set iterations or "gi" steps; 0 on "direct"


def _certified(c, polytope, v, dual, path, iterations=0, g_dual=None, slack=None, clamp=None):
    """The result for (v, dual) with its KKT residual, as kkt_residual_qp defines it.

    The general rows' products g_dual = g' dual[s:] and slack = g v - h are computed
    unless given. Bound stationarity subtracts clamp, the bound duals dual[:s] on
    their coordinates and +0.0 elsewhere: that gives the bits of
    gradient[bounds] -= dual[:s], as x - 0.0 == x for every x, -0.0 included.
    A given clamp is v - w with v = max(w, floor) (the "dual" path), so each
    bound slack floor - v is <= 0 and each product clamp * slack an exact 0.0:
    the bound rows cannot change the residual, and only their active duals are
    counted. Without it, clamp is built here and the bound rows are reduced
    with the general ones. The reductions run on Python floats.
    """
    bounds, s = polytope.bound_idx, polytope.bound_idx.size
    if g_dual is None:
        g_dual, slack = polytope.g.T @ dual[s:], polytope.g @ v - polytope.h
    gradient = v + c + g_dual
    duals, slacks, n_active = dual, slack.tolist(), 0
    if clamp is not None:
        duals, n_active = dual[s:], int(np.count_nonzero(clamp > 0))
    elif s:
        clamp = np.zeros(v.size)
        clamp[bounds] = dual[:s]
        slacks = (polytope.floor - v[bounds]).tolist() + slacks
    if s:
        gradient -= clamp
    duals = duals.tolist()
    stationarity = math.sqrt(gradient.dot(gradient))  # np.linalg.norm's own arithmetic
    primal = max(slacks, default=0.0)  # stationarity >= 0 floors the residual
    # scale by multiplier size: near-parallel rows make dual huge while the
    # product dual*slack stays a faithful zero up to roundoff in slack alone
    comp = max([abs(y * z) / (1.0 + y) for y, z in zip(duals, slacks)], default=0.0)
    return ProjectionResult(
        v=v, dual=dual, kkt_residual=max(stationarity, primal, comp),
        n_active=n_active + sum(y > 0 for y in duals), path=path, iterations=iterations,
    )


def _norm(c, squares):
    """||c|| as np.linalg.norm computes it, sqrt(squares = c . c), or by hypot if that overflows."""
    return math.sqrt(squares) if squares < math.inf else math.hypot(*c.tolist())


def _row_scale(c, a, b):
    """The scale 1 + |b_i| + ||a_i|| ||c|| of each row a_i v <= b_i for the finite target c."""
    return 1.0 + np.abs(b) + np.linalg.norm(a, axis=1) * _norm(c, c.dot(c))


def _on_rows(c, rows, b):
    """Multipliers lam and shift = rows' lam that put v = -c - shift on the rows, rows v = b.

    Solves the Gram system (rows rows') lam = -rows c - b by least squares. The
    Gram matrix squares the rows' condition number, so when there are at most n
    rows (they can all be met) and one misses its equality by more than
    ROUNDOFF on its scale, on either side, the least-norm shift and lam are
    taken from the rows themselves.
    """
    rhs = -rows @ c - b
    lam = np.linalg.lstsq(rows @ rows.T, rhs, rcond=None)[0]
    shift = rows.T @ lam
    slack = rows @ (-c - shift) - b
    if rows.shape[0] <= rows.shape[1] and (
            np.abs(slack) > ROUNDOFF * _row_scale(c, rows, b)).any():
        shift = np.linalg.lstsq(rows, rhs, rcond=None)[0]
        lam = np.linalg.lstsq(rows.T, shift, rcond=None)[0]
    return lam, shift


# np.linalg.solve's LAPACK gesv without its wrapper, in numpy's decorator form of
# errstate: a singular Gram matrix gives a non-finite solution and no warning
_solve = np.errstate(all="ignore")(_gesv)


def _active_set(c, polytope, gate, u, gu):
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
    such a vertex on the rows. Without bound rows, F is every coordinate,
    the floor and mask work is skipped and the first iteration reads the
    polytope's Gram matrix and, unless gu is None, gu = g u from the direct test
    (u = -c).
    """
    bounds, g, h = polytope.bound_idx, polytope.g, polytope.h
    s = bounds.size
    if s:
        floor = np.empty(u.size)  # np.full's arithmetic without its Python wrapper
        floor.fill(-np.inf)
        floor[bounds] = polytope.floor
        free = floor == -np.inf
        z = u.copy()  # np.where(free, u, floor) of the first iteration
        z[bounds] = polytope.floor
    active, g_active, h_active = None, g, h  # None: every row, so no copies
    for iteration in range(1, ACTIVE_SET_ITERATIONS + 1):
        if s:
            gram = (g_active * free) @ g_active.T
            rhs = g_active @ z - h_active
        elif active is None:
            gram, rhs = polytope.gram, (g @ u if gu is None else gu) - h
        else:
            gram, rhs = g_active @ g_active.T, g_active @ u - h_active
        if active is None:
            mu = _solve(gram, rhs)
        else:
            mu = np.zeros(h.size)
            mu[active] = _solve(gram, rhs)
        mus = mu.tolist()
        if not all(map(math.isfinite, mus)):
            return None
        g_mu = g.T @ mu
        w = u - g_mu
        v = np.maximum(w, floor) if s else w
        slack = g @ v - h
        slacks = slack.tolist()
        if min(mus, default=0.0) >= 0 and all(t <= gate for t in slacks):  # NaN fails
            clamp = v - w if s else None  # the bound duals, and +0.0 where v == w
            dual = np.concatenate((clamp[bounds], mu)) if s else mu
            result = _certified(c, polytope, v, dual, "dual", iteration, g_mu, slack, clamp)
            if result.kkt_residual <= gate:
                worst = max(slacks, default=-math.inf)
                if worst > ROUNDOFF and (slack > ROUNDOFF * _row_scale(c, g, h)).any():
                    return None  # the Gram solve lost a row's slack: re-solve on the rows
                return result
        if s:
            free = w >= floor
            z = np.where(free, u, floor)
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
    s = polytope.bound_idx.size
    keep = np.flatnonzero(np.concatenate((np.ones(s, bool), polytope.kept)))  # bounds, then kept
    a, b = polytope.matrix()
    a, b = a[keep], b[keep]
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
                dual = np.zeros(s + polytope.h.size)
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
    squares = c.dot(c)  # finite when c is; c is read only when it overflows
    if not (math.isfinite(squares) or np.isfinite(c).all()):
        raise ValueError("target must be finite")

    bounds, u, gu = polytope.bound_idx, -c, None
    # violated bounds skip g u; count_nonzero, unlike ndarray.all, has no Python wrapper
    if not bounds.size or np.count_nonzero(u[bounds] >= polytope.floor) == bounds.size:
        if polytope.all_kept:
            gu = g_u = polytope.g @ u  # the active set's first iteration reuses it
            h = polytope.h
        else:
            g_u, h = polytope.g[polytope.kept] @ u, polytope.h[polytope.kept]
        if all(map(operator.le, g_u.tolist(), h.tolist())):  # NaN fails
            return _certified(c, polytope, u, np.zeros(bounds.size + polytope.h.size), "direct")

    gate = max(KKT_TOL, 1e3 * KKT_TOL * (1.0 + _norm(c, squares)))
    result = _active_set(c, polytope, gate, u, gu)
    if result is not None:
        return result
    logger.warning(
        "active set unsettled on %d bound and %d general rows: dual fallback",
        bounds.size, polytope.h.size,
    )
    result = _goldfarb_idnani(c, polytope)
    if not result.kkt_residual <= gate:  # NaN fails
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
