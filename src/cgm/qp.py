"""Least-distance projection onto a small polytope of halfspace rows.

Solves min_{v : A v <= b} ||v + c||^2. Coordinate-bound rows are handled in
closed form and the few general rows by a primal-dual active-set (semismooth
Newton) iteration on their multipliers (Hintermueller, Ito & Kunisch, 2002).
Polytopes it cannot settle fall back to the least-distance program reduced to
one nonnegative least-squares solve (Lawson & Hanson, 1974, ch. 23). An
exhaustive active-set oracle and a KKT checker certify every solution.
"""

import logging
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.optimize import nnls

logger = logging.getLogger(__name__)


def _recover_duals(a, b, c, v):
    """Nonnegative multipliers for a known optimum v (oracle fallback path)."""
    slack = a @ v - b
    lam = np.zeros(a.shape[0])
    active = np.where(slack >= -1e-8 * (1.0 + np.abs(b)))[0]
    if active.size:
        sol, _ = nnls(a[active].T, -(v + c))
        lam[active] = sol
    return lam

DEGENERATE_NORMAL = 1e-14
KKT_TOL = 1e-10  # scale of the KKT gate every projection must pass
ACTIVE_SET_ITERATIONS = 10  # cap of the bound-aware active-set solve


class QpError(Exception):
    pass


class Infeasible(QpError):
    """The polytope admits no feasible point (or a row certifies 0 > rhs)."""


class MaxIterations(QpError):
    """The NNLS solve stalled or its answer failed the KKT gate."""


@dataclass(frozen=True)
class VelocityPolytope:
    """Halfspace rows a v <= b in R^n; an (0, n) matrix a means all of R^n.

    The first bound_idx.size rows are coordinate bounds: row j is
    -e_{bound_idx[j]}, so it reads v_{bound_idx[j]} >= -b[j]. kept holds the
    indices of the non-degenerate rows; a degenerate row (zero normal,
    rhs >= 0) is vacuous.
    """

    a: np.ndarray
    b: np.ndarray
    bound_idx: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    kept: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        bounds = np.asarray(self.bound_idx, dtype=int)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "bound_idx", bounds)
        if a.ndim != 2 or a.shape[1] < 1 or b.shape != (a.shape[0],):
            raise ValueError("need a of shape (m, n) with n >= 1 and b of shape (m,)")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("halfspace rows must be finite")
        norms = np.linalg.norm(a, axis=1)
        s = bounds.size
        if bounds.ndim != 1 or s > a.shape[0]:
            raise ValueError("need bound_idx of shape (s,) with s <= m")
        if s and not (
            (norms[:s] == 1.0).all() and (a[np.arange(s), bounds] == -1.0).all()
        ):
            raise ValueError("bound row j must be -e_{bound_idx[j]}")
        degenerate = norms < DEGENERATE_NORMAL
        if degenerate.any() and (b[degenerate] < 0).any():
            raise Infeasible("zero normal with negative rhs: 0 <= rhs is violated")
        object.__setattr__(self, "kept", np.flatnonzero(~degenerate))

    def matrix(self):
        """The stacked (a, b) pair."""
        return self.a, self.b


@dataclass
class ProjectionResult:
    v: np.ndarray
    dual: np.ndarray
    kkt_residual: float
    n_active: int
    path: str = ""  # "direct", "dual", "nnls" or "oracle"
    iterations: int = 0  # active-set iterations on the "dual" path, else 0


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
    other columns), with z = -c on F and floor elsewhere. It starts with every bound clamped and every row active, keeps
    an active row while mu > 0 and activates an inactive row once its slack
    is positive, and returns the first candidate with mu >= 0 that passes the
    gate. A singular system (duplicate or zero-normal rows, or a row with no
    free coordinate), or no such candidate within ACTIVE_SET_ITERATIONS,
    gives None.
    """
    a, b = polytope.matrix()
    bounds = polytope.bound_idx
    s = bounds.size
    g, h = a[s:], b[s:]
    u = -c
    floor = np.full(u.size, -np.inf)
    floor[bounds] = -b[:s]
    free = floor == -np.inf
    active = np.ones(h.size, dtype=bool)
    for iteration in range(1, ACTIVE_SET_ITERATIONS + 1):
        mu = np.zeros(h.size)
        g_active = g[active]
        try:
            mu[active] = np.linalg.solve(
                (g_active * free) @ g_active.T,
                g_active @ np.where(free, u, floor) - h[active],
            )
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(mu).all():
            return None
        w = u - g.T @ mu
        v = np.maximum(w, floor)
        slack = g @ v - h
        if mu.min(initial=0.0) >= 0 and slack.max(initial=-np.inf) <= gate:
            dual = np.concatenate(((v - w)[bounds], mu))
            result = _certified(c, polytope, v, dual, "dual", iteration)
            if result.kkt_residual <= gate:
                return result
        free = w >= floor
        active = np.where(active, mu > 0, slack > 0)
    return None


def project_velocity(target, polytope):
    """Project -target onto the polytope; certify the KKT system of the result.

    Returns -target when it is feasible ("direct"), else the bound-aware
    active-set solution ("dual"). When that does not settle, the
    least-distance program min ||u|| s.t. -A u >= lin, u = v + c, with
    lin = -A c - b, is solved as one NNLS problem over E = [-A'; lin'] and
    f = e_{n+1}; the residual's last entry gives the scale of the multipliers
    ("nnls", or "oracle" when the exhaustive oracle has to redo it). Raises
    Infeasible when that scale vanishes (empty polytope) and MaxIterations
    when the NNLS solve stalls or the result fails the KKT gate.
    """
    c = np.asarray(target, dtype=float)
    if not np.isfinite(c).all():
        raise ValueError("target must be finite")

    keep = polytope.kept
    dual = np.zeros(polytope.b.size)
    v0 = -c
    a_full, b_full = polytope.matrix()
    if not keep.size or (a_full[keep] @ v0 <= b_full[keep]).all():
        return _certified(c, polytope, v0, dual, "direct")

    gate = max(KKT_TOL, 1e3 * KKT_TOL * (1.0 + np.linalg.norm(c)))
    result = _active_set(c, polytope, gate)
    if result is not None:
        return result
    n_bounds = polytope.bound_idx.size
    logger.warning(
        "active set unsettled on %d bound and %d general rows: NNLS fallback",
        n_bounds, polytope.b.size - n_bounds,
    )

    a = a_full[keep]
    b = b_full[keep]
    gram = a @ a.T
    lin = -a @ c - b
    e = np.vstack([-a.T, lin])
    f = np.zeros(e.shape[0])
    f[-1] = 1.0
    try:
        y, _ = nnls(e, f, maxiter=50 * (keep.size + 1))
    except RuntimeError as exc:
        raise MaxIterations(str(exc)) from exc
    denom = 1.0 - lin @ y  # squared NNLS residual norm; zero iff the polytope is empty
    if denom <= DEGENERATE_NORMAL:
        raise Infeasible("least-distance residual vanished: velocity polytope is empty")
    lam = y / denom

    # polish: exact least-squares resolve on the identified active set
    active = np.where(lam > 0)[0]
    if active.size:
        sub = gram[np.ix_(active, active)]
        sol, *_ = np.linalg.lstsq(sub, lin[active], rcond=None)
        if np.min(sol) >= 0:
            lam = np.zeros_like(lam)
            lam[active] = sol
        else:
            logger.warning("least-squares polish rejected: min dual %.3e", np.min(sol))

    dual[keep] = lam
    result = _certified(c, polytope, -c - a.T @ lam, dual, "nnls")
    if result.kkt_residual > gate and keep.size <= 16:
        # near-degenerate active set: redo with the exhaustive oracle
        logger.warning(
            "KKT residual %.3e above gate %.3e on %d rows: oracle fallback",
            result.kkt_residual, gate, keep.size,
        )
        v = brute_force_projection(c, polytope)
        dual = np.zeros(polytope.b.size)
        dual[keep] = _recover_duals(a, b, c, v)
        result = _certified(c, polytope, v, dual, "oracle")
    if result.kkt_residual > gate:
        raise MaxIterations(f"KKT residual {result.kkt_residual:.3e} above tolerance")
    return result


def brute_force_projection(target, polytope):
    """Exhaustive oracle: solve every active subset's KKT system, keep the best.

    Exponential in the row count; intended for small verification instances.
    Among objective ties the lexicographically smallest subset wins.
    """
    c = np.asarray(target, dtype=float)
    keep = polytope.kept
    a_full, b_full = polytope.matrix()
    a = a_full[keep]
    b = b_full[keep]
    k = keep.size

    best_v = None
    best_obj = np.inf
    for size in range(k + 1):
        for subset in combinations(range(k), size):
            idx = np.array(subset, dtype=int)
            if idx.size == 0:
                v = -c
                lam = np.zeros(0)
            else:
                sub = a[idx] @ a[idx].T
                rhs = -a[idx] @ c - b[idx]
                lam, *_ = np.linalg.lstsq(sub, rhs, rcond=1e-11)
                if np.min(lam) < -1e-9:
                    continue
                v = -c - a[idx].T @ lam
            slack = a @ v - b
            if k and np.max(slack) > 1e-9:
                continue
            obj = float(np.dot(v + c, v + c))
            if obj < best_obj - 1e-12:
                best_obj = obj
                best_v = v
    if best_v is None:
        raise Infeasible("no subset KKT system yields a feasible point")
    return best_v


def kkt_residual_qp(result, target, polytope):
    """Max of stationarity norm, positive primal violation, and complementarity."""
    c = np.asarray(target, dtype=float)
    v = result.v
    lam = result.dual
    if lam.size != polytope.b.size:
        raise ValueError("dual length must equal row count")
    a, b = polytope.matrix()
    if a.shape[0] == 0:
        return float(np.linalg.norm(v + c))
    slack = a @ v - b
    stationarity = np.linalg.norm(v + c + a.T @ lam)
    primal = max(0.0, float(np.max(slack)))
    # scale by multiplier size: near-parallel rows make lam huge while the
    # product lam*slack stays a faithful zero up to roundoff in slack alone
    comp = float(np.max(np.abs(lam * slack) / (1.0 + lam)))
    return max(float(stationarity), primal, comp)
