"""Problem abstractions and the two built-in experiment families.

Instances are generated from a seeded numpy Generator so that repeated calls
with the same seed are bit-identical. A problem's constraints are one
ConstraintSet: nonnegativity bounds, an affine block and a few smooth rows,
evaluated as arrays (all row values at once, gradients of selected rows).
"""

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .qp import VelocityPolytope


class SingularMatrix(Exception):
    pass


@dataclass(frozen=True)
class SmoothConstraint:
    """One smooth convex row g(x) <= 0 with value/gradient oracles."""

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    smoothness: float = 0.0


@dataclass(frozen=True)
class MinProblem:
    value_f: Callable[[np.ndarray], float]
    grad_f: Callable[[np.ndarray], np.ndarray]
    mu: float
    ell_f: float
    constraints: "ConstraintSet"
    x0: np.ndarray
    dim: int
    data: Optional[object] = None

    def __post_init__(self):
        if not (0 < self.mu <= self.ell_f):
            raise ValueError("need 0 < mu <= ell_f")


@dataclass(frozen=True)
class VIProblem:
    op_F: Callable[[np.ndarray], np.ndarray]
    mu: float
    ell_F: float
    B: float
    constraints: "ConstraintSet"
    x0: np.ndarray
    diameter_D: float
    dim: int
    simplex_blocks: Optional[tuple] = None

    def __post_init__(self):
        if not (0 < self.mu <= self.ell_F):
            raise ValueError("need 0 < mu <= ell_F")
        if self.B < 0 or self.diameter_D <= 0:
            raise ValueError("need B >= 0 and diameter_D > 0")


@dataclass(frozen=True)
class RapData:
    Sigma: np.ndarray
    a: np.ndarray
    r: np.ndarray
    E: np.ndarray
    Rmax: float
    Emax: float

    def __post_init__(self):
        np.linalg.cholesky(self.Sigma)  # raises if not positive definite
        if np.min(np.linalg.eigvalsh(self.E)) < -1e-10:
            raise ValueError("E must be positive semidefinite")
        if self.Rmax <= 0 or self.Emax <= 0:
            raise ValueError("Rmax and Emax must be positive")


@dataclass(frozen=True)
class ConstraintSet:
    """Rows g_i(x) <= 0 in index order: bounds, an affine block, smooth rows.

    For x in R^n with n = W.shape[1], row i < n_bounds is -x_i, the next
    W.shape[0] rows are w_j . x + c_j, and the last rows are the
    SmoothConstraint oracles in `smooth`. Each affine row is evaluated as its
    own dot product, so values(x) matches the per-row arithmetic bit for bit
    and no row on the feasibility boundary flips.
    """

    n_bounds: int
    W: np.ndarray
    c: np.ndarray
    smooth: tuple = ()

    def __post_init__(self):
        W = np.array(self.W, dtype=float)
        c = np.array(self.c, dtype=float)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "smooth", tuple(self.smooth))
        if W.ndim != 2 or c.shape != W.shape[:1] or not 0 <= self.n_bounds <= W.shape[1]:
            raise ValueError("need W of shape (p, n), c of shape (p,), n_bounds <= n")

    def __len__(self):
        return self.n_bounds + self.c.size + len(self.smooth)

    @property
    def smoothness(self):
        """Largest smoothness constant over all rows (0 for bounds and affine rows)."""
        return max((g.smoothness for g in self.smooth), default=0.0)

    def append(self, row):
        """A new set with the SmoothConstraint row added last."""
        return replace(self, smooth=self.smooth + (row,))

    def values(self, x):
        """All row values g_i(x) as an (m,) array."""
        out = np.empty(len(self))
        k = self.n_bounds
        out[:k] = -x[:k]
        for j, (w, c) in enumerate(zip(self.W, self.c.tolist()), start=k):
            out[j] = float(w @ x) + c
        for j, g in enumerate(self.smooth, start=k + self.c.size):
            out[j] = g.value(x)
        return out

    def gradients(self, x, idx):
        """Gradients of the rows idx at x as a (len(idx), n) array."""
        k, p = self.n_bounds, self.c.size
        idx = np.asarray(idx, dtype=int)
        out = np.zeros((idx.size, self.W.shape[1]))
        for r, i in enumerate(idx.tolist()):
            if i >= k + p:
                out[r] = self.smooth[i - k - p].gradient(x)
            elif i >= k:
                out[r] = self.W[i - k]
            else:
                out[r, i] = -1.0
        return out

    def max_violation(self, x):
        """max(0, max_i g_i(x))."""
        return max_violation_of(self.values(x))

    def grad_norm_bound(self, xs):
        """Largest row gradient norm over the points xs; fixed rows are normed once."""
        norms = [1.0] if self.n_bounds else []
        norms += [float(np.linalg.norm(w)) for w in self.W]
        for g in self.smooth:
            norms += [float(np.linalg.norm(g.gradient(x))) for x in xs]
        return max(norms, default=0.0)


def rap_constraints(data):
    """The d + 4 rows of the resource allocation feasible set."""
    d = data.a.size
    ones = np.ones(d)
    e_mat, emax = data.E, data.Emax
    quad = SmoothConstraint(
        value=lambda x: float(x @ e_mat @ x) - emax,
        gradient=lambda x: 2.0 * (e_mat @ x),
        smoothness=2.0 * float(np.max(np.linalg.eigvalsh(e_mat))),
    )
    return ConstraintSet(
        n_bounds=d,
        W=np.stack([ones, -ones, data.r]),
        c=np.array([-1.0, 1.0, -data.Rmax]),
        smooth=(quad,),
    )


def rap_generate(d, seed=42):
    """Seeded quadratic resource-allocation instance in dimension d.

    Budget and risk bounds are calibrated so the uniform start sits exactly on
    the budget, risk, and sum constraints.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    rng = np.random.default_rng(seed)
    g1 = rng.standard_normal((d, 10))
    g2 = rng.standard_normal((d, 10))
    sigma = g1 @ g1.T + 5.0 * np.eye(d)
    e_mat = g2 @ g2.T + 10.0 * np.eye(d)
    sigma_bar = float(np.mean(np.sqrt(np.diag(sigma))))
    u = rng.random(d)
    a = sigma_bar * u
    r = np.abs(rng.standard_normal(d)) + 0.1
    rmax = float(np.mean(r))
    emax = float(np.ones(d) @ e_mat @ np.ones(d)) / d**2
    data = RapData(Sigma=sigma, a=a, r=r, E=e_mat, Rmax=rmax, Emax=emax)

    eigs = np.linalg.eigvalsh(sigma)
    mu = float(eigs[0])
    ell_f = float(eigs[-1])

    def value_f(x, sigma=sigma, a=a):
        return 0.5 * float(x @ sigma @ x) + float(a @ x)

    def grad_f(x, sigma=sigma, a=a):
        return sigma @ x + a

    x0 = np.full(d, 1.0 / d)
    return MinProblem(
        value_f=value_f,
        grad_f=grad_f,
        mu=mu,
        ell_f=ell_f,
        constraints=rap_constraints(data),
        x0=x0,
        dim=d,
        data=data,
    )


def rap_unconstrained_min(data):
    """Global minimizer of the quadratic objective over all of R^d."""
    try:
        chol = np.linalg.cholesky(data.Sigma)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("Sigma factorization failed") from exc
    y = np.linalg.solve(chol, -data.a)
    x_star = np.linalg.solve(chol.T, y)
    f_star = 0.5 * float(data.a @ x_star)  # equals -a'Sigma^{-1}a / 2
    return x_star, f_star


def hbg_operator(beta):
    def op_F(x, beta=beta):
        d = x.size // 2
        x1, x2 = x[:d], x[d:]
        top = 2.0 * beta * x1 + (1.0 - beta) * x2
        bot = -(1.0 - beta) * x1 + 2.0 * beta * x2
        return np.concatenate([top, bot])

    return op_F


def hbg_constraints(d):
    """Nonnegativity plus the four block-sum rows of the product of simplices."""
    top = np.concatenate([np.ones(d), np.zeros(d)])
    bot = np.concatenate([np.zeros(d), np.ones(d)])
    return ConstraintSet(
        n_bounds=2 * d,
        W=np.stack([top, -top, bot, -bot]),
        c=np.array([-1.0, 1.0, -1.0, 1.0]),
    )


def hbg_instantiate(d, beta, seed=42):
    """Bilinear two-player game on a product of unit simplices."""
    if not 0 < beta < 1:
        raise ValueError("need beta in (0, 1)")
    if d < 1:
        raise ValueError("need d >= 1")
    rng = np.random.default_rng(seed)
    while True:
        u = rng.random(2 * d)
        s1, s2 = float(np.sum(u[:d])), float(np.sum(u[d:]))
        if s1 > 1e-12 and s2 > 1e-12:
            break
    x0 = np.concatenate([u[:d] / s1, u[d:] / s2])
    ell_f_op = float(np.sqrt(5.0 * beta**2 - 2.0 * beta + 1.0))
    return VIProblem(
        op_F=hbg_operator(beta),
        mu=2.0 * beta,
        ell_F=ell_f_op,
        B=0.0,
        constraints=hbg_constraints(d),
        x0=x0,
        diameter_D=2.0,
        dim=2 * d,
        simplex_blocks=(d, d),
    )


def max_violation_of(values):
    """max(0, max_i g_i(x)) from the row values g(x)."""
    return float(values.max(initial=0.0))


def violated_set(values):
    """Indices i with g_i(x) strictly positive, in index order, from values = g(x)."""
    return np.flatnonzero(values > 0.0)


def build_polytope(constraints, x, alpha, values, violated):
    """Rows grad g_i(x) v <= -alpha g_i(x) over violated = violated_set(values = g(x)).

    The violated bound rows become floors on their coordinates (bound_idx) and
    the others the general rows (g, h). x must be finite; the solvers check
    each iterate. A non-finite general row is rejected by VelocityPolytope.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    s = int(np.searchsorted(violated, constraints.n_bounds))
    rhs = -alpha * values[violated]
    return VelocityPolytope(
        constraints.gradients(x, violated[s:]), rhs[s:],
        bound_idx=violated[:s], floor=-rhs[:s],
    )
