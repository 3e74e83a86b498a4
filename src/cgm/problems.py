"""Problem abstractions and the two built-in experiment families.

Instances are generated from a seeded numpy Generator so that repeated calls
with the same seed are bit-identical. All constraints expose value/gradient
oracles plus a smoothness constant (0 for affine rows).
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .qp import HalfspaceRow, VelocityPolytope


class SingularMatrix(Exception):
    pass


@dataclass(frozen=True)
class SmoothConstraint:
    """One convex inequality g(x) <= 0 with value/gradient oracles."""

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    smoothness: float = 0.0


@dataclass(frozen=True)
class MinProblem:
    value_f: Callable[[np.ndarray], float]
    grad_f: Callable[[np.ndarray], np.ndarray]
    mu: float
    ell_f: float
    constraints: tuple
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
    constraints: tuple
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


def _coordinate_constraint(i):
    def value(x):
        return -x[i]

    def gradient(x):
        g = np.zeros(x.size)
        g[i] = -1.0
        return g

    return SmoothConstraint(value=value, gradient=gradient, smoothness=0.0)


def _affine_constraint(w, c):
    w = np.asarray(w, dtype=float)

    def value(x):
        return float(w @ x) + c

    def gradient(x):
        return w

    return SmoothConstraint(value=value, gradient=gradient, smoothness=0.0)


def rap_constraints(data):
    """The d + 4 rows of the resource allocation feasible set."""
    d = data.a.size
    rows = [_coordinate_constraint(i) for i in range(d)]
    ones = np.ones(d)
    rows.append(_affine_constraint(ones, -1.0))
    rows.append(_affine_constraint(-ones, 1.0))
    rows.append(_affine_constraint(data.r, -data.Rmax))

    e_mat = data.E
    smooth = 2.0 * float(np.max(np.linalg.eigvalsh(e_mat)))

    def quad_value(x, e_mat=e_mat, emax=data.Emax):
        return float(x @ e_mat @ x) - emax

    def quad_gradient(x, e_mat=e_mat):
        return 2.0 * (e_mat @ x)

    rows.append(SmoothConstraint(value=quad_value, gradient=quad_gradient, smoothness=smooth))
    return tuple(rows)


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
    rows = [_coordinate_constraint(i) for i in range(2 * d)]
    top = np.concatenate([np.ones(d), np.zeros(d)])
    bot = np.concatenate([np.zeros(d), np.ones(d)])
    rows.append(_affine_constraint(top, -1.0))
    rows.append(_affine_constraint(-top, 1.0))
    rows.append(_affine_constraint(bot, -1.0))
    rows.append(_affine_constraint(-bot, 1.0))
    return tuple(rows)


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


def violated_set(constraints, x):
    """Indices with g_i(x) strictly positive, with values, in index order."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    out = []
    for i, g in enumerate(constraints):
        gi = g.value(x)
        if gi > 0.0:
            out.append((i, gi))
    return out


def build_polytope(constraints, x, alpha):
    """One halfspace row (grad g_i(x), -alpha g_i(x)) per violated constraint."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    x = np.asarray(x, dtype=float)
    rows = []
    for i, gi in violated_set(constraints, x):
        rows.append(HalfspaceRow(normal=constraints[i].gradient(x), rhs=-alpha * gi))
    return VelocityPolytope(rows=tuple(rows), dimension=x.size)
