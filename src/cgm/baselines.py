"""Projection-based baselines on a product of unit simplices.

Projected gradient descent-ascent and the extragradient method, both keeping
every iterate exactly feasible via sort-and-threshold simplex projection.
"""

import time
from dataclasses import dataclass

import numpy as np


class UnsupportedConstraintSet(Exception):
    """Baselines only handle problems whose feasible set is simplex blocks."""


def project_simplex(y):
    """Euclidean projection of y onto {x >= 0, sum(x) = 1} by sort and threshold."""
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    u = np.sort(y)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u > (css - 1.0) / np.arange(1.0, y.size + 1.0))[0][-1]
    tau = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(y - tau, 0.0)


@dataclass(frozen=True)
class SimplexProjector:
    """Blockwise projection onto a product of unit simplices."""

    block_sizes: tuple

    def __call__(self, x):
        out = np.empty_like(x, dtype=float)
        start = 0
        for size in self.block_sizes:
            out[start : start + size] = project_simplex(x[start : start + size])
            start += size
        return out


@dataclass
class BaselineTrace:
    xs: np.ndarray
    rel_err: np.ndarray
    wall_s: np.ndarray

    @property
    def horizon(self):
        return self.rel_err.size


def _projector_for(problem):
    if problem.simplex_blocks is None:
        raise UnsupportedConstraintSet("problem feasible set is not simplex blocks")
    return SimplexProjector(block_sizes=tuple(problem.simplex_blocks))


def _analytic_solution(problem):
    # uniform point of each simplex block (the bilinear game's equilibrium)
    parts = [np.full(size, 1.0 / size) for size in problem.simplex_blocks]
    return np.concatenate(parts)


def _run(problem, T, step_fn, x_star):
    proj = _projector_for(problem)
    if x_star is None:
        x_star = _analytic_solution(problem)
    n = problem.dim
    xs = np.empty((T + 1, n))
    rel = np.empty(T)
    wall = np.empty(T)
    x = np.array(problem.x0, dtype=float)
    xs[0] = x
    ref_norm = float(np.linalg.norm(x_star))
    for t in range(T):
        tic = time.perf_counter()
        x = step_fn(x, proj)
        wall[t] = time.perf_counter() - tic
        xs[t + 1] = x
        rel[t] = float(np.linalg.norm(x - x_star)) / ref_norm
    return BaselineTrace(xs=xs, rel_err=rel, wall_s=wall)


def gda_run(problem, eta, T, x_star=None):
    """Projected descent-ascent: x <- Proj(x - eta F(x))."""

    def step(x, proj):
        return proj(x - eta * problem.op_F(x))

    return _run(problem, T, step, x_star)


def eg_run(problem, eta, T, x_star=None):
    """Extragradient: a half step probes F, the full step uses the probe."""

    def step(x, proj):
        mid = proj(x - eta * problem.op_F(x))
        return proj(x - eta * problem.op_F(mid))

    return _run(problem, T, step, x_star)
