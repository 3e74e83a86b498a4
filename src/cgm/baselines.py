"""Projection-based baselines on a product of unit simplices.

Projected gradient descent-ascent and the extragradient method, both keeping
every iterate exactly feasible via sort-and-threshold simplex projection,
which projects all blocks of a point with one sort.
"""

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


class UnsupportedConstraintSet(Exception):
    """Baselines only handle problems whose feasible set is simplex blocks."""


def _project_rows(rows):
    """Project each row of a (blocks, width) array onto the unit simplex by sort and threshold.

    Entries of -inf pad a short row: they sort last, never pass the threshold
    and come out 0, so every real entry is bitwise what its own row would give.
    """
    u = np.sort(rows, axis=1)[:, ::-1]
    blocks, width = rows.shape
    # (cumsum - 1) / k at every k; the threshold tau is its entry at the last k that passes
    thresholds = (u.cumsum(axis=1) - 1.0) / np.arange(1.0, width + 1.0)
    rho = width - 1 - (u > thresholds)[:, ::-1].argmax(axis=1)
    out = rows - thresholds[np.arange(blocks), rho][:, None]
    return np.maximum(out, 0.0, out=out)


def project_simplex(y):
    """Euclidean projection of y onto {x >= 0, sum(x) = 1} by sort and threshold."""
    y = np.asarray(y, dtype=float)
    return SimplexProjector(block_sizes=(y.size,))(y)


@dataclass(frozen=True)
class SimplexProjector:
    """Projection onto a product of unit simplices, every block in one sort."""

    block_sizes: tuple
    _mask: Optional[np.ndarray] = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        sizes = np.asarray(self.block_sizes, dtype=int)
        if sizes.min() != sizes.max():
            # the (blocks, width) layout of unequal blocks: -inf fills the unmasked slots
            mask = np.arange(sizes.max()) < sizes[:, None]
            object.__setattr__(self, "_mask", mask)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if not np.isfinite(x).all():
            raise ValueError("x must be finite")
        if self._mask is None:
            return _project_rows(x.reshape(len(self.block_sizes), -1)).reshape(x.shape)
        rows = np.full(self._mask.shape, -np.inf)
        rows[self._mask] = x
        return _project_rows(rows)[self._mask]


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
        diff = x - x_star
        rel[t] = math.sqrt(float(diff @ diff)) / ref_norm  # bitwise np.linalg.norm
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
