"""Projection-based baselines on a product of unit simplices.

Projected gradient descent-ascent and the extragradient method, both keeping
every iterate exactly feasible via sort-and-threshold simplex projection,
which projects all blocks of a point with one sort.
"""

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .metrics import row_norms


class UnsupportedConstraintSet(Exception):
    """Baselines only handle problems whose feasible set is simplex blocks."""


def project_simplex(y):
    """Euclidean projection of y onto {x >= 0, sum(x) = 1} by sort and threshold."""
    y = np.asarray(y, dtype=float)
    return SimplexProjector(block_sizes=(y.size,))(y)


@dataclass(frozen=True)
class SimplexProjector:
    """Projection onto a product of unit simplices, every block in one sort.

    The blocks are the rows of a (blocks, width) array: a reshape when they are
    equal, else -inf fills the slots past each block's end. Padded entries sort
    last, never pass the threshold and come out 0, so every real entry is
    bitwise what its own block alone would give.
    """

    block_sizes: tuple
    _mask: Optional[np.ndarray] = field(init=False, repr=False, compare=False, default=None)
    _divisors: np.ndarray = field(init=False, repr=False, compare=False)
    _last: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = np.asarray(self.block_sizes, dtype=int)
        width = int(sizes.max())
        if sizes.min() != width:
            object.__setattr__(self, "_mask", np.arange(width) < sizes[:, None])
        object.__setattr__(self, "_divisors", np.arange(1.0, width + 1.0))
        # flat index of each row's last slot in the (blocks, width) layout
        object.__setattr__(self, "_last", np.arange(1, sizes.size + 1) * width - 1)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if not np.isfinite(x).all():
            raise ValueError("x must be finite")
        if self._mask is None:
            rows = x.reshape(self._last.size, -1)
        else:
            rows = np.full(self._mask.shape, -np.inf)
            rows[self._mask] = x
        u = np.sort(rows, axis=1)[:, ::-1]
        # (cumsum - 1) / k at every k; the threshold tau is its entry at the last k that passes
        thresholds = u.cumsum(axis=1)
        thresholds -= 1.0
        thresholds /= self._divisors
        from_end = (u > thresholds)[:, ::-1].argmax(axis=1)
        out = rows - thresholds.take(self._last - from_end)[:, None]
        np.maximum(out, 0.0, out=out)
        return out.reshape(x.shape) if self._mask is None else out[self._mask]


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
    wall = np.empty(T)
    x = np.array(problem.x0, dtype=float)
    xs[0] = x
    for t in range(T):
        tic = time.perf_counter()
        x = step_fn(x, proj)
        wall[t] = time.perf_counter() - tic
        xs[t + 1] = x
    rel = row_norms(xs[1:], x_star) / float(np.linalg.norm(x_star))
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
