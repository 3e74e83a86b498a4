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

from .problems import row_norms


class UnsupportedConstraintSet(Exception):
    """Baselines only handle problems whose feasible set is simplex blocks."""


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
        flat = x.ravel()
        if not (math.isfinite(flat.dot(flat)) or np.isfinite(x).all()):  # x read only on overflow
            raise ValueError("x must be finite")
        if self._mask is None:
            rows = x.reshape(self._last.size, -1)
        else:
            rows = np.full(self._mask.shape, -np.inf)
            rows[self._mask] = x.ravel()
        u = np.sort(rows, axis=1)[:, ::-1]
        # (cumsum - 1) / k at every k; the threshold tau is its entry at the last k that passes
        thresholds = u.cumsum(axis=1)
        thresholds -= 1.0
        thresholds /= self._divisors
        from_end = (u > thresholds)[:, ::-1].argmax(axis=1)
        out = rows - thresholds.take(self._last - from_end)[:, None]
        np.maximum(out, 0.0, out=out)
        return (out if self._mask is None else out[self._mask]).reshape(x.shape)


@dataclass
class BaselineTrace:
    xs: np.ndarray
    rel_err: np.ndarray
    wall_s: np.ndarray

    @property
    def horizon(self):
        return self.rel_err.size


def gda_eg_run(problem, eta_gda, eta_eg, T, x_star):
    """(GDA trace, EG trace), stepped in lockstep over one (2, n) stack [x_gda, x_eg].

    GDA's step and EG's probe are both Proj(x - eta F(x)), so one op_F call and
    one projection of the stack serve them; EG's full step is one more call on
    its row. op_F must map each row of a stack as it maps that row alone; the
    rest acts per element or per block, so each row is bitwise its method run
    alone. The traces are views into one (T+1, 2, n) buffer; rel_err is each
    iterate's distance to the solution x_star over |x_star|. GDA's wall time
    is the shared half step, EG's adds its full step.
    """
    if problem.simplex_blocks is None:
        raise UnsupportedConstraintSet("problem feasible set is not simplex blocks")
    blocks = tuple(problem.simplex_blocks)
    etas = np.array([[eta_gda], [eta_eg]])
    proj = SimplexProjector(block_sizes=blocks * 2)
    proj_eg = SimplexProjector(block_sizes=blocks)
    xs = np.empty((T + 1, 2, problem.dim))
    xs[0] = problem.x0
    eg_xs, eg_step, op_F = xs[:, 1:], etas[1:], problem.op_F
    stamps = []
    for t in range(T):
        tic = time.perf_counter()
        xs[t + 1] = proj(xs[t] - etas * op_F(xs[t]))
        half = time.perf_counter()
        eg_xs[t + 1] = proj_eg(eg_xs[t] - eg_step * op_F(eg_xs[t + 1]))
        stamps.append((tic, half, time.perf_counter()))
    tic, half, end = np.reshape(stamps, (T, 3)).T
    ref_norm = float(np.linalg.norm(x_star))
    return tuple(
        BaselineTrace(xs=xs[:, i], rel_err=row_norms(xs[1:, i], x_star) / ref_norm, wall_s=wall)
        for i, wall in enumerate((half - tic, end - tic))
    )
