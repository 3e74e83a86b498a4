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

from .problems import ROW_BLOCK, row_norms


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
    """One method's run: rel_err and wall_s per step, and its final iterate x."""

    rel_err: np.ndarray
    wall_s: np.ndarray
    x: np.ndarray

    @property
    def horizon(self):
        return self.rel_err.size


def _lockstep(problem, eta_gda, eta_eg, T):
    """Step GDA and EG in lockstep over one (2, n) stack [x_gda, x_eg], by blocks.

    GDA's step and EG's probe are both Proj(x - eta F(x)), so one op_F call and
    one projection of the stack serve them; EG's full step is one more call on
    its row. op_F must map each row of a stack as it maps that row alone; the
    rest acts per element or per block, so each row is bitwise its method run
    alone. The iterates live in one (ROW_BLOCK + 1, 2, n) window: each block of
    at most ROW_BLOCK steps is yielded as (rows, stamps), rows a view of the
    window whose row 0 is the iterate before the block and stamps a
    (tic, half, end) perf_counter tuple per step. The view is overwritten once
    the loop resumes.
    """
    blocks = tuple(problem.simplex_blocks)
    etas = np.array([[eta_gda], [eta_eg]])
    proj = SimplexProjector(block_sizes=blocks * 2)
    proj_eg = SimplexProjector(block_sizes=blocks)
    window = np.empty((ROW_BLOCK + 1, 2, problem.dim))
    window[0] = problem.x0
    eg_rows, eg_step, op_F = window[:, 1:], etas[1:], problem.op_F
    for start in range(0, T, ROW_BLOCK):
        steps = min(ROW_BLOCK, T - start)
        stamps = []
        for k in range(steps):
            tic = time.perf_counter()
            window[k + 1] = proj(window[k] - etas * op_F(window[k]))
            half = time.perf_counter()
            eg_rows[k + 1] = proj_eg(eg_rows[k] - eg_step * op_F(eg_rows[k + 1]))
            stamps.append((tic, half, time.perf_counter()))
        yield window[: steps + 1], stamps
        window[0] = window[steps]


def gda_eg_run(problem, eta_gda, eta_eg, T, x_star):
    """(GDA trace, EG trace) of one lockstep run (_lockstep) over T steps.

    rel_err is each iterate's distance to the solution x_star over |x_star|,
    taken per block as the loop yields it, so no more than a ROW_BLOCK window
    of iterates is ever held; each value is its row's own norm, so the column
    is bitwise a pass over the whole trajectory. GDA's wall time is the shared
    half step, EG's adds its full step. x is each method's last iterate (x0 at
    T=0). x_star must be finite, nonzero, of shape (n,) and of a finite norm;
    it is checked before the first step.
    """
    if problem.simplex_blocks is None:
        raise UnsupportedConstraintSet("problem feasible set is not simplex blocks")
    x_star = np.asarray(x_star, dtype=float)
    if x_star.shape != (problem.dim,):
        raise ValueError(f"x_star must have shape ({problem.dim},), got {x_star.shape}")
    if not np.isfinite(x_star).all():
        raise ValueError("x_star must be finite")
    with np.errstate(over="ignore"):  # an overflowing norm is rejected below
        ref_norm = float(np.linalg.norm(x_star))
    if not 0.0 < ref_norm < math.inf:
        raise ValueError("x_star must be nonzero, with a finite norm")
    rel_err, wall_s = np.empty((2, T)), np.empty((2, T))
    last = np.array([problem.x0, problem.x0], dtype=float)
    blocks = zip(range(0, T, ROW_BLOCK), _lockstep(problem, eta_gda, eta_eg, T))
    for start, (rows, stamps) in blocks:
        block = slice(start, start + len(stamps))
        for i in (0, 1):
            rel_err[i, block] = row_norms(rows[1:, i], x_star) / ref_norm
        tic, half, end = np.reshape(stamps, (-1, 3)).T
        wall_s[:, block] = half - tic, end - tic
        last[:] = rows[-1]
    return tuple(BaselineTrace(rel_err=rel_err[i], wall_s=wall_s[i], x=last[i]) for i in (0, 1))
