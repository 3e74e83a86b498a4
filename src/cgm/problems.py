"""Problem abstractions and the two built-in experiment families.

Instances are generated from a seeded numpy Generator so that repeated calls
with the same seed are bit-identical. A problem's constraints are one
ConstraintSet: nonnegativity bounds, an affine block and a few quadratic rows,
evaluated as arrays (all row values at once, gradients of selected rows).
"""

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

ROW_BLOCK = 128  # rows per block of a trajectory-wide column


class SingularMatrix(Exception):
    pass


def by_row_blocks(fn, xs):
    """fn(block) over xs in blocks of ROW_BLOCK rows, one value per row.

    Blocks bound the temporaries of a trajectory-wide column: a (T+1, n)
    temporary above glibc's mmap threshold is mapped and faulted in afresh on
    every call, or not, depending on the heap the process left behind.
    """
    out = np.empty(len(xs))
    for start in range(0, len(xs), ROW_BLOCK):
        out[start : start + ROW_BLOCK] = fn(xs[start : start + ROW_BLOCK])
    return out


def row_dots(a, b):
    """a[..., i, :] @ b[..., i, :] per row, bitwise the 1-D product of the two rows.

    A stacked (1, n) @ (n, 1) matmul takes the 1-D dot path; einsum does not
    and differs in the last bit.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def row_norms(xs, center=None):
    """||x - center|| (||x|| without a center) for every row x of xs, in row blocks,
    each bitwise np.linalg.norm of that row alone: sqrt of its 1-D dot."""

    def norms(block):
        diff = block if center is None else block - center
        return np.sqrt(row_dots(diff, diff))

    return by_row_blocks(norms, xs)


@dataclass(frozen=True)
class QuadraticRow:
    """Row (x - center)' Q (x - center) - r <= 0, where Q = None means the identity.

    center is read-only. A row at the origin computes on x itself, without the
    copy x - center: x - 0.0 is x in every float, so the values are bitwise equal.
    """

    center: np.ndarray
    r: float
    Q: Optional[np.ndarray] = None
    smoothness: float = field(init=False, default=2.0)  # 2 lambda_max(Q), set once
    _at_origin: bool = field(init=False, default=False, repr=False, compare=False)

    def __post_init__(self):
        center = np.array(self.center, dtype=float)
        center.flags.writeable = False
        object.__setattr__(self, "center", center)
        if center.ndim != 1 or not np.all(np.isfinite(center)) or not 0 < self.r < np.inf:
            raise ValueError("need a finite 1-D center and a finite r > 0")
        # +0.0 only: x - (-0.0) turns a -0.0 entry of x into +0.0
        object.__setattr__(self, "_at_origin", not (center.any() or np.signbit(center).any()))
        if self.Q is not None:
            if np.shape(self.Q) != (center.size, center.size):
                raise ValueError("Q must be (n, n) with n = center.size")
            if not np.all(np.isfinite(self.Q)):
                raise ValueError("Q must be finite")
            if not np.array_equal(self.Q, np.transpose(self.Q)):
                raise ValueError("Q must be symmetric")
            object.__setattr__(self, "smoothness", 2.0 * float(np.max(np.linalg.eigvalsh(self.Q))))

    def value(self, x):
        diff = x if self._at_origin else x - self.center
        return float(diff @ diff if self.Q is None else diff @ self.Q @ diff) - self.r

    def gradient(self, x):
        diff = x if self._at_origin else x - self.center
        return 2.0 * (diff if self.Q is None else self.Q @ diff)

    def grad_norm_bound(self, xs):
        """max ||gradient(x)|| over the rows x of xs, equal to the per-point loop."""

        def batched(block):
            # half the gradients (Q is symmetric, so a row's half is diff @ Q); x2 is exact
            diff = block if self._at_origin else block - self.center
            return 2.0 * row_norms(diff if self.Q is None else diff @ self.Q)

        return self.grad_norm_max(xs, by_row_blocks(batched, xs))

    def grad_norm_max(self, xs, norms):
        """max ||gradient(x)|| over the rows x of xs, given their norms to roundoff.

        A batched norm can differ from the per-point norm in its last bit, which
        moved the maximum on RAP d=50 seed 7, T=2000; so the points within 1e-12
        of the largest of `norms` are re-evaluated one at a time."""
        near = np.flatnonzero(norms >= (1.0 - 1e-12) * norms.max(initial=0.0))
        grads = (self.gradient(xs[i]) for i in near)
        return max((math.sqrt(g.dot(g)) for g in grads), default=0.0)  # np.linalg.norm's 1-D rule


@dataclass(frozen=True)
class MinProblem:
    """min f(x) over the constraints; value_f maps points (..., n) to (...), each
    row of a stack as that row alone, as VIProblem.op_F maps its points."""

    value_f: Callable[[np.ndarray], np.ndarray]
    grad_f: Callable[[np.ndarray], np.ndarray]
    mu: float
    ell_f: float
    constraints: "ConstraintSet"
    x0: np.ndarray
    dim: int
    data: Optional[object] = None

    def __post_init__(self):
        if not 0 < self.mu <= self.ell_f < math.inf:  # NaN fails
            raise ValueError("need finite 0 < mu <= ell_f")


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
        if not 0 < self.mu <= self.ell_F < math.inf:  # NaN fails
            raise ValueError("need finite 0 < mu <= ell_F")
        if not (0 <= self.B < math.inf and 0 < self.diameter_D < math.inf):
            raise ValueError("need finite B >= 0 and diameter_D > 0")
        blocks = self.simplex_blocks
        if blocks is not None and not (sum(blocks) == self.dim and all(
                isinstance(n, (int, np.integer)) and n > 0 for n in blocks)):
            raise ValueError("simplex_blocks must be positive integers that sum to dim")


@dataclass(frozen=True)
class RapData:
    Sigma: np.ndarray
    a: np.ndarray
    r: np.ndarray
    E: np.ndarray
    Rmax: float
    Emax: float

    def __post_init__(self):
        if not all(np.array_equal(m, np.transpose(m)) for m in (self.Sigma, self.E)):
            raise ValueError("Sigma and E must be symmetric")  # cholesky reads one triangle
        np.linalg.cholesky(self.Sigma)  # raises if not positive definite
        if np.min(np.linalg.eigvalsh(self.E)) < -1e-10:
            raise ValueError("E must be positive semidefinite")
        if not (0 < self.Rmax < math.inf and 0 < self.Emax < math.inf):  # NaN fails
            raise ValueError("Rmax and Emax must be finite and positive")


@dataclass(frozen=True)
class ConstraintSet:
    """Rows g_i(x) <= 0 in index order: bounds, an affine block, quadratic rows.

    For x in R^n with n = W.shape[1], row i < n_bounds is -x_i, the next
    W.shape[0] rows are w_j . x + c_j, and the last rows are the QuadraticRows
    in `smooth`. The affine rows are one stacked (1, n) @ (n, 1) product, each
    row's own dot routine (gemv W @ x is not), so values(x) matches the per-row
    arithmetic bit for bit and no row on the feasibility boundary flips.
    W and c must be finite. An affine row's gradient does not depend on x, so
    _polytopes keeps the first velocity polytope cgm_min.build_polytope made
    on each distinct set of violated general rows that holds no quadratic
    row, keyed by their indices.
    """

    n_bounds: int
    W: np.ndarray
    c: np.ndarray
    smooth: tuple = ()
    _affine: np.ndarray = field(init=False, repr=False, compare=False)  # W[:, None, :]
    _polytopes: dict = field(init=False, repr=False, compare=False)
    # (largest gradient norm of the bound and affine rows,), or () with neither
    _fixed_norm: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        W = np.array(self.W, dtype=float)
        c = np.array(self.c, dtype=float)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "smooth", tuple(self.smooth))
        if W.ndim != 2 or c.shape != W.shape[:1] or not 0 <= self.n_bounds <= W.shape[1]:
            raise ValueError("need W of shape (p, n), c of shape (p,), n_bounds <= n")
        if not (np.isfinite(W).all() and np.isfinite(c).all()):
            raise ValueError("W and c must be finite")
        object.__setattr__(self, "_affine", W[:, None, :])
        object.__setattr__(self, "_polytopes", {})
        norms = [1.0] if self.n_bounds else []
        norms += [float(np.linalg.norm(w)) for w in W]
        object.__setattr__(self, "_fixed_norm", (max(norms),) if norms else ())
        if any(g.center.size != W.shape[1] for g in self.smooth):
            raise ValueError("need every quadratic row's center of size n = W.shape[1]")

    def __len__(self):
        return self.n_bounds + self.c.size + len(self.smooth)

    @property
    def smoothness(self):
        """Largest smoothness constant over all rows (0 for bounds and affine rows)."""
        return max((g.smoothness for g in self.smooth), default=0.0)

    def append(self, row):
        """A new set with the QuadraticRow `row` added last."""
        return replace(self, smooth=self.smooth + (row,))

    def values(self, x):
        """All row values g_i(x) as an (m,) array."""
        out = np.empty(len(self))
        k, p = self.n_bounds, self.c.size
        np.negative(x[:k], out=out[:k])
        np.add(np.matmul(self._affine, x[:, None])[:, 0, 0], self.c, out=out[k : k + p])
        for j, g in enumerate(self.smooth, start=k + p):
            out[j] = g.value(x)
        return out

    def gradients(self, x, idx):
        """Gradients of the rows idx at x as a (len(idx), n) array.

        Raises ValueError, naming the row, for a row outside [0, len(self)).
        """
        k, p, m = self.n_bounds, self.c.size, len(self)
        idx = np.asarray(idx, dtype=int)
        out = np.zeros((idx.size, self.W.shape[1]))
        for r, i in enumerate(idx.tolist()):
            if not 0 <= i < m:
                raise ValueError(f"row {i} is not in [0, {m})")
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
        """Largest row gradient norm over the points xs; fixed rows were normed at construction."""
        return max((*self._fixed_norm, *(g.grad_norm_bound(xs) for g in self.smooth)), default=0.0)


def rap_constraints(data):
    """The d + 4 rows of the resource allocation feasible set."""
    d = data.a.size
    ones = np.ones(d)
    return ConstraintSet(
        n_bounds=d,
        W=np.stack([ones, -ones, data.r]),
        c=np.array([-1.0, 1.0, -data.Rmax]),
        smooth=(QuadraticRow(np.zeros(d), data.Emax, data.E),),
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
        # one (1, d) @ (d, d) and one (1, d) @ (d, 1) product per point, the
        # per-point arithmetic on a stack too (gemm xs @ sigma is not)
        row = x[..., None, :]
        return 0.5 * (row @ sigma @ x[..., :, None])[..., 0, 0] + (row @ a[:, None])[..., 0, 0]

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
    """F(x) = (2 beta x1 + (1 - beta) x2, -(1 - beta) x1 + 2 beta x2) on points (..., 2d)."""
    two_beta = 2.0 * beta
    mix = np.array([[1.0 - beta], [-(1.0 - beta)]])  # the weights of the swapped blocks

    def op_F(x):
        blocks = x.reshape(*x.shape[:-1], 2, x.shape[-1] // 2)
        return (two_beta * blocks + mix * blocks[..., ::-1, :]).reshape(x.shape)

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
    return (values > 0.0).nonzero()[0]  # np.flatnonzero's intp array, without its wrapper

