"""Exact least-distance projection onto a VelocityPolytope: the tests' oracle.

The oracle projects -c onto the polytope's kept rows a v <= b, the problem
project_velocity solves, in exact arithmetic. Every float is a dyadic
rational, so a, b and c scale to integers by one power of two D. The
projection is unique, and by Caratheodory its KKT multipliers can be carried
by linearly independent active rows. For such a subset S, v = -c - a_S' lam
with a_S v = b_S gives the Gram system (a_S a_S') lam = -a_S c - b_S, which
fraction-free elimination (Bareiss) solves in integers as lam = N / det, with
det > 0 exactly when the rows of S are independent. S certifies when N >= 0
and every row holds exactly at its v; the first subset that certifies is the
projection, so no tolerance and no tie-break enter. When none does, the
polytope is empty.

The module also holds the tests' dense view of a polytope: from_rows builds
one from the rows a v <= b, and kept_rows reads its non-degenerate rows back.
"""

from itertools import chain, combinations

import numpy as np

from cgm.qp import Infeasible, VelocityPolytope


def from_rows(a, b, bound_idx=()):
    """The polytope a v <= b whose first s rows are -e_{bound_idx[j]}, j < s."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    bounds = np.asarray(bound_idx, dtype=int)
    s = bounds.size
    # the constructor checks the general rows, the bound coordinates and the floors
    polytope = VelocityPolytope(a[s:], b[s:], bounds, -b[:s])
    if not np.array_equal(polytope.matrix()[0], a):
        raise ValueError("bound rows must be -e_i for distinct i in bound_idx")
    return polytope


def kept_rows(polytope):
    """(indices, a, b) of the non-degenerate dense rows: all bound rows, then kept."""
    keep = np.flatnonzero(np.concatenate((np.ones(polytope.bound_idx.size, bool), polytope.kept)))
    a, b = polytope.matrix()
    return keep, a[keep], b[keep]


def _solve(gram, rhs):
    """(det, det * x) for gram x = rhs, fraction-free; None when gram is singular.

    Each pivot is a leading principal minor, which for a Gram matrix is zero
    only when its rows are dependent, so no pivoting is needed.
    """
    k = len(rhs)
    m = [row + [r] for row, r in zip(gram, rhs)]
    det = 1
    for p in range(k):
        pivot = m[p][p]
        if pivot == 0:
            return None
        for i in range(p + 1, k):
            for j in range(p + 1, k + 1):
                m[i][j] = (m[i][j] * pivot - m[i][p] * m[p][j]) // det
        det = pivot
    x = [0] * k
    for i in reversed(range(k)):
        x[i], rest = divmod(det * m[i][k] - sum(m[i][j] * x[j] for j in range(i + 1, k)), m[i][i])
        assert rest == 0  # det * x is integral by Cramer's rule
    return det, x


class _ExactRows:
    """The kept rows and the target as integers over one denominator, with their products."""

    def __init__(self, target, polytope):
        keep, a, b = kept_rows(polytope)
        c = np.asarray(target, dtype=float)
        ratios = [float(x).as_integer_ratio() for x in chain(a.ravel(), b, c)]
        self.denominator = max(q for _, q in ratios)
        ints = [p * (self.denominator // q) for p, q in ratios]
        m, n = a.shape
        self.keep, self.n = keep, n
        self.rows = [ints[i * n:(i + 1) * n] for i in range(m)]
        self.c = ints[m * n + m:]
        # with the integer rows A = D a and B = D b, a v <= b reads A V <= D B for V = D v
        self.limit = [self.denominator * x for x in ints[m * n:m * n + m]]
        self.gram = [[sum(map(int.__mul__, r, s)) for s in self.rows] for r in self.rows]
        self.rows_c = [sum(map(int.__mul__, r, self.c)) for r in self.rows]

    def vertex(self, subset):
        """(det, N) of subset's certified KKT point V = -C - rows_S' N / det, else None."""
        solved = _solve([[self.gram[i][j] for j in subset] for i in subset],
                        [-self.rows_c[i] - self.limit[i] for i in subset])
        if solved is None or min(solved[1], default=0) < 0:
            return None
        det, mult = solved
        for g, rc, limit in zip(self.gram, self.rows_c, self.limit):
            if -det * rc - sum(g[j] * x for j, x in zip(subset, mult)) > det * limit:
                return None
        return det, mult

    def point(self, subset, det, mult):
        """v = V / D rounded to floats, each entry one correctly rounded division."""
        scaled = [-det * x for x in self.c]
        for i, x in zip(subset, mult):
            scaled = [p - x * r for p, r in zip(scaled, self.rows[i])]
        return np.array([p / (det * self.denominator) for p in scaled])


def exact_projection(target, polytope, dual=None):
    """The projection of -target onto the polytope, rounded to floats; Infeasible when empty.

    dual, when given, is a solver's multipliers over the dense rows (bound rows
    first); its support, the rows with dual > 0, is checked first, so a right
    answer costs one exact solve. Every other subset of independent rows is
    then tried, smallest first.
    """
    rows = _ExactRows(target, polytope)
    candidates = (combinations(range(len(rows.rows)), size)
                  for size in range(min(len(rows.rows), rows.n) + 1))
    if dual is not None:
        support = np.flatnonzero(np.asarray(dual) > 0)
        if np.isin(support, rows.keep).all():
            hint = tuple(np.searchsorted(rows.keep, support).tolist())
            candidates = chain([[hint]], candidates)
    for subset in chain.from_iterable(candidates):
        found = rows.vertex(subset)
        if found is not None:
            return rows.point(subset, *found)
    raise Infeasible("no subset of independent rows has an exact KKT point")
