"""The product rule of the cgm package: 1-D and 2-D products are `a.dot(b)`,
stacked per-row products are `np.matmul` by name, and the two spellings give
the same bits on every operand kind the solve path uses."""

import ast
from pathlib import Path

import numpy as np
import pytest

import cgm

PACKAGE = Path(cgm.__file__).resolve().parent
# the stacked per-row products: `.dot` on a 3-D operand is a tensordot, not a stack
MATMUL_CALLERS = {"row_dots", "ConstraintSet.values", "rap_generate.value_f"}


def _products(path):
    """(lines of `@` operators, {"matmul" or "dot": qualnames of the functions that
    name it, "" for module level}) of a module."""
    operators, uses = [], {"matmul": set(), "dot": set()}

    def visit(node, scope):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            operators.append(node.lineno)
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name in uses:  # np.matmul, a.dot, or either imported by name
            uses[name].add(scope)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return operators, uses


def test_products_follow_the_one_product_rule():
    # `@` goes through the matmul gufunc, which costs about twice what ndarray.dot
    # does for the same BLAS call on the solve path's small operands
    matmul_callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        operators, uses = _products(path)
        assert not operators, f"{path.name}: `@` on lines {operators}; use a.dot(b)"
        matmul_callers |= uses["matmul"]
        assert not MATMUL_CALLERS & uses["dot"], f"{path.name}: .dot on a stacked product"
    assert matmul_callers == MATMUL_CALLERS


def _operands(rng, shape):
    """Entries of random sign and magnitudes log-uniform in [1e-8, 1e8]."""
    return rng.choice((-1.0, 1.0), size=shape) * 10.0 ** rng.uniform(-8.0, 8.0, size=shape)


def _assert_same_bits(a, b):
    expected = np.matmul(a, b)
    got = a.dot(b)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes(), (a.shape, b.shape)


@pytest.mark.parametrize("n", [1, 2, 50, 100, 200, 201])
def test_dot_gives_the_bits_of_matmul(n):
    # a numpy or BLAS build on which the two spellings part would move every
    # trajectory; this fails first. k = 10 is rap_generate's g1 g1'.
    rng = np.random.default_rng(n)
    for _ in range(3):
        x, y = _operands(rng, n), _operands(rng, n)
        square = _operands(rng, (n, n))
        _assert_same_bits(x, y)  # ddot: stationarity, value, gap
        _assert_same_bits(square, x)  # gemv: Q diff, Sigma x
        _assert_same_bits(x, square)  # diff Q, x' Sigma
        for rows in (1, 3, 128):  # gemm: grad_norm_bound's row blocks times Q
            _assert_same_bits(_operands(rng, (rows, n)), square)
        for k in (0, 1, 2, 3, 10):
            g, other, mu = _operands(rng, (k, n)), _operands(rng, (k, n)), _operands(rng, k)
            _assert_same_bits(g, x)  # g u, g v
            _assert_same_bits(g.T, mu)  # g' mu
            _assert_same_bits(g.T.copy(), mu)  # the fallback's q d
            _assert_same_bits(g.T.copy().T, x)  # the fallback's q' a_p
            _assert_same_bits(g, other.T)  # (g_A * free) g_A'
            _assert_same_bits(g, g.T)  # syrk: the Gram matrix g g'
            _assert_same_bits(g.T, other)  # the reference's J' (W J)
