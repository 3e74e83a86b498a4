"""The exact projection oracle on polytopes whose projection has a closed form."""

import numpy as np
import pytest

from cgm.qp import Infeasible, VelocityPolytope
from exact_oracle import exact_projection


def test_single_halfspace():
    # -c = (1, 1) violates v_0 + 2 v_1 <= 1 by 2; lam = 2/5 gives v = (3/5, 1/5)
    polytope = VelocityPolytope.from_rows(np.array([[1.0, 2.0]]), np.array([1.0]))
    v = exact_projection(np.array([-1.0, -1.0]), polytope)
    assert v.tolist() == [3 / 5, 1 / 5]  # each entry the correctly rounded quotient
    # a feasible -c is its own projection
    assert exact_projection(np.array([1.0, 1.0]), polytope).tolist() == [-1.0, -1.0]


def test_box_corner():
    # floors (0.1, -0.3) above -c = (-1, -2) in both coordinates, and a slack general row
    polytope = VelocityPolytope.from_rows(
        np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]), np.array([-0.1, 0.3, 5.0]),
        bound_idx=[0, 1],
    )
    assert exact_projection(np.array([1.0, 2.0]), polytope).tolist() == [0.1, -0.3]


def test_duplicated_row():
    # the pair of equal rows is dependent and is skipped; either row alone gives v
    rows = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
    polytope = VelocityPolytope.from_rows(rows, np.array([0.0, 0.0, 2.0]))
    assert exact_projection(np.array([-1.0, -3.0]), polytope).tolist() == [-1.0, 1.0]


def test_empty_pair():
    # v_0 <= -1 and -v_0 <= -1 clash
    polytope = VelocityPolytope.from_rows(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))
    with pytest.raises(Infeasible):
        exact_projection(np.array([0.0]), polytope)
    with pytest.raises(Infeasible):
        exact_projection(np.array([0.0]), polytope, dual=np.array([1.0, 1.0]))


def test_a_wrong_support_falls_back_to_the_search():
    # the hint names the slack row; the search still finds the active one
    polytope = VelocityPolytope.from_rows(np.eye(2), np.array([0.0, 5.0]))
    for dual in ([0.0, 1.0], [1.0, 1.0], [0.0, 0.0]):
        v = exact_projection(np.array([-1.0, 0.0]), polytope, dual=np.array(dual))
        assert v.tolist() == [0.0, 0.0]
