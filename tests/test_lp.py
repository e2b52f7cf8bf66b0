"""Exact feasibility solver, cross-checked against scipy on random instances."""

from fractions import Fraction

import numpy as np
import pytest

from qbisim.lp import as_fraction, combination_weights, solve_nonneg

F = Fraction


def test_as_fraction_snaps_floats():
    assert as_fraction(0.5) == F(1, 2)
    assert as_fraction(1 / 3) == F(1, 3)
    assert as_fraction(F(2, 7)) == F(2, 7)
    assert as_fraction(3) == F(3)


def test_simple_feasible():
    # x0 + x1 = 1, x0 - x1 = 0  ->  (1/2, 1/2)
    x = solve_nonneg([[F(1), F(1)], [F(1), F(-1)]], [F(1), F(0)])
    assert x == [F(1, 2), F(1, 2)]


def test_sign_constraint_bites():
    # x0 - x1 = 1 with x0 + x1 = 0 forces x1 = -1/2 < 0
    assert solve_nonneg([[F(1), F(-1)], [F(1), F(1)]], [F(1), F(0)]) is None


def test_inconsistent_system():
    assert solve_nonneg([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)]) is None


def test_redundant_rows_collapse():
    x = solve_nonneg([[F(1), F(1)], [F(2), F(2)], [F(3), F(3)]], [F(1), F(2), F(3)])
    assert x is not None and sum(x) == 1


def test_zero_columns():
    assert solve_nonneg([], []) == []
    assert solve_nonneg([[F(0)], [F(0)]], [F(0), F(0)]) == [F(0)]


def test_degenerate_cycling_guard():
    # classic degenerate instance; Bland's rule must terminate
    a = [
        [F(1, 4), F(-8), F(-1), F(9), F(1), F(0), F(0)],
        [F(1, 2), F(-12), F(-1, 2), F(3), F(0), F(1), F(0)],
        [F(0), F(0), F(1), F(0), F(0), F(0), F(1)],
    ]
    b = [F(0), F(0), F(1)]
    x = solve_nonneg(a, b)
    assert x is not None


def test_combination_weights_distribution_transport():
    # 1/2 * (point a) + 1/2 * (uniform a,b) = 3/4 a + 1/4 b... solve for it;
    # the "n" row normalises the weights
    cols = [{"a": 1, "n": 1}, {"a": F(1, 2), "b": F(1, 2), "n": 1}]
    target = {"a": F(3, 4), "b": F(1, 4), "n": 1}
    w = combination_weights(cols, target)
    assert w == [F(1, 2), F(1, 2)]


def test_combination_weights_infeasible():
    cols = [{"a": 1}, {"b": 1}]
    assert combination_weights(cols, {"c": 1}) is None


def test_matches_scipy_on_random_instances():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(99)
    agree = 0
    for _ in range(60):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        a = rng.integers(-3, 4, size=(m, n))
        if rng.random() < 0.5:
            # force feasibility by constructing b from a known solution
            x0 = rng.integers(0, 3, size=n)
            b = a @ x0
        else:
            b = rng.integers(-4, 5, size=m)
        ours = solve_nonneg(
            [[F(int(v)) for v in row] for row in a], [F(int(v)) for v in b]
        )
        ref = linprog(np.zeros(n), A_eq=a, b_eq=b, bounds=[(0, None)] * n, method="highs")
        assert (ours is not None) == ref.success
        if ours is not None:
            res = a @ np.array([float(v) for v in ours])
            assert np.allclose(res, b)
            assert all(v >= 0 for v in ours)
            agree += 1
    assert agree > 10
