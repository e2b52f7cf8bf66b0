"""Exact feasibility solver, cross-checked against a brute-force oracle and
scipy on random instances."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qbisim.lp import combination_weights, solve_nonneg

F = Fraction


EDGE_FLOATS = (
    -0.0, 0.0, 1.0, 1 - 2 ** -53, 5e-324, 0.1 + 0.2, 1 / 3, -2 / 3,
    1e-12, 1 / (10 ** 12 + 1), 5e-13, 4.9e-13, 1e-13, 0.5 + 1e-12, 0.5 + 4e-13,
    0.2972700874282956, 2 * 0.1486350437141478, 0.1486350437141478,
)


@pytest.mark.parametrize("x", EDGE_FLOATS)
def test_floats_are_read_at_their_exact_value(x):
    exact = F(x)
    off = exact + F(1, 2 ** 1100)
    sign = -1 if x < 0 else 1
    for v in (x, np.float64(x)):
        # as a target: the weight on a unit column is the value read
        assert combination_weights([{"k": sign}], {"k": v}) == [abs(exact)]
        # as a coefficient: weight 1 meets the exact value and nothing else
        assert solve_nonneg([[1], [v]], [1, exact]) == [F(1)]
        assert solve_nonneg([[1], [v]], [1, off]) is None


def test_float_relations_hold_exactly():
    # doubling is exact in floats, so it is exact in the LP; a target one
    # ulp off is another rational and needs another weight
    p, q = 0.1486350437141478, 0.2972700874282956
    assert 2 * p == q
    assert combination_weights([{"k": p}], {"k": q}) == [F(2)]
    w = combination_weights([{"k": p}], {"k": math.nextafter(q, 1.0)})
    assert w is not None and w != [F(2)]


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


# ---------------------------------------------------------------------------
# brute-force oracle on instances shaped like the engines' LPs


def _basic_solution(cols, b):
    """The unique solution of the square-or-tall system with columns `cols`,
    or None when the columns are dependent or the system is inconsistent."""
    k = len(cols)
    rows = [[col[i] for col in cols] + [v] for i, v in enumerate(b)]
    for j in range(k):
        piv = next((i for i in range(j, len(rows)) if rows[i][j] != 0), None)
        if piv is None:
            return None
        rows[j], rows[piv] = rows[piv], rows[j]
        rows[j] = [v / rows[j][j] for v in rows[j]]
        for i in range(len(rows)):
            if i != j and rows[i][j] != 0:
                f = rows[i][j]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[j])]
    if any(row[-1] != 0 for row in rows[k:]):
        return None
    return [rows[j][-1] for j in range(k)]


def _oracle_feasible(a, b) -> bool:
    """Some x >= 0 with a x = b exists iff a basic one does: a set of
    independent columns whose system has a nonnegative solution."""
    m, n = len(a), len(a[0])
    columns = [[row[j] for row in a] for j in range(n)]
    for k in range(min(m, n) + 1):
        for subset in itertools.combinations(columns, k):
            x = _basic_solution(subset, b)
            if x is not None and all(v >= 0 for v in x):
                return True
    return False


def _engine_like(rng):
    """A random LP like those of the lifting and matching checks: pair
    columns carrying float probabilities on left and right rows, identity
    carriers, defender columns debiting the right rows, a target that is a
    known combination, a random point or zero; then redundant rows, zero
    rows and negated rows (negative right-hand sides)."""
    nl, nr, nd = (int(v) for v in rng.integers(1, 4, size=3))
    keys = [("L", i) for i in range(nl)] + [("R", i) for i in range(nr)]
    keys += [("D", i) for i in range(int(nd) - 1)]

    def probs(k):
        w = rng.random(k)
        return [F(float(v)) for v in w / w.sum()]

    columns = []
    for _ in range(int(rng.integers(1, 4))):
        col = dict(zip(keys[:nl], probs(nl)))
        col.update(zip(keys[nl:nl + nr], probs(nr)))
        columns.append(col)
    for i in range(min(nl, nr)):
        columns.append({("L", i): F(1), ("R", i): F(1)})
    for key in keys[nl + nr:]:
        col = {key: F(1)}
        col.update((k, -p) for k, p in zip(keys[nl:nl + nr], probs(nr)))
        columns.append(col)
    columns = columns[:7]

    kind = rng.integers(3)
    if kind == 0:
        weights = [F(int(v), int(rng.integers(1, 7))) for v in rng.integers(0, 3, len(columns))]
        target = {k: sum(w * c.get(k, 0) for w, c in zip(weights, columns)) for k in keys}
    elif kind == 1:
        target = dict(zip(keys, probs(len(keys))))
    else:
        target = {}
    a = [[F(c.get(k, 0)) for c in columns] for k in keys]
    b = [F(target.get(k, 0)) for k in keys]
    if rng.random() < 0.4:
        i, f = int(rng.integers(len(a))), F(int(rng.integers(-3, 4)) or 2, 3)
        a.append([f * v for v in a[i]])
        b.append(f * b[i])
    if rng.random() < 0.3:
        a.append([F(0)] * len(columns))
        b.append(F(0) if rng.random() < 0.7 else F(1, 10 ** 12))
    for i in range(len(a)):
        if rng.random() < 0.3:
            a[i] = [-v for v in a[i]]
            b[i] = -b[i]
    order = rng.permutation(len(a))
    return [a[i] for i in order], [b[i] for i in order]


def test_matches_oracle_on_engine_like_instances():
    rng = np.random.default_rng(2015)
    verdicts = set()
    for _ in range(250):
        a, b = _engine_like(rng)
        x = solve_nonneg(a, b)
        assert (x is not None) == _oracle_feasible(a, b)
        if x is not None:
            assert len(x) == len(a[0]) and all(v >= 0 for v in x)
            assert all(sum(r * v for r, v in zip(row, x)) == rhs for row, rhs in zip(a, b))
        verdicts.add(x is not None)
    assert verdicts == {True, False}


def test_integer_kernel_keeps_denominators_exact():
    # coefficients with large coprime denominators: the unique solution
    # comes back exactly
    p, q = F(1, 10 ** 12 - 11), F(7, 10 ** 12 - 39)
    x = solve_nonneg([[p, q], [F(1), F(1)]], [p / 3 + q / 6, F(1, 2)])
    assert x == [F(1, 3), F(1, 6)]
