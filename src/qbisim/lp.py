"""Exact linear feasibility over the rationals.

Every lifting and weak-move matching question in the toolkit reduces to:
does some w >= 0 satisfy A w = b?  Floating-point LP solvers flap on the
boundary cases these checks live on (weights that are exactly zero, masses
that must sum to exactly one), so the solver here is exact end to end:
Gauss-Jordan pre-reduction down to the row rank, then phase-1 simplex with
Bland's rule.

The arithmetic is on integer rows.  Each constraint row, right-hand side
included, is scaled to integers by the lcm of its denominators; every
elimination or pivot step is `row <- p*row - f*lead` with p > 0, followed
by division by the row's gcd, and the ratio test cross-multiplies.  Each
integer row is thus a positive multiple of the row the same steps give in
rational arithmetic, so the pivots, the verdict and the returned x are
exactly those of the rational algorithm (Bareiss, Math. Comp. 1968;
Applegate, Cook, Dash & Espinoza, Oper. Res. Lett. 2007).

Inputs are read at their exact value: an int or a Fraction as it is, a
float (numpy's included) as the binary rational it stores.  Equal floats
are thus equal rationals.  Probabilities built from `pchoice` weights alone
arrive as Fractions (see `calculus.PChoice`), so their relations hold
exactly (1/10 * 3/10 == 3/100).  A probability a measurement contributes
to is a float, and a relation among such floats holds here only if the
float arithmetic keeps it exactly: p == 1/2 p + 1/2 p does, p == 1/3 p +
2/3 p need not.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)


def _primitive(row: list) -> list:
    """`row` divided by the gcd of its entries (an all-zero row as is)."""
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _integer_row(values) -> list:
    """Exact `values` times the lcm of their denominators, made primitive."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = lcm(*(d for _, d in ratios))
    return _primitive([n * (scale // d) for n, d in ratios])


def _eliminate(row: list, lead: list, col: int) -> list:
    """`row` with column `col` cleared against `lead`, whose entry there is
    positive; a positive multiple of the rational result."""
    p, f = lead[col], row[col]
    return _primitive([p * v - f * w for v, w in zip(row, lead)])


def _row_reduce(rows: list, ncols: int):
    """Gauss-Jordan elimination of integer rows (right-hand side last), in
    place.  Returns the pivot column of each of the first rank rows, whose
    pivot entries are positive, or None if the system is inconsistent even
    without the sign constraint."""
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        lead = rows[pivot]
        if lead[col] < 0:
            lead = [-v for v in lead]
        rows[pivot] = rows[rank]
        rows[rank] = lead
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                rows[i] = _eliminate(row, lead, col)
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    if any(row[-1] for row in rows[len(pivots):]):
        return None
    return pivots


def solve_nonneg(a, b):
    """Some x >= 0 with a x = b, or None.

    `a` is a list of rows.  Entries may be ints, floats or Fractions, each
    read at its exact value.  The result is a list of Fractions.
    """
    ncols = len(a[0]) if a else 0
    for row in a:
        if len(row) != ncols:
            raise ValueError("ragged constraint matrix")
    if ncols == 0:
        return [] if all(v == 0 for v in b) else None
    rows = [_integer_row([*r, rhs]) for r, rhs in zip(a, b)]
    pivots = _row_reduce(rows, ncols)
    if pivots is None:
        return None
    m = len(pivots)
    if m == 0:
        return [_ZERO] * ncols

    # phase-1 simplex: minimise the artificial mass.  Row i is s times the
    # rational tableau row, s being its pivot entry, so its artificial
    # variable starts basic with coefficient s.
    tableau = []
    scales = []
    for i, (row, col) in enumerate(zip(rows, pivots)):
        s = row[col]
        if row[-1] < 0:
            row = [-v for v in row]
        art = [0] * m
        art[i] = s
        tableau.append(row[:-1] + art + row[-1:])
        scales.append(s)

    # the cost row is minus the sum of the rational rows, times their lcm
    total = lcm(*scales)
    weights = [total // s for s in scales]
    cost = [0] * (ncols + m + 1)
    for j in (*range(ncols), -1):
        cost[j] = -sum(w * row[j] for w, row in zip(weights, tableau))
    cost = _primitive(cost)

    basis = list(range(ncols, ncols + m))
    while True:
        enter = next((j for j in range(ncols + m) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i, row in enumerate(tableau):
            coeff = row[enter]
            if coeff > 0:
                if leave is None:
                    leave, num, den = i, row[-1], coeff
                    continue
                # row[-1] / coeff against num / den, both denominators > 0
                lhs, rhs = row[-1] * den, num * coeff
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, num, den = i, row[-1], coeff
        if leave is None:
            return None
        lead = tableau[leave]
        for i, row in enumerate(tableau):
            if i != leave and row[enter]:
                tableau[i] = _eliminate(row, lead, enter)
        cost = _eliminate(cost, lead, enter)
        basis[leave] = enter

    if cost[-1] != 0:
        return None
    x = [_ZERO] * ncols
    for row, bv in zip(tableau, basis):
        if bv < ncols:
            x[bv] = Fraction(row[-1], row[bv])
        elif row[-1] != 0:
            return None
    return x


def combination_weights(columns, target):
    """Nonnegative weights combining `columns` (dicts) into `target`, or None.

    Each column and the target map keys to ints, floats or Fractions, read
    at their exact value; missing keys are zero: one equality row per key.
    """
    keys = set(target)
    for col in columns:
        keys.update(col)
    keys = sorted(keys, key=repr)
    a = [[col.get(k, 0) for col in columns] for k in keys]
    b = [target.get(k, 0) for k in keys]
    return solve_nonneg(a, b)
