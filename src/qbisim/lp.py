"""Exact linear feasibility over the rationals.

Every lifting and weak-move matching question in the toolkit reduces to:
does some w >= 0 satisfy A w = b?  Floating-point LP solvers flap on the
boundary cases these checks live on (weights that are exactly zero, masses
that must sum to exactly one), so the solver here works in Fraction
arithmetic end to end: Gaussian pre-reduction down to the row rank, then
phase-1 simplex with Bland's rule.

Float inputs are snapped to rationals with limit_denominator(10**12), which
is exact for the dyadic probabilities produced by the protocol models.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)

RATIONAL_SNAP = 10 ** 12


def as_fraction(x, snap: int = RATIONAL_SNAP) -> Fraction:
    """Exact value for ints/Fractions; nearest small rational for floats."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(x).limit_denominator(snap)


def _row_reduce(a, b):
    """Gauss-Jordan elimination; returns the independent rows or None if
    the system is inconsistent even without the sign constraint."""
    ncols = len(a[0]) if a else 0
    rows = [list(r) + [rhs] for r, rhs in zip(a, b)]
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [v / pv for v in rows[rank]]
        lead = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [v - f * w for v, w in zip(rows[i], lead)]
        rank += 1
        if rank == len(rows):
            break
    for row in rows[rank:]:
        if row[-1] != 0:
            return None
    return [r[:-1] for r in rows[:rank]], [r[-1] for r in rows[:rank]]


def solve_nonneg(a, b):
    """Some x >= 0 with a x = b (entries rational), or None.

    `a` is a list of rows.  The result is a list of Fractions.
    """
    ncols = len(a[0]) if a else 0
    for row in a:
        if len(row) != ncols:
            raise ValueError("ragged constraint matrix")
    if ncols == 0:
        return [] if all(v == 0 for v in b) else None
    reduced = _row_reduce(a, b)
    if reduced is None:
        return None
    a, b = reduced
    m = len(a)
    if m == 0:
        return [_ZERO] * ncols

    # phase-1 simplex: minimise the artificial mass
    tableau = []
    for i in range(m):
        if b[i] < 0:
            row = [-v for v in a[i]]
            rhs = -b[i]
        else:
            row = list(a[i])
            rhs = b[i]
        art = [_ZERO] * m
        art[i] = _ONE
        tableau.append(row + art + [rhs])

    width = ncols + m + 1
    cost = [_ZERO] * width
    for i in range(m):
        trow = tableau[i]
        for j in range(ncols):
            cost[j] -= trow[j]
        cost[-1] -= trow[-1]

    basis = list(range(ncols, ncols + m))
    while True:
        enter = next((j for j in range(ncols + m) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            coeff = tableau[i][enter]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return None
        pivot = tableau[leave][enter]
        tableau[leave] = [v / pivot for v in tableau[leave]]
        lead = tableau[leave]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [v - f * w for v, w in zip(tableau[i], lead)]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [v - f * w for v, w in zip(cost, lead)]
        basis[leave] = enter

    if cost[-1] != 0:
        return None
    x = [_ZERO] * ncols
    for i, bv in enumerate(basis):
        if bv < ncols:
            x[bv] = tableau[i][-1]
        elif tableau[i][-1] != 0:
            return None
    return x


def combination_weights(columns, target):
    """Nonnegative weights combining `columns` (dicts) into `target`, or None.

    Each column and the target map keys to rational-convertible numbers;
    missing keys are zero: one equality row per key.
    """
    keys = set(target)
    for col in columns:
        keys.update(col)
    keys = sorted(keys, key=repr)
    a = [[as_fraction(col.get(k, 0)) for col in columns] for k in keys]
    b = [as_fraction(target.get(k, 0)) for k in keys]
    return solve_nonneg(a, b)
