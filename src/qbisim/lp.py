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

An infeasible system comes with its proof on request (`Farkas`): an
integer vector y, one entry per row, with y.A >= 0 in every column and
y.b < 0, so no w >= 0 has A w = b.  The solver keeps what its elimination
left, and y is built from that on first use (`_farkas`), by one more
elimination on the transposed system.  A feasible system pays nothing for
it, and neither does a proof never read.

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


def solve_nonneg(a, b, farkas=None):
    """Some x >= 0 with a x = b, or None.

    `a` is a list of rows.  Entries may be ints, floats or Fractions, each
    read at its exact value.  The result is a list of Fractions.  When
    there is none and `farkas` is a list, a `Farkas` proof for the rows of
    `a` is appended to it.
    """
    ncols = len(a[0]) if a else 0
    for row in a:
        if len(row) != ncols:
            raise ValueError("ragged constraint matrix")
    if ncols == 0:
        if all(v == 0 for v in b):
            return []
        if farkas is not None:
            k = next(k for k, v in enumerate(b) if v != 0)
            farkas.append(Farkas(None, [-1 if i == k and b[k] > 0 else int(i == k)
                                        for i in range(len(b))]))
        return None
    rows = [_integer_row([*r, rhs]) for r, rhs in zip(a, b)]
    pivots = _row_reduce(rows, ncols)
    if pivots is None:
        if farkas is not None:
            farkas.append(Farkas((a, b, ncols, None)))
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
        if farkas is not None:
            farkas.append(Farkas((a, b, ncols, (rows, pivots, tableau, cost, basis))))
        return None
    x = [_ZERO] * ncols
    for row, bv in zip(tableau, basis):
        if bv < ncols:
            x[bv] = Fraction(row[-1], row[bv])
        elif row[-1] != 0:
            return None
    return x


class Farkas:
    """The proof that no w >= 0 has a w = b: an integer vector y, one entry
    per row, with y.a >= 0 in every column and y.b < 0.  It is built from
    the state `solve_nonneg` left on first use (`vector`); `keys` names the
    rows when the system came from `combination_weights`."""

    __slots__ = ("_state", "_y", "keys")

    def __init__(self, state, y=None):
        self._state, self._y, self.keys = state, y, None

    def vector(self) -> list:
        if self._y is None:
            self._y = _farkas(*self._state)
            self._state = None
        return self._y

    def by_key(self) -> dict:
        """The nonzero entries of `vector`, by row key."""
        return {k: v for k, v in zip(self.keys, self.vector()) if v}


def _farkas(a, b, ncols: int, phase1=None) -> list:
    """An integer y with y.a >= 0 column by column and y.b < 0.

    Without `phase1` the equalities are inconsistent, and y solves
    y.a = 0, y.b = -1.  Otherwise `phase1` holds the reduced rows and their
    pivots, and the final tableau, cost row and basis of a phase 1 that
    ended with artificial mass obj > 0.  Reduced row i divided by its pivot
    entry is R_i, so that a = a_P R, a_P being the pivot columns of `a`,
    and b = a_P b'.  The cost row is K times the reduced costs, K > 0, and
    K = -cost[-1] / obj.  The tableau holds R_i times the sign s_i of its
    right-hand side, and the reduced cost of its artificial is 1 - u_i for
    the optimal duals u, so w_i = s_i (cost[ncols + i] - K) gives w.R =
    K times the column reduced costs, all >= 0 at the optimum, and w.b' =
    -K obj < 0.  Then y with y.a_P = w has y.a = w.R and y.b = w.b'.
    Scaling w by obj's numerator keeps it integer.  Either way y is a
    particular solution of one exact elimination.
    """
    n = len(a)
    if phase1 is None:
        system = [[row[j] for row in a] + [0] for j in range(ncols)] + [[*b, -1]]
    else:
        rows, pivots, tableau, cost, basis = phase1
        obj = sum(Fraction(row[-1], row[bv]) for row, bv in zip(tableau, basis) if bv >= ncols)
        system = []
        for i, (row, col) in enumerate(zip(rows, pivots)):
            w = cost[ncols + i] * obj.numerator + cost[-1] * obj.denominator
            system.append([r[col] for r in a] + [-w if row[-1] < 0 else w])
    system = [_integer_row(r) for r in system]
    y = [_ZERO] * n
    for row, col in zip(system, _row_reduce(system, n)):
        y[col] = Fraction(row[-1], row[col])
    return _integer_row(y)


def combination_weights(columns, target, farkas=None):
    """Nonnegative weights combining `columns` (dicts) into `target`, or None.

    Each column and the target map keys to ints, floats or Fractions, read
    at their exact value; missing keys are zero: one equality row per key.
    When there are none and `farkas` is a list, a `Farkas` proof with the
    row keys is appended: by `by_key`, the sum over keys of y[k] * col[k]
    is >= 0 for every column and < 0 for the target.
    """
    keys = set(target)
    for col in columns:
        keys.update(col)
    keys = sorted(keys, key=repr)
    a = [[col.get(k, 0) for col in columns] for k in keys]
    b = [target.get(k, 0) for k in keys]
    if farkas is None:
        return solve_nonneg(a, b)
    proof = []
    x = solve_nonneg(a, b, proof)
    for p in proof:
        p.keys = keys
    farkas += proof
    return x
