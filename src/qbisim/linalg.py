"""The matrix type of the toolkit, and Hermitian eigenvalues by cyclic Jacobi
rotations.

A matrix is a tuple of row tuples of Python complex numbers: immutable, so
an interned density matrix can be shared and named by its identity, and
built by plain arithmetic.  At the dimensions the models use (d = 2 and
4) that costs about what numpy's per-call overhead did, and it keeps the
package free of a compiled dependency, whose import was most of a cold
start.  `as_matrix` converts what a caller hands in, a nested sequence or
anything with `tolist()` (a numpy array, say), once, where it enters the
package; `_rows` lets a tuple, taken to be such a matrix already, pass as
it is.

All spectral quantities in the toolkit (trace distance, positivity checks)
go through `jacobi_eigvalsh`.  The sweep runs on Python complex scalars, so
its bits depend only on CPython's double arithmetic (with the C library's
`hypot` behind `abs`), not on BLAS or on SIMD loops.  On an x86-64 machine
with AVX-512, the sha256 of the eigenvalues of 300 random Hermitian
matrices (d = 2, 4, 8) is 6faac88e... with numpy's X86_V3/X86_V4 dispatch
on and off; the same sweep on numpy array slices gave 13288526... with it
on, because numpy's array complex multiply rounds differently from its
scalar one.  Matrices stay small (at most a few hundred rows), where
Jacobi is both accurate and fast enough.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError

# Off-diagonal Frobenius norm below which a matrix counts as diagonal.
JACOBI_EPS = 1e-12

_MAX_SWEEPS = 100


def as_matrix(m) -> tuple:
    """`m` as a square matrix: a tuple of row tuples of complex numbers.

    `m` is a sequence of rows of numbers, or anything with `tolist()` that
    gives one; ValueError on any other shape."""
    if hasattr(m, "tolist"):
        m = m.tolist()
    try:
        rows = tuple(tuple(map(complex, row)) for row in m)
    except TypeError:
        raise ValueError("expected a matrix: a sequence of rows of numbers") from None
    if any(len(row) != len(rows) for row in rows):
        raise ValueError(f"expected a square matrix, got rows of lengths "
                         f"{[len(row) for row in rows]}")
    return rows


def _rows(m) -> tuple:
    """`m` itself if it is a tuple, else `as_matrix(m)`: the package passes
    its own matrices unconverted, and a caller's array is converted."""
    return m if m.__class__ is tuple else as_matrix(m)


def jacobi_eigvalsh(matrix) -> list:
    """Ascending eigenvalues of a Hermitian matrix, by cyclic Jacobi sweeps.

    Each rotation zeroes a[p, q] and a[q, p]; it is unitary and equal to the
    identity outside rows and columns p, q.  A sweep skips entries below
    off / n^2, and convergence is declared once the off-diagonal Frobenius
    norm `off` drops below `JACOBI_EPS`.
    """
    a = [list(row) for row in _rows(matrix)]
    n = len(a)
    for _ in range(_MAX_SWEEPS):
        off = math.sqrt(math.fsum([h * h for i, row in enumerate(a)
                                   for h in map(abs, row[:i] + row[i + 1:])]))
        if off < JACOBI_EPS:
            break
        # rotating entries below the per-sweep threshold wastes sweeps
        threshold = off / (n * n)
        for p in range(n - 1):
            row_p = a[p]
            for q in range(p + 1, n):
                apq = row_p[q]
                mag = abs(apq)
                if mag <= threshold:
                    continue
                phase = apq * (1.0 / mag)  # e^{i phi}
                alpha = row_p[p].real
                beta = a[q][q].real
                # tan(2 theta) = 2|apq| / (alpha - beta), |theta| <= pi/4
                if alpha == beta:
                    t = 1.0
                else:
                    tau = (alpha - beta) / (2.0 * mag)
                    t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # A <- A J with J[p,p] = J[q,q] = c, J[q,p] = s e^{-i phi},
                # J[p,q] = -s e^{i phi}; then A <- J^dagger A
                s_phase = s * phase
                s_conj = s_phase.conjugate()
                for row in a:
                    x, y = row[p], row[q]
                    row[p] = c * x + s_conj * y
                    row[q] = c * y - s_phase * x
                row_q = a[q]
                for j in range(n):
                    x, y = row_p[j], row_q[j]
                    row_p[j] = c * x + s_phase * y
                    row_q[j] = c * y - s_conj * x
                row_p[q] = row_q[p] = 0j
                row_p[p] = row_p[p].real
                row_q[q] = row_q[q].real
    else:
        raise ConvergenceError(
            f"Jacobi failed to reach off-norm {JACOBI_EPS} in {_MAX_SWEEPS} sweeps"
        )
    return sorted(a[i][i].real for i in range(n))
