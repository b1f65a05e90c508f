"""Small exact linear algebra helpers over Fraction matrices.

Everything here works on lists of lists of Fractions and is sized for the
tiny systems this package deals with (dimension <= ~12).  One Gauss-Jordan
routine, ``_eliminate``, does all the elimination; rank, det, solve and
factor read their answers off the matrix it leaves.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

Q = Fraction

Matrix = list[list[Q]]
Vector = list[Q]


def _eliminate(m: Matrix, cols: int) -> tuple[list[int], Q]:
    """Gauss-Jordan on the first ``cols`` columns of ``m``, in place.

    Returns the pivot columns and the product of the pivots, negated once per
    row swap.  Afterwards row ``r`` holds a leading 1 in column ``pivots[r]``,
    that column is zero in every other row, and the rows past the last pivot
    are zero on the first ``cols`` columns.  A column is a pivot exactly when
    it is not a combination of the columns before it.  Rows are replaced,
    never mutated, so a shallow copy of the caller's list is enough.
    """
    pivots: list[int] = []
    scale = Q(1)
    rows = len(m)
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        p = next((i for i in range(r, rows) if m[i][c]), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            scale = -scale
        inv = m[r][c]
        scale *= inv
        # the pivot row is zero left of c, and zeros need no arithmetic
        m[r] = top = [v / inv if v else v for v in m[r]]
        for i in range(rows):
            f = m[i][c]
            if f and i != r:
                m[i] = [x - f * y if y else x for x, y in zip(m[i], top)]
        pivots.append(c)
    return pivots, scale


def pivot_columns(a: Matrix) -> list[int]:
    """Indices of the columns of ``a`` outside the span of the columns before them."""
    return _eliminate(list(a), len(a[0]) if a else 0)[0]


def rank(a: Matrix) -> int:
    """Rank of ``a``: the number of pivots."""
    return len(pivot_columns(a))


def det(a: Matrix) -> Q:
    """Determinant of a square matrix."""
    pivots, scale = _eliminate(list(a), len(a))
    return scale if len(pivots) == len(a) else Q(0)


def solve(a: Matrix, b: Vector) -> Vector | None:
    """Solve a @ x = b exactly.

    Returns a solution, or None when the system is inconsistent.  Columns
    without a pivot are free variables and are set to zero, so the solution
    is the unique one exactly when the columns of ``a`` are independent, as
    in every system this package solves.
    """
    if not a:
        return [] if all(x == 0 for x in b) else None
    cols = len(a[0])
    m = [row[:] + [x] for row, x in zip(a, b)]
    pivots, _ = _eliminate(m, cols)
    if any(row[cols] for row in m[len(pivots):]):
        return None
    x = [Q(0)] * cols
    for row, c in zip(m, pivots):
        x[c] = row[cols]
    return x


class Factor(NamedTuple):
    """Exact factorisation of a matrix ``a`` with independent columns.

    ``left @ a`` is the identity and ``kernel @ a`` is zero, so ``a @ x = b``
    is solvable exactly when ``kernel @ b == 0``, and then ``x = left @ b``.
    """

    left: Matrix
    kernel: Matrix

    def solve(self, b: Vector) -> Vector | None:
        if any(dot(row, b) for row in self.kernel):
            return None
        return [dot(row, b) for row in self.left]


def factor(a: Matrix) -> Factor | None:
    """Eliminate ``[a | I]``; None when the columns of a are dependent.

    Row reduction brings ``[a | I]`` to ``[[I, L], [0, N]]``; the row
    operations ``[L; N]`` are invertible, so every right-hand side can be
    answered afterwards by ``Factor.solve`` without eliminating again.
    """
    rows = len(a)
    cols = len(a[0]) if a else 0
    m = [[Q(x) for x in a[i]] + [Q(int(i == j)) for j in range(rows)] for i in range(rows)]
    if len(_eliminate(m, cols)[0]) < cols:
        return None
    return Factor([row[cols:] for row in m[:cols]], [row[cols:] for row in m[cols:]])


def dot(u: Vector, v: Vector) -> Q:
    return sum((x * y for x, y in zip(u, v) if x and y), Q(0))


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return [sum((row[j] * v[j] for j in range(len(v))), Q(0)) for row in a]
