"""Small exact linear algebra helpers over rational matrices, sized for the
tiny systems this package deals with (dimension <= ~12).

One fraction-free Gauss-Jordan routine, ``_eliminate``, does all the
elimination in integers, each row scaled by the lcm of its denominators;
rank, det, solve and factor read their answers off it and divide once.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import NamedTuple

Q = Fraction

Matrix = list[list[Q]]
Vector = list[Q]


def clear_denominators(row) -> tuple[list[int], int]:
    """``row`` times the lcm of its denominators, and that lcm."""
    s = lcm(*(x.denominator for x in row))
    return [x.numerator * (s // x.denominator) for x in row], s


def _eliminate(m: list[list[int]], cols: int) -> tuple[list[int], int, int]:
    """Fraction-free (Bareiss 1968) Gauss-Jordan on the first ``cols`` columns
    of the integer matrix ``m``, in place; returns the pivot columns, the last
    pivot d and the sign of the row swaps.  Afterwards row ``r`` holds d in
    column ``pivots[r]``, that column is zero in every other row, and the rows
    past the last pivot are zero on the first ``cols`` columns.  A column is a
    pivot exactly when it is not a combination of the columns before it.  Pivot
    p after p' takes row i to (p*row_i - f*row_r) / p', f being row i's entry
    in column c; every entry stays a minor of ``m``, so the division is exact.
    """
    pivots: list[int] = []
    prev, sign = 1, 1
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
            sign = -sign
        top, piv = m[r], m[r][c]
        for i in range(rows):
            if i != r:
                f = m[i][c]
                m[i] = [(piv * x - f * y) // prev for x, y in zip(m[i], top)]
        prev = piv
        pivots.append(c)
    return pivots, prev, sign


def pivot_columns(a: Matrix) -> list[int]:
    """Indices of the columns of ``a`` outside the span of the columns before them."""
    return _eliminate([clear_denominators(row)[0] for row in a], len(a[0]) if a else 0)[0]


def rank(a: Matrix) -> int:
    """Rank of ``a``: the number of pivots."""
    return len(pivot_columns(a))


def det(a: Matrix) -> Q:
    """Determinant of a square matrix: the last pivot, signed, over the row scales."""
    rows = [clear_denominators(row) for row in a]
    pivots, d, sign = _eliminate([m for m, _ in rows], len(a))
    return Q(sign * d, prod(s for _, s in rows)) if len(pivots) == len(a) else Q(0)


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
    m = [clear_denominators([*row, x])[0] for row, x in zip(a, b)]
    pivots, d, _ = _eliminate(m, cols)
    if any(row[cols] for row in m[len(pivots):]):
        return None
    x = [Q(0)] * cols
    for row, c in zip(m, pivots):
        x[c] = Q(row[cols], d)
    return x


class Factor(NamedTuple):
    """Exact factorisation of a matrix ``a`` with independent columns.

    ``left @ a`` is ``den`` times the identity and ``kernel @ a`` is zero, all
    in integers, so ``a @ x = b`` is solvable exactly when ``kernel @ b == 0``,
    and then ``x = left @ b / den``.
    """

    left: list[list[int]]
    den: int
    kernel: list[list[int]]

    def solve(self, b: Vector) -> Vector | None:
        b, s = clear_denominators(b)
        if any(dot(row, b) for row in self.kernel):
            return None
        return [Q(dot(row, b), self.den * s) for row in self.left]


def factor(a: Matrix) -> Factor | None:
    """Eliminate ``[a | I]``; None when the columns of a are dependent.

    Scaling the rows to integers turns ``[a | I]`` into ``[S a | S]``, which
    elimination brings to ``[[d I, L], [0, N]]``.  The row operations are
    invertible, so every right-hand side can be answered afterwards by
    ``Factor.solve`` without eliminating again.
    """
    rows = len(a)
    cols = len(a[0]) if a else 0
    scaled = map(clear_denominators, a)
    m = [ints + [s * (i == j) for j in range(rows)] for i, (ints, s) in enumerate(scaled)]
    pivots, d, _ = _eliminate(m, cols)
    if len(pivots) < cols:
        return None
    return Factor([row[cols:] for row in m[:cols]], d, [row[cols:] for row in m[cols:]])


def dot(u, v):
    """The dot product; an int when both sides are ints."""
    return sum(map(mul, u, v))


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return [sum((row[j] * v[j] for j in range(len(v))), Q(0)) for row in a]
