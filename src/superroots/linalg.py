"""Small exact linear algebra helpers over Fraction matrices.

Everything here works on lists of lists of Fractions and is sized for the
tiny systems this package deals with (dimension <= ~12), so plain Gaussian
elimination is all we need.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

Q = Fraction

Matrix = list[list[Q]]
Vector = list[Q]


def mat_copy(a: Matrix) -> Matrix:
    return [row[:] for row in a]


def rank(a: Matrix) -> int:
    """Rank by fraction-free-enough Gaussian elimination (exact)."""
    if not a:
        return 0
    m = mat_copy(a)
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        for i in range(r + 1, rows):
            if m[i][c] != 0:
                f = m[i][c] / inv
                for j in range(c, cols):
                    m[i][j] -= f * m[r][j]
        r += 1
        if r == rows:
            break
    return r


def det(a: Matrix) -> Q:
    """Determinant of a square matrix."""
    n = len(a)
    if n == 0:
        return Q(1)
    m = mat_copy(a)
    sign = 1
    result = Q(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Q(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        result *= m[c][c]
        inv = m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / inv
                for j in range(c, n):
                    m[i][j] -= f * m[c][j]
    return result * sign


def solve(a: Matrix, b: Vector) -> Vector | None:
    """Solve a @ x = b exactly.

    Returns the unique solution, or None when the system is inconsistent.
    Requires the solution to be unique if one exists (columns of full rank
    on the involved equations); free variables are set to zero only when
    they never appear with a pivot, which does not occur for the
    full-column-rank systems this package produces.
    """
    if not a:
        return [] if all(x == 0 for x in b) else None
    rows, cols = len(a), len(a[0])
    m = [a[i][:] + [b[i]] for i in range(rows)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [v / inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                for j in range(c, cols + 1):
                    m[i][j] -= f * m[r][j]
        pivots.append((r, c))
        r += 1
        if r == rows:
            break
    # inconsistency: a zero row with nonzero rhs
    for i in range(r, rows):
        if m[i][cols] != 0:
            return None
    x = [Q(0)] * cols
    for i, c in pivots:
        x[c] = m[i][cols]
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
    """One Gauss-Jordan pass over ``[a | I]``; None when the columns of a are dependent.

    Row reduction brings ``[a | I]`` to ``[[I, L], [0, N]]``; the row
    operations ``[L; N]`` are invertible, so every right-hand side can be
    answered afterwards by ``Factor.solve`` without eliminating again.
    """
    rows = len(a)
    cols = len(a[0]) if a else 0
    if cols > rows:
        return None
    m = [[Q(x) for x in a[i]] + [Q(int(i == j)) for j in range(rows)] for i in range(rows)]
    for c in range(cols):
        pivot = next((i for i in range(c, rows) if m[i][c] != 0), None)
        if pivot is None:
            return None
        m[c], m[pivot] = m[pivot], m[c]
        inv = m[c][c]
        m[c] = [v / inv for v in m[c]]
        for i in range(rows):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return Factor([row[cols:] for row in m[:cols]], [row[cols:] for row in m[cols:]])


def dot(u: Vector, v: Vector) -> Q:
    return sum((x * y for x, y in zip(u, v) if x and y), Q(0))


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return [sum((row[j] * v[j] for j in range(len(v))), Q(0)) for row in a]
