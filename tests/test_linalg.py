"""Unit tests for the exact Gaussian-elimination helpers."""

from __future__ import annotations

from fractions import Fraction as Q

from hypothesis import given
from hypothesis import strategies as st

from superroots.linalg import det, factor, mat_vec, rank, solve

entries = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def matrices(n: int, m: int):
    return st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n)


def test_rank_examples():
    assert rank([]) == 0
    assert rank([[Q(0), Q(0)]]) == 0
    assert rank([[Q(1), Q(2)], [Q(2), Q(4)]]) == 1
    assert rank([[Q(1), Q(0)], [Q(0), Q(1)]]) == 2
    assert rank([[Q(1), Q(2), Q(3)], [Q(4), Q(5), Q(6)], [Q(7), Q(8), Q(9)]]) == 2


def test_det_examples():
    assert det([]) == 1
    assert det([[Q(7)]]) == 7
    assert det([[Q(1), Q(2)], [Q(3), Q(4)]]) == -2
    assert det([[Q(2), Q(0)], [Q(0), Q(1, 2)]]) == 1
    assert det([[Q(1), Q(2)], [Q(2), Q(4)]]) == 0


def test_solve_examples():
    assert solve([[Q(2), Q(0)], [Q(0), Q(3)]], [Q(4), Q(9)]) == [Q(2), Q(3)]
    # inconsistent system
    assert solve([[Q(1), Q(1)], [Q(1), Q(1)]], [Q(0), Q(1)]) is None
    # overdetermined but consistent
    assert solve([[Q(1)], [Q(2)]], [Q(3), Q(6)]) == [Q(3)]
    assert solve([], []) == []


def test_factor_examples():
    # [[1], [2]]: x = b0 when 2*b0 - b1 = 0
    fac = factor([[Q(1)], [Q(2)]])
    assert fac.left == [[Q(1), Q(0)]]
    assert fac.kernel == [[Q(-2), Q(1)]]
    assert fac.solve([Q(3), Q(6)]) == [Q(3)]
    assert fac.solve([Q(3), Q(5)]) is None
    square = factor([[Q(2), Q(0)], [Q(0), Q(3)]])
    assert square.kernel == [] and square.solve([Q(4), Q(9)]) == [Q(2), Q(3)]
    # dependent columns, and more columns than rows
    assert factor([[Q(1), Q(2)], [Q(2), Q(4)]]) is None
    assert factor([[Q(1), Q(2)]]) is None
    assert factor([]) == ([], [])


def test_mat_vec():
    assert mat_vec([[Q(1), Q(2)], [Q(0), Q(1)]], [Q(3), Q(4)]) == [Q(11), Q(4)]


@given(matrices(3, 3))
def test_det_zero_iff_rank_deficient(a):
    assert (det(a) == 0) == (rank(a) < 3)


@given(matrices(3, 3), st.lists(entries, min_size=3, max_size=3))
def test_solve_recovers_known_solution(a, x):
    """If a is invertible then solve(a, a@x) == x."""
    if det(a) == 0:
        return
    b = mat_vec(a, x)
    assert solve(a, b) == x


@given(matrices(4, 2), st.lists(entries, min_size=2, max_size=2))
def test_solve_tall_systems(a, x):
    """Full-column-rank tall systems recover the planted solution."""
    if rank(a) < 2:
        return
    b = mat_vec(a, x)
    assert solve(a, b) == x


@given(matrices(3, 3), matrices(3, 3))
def test_det_multiplicative(a, b):
    prod = [[sum((a[i][k] * b[k][j] for k in range(3)), Q(0)) for j in range(3)]
            for i in range(3)]
    assert det(prod) == det(a) * det(b)


@given(matrices(3, 3))
def test_rank_invariant_under_transpose(a):
    t = [[a[j][i] for j in range(3)] for i in range(3)]
    assert rank(a) == rank(t)


@st.composite
def tall_systems(draw):
    cols = draw(st.integers(1, 3))
    rows = draw(st.integers(cols, cols + 2))
    a = draw(matrices(rows, cols))
    x = draw(st.lists(entries, min_size=cols, max_size=cols))
    b = draw(st.lists(entries, min_size=rows, max_size=rows))
    return a, x, b


@given(tall_systems())
def test_factor_agrees_with_solve(system):
    """factor answers every right-hand side as solve does, planted or not."""
    a, x, b = system
    fac = factor(a)
    assert (fac is None) == (rank(a) < len(a[0]))
    if fac is None:
        return
    for rhs in (mat_vec(a, x), b):
        assert fac.solve(rhs) == solve(a, rhs)
    assert fac.solve(mat_vec(a, x)) == x
