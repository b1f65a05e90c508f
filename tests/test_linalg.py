"""Unit tests for the exact Gaussian-elimination helpers."""

from __future__ import annotations

from fractions import Fraction as Q
from itertools import combinations

from hypothesis import given
from hypothesis import strategies as st

from superroots.linalg import det, factor, mat_vec, pivot_columns, rank, solve

entries = st.fractions(min_value=-6, max_value=6, max_denominator=4)


#: few values, so that dependent rows and columns turn up often
coarse = st.sampled_from([Q(0), Q(1), Q(-1), Q(2)])


def matrices(n: int, m: int, elements=entries):
    return st.lists(st.lists(elements, min_size=m, max_size=m), min_size=n, max_size=n)


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
    assert solve([], [Q(0)]) == []
    assert solve([], [Q(1)]) is None


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


def test_pivot_columns_examples():
    # column 1 is twice column 0, column 2 is new, column 3 is 0 + 2
    a = [[Q(1), Q(2), Q(0), Q(1)], [Q(0), Q(0), Q(1), Q(1)]]
    assert pivot_columns(a) == [0, 2]
    assert pivot_columns([[Q(0), Q(3)]]) == [1]
    assert pivot_columns([]) == []


def test_inputs_are_left_alone():
    a = [[Q(0), Q(2)], [Q(3), Q(4)]]
    before = [row[:] for row in a]
    rank(a), det(a), solve(a, [Q(1), Q(1)]), factor(a), pivot_columns(a)
    assert a == before


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


# -- oracles that share no code with the elimination ---------------------------


def cofactor_det(a):
    """Laplace expansion along the first row."""
    if not a:
        return Q(1)
    return sum(
        ((-1) ** j * a[0][j] * cofactor_det([row[:j] + row[j + 1:] for row in a[1:]])
         for j in range(len(a)) if a[0][j]),
        Q(0),
    )


def minor_rank(a):
    """The size of the largest square submatrix with a nonzero determinant."""
    rows, cols = len(a), len(a[0]) if a else 0
    for k in range(min(rows, cols), 0, -1):
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                if cofactor_det([[a[i][j] for j in cs] for i in rs]):
                    return k
    return 0


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 4))
    return draw(matrices(n, n, draw(st.sampled_from([entries, coarse]))))


@st.composite
def small_matrices(draw):
    return draw(matrices(draw(st.integers(1, 4)), draw(st.integers(1, 3)), coarse))


@given(square_matrices())
def test_det_matches_cofactor_expansion(a):
    assert det(a) == cofactor_det(a)


@given(small_matrices())
def test_rank_matches_largest_nonzero_minor(a):
    assert rank(a) == minor_rank(a)
    assert len(pivot_columns(a)) == minor_rank(a)


@given(small_matrices())
def test_pivot_columns_are_the_greedy_independent_columns(a):
    cols = len(a[0])
    chosen = []
    for c in range(cols):
        trial = chosen + [c]
        if minor_rank([[row[j] for j in trial] for row in a]) == len(trial):
            chosen = trial
    assert pivot_columns(a) == chosen


def test_empty_matrices():
    assert det([]) == 1 == cofactor_det([])
    assert rank([]) == 0 == minor_rank([])
    assert factor([]) == ([], [])
    assert solve([], []) == []
    assert solve([], [Q(0), Q(2)]) is None
