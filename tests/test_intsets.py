"""Unit tests for ray-plus-points integer sets.

The algebra is checked against brute-force windows: every operation must
agree pointwise with naive set arithmetic on a range wide enough to see
both rays and all finite points.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from superroots import IntegerSet

WINDOW = range(-25, 26)

small_ints = st.integers(min_value=-8, max_value=8)
maybe_ray = st.one_of(st.none(), small_ints)
point_sets = st.sets(small_ints, max_size=4)


@st.composite
def intsets(draw):
    if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return IntegerSet.all()
    return IntegerSet.make(draw(maybe_ray), draw(maybe_ray), draw(point_sets))


def window_of(s: IntegerSet) -> set[int]:
    return {k for k in WINDOW if k in s}


def test_constructors():
    assert window_of(IntegerSet.empty()) == set()
    assert window_of(IntegerSet.all()) == set(WINDOW)
    assert window_of(IntegerSet.at_least(3)) == {k for k in WINDOW if k >= 3}
    assert window_of(IntegerSet.at_most(-2)) == {k for k in WINDOW if k <= -2}
    assert window_of(IntegerSet.of(1, 4, -7)) == {1, 4, -7}


def test_normal_form_folds_adjacent_points():
    # points adjacent to a ray are absorbed into it
    s = IntegerSet.make(None, 5, {4, 3, 0})
    assert s == IntegerSet.make(None, 3, {0})
    assert window_of(s) == {0} | {k for k in WINDOW if k >= 3}
    # points bridging the gap collapse to all of Z
    assert IntegerSet.make(0, 2, {1}) == IntegerSet.all()
    assert IntegerSet.make(0, 1, set()) == IntegerSet.all()


def test_normal_form_drops_covered_points():
    s = IntegerSet.make(2, None, {0, 5})
    assert s == IntegerSet.make(2, None, {5})


def test_empty_and_finite_predicates():
    assert IntegerSet.empty().is_empty()
    assert not IntegerSet.of(0).is_empty()
    assert IntegerSet.of(1, 2).is_finite()
    assert not IntegerSet.at_least(0).is_finite()
    assert not IntegerSet.all().is_finite()


def test_min():
    assert IntegerSet.at_least(4).min() == 4
    assert IntegerSet.make(None, 4, {-2}).min() == -2
    assert IntegerSet.of(3, 7).min() == 3


def test_shift_and_negate_examples():
    s = IntegerSet.make(-3, 2, {0})
    assert s.shift(5) == IntegerSet.make(2, 7, {5})
    assert s.negate() == IntegerSet.make(-2, 3, {0})
    assert window_of(s.negate()) == {-k for k in window_of(s)}


@given(intsets(), intsets())
def test_union_matches_windows(a, b):
    got = window_of(a.union(b))
    assert got == window_of(a) | window_of(b)


@given(intsets(), intsets())
def test_intersection_matches_windows(a, b):
    got = window_of(a.intersect(b))
    assert got == window_of(a) & window_of(b)


@given(intsets())
def test_negate_matches_windows(a):
    assert window_of(a.negate()) == {-k for k in window_of(a)}


@given(intsets(), st.integers(min_value=-5, max_value=5))
def test_shift_matches_windows(a, c):
    inner = range(-15, 16)
    got = {k for k in inner if k in a.shift(c)}
    assert got == {k + c for k in WINDOW if k in a and k + c in inner}


@given(intsets(), intsets())
def test_subset_matches_windows(a, b):
    # The window is wide enough relative to the generated rays/points that
    # window containment and true containment coincide.
    assert a.is_subset(b) == (window_of(a) <= window_of(b))


@given(intsets())
def test_double_negate_is_identity(a):
    assert a.negate().negate() == a


@given(intsets(), intsets())
def test_structural_equality_is_extensional(a, b):
    if window_of(a) == window_of(b):
        assert a == b


def test_complement_in():
    s = IntegerSet.at_least(2)
    assert s.complement_in(range(0, 5)) == [0, 1]


@given(intsets(), small_ints, st.integers(min_value=-1, max_value=12))
def test_first_in_matches_windows(a, lo, width):
    window = range(lo, lo + width)
    assert a.first_in(window) == next((k for k in window if k in a), None)


def test_first_in_examples():
    assert IntegerSet.all().first_in(range(-3, 4)) == -3
    assert IntegerSet.at_most(-5).first_in(range(-3, 4)) is None
    assert IntegerSet.make(-5, 9, [1, 2]).first_in(range(-3, 4)) == 1
    assert IntegerSet.at_least(-7).first_in(range(-3, 4)) == -3
    assert IntegerSet.of(4).first_in(range(-3, 4)) is None
    assert IntegerSet.all().first_in(range(2, 2)) is None


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@given(rationals, rationals)
def test_sign_levels_match_windows(c, w):
    assert window_of(IntegerSet.where_nonnegative(c, w)) == {k for k in WINDOW if c + k * w >= 0}
    assert window_of(IntegerSet.where_positive(c, w)) == {k for k in WINDOW if c + k * w > 0}


def test_sign_levels_examples():
    half = Fraction(1, 2)
    assert IntegerSet.where_nonnegative(Fraction(-1), half) == IntegerSet.at_least(2)
    assert IntegerSet.where_positive(Fraction(-1), half) == IntegerSet.at_least(3)
    assert IntegerSet.where_positive(Fraction(1), -half) == IntegerSet.at_most(1)
    assert IntegerSet.where_nonnegative(Fraction(0), Fraction(0)) == IntegerSet.all()
    assert IntegerSet.where_positive(Fraction(0), Fraction(0)) == IntegerSet.empty()
