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


@st.composite
def raw_intsets(draw):
    """Sets built with the dataclass constructor: rays that meet, points on
    or beside a ray, and all of Z with stray fields are all allowed."""
    return IntegerSet(draw(maybe_ray), draw(maybe_ray), frozenset(draw(point_sets)),
                      draw(st.integers(0, 9)) == 0)


def fixpoint_make(down, up, pts) -> IntegerSet:
    """``IntegerSet.make`` as it was with a fold-until-stable loop: the oracle
    for the one-pass folds."""
    points = set(pts)
    if down is not None and up is not None and up <= down + 1:
        return IntegerSet.all()
    changed = True
    while changed:
        changed = False
        if down is not None:
            while down + 1 in points:
                points.discard(down + 1)
                down += 1
                changed = True
        if up is not None:
            while up - 1 in points:
                points.discard(up - 1)
                up -= 1
                changed = True
        if down is not None and up is not None and up <= down + 1:
            return IntegerSet.all()
    points = {p for p in points
              if (down is None or p > down) and (up is None or p < up)}
    return IntegerSet(down=down, up=up, points=frozenset(points))


def fragment_intersect(a: IntegerSet, b: IntegerSet) -> IntegerSet:
    """``IntegerSet.intersect`` as it was, filtering each ray-overlap fragment
    by the combined rays itself: the oracle for the version that leaves that
    to ``make``."""
    if a.is_all:
        return b
    if b.is_all:
        return a
    down = None if a.down is None or b.down is None else min(a.down, b.down)
    up = None if a.up is None or b.up is None else max(a.up, b.up)
    pts: set[int] = set()
    for p in a.points:
        if p in b:
            pts.add(p)
    for p in b.points:
        if p in a:
            pts.add(p)
    if a.down is not None and b.up is not None and b.up <= a.down:
        for k in range(b.up, a.down + 1):
            if (down is None or k > down) and (up is None or k < up):
                pts.add(k)
    if b.down is not None and a.up is not None and a.up <= b.down:
        for k in range(a.up, b.down + 1):
            if (down is None or k > down) and (up is None or k < up):
                pts.add(k)
    return fixpoint_make(down, up, pts)


@given(maybe_ray, maybe_ray, point_sets)
def test_make_matches_the_fixpoint_oracle(down, up, pts):
    assert IntegerSet.make(down, up, pts) == fixpoint_make(down, up, pts)


@given(st.one_of(intsets(), raw_intsets()), st.one_of(intsets(), raw_intsets()))
def test_intersect_matches_the_fragment_oracle(a, b):
    assert a.intersect(b) == fragment_intersect(a, b)  # field by field


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


def brute_sum(a: IntegerSet, b: IntegerSet, levels: range) -> set[int]:
    """The levels k with k = i + j, i in a, j in b, for i within a wide range.

    The generated rays and points lie in [-8, 8], so a witness for any
    |k| <= 20 has |i| <= 28."""
    return {k for k in levels if any(i in a and k - i in b for i in range(-40, 41))}


@given(intsets(), intsets())
def test_sum_matches_brute_force(a, b):
    # the sums' rays and points lie in [-16, 16], so [-20, 20] sees all of them
    levels = range(-20, 21)
    got = a + b
    assert {k for k in levels if k in got} == brute_sum(a, b, levels)
    assert got == IntegerSet.make(got.down, got.up, got.points) or got.is_all
    assert got == b + a


def test_sum_examples():
    up, down = IntegerSet.at_least(2), IntegerSet.at_most(-1)
    assert up + IntegerSet.at_least(-5) == IntegerSet.at_least(-3)
    assert down + IntegerSet.at_most(4) == IntegerSet.at_most(3)
    assert up + down == IntegerSet.all()
    assert up + IntegerSet.of(-4, 1) == IntegerSet.at_least(-2)
    assert down + IntegerSet.make(-6, None, {0, 3}) == IntegerSet.at_most(2)
    assert IntegerSet.of(0, 5) + IntegerSet.of(1, 2) == IntegerSet.of(1, 2, 6, 7)
    assert IntegerSet.make(-3, 3, {0}) + IntegerSet.of(0) == IntegerSet.make(-3, 3, {0})
    assert IntegerSet.make(None, 6, {0}) + IntegerSet.of(0, 2) == IntegerSet.make(None, 6, {0, 2})
    for s in (up, down, IntegerSet.of(3), IntegerSet.all()):
        assert s + IntegerSet.empty() == IntegerSet.empty() == IntegerSet.empty() + s
        assert s + IntegerSet.all() == IntegerSet.all()


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


LEVELS = range(-60, 61)


def _assert_sign_levels(c, w):
    nonnegative = IntegerSet.where_nonnegative(c, w)
    positive = IntegerSet.where_positive(c, w)
    assert {k for k in LEVELS if k in nonnegative} == {k for k in LEVELS if c + k * w >= 0}
    assert {k for k in LEVELS if k in positive} == {k for k in LEVELS if c + k * w > 0}
    # the ray ends are ints, whatever the type of c and w
    assert all(type(end) is int for s in (nonnegative, positive) for end in (s.down, s.up) if end is not None)


@given(st.integers(-40, 40), st.integers(-40, 40), st.booleans())
def test_sign_levels_of_ints_and_fractions_match_brute_force(c, w, as_fractions):
    if as_fractions:
        c, w = Fraction(c, 3), Fraction(w, 7)
    _assert_sign_levels(c, w)


@given(st.integers(-12, 12), st.integers(-5, 5).filter(bool), st.booleans())
def test_sign_levels_on_exact_multiples(m, w, as_fractions):
    """c = m*w puts the boundary on a level, for w of either sign."""
    if as_fractions:
        w = Fraction(w, 4)
    _assert_sign_levels(m * w, w)
    _assert_sign_levels(-m * w, w)


def test_sign_levels_with_negative_w_examples():
    for c, w in [(6, -3), (-6, -3), (7, -3), (-7, -3), (Fraction(3, 2), Fraction(-1, 2))]:
        _assert_sign_levels(c, w)
    assert IntegerSet.where_nonnegative(6, -3) == IntegerSet.at_most(2)
    assert IntegerSet.where_positive(6, -3) == IntegerSet.at_most(1)
    assert IntegerSet.where_nonnegative(-7, -3) == IntegerSet.at_most(-3)
    assert IntegerSet.where_positive(Fraction(3, 2), Fraction(-1, 2)) == IntegerSet.at_most(2)
