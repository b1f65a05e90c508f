"""Unit tests for line subsets, decomposition, and parabolic checks."""

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from superroots import (
    HypothesisViolated,
    IntegerSet,
    NotARoot,
    NotUniformlyHybrid,
    Root,
    RootSubset,
    Shadow,
    build_affine,
    check_parabolic,
    component_parabolic,
    decompose,
    even_subset,
    full_lines_subset,
    hybrid_class,
    parse_type_token,
    root,
)
from superroots.shadows import DOWN, UP
from superroots.subsets import _missing_level


def b11():
    return build_affine(parse_type_token("B,1,1"))


def d21l():
    return build_affine(parse_type_token("D21L"))


# -- RootSubset basics ---------------------------------------------------------


def test_subset_membership():
    s = b11()
    sub = RootSubset.of(
        s,
        {
            Root((Q(0), Q(1)), 0, 0): IntegerSet.at_least(0),
            s.zero_root: IntegerSet.of(0),
        },
    )
    assert root(0, 1) in sub
    assert root(0, 1, k=4) in sub
    assert root(0, 1, k=-1) not in sub
    assert s.zero_root in sub
    assert s.delta not in sub
    assert root(1, 0) not in sub
    assert root(5, 5) not in sub  # not even a system member


def test_subset_of_drops_empty_lines():
    s = b11()
    sub = RootSubset.of(
        s, {Root((Q(1), Q(0)), 0, 0): IntegerSet.empty()}
    )
    assert sub.lines == {}


@pytest.mark.parametrize("token", ["A,1,1", "A,2,2"])
def test_of_keys_a_block_shifted_line_by_its_system_line(token):
    """On equal-block types a key shifted along the block trace names the line
    of its projection: the subset holds that line, not the shifted key."""
    s = build_affine(parse_type_token(token))
    half = s.basis.dim // 2
    line = next(f for f in s.lines if f.sigma)
    shifted = Root(tuple(c + 1 for c in line.coords[:half]) + line.coords[half:], 0, line.sigma)
    assert shifted != line and s.entry(shifted) == s.entry(line)
    # P u -P covers both lines at every level
    canonical = RootSubset.of(s, {line: IntegerSet.at_least(0), -line: IntegerSet.at_least(1)})
    given = RootSubset.of(s, {shifted: IntegerSet.at_least(0), -line: IntegerSet.at_least(1)})
    assert given.same_as(canonical)
    for k in (-1, 0, 3):
        r = Root(line.coords, k, line.sigma)
        assert given.contains(r) == canonical.contains(r) == (k >= 0)
    assert given.is_symmetric() == canonical.is_symmetric() is False
    whole = RootSubset.of(s, {line: IntegerSet.all(), shifted: IntegerSet.all(), -line: IntegerSet.all()})
    assert set(whole.lines) == {line, -line}
    for P in (given, canonical):
        assert check_parabolic(P, whole, 3).covering_failures == ()
    symmetric = RootSubset.of(s, {shifted: IntegerSet.all(), -line: IntegerSet.all()})
    assert symmetric.is_symmetric() and symmetric.same_as(whole)
    # keys that name the same line are merged by union
    merged = RootSubset.of(s, {shifted: IntegerSet.at_least(2), line: IntegerSet.of(0)})
    assert merged.lines == {line: IntegerSet.make(None, 2, {0})}


def test_of_rejects_keys_that_name_no_line():
    s = b11()
    stray = Root((Q(1), Q(3)), 0, 0)
    assert stray not in s
    for key in (stray, Root((Q(1), Q(0)), 1, 0), Root((Q(0),), 0, 0)):
        with pytest.raises(NotARoot):
            RootSubset.of(s, {key: IntegerSet.at_least(0)})
    # a stray key is rejected even when its level set is empty
    with pytest.raises(NotARoot):
        RootSubset.of(s, {stray: IntegerSet.empty()})


def test_negated_union_symmetric():
    s = b11()
    e1 = Root((Q(1), Q(0)), 0, 0)
    sub = RootSubset.of(s, {e1: IntegerSet.at_least(2)})
    neg = sub.negated()
    assert neg.levels(-e1) == IntegerSet.at_most(-2)
    assert not sub.is_symmetric()
    sym = sub.union(neg)
    assert sym.is_symmetric()
    assert sym.levels(e1) == IntegerSet.at_least(2)


def test_mirrored():
    s = b11()
    e1 = Root((Q(1), Q(0)), 0, 0)
    sub = RootSubset.of(s, {e1: IntegerSet.at_least(2)})
    assert sub.mirrored().levels(e1) == IntegerSet.at_most(-2)


def test_window_members_sorted_and_windowed():
    s = b11()
    e1 = Root((Q(1), Q(0)), 0, 0)
    sub = RootSubset.of(s, {e1: IntegerSet.at_least(-1)})
    members = sub.window_members(3)
    assert members == tuple(Root(e1.coords, k, 0) for k in (-1, 0, 1, 2, 3))


def test_even_part():
    s = b11()
    sub = even_subset(s)
    # even lines of the rank-(1,1) family: zero, +-e1, +-2d1
    assert set(sub.lines) == {
        s.zero_root,
        Root((Q(1), Q(0)), 0, 0),
        Root((Q(-1), Q(0)), 0, 0),
        Root((Q(0), Q(2)), 0, 0),
        Root((Q(0), Q(-2)), 0, 0),
    }
    assert all(ks.is_all for ks in sub.lines.values())
    assert sub.even_part().same_as(sub)


def test_full_lines_subset():
    s = b11()
    sub = full_lines_subset(s, [root(0, 1), root(0, -1)])
    assert set(sub.lines) == {
        s.zero_root,
        Root((Q(0), Q(1)), 0, 0),
        Root((Q(0), Q(-1)), 0, 0),
    }
    no_im = full_lines_subset(s, [root(0, 1)], include_imaginary=False)
    assert s.zero_root not in no_im.lines


def test_closure_violations_empty_for_even_part():
    s = b11()
    assert even_subset(s).closure_violations(4) == []


def test_closure_violations_detects_gap():
    s = b11()
    d1 = Root((Q(0), Q(1)), 0, 0)
    dd = Root((Q(0), Q(2)), 0, 0)
    sub = RootSubset.of(
        s,
        {
            d1: IntegerSet.all(),
            -d1: IntegerSet.all(),
            # doubled line missing: d1+d1 = 2d1 escapes the subset
        },
    )
    bad = sub.closure_violations(2)
    assert bad
    a, b, t = bad[0]
    assert t == a + b
    assert t not in sub
    assert s.contains(t)


# -- decomposition ---------------------------------------------------------------


def test_decompose_even_part_b11():
    s = b11()
    dec = decompose(s, even_subset(s), kmax=6)
    assert len(dec.components) == 2
    # components sorted by their first vector: the epsilon line first
    c1, c2 = dec.components
    assert set(c1.vectors) == {root(1, 0), root(-1, 0)}
    assert set(c2.vectors) == {root(0, 2), root(0, -2)}
    assert (c1.index, c2.index) == (1, 2)
    # each component subset carries whole lines plus the zero line
    for comp in dec.components:
        assert comp.subset.levels(s.zero_root).is_all
        for v in comp.vectors:
            assert comp.subset.levels(Root(v.coords, 0, v.sigma)).is_all
    # the core contains every even vector and the zero vector
    assert len(dec.core.roots) == 5


def test_decompose_even_part_d21l():
    s = d21l()
    dec = decompose(s, even_subset(s), kmax=6)
    assert len(dec.components) == 3
    units = [root(2, 0, 0), root(0, 2, 0), root(0, 0, 2)]
    for comp, u in zip(dec.components, units):
        assert set(comp.vectors) == {u, -u}


def test_decompose_rejects_asymmetric():
    s = b11()
    sub = RootSubset.of(
        s, {Root((Q(1), Q(0)), 0, 0): IntegerSet.all()}
    )
    with pytest.raises(HypothesisViolated):
        decompose(s, sub)


def test_decompose_rejects_partial_even_line():
    s = b11()
    e1 = Root((Q(1), Q(0)), 0, 0)
    sub = RootSubset.of(
        s,
        {
            e1: IntegerSet.at_least(0),
            -e1: IntegerSet.at_most(0),
            s.zero_root: IntegerSet.all(),
        },
    )
    # symmetric and closed (e1 + e1 is not a member), but lines are partial
    with pytest.raises(HypothesisViolated):
        decompose(s, sub)


def test_decompose_rejects_a_partial_even_line_beyond_the_window():
    s = b11()
    e1 = Root((Q(1), Q(0)), 0, 0)
    lines = dict(even_subset(s).lines)
    lines[-e1] = IntegerSet.at_least(-20)
    lines[e1] = IntegerSet.at_most(20)
    sub = RootSubset.of(s, lines)
    # symmetric, and every window level is there: only levels beyond 2*kmax
    # show that -e1-20d + (-d) = -e1-21d is missing
    assert sub.is_symmetric()
    assert sub.closure_violations(6) == []
    with pytest.raises(HypothesisViolated) as exc:
        decompose(s, sub, kmax=6)
    assert "only partially present" in str(exc.value)
    assert exc.value.witness in {Root((Q(-1), Q(0)), -21, 0), Root((Q(1), Q(0)), 21, 0)}


def test_decompose_rejects_a_subset_closed_only_inside_the_window():
    s = b11()
    lines = dict(even_subset(s).lines)
    lines.update({line: IntegerSet.of(*range(-20, 21)) for line in s.lines if line not in lines})
    sub = RootSubset.of(s, lines)
    # whole even lines plus odd levels -20..20: the window sums never leave
    # the odd levels, but 0 + (-e1-d1) reaches -e1-d1 at every level
    assert sub.is_symmetric()
    assert sub.closure_violations(6) == []
    with pytest.raises(HypothesisViolated) as exc:
        decompose(s, sub, kmax=6)
    assert "none with |k| <= 6" in str(exc.value)
    f = Root((Q(-1), Q(-1)), 0, 0)
    assert exc.value.witness == (f, s.zero_root, f)
    # a window wide enough to reach level 21 shows the pair root by root
    wide = sub.closure_violations(22)
    assert len(wide) == 20240
    assert (Root(s.zero_root.coords, 1), Root(f.coords, 20), Root(f.coords, 21)) in wide


def test_of_refuses_a_key_off_the_system():
    s = b11()
    stray = Root((Q(1), Q(3)), 0, 0)  # e1 + 3d1
    with pytest.raises(NotARoot, match="names no line of B,1,1"):
        RootSubset.of(s, {stray: IntegerSet.of(0), s.zero_root: IntegerSet.all()})


@pytest.mark.parametrize(
    "ks, expected",
    [
        (IntegerSet.all(), None),
        # rays that meet hold every level, normal form or not
        (IntegerSet(down=3, up=2), None),
        # a window level is missing: the first one is named
        (IntegerSet.at_least(0), -6),
        # points adjacent to the down-ray, as the bare constructor leaves them
        (IntegerSet(down=-30, up=40, points=frozenset(range(-29, 30))), 30),
        (IntegerSet(up=-10, points=frozenset({-12})), -11),
        (IntegerSet.of(*range(-20, 21)), -21),  # equally near: lower first
        (IntegerSet(up=50, points=frozenset(range(-40, 31))), 31),
        # a gap far beyond the window is found without stepping towards it
        (IntegerSet.at_most(10**12), 10**12 + 1),
    ],
)
def test_missing_level(ks, expected):
    assert _missing_level(ks, 6) == expected


def test_decompose_rejects_unclosed():
    s = b11()
    d1 = Root((Q(0), Q(1)), 0, 0)
    sub = RootSubset.of(s, {d1: IntegerSet.all(), -d1: IntegerSet.all()})
    with pytest.raises(HypothesisViolated):
        decompose(s, sub)  # d1 + d1 = 2d1 missing -> not closed


def test_decompose_rejects_imaginary_only():
    s = b11()
    sub = RootSubset.of(s, {s.zero_root: IntegerSet.all()})
    with pytest.raises(HypothesisViolated):
        decompose(s, sub)


# -- parabolic construction --------------------------------------------------------


def uniform_shadow(system, direction, m, t):
    return {
        rep: hybrid_class(rep, direction, m, t) for rep in system.real_class_reps
    }


def test_component_parabolic_up():
    s = b11()
    dec = decompose(s, even_subset(s), kmax=6)
    shadows = uniform_shadow(s, UP, 0, 0)
    comp = dec.components[1]  # the doubled-delta component
    P = component_parabolic(s, comp, shadows, UP)
    dd = Root((Q(0), Q(2)), 0, 0)
    # rep line (-2d1): ln(rep side) u -in(other side); m=0, t=0 gives k >= 0,
    # and the opposite line starts one level later
    assert P.levels(-dd) == IntegerSet.at_least(0)
    assert P.levels(dd) == IntegerSet.at_least(1)
    assert P.levels(s.zero_root) == IntegerSet.at_least(0)


def test_component_parabolic_is_parabolic():
    s = b11()
    dec = decompose(s, even_subset(s), kmax=6)
    shadows = uniform_shadow(s, UP, 1, 0)
    for comp in dec.components:
        P = component_parabolic(s, comp, shadows, UP)
        check = check_parabolic(P, comp.subset, kmax=6)
        assert check.is_parabolic
        assert check.proper


def test_component_parabolic_down_direction():
    s = b11()
    dec = decompose(s, even_subset(s), kmax=6)
    shadows = uniform_shadow(s, DOWN, 0, 0)
    comp = dec.components[0]
    P = component_parabolic(s, comp, shadows, DOWN)
    e1 = Root((Q(1), Q(0)), 0, 0)
    assert P.levels(-e1) == IntegerSet.at_most(0)  # canonical rep side
    assert P.levels(e1) == IntegerSet.at_most(-1)
    assert P.levels(s.zero_root) == IntegerSet.at_most(0)
    assert check_parabolic(P, comp.subset, kmax=6).is_parabolic


def test_component_parabolic_direction_mismatch():
    s = b11()
    dec = decompose(s, even_subset(s), kmax=6)
    shadows = uniform_shadow(s, UP, 0, 0)
    with pytest.raises(NotUniformlyHybrid):
        component_parabolic(s, dec.components[0], shadows, DOWN)


def test_component_parabolic_rejects_tight():
    from superroots import tight_class

    s = b11()
    dec = decompose(s, even_subset(s), kmax=6)
    shadows = {rep: tight_class(rep, True, False) for rep in s.real_class_reps}
    with pytest.raises(NotUniformlyHybrid):
        component_parabolic(s, dec.components[0], shadows, UP)


def test_component_parabolic_missing_class():
    s = b11()
    dec = decompose(s, even_subset(s), kmax=6)
    with pytest.raises(NotUniformlyHybrid):
        component_parabolic(s, dec.components[0], {}, UP)


def test_parabolic_offsets_shift_the_boundary():
    s = b11()
    dec = decompose(s, even_subset(s), kmax=6)
    comp = dec.components[1]
    dd = Root((Q(0), Q(2)), 0, 0)
    for m in (-2, 0, 3):
        for t in (-1, 0, 1):
            shadows = uniform_shadow(s, UP, m, t)
            P = component_parabolic(s, comp, shadows, UP)
            # minus side of the canonical rep -2d1 -> plus line gets
            # ln(minus side) u -in(plus side)
            assert P.levels(-dd) == IntegerSet.at_least(m + min(0, t))
            assert P.levels(dd) == IntegerSet.at_least(1 - m - max(0, t))


def test_parabolic_union_with_mirror_covers_component():
    s = d21l()
    dec = decompose(s, even_subset(s), kmax=6)
    shadows = uniform_shadow(s, UP, 2, -1)
    for comp in dec.components:
        P = component_parabolic(s, comp, shadows, UP)
        check = check_parabolic(P, comp.subset, kmax=6)
        assert check.is_parabolic and check.proper
        # covering is exact: P u -P fills every component line
        union = P.union(P.negated())
        assert union.same_as(comp.subset)


def test_check_parabolic_flags_non_closed():
    s = b11()
    dec = decompose(s, even_subset(s), kmax=6)
    comp = dec.components[1]
    dd = Root((Q(0), Q(2)), 0, 0)
    bad = RootSubset.of(
        s,
        {
            s.zero_root: IntegerSet.at_least(1),  # delta itself missing
            dd: IntegerSet.at_least(0),
            -dd: IntegerSet.of(0),  # a stray point set
        },
    )
    check = check_parabolic(bad, comp.subset, kmax=5)
    assert not check.is_parabolic
    assert check.covering_failures


def test_check_parabolic_improper():
    s = b11()
    dec = decompose(s, even_subset(s), kmax=6)
    comp = dec.components[1]
    check = check_parabolic(comp.subset, comp.subset, kmax=5)
    assert check.is_parabolic
    assert not check.proper
