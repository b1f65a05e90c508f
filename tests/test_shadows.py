"""Unit tests for real-class colourings and their consistency laws."""

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from superroots import (
    ClassShadow,
    IntegerSet,
    NotAShadowPattern,
    Root,
    Shadow,
    anchored_class,
    anchored_hybrid,
    build_affine,
    hybrid_class,
    induce_from_functional,
    parse_type_token,
    root,
    tight_class,
    validate_shadow,
)
from superroots.shadows import DOWN, FULL_IN, FULL_LN, TIGHT, UP, hybrid_sets


def b11():
    return build_affine(parse_type_token("B,1,1"))


def d21l():
    return build_affine(parse_type_token("D21L"))


# -- class shapes ------------------------------------------------------------


def test_hybrid_sets_up():
    plus, minus = hybrid_sets(UP, 0, 0)
    assert plus == IntegerSet.at_least(0)
    assert minus == IntegerSet.at_least(1)
    plus, minus = hybrid_sets(UP, 2, 1)
    assert (plus, minus) == (IntegerSet.at_least(2), IntegerSet.at_least(-2))
    plus, minus = hybrid_sets(UP, -1, -1)
    assert (plus, minus) == (IntegerSet.at_least(-1), IntegerSet.at_least(3))


def test_hybrid_sets_down():
    plus, minus = hybrid_sets(DOWN, 1, -1)
    assert (plus, minus) == (IntegerSet.at_most(1), IntegerSet.at_most(-3))
    plus, minus = hybrid_sets(DOWN, 0, 1)
    assert (plus, minus) == (IntegerSet.at_most(0), IntegerSet.at_most(0))


def test_hybrid_sets_rejects_bad_defect():
    with pytest.raises(NotAShadowPattern):
        hybrid_sets(UP, 0, 2)
    with pytest.raises(NotAShadowPattern):
        hybrid_sets("sideways", 0, 0)


def test_up_down_duality():
    """Exactly one of k on the plus side / -k on the minus side is ln when
    t = 0; overlaps and gaps are controlled by the defect."""
    for m in range(-3, 4):
        for t in (-1, 0, 1):
            plus, minus = hybrid_sets(UP, m, t)
            both = [k for k in range(-10, 11) if k in plus and -k in minus]
            neither = [k for k in range(-10, 11) if k not in plus and -k not in minus]
            if t == 1:
                assert both == [m] and not neither
            elif t == 0:
                assert not both and not neither
            else:
                assert not both and neither == [m - 1]


def test_config_round_trip_hybrids():
    rep = root(0, 1)
    for direction in (UP, DOWN):
        for m in range(-3, 4):
            for t in (-1, 0, 1):
                cs = hybrid_class(rep, direction, m, t)
                assert cs.config == {"family": direction, "m": m, "t": t}
                assert cs.direction == direction


def test_config_round_trip_tight():
    rep = root(0, 1)
    for p in (True, False):
        for mn in (True, False):
            cs = tight_class(rep, p, mn)
            cfg = cs.config
            if p and mn:
                assert cfg == {"family": FULL_LN, "m": 0, "t": 0}
            elif not p and not mn:
                assert cfg == {"family": FULL_IN, "m": 0, "t": 0}
            else:
                assert cfg["family"] == TIGHT
                assert cfg["plus"] == ("ln" if p else "in")
                assert cfg["minus"] == ("ln" if mn else "in")
            assert cs.direction is None


def test_class_shadow_rejects_non_ray_sets():
    rep = root(0, 1)
    with pytest.raises(NotAShadowPattern):
        ClassShadow(rep, IntegerSet.of(0, 2), IntegerSet.all())
    with pytest.raises(NotAShadowPattern):
        ClassShadow(rep, IntegerSet.make(0, 5, set()), IntegerSet.all())


def test_config_rejects_mixed_ray_directions():
    rep = root(0, 1)
    cs = ClassShadow(rep, IntegerSet.at_least(0), IntegerSet.at_most(0))
    with pytest.raises(NotAShadowPattern):
        cs.config
    # thresholds too far apart for any defect
    cs2 = ClassShadow(rep, IntegerSet.at_least(0), IntegerSet.at_least(5))
    with pytest.raises(NotAShadowPattern):
        cs2.config


def test_mirrored_swaps_direction():
    rep = root(0, 1)
    cs = hybrid_class(rep, UP, 2, 1)
    m = cs.mirrored()
    assert m.config == {"family": DOWN, "m": -2, "t": 1}
    assert m.mirrored() == cs
    # membership mirrors levelwise
    for k in range(-6, 7):
        assert (k in cs.plus_ln) == (-k in m.plus_ln)


def test_anchored_hybrid_reanchors_to_canonical_rep():
    s = b11()
    d1 = root(0, 1)
    rep, side = s.class_rep(d1)
    assert side == -1  # canonical rep is -d1 (lexicographically smaller)
    cs = anchored_hybrid(s, d1, UP, 2, 0)
    # described from d1: ln on the d1 side from level 2 up
    assert cs.rep == rep
    assert cs.minus_ln == IntegerSet.at_least(2)
    assert cs.plus_ln == IntegerSet.at_least(-1)
    # anchoring at the canonical rep itself stores the sets untouched
    cs2 = anchored_hybrid(s, rep, UP, 2, 0)
    assert cs2.plus_ln == IntegerSet.at_least(2)


def _round_trip_configs():
    """(config given, config read back): tight (ln, ln) and (in, in) are
    the full shapes, and ``config`` names them so."""
    full = {"family": FULL_LN, "m": 0, "t": 0}
    empty = {"family": FULL_IN, "m": 0, "t": 0}
    pairs = [(full, full), (empty, empty)]
    for plus in ("ln", "in"):
        for minus in ("ln", "in"):
            cfg = {"family": TIGHT, "plus": plus, "minus": minus}
            pairs.append((cfg, full if plus == minus == "ln" else empty if plus == minus else cfg))
    for family in (UP, DOWN):
        for m in range(-3, 4):
            for t in (-1, 0, 1):
                cfg = {"family": family, "m": m, "t": t}
                pairs.append((cfg, cfg))
    return pairs


@pytest.mark.parametrize("token", ["B,1,1", "D21L", "A,1,1"])
def test_anchored_class_reads_back_through_config(token):
    s = build_affine(parse_type_token(token))
    for rep in s.real_class_reps[:2]:
        for anchor in (rep, -rep):
            for cfg, read in _round_trip_configs():
                cs = anchored_class(s, anchor, cfg)
                assert cs.rep == rep
                if s.class_rep(anchor)[1] < 0:  # read the config on anchor's side
                    cs = ClassShadow(rep, cs.minus_ln, cs.plus_ln)
                assert cs.config == read, (token, anchor, cfg)


@pytest.mark.parametrize("cfg", ["up", ["up", 0, 1], None, 3])
def test_anchored_class_refuses_a_colouring_that_is_no_object(cfg):
    s = build_affine(parse_type_token("B,1,1"))
    with pytest.raises(NotAShadowPattern, match="a class colouring is a JSON object"):
        anchored_class(s, s.real_class_reps[0], cfg)


def test_membership_examples_up_hybrid():
    s = b11()
    d1 = root(0, 1)
    shadow = Shadow.of(
        s, [anchored_hybrid(s, rep, UP, 0, 0) for rep in s.real_class_reps]
    )
    # on the anchor side: ln exactly from level 0 up
    for k in range(-5, 6):
        anchor_side = Root((-d1).coords, k, 0)  # -d1 is the canonical rep
        assert shadow.is_ln(anchor_side) == (k >= 0)
        other_side = Root(d1.coords, k, 0)
        assert shadow.is_ln(other_side) == (k >= 1)
        assert shadow.is_in(other_side) == (k < 1)


def test_membership_examples_down_hybrid():
    s = b11()
    reps = s.real_class_reps
    shadow = Shadow.of(s, [hybrid_class(rep, DOWN, 1, -1) for rep in reps])
    for rep in reps:
        for k in range(-6, 7):
            assert shadow.is_ln(Root(rep.coords, k, 0)) == (k <= 1)
            assert shadow.is_ln(Root((-rep).coords, k, 0)) == (k <= -3)


def test_ln_levels_by_finite_vector():
    s = b11()
    reps = s.real_class_reps
    shadow = Shadow.of(s, [hybrid_class(rep, UP, 1, 1) for rep in reps])
    rep = reps[0]
    assert shadow.ln_levels(rep) == IntegerSet.at_least(1)
    assert shadow.ln_levels(-rep) == IntegerSet.at_least(-1)
    assert shadow.in_levels(rep) == IntegerSet.at_most(0)


def test_shadow_of_requires_full_coverage():
    s = b11()
    reps = s.real_class_reps
    with pytest.raises(NotAShadowPattern):
        Shadow.of(s, [hybrid_class(reps[0], UP, 0, 0)])


def test_shadow_of_refuses_a_class_coloured_twice():
    s = b11()
    classes = [hybrid_class(rep, UP, 0, 0) for rep in s.real_class_reps]
    # -e1 is the rep of e1's class, so this colours that class a second time
    again = anchored_hybrid(s, root(1, 0), UP, 1, 0)
    assert again.rep == classes[0].rep
    with pytest.raises(NotAShadowPattern, match="class -e1 is coloured twice"):
        Shadow.of(s, classes + [again])


def test_shadow_reads_only_canonical_reps_of_its_table():
    # a key on the other side of a class colours nothing, as a key off any line
    s = b11()
    rep = s.real_class_reps[0]
    shadow = Shadow(s, {-rep: hybrid_class(rep, UP, 0, 0)})
    with pytest.raises(NotAShadowPattern, match="class of -e1 has no colouring"):
        shadow.ln_levels(rep)


def test_shadow_class_without_colouring_is_named():
    # built directly, a Shadow skips Shadow.of's coverage check
    s = b11()
    with pytest.raises(NotAShadowPattern, match="class of -e1 has no colouring"):
        Shadow(s, {}).is_ln(-root(1, 0))
    with pytest.raises(NotAShadowPattern, match="class of -e1 has no colouring"):
        Shadow(s, {}).ln_levels(root(1, 0))

def test_shadow_rejects_non_real_query():
    from superroots import NotRealRoot

    s = b11()
    shadow = Shadow.of(
        s, [hybrid_class(rep, UP, 0, 0) for rep in s.real_class_reps]
    )
    with pytest.raises(NotRealRoot):
        shadow.is_ln(root(1, 1))  # isotropic line has no colouring


# -- the three laws ------------------------------------------------------------


def test_uniform_up_hybrids_are_consistent():
    # With a doubled real line present, the scale law pins the uniform
    # offsets to the combos where k >= threshold iff 2k >= threshold.
    s = b11()
    for m, t in ((0, 0), (0, 1), (1, 0)):
        shadow = Shadow.of(
            s, [hybrid_class(rep, UP, m, t) for rep in s.real_class_reps]
        )
        assert validate_shadow(shadow, 4).passed
    # No doubled pairs in the rank-3 family: every combo is consistent.
    d = d21l()
    for m in (-2, 0, 3):
        for t in (-1, 0, 1):
            shadow = Shadow.of(
                d, [hybrid_class(rep, UP, m, t) for rep in d.real_class_reps]
            )
            assert validate_shadow(shadow, 4).passed


def test_uniform_offset_trips_scale_law_on_doubled_line():
    s = b11()
    shadow = Shadow.of(
        s, [hybrid_class(rep, UP, 2, 0) for rep in s.real_class_reps]
    )
    report = validate_shadow(shadow, 4)
    assert "scale" in {v.law for v in report.violations}
    for v in report.violations:
        if v.law == "scale":
            assert v.target.coords == tuple(2 * c for c in v.alpha.coords)
            assert v.target.k == 2 * v.alpha.k
            assert shadow.is_ln(v.alpha) != shadow.is_ln(v.target)


def test_full_ln_and_full_in_are_consistent():
    s = d21l()
    for maker in (lambda r: tight_class(r, True, True),
                  lambda r: tight_class(r, False, False)):
        shadow = Shadow.of(s, [maker(rep) for rep in s.real_class_reps])
        assert validate_shadow(shadow, 4).passed


def test_scale_law_catches_disagreeing_doubled_line():
    """In the odd-orthogonal family both d1 and 2d1 are real, so colouring
    them independently trips the scale law."""
    s = b11()
    classes = []
    for rep in s.real_class_reps:
        if rep == root(0, -1):  # the single-delta class, canonical rep -d1
            classes.append(hybrid_class(rep, UP, 0, 0))
        elif rep == root(0, -2):  # the doubled class gets the opposite colouring
            classes.append(hybrid_class(rep, DOWN, 0, 0))
        else:
            classes.append(hybrid_class(rep, UP, 0, 0))
    shadow = Shadow(s, {c.rep: c for c in classes})
    report = validate_shadow(shadow, 4)
    assert not report.passed
    scale = [v for v in report.violations if v.law == "scale"]
    assert scale
    for v in scale:
        a, b = v.alpha, v.target
        assert b.coords == tuple(2 * c for c in a.coords)
        assert b.k == 2 * a.k
        assert shadow.is_ln(a) != shadow.is_ln(b)


def test_cross_block_direction_mix_is_consistent():
    """Opposite hybrid directions on the epsilon class and the delta classes
    never meet on a real target in the rank-(1,1) family, so no law fires."""
    s = b11()
    classes = {}
    for rep in s.real_class_reps:
        if rep == root(-1, 0):  # the epsilon class
            classes[rep] = hybrid_class(rep, DOWN, 0, 0)
        else:
            classes[rep] = hybrid_class(rep, UP, 0, 0)
    shadow = Shadow(s, classes)
    assert validate_shadow(shadow, 5).passed


def _shifted_b21_shadow():
    """Shadow on the (2,1) family with one epsilon class offset so that
    ln + ln sums land on in levels of a third real class."""
    s = build_affine(parse_type_token("B,2,1"))
    classes = {}
    for rep in s.real_class_reps:
        if rep == root(0, -1, 0):  # the second epsilon class
            classes[rep] = hybrid_class(rep, UP, 5, 0)
        else:
            classes[rep] = hybrid_class(rep, UP, 0, 0)
    return s, Shadow(s, classes)


def test_sum_law_catches_shifted_class():
    s, shadow = _shifted_b21_shadow()
    report = validate_shadow(shadow, 5)
    assert not report.passed
    laws = {v.law for v in report.violations}
    assert "sum" in laws
    assert "scale" not in laws  # the doubled delta pair stays aligned
    for v in report.violations:
        # re-verify each reported violation from first principles
        if v.law == "sum":
            assert v.target == v.alpha + v.beta
        else:
            assert v.law == "sum2"
            assert v.target == v.alpha + v.beta.scale(Q(2))
        assert shadow.is_ln(v.alpha) and shadow.is_ln(v.beta)
        assert not shadow.is_ln(v.target)
        assert s.classify(v.target) == "real"


def test_class_filter_restricts_validation():
    s, shadow = _shifted_b21_shadow()
    delta_only = {root(0, 0, -1), root(0, 0, -2)}
    report = validate_shadow(shadow, 4, class_filter=delta_only)
    # the delta ladder alone is consistent; the clash needs the epsilon classes
    assert report.passed
    assert not validate_shadow(shadow, 4).passed


def test_mirrored_shadow_stays_consistent():
    s = b11()
    shadow = Shadow.of(
        s, [hybrid_class(rep, UP, 1, 0) for rep in s.real_class_reps]
    )
    assert validate_shadow(shadow.mirrored(), 4).passed


def test_config_json_shape():
    s = b11()
    shadow = Shadow.of(
        s, [hybrid_class(rep, UP, 0, 1) for rep in s.real_class_reps]
    )
    data = shadow.config_json()
    assert data["system"] == "B,1,1"
    assert len(data["classes"]) == len(s.real_class_reps)
    for entry in data["classes"]:
        assert entry["config"] == {"family": "up", "m": 0, "t": 1}
        assert isinstance(entry["rep"], str)


# -- functional-induced colourings ---------------------------------------------


def test_induced_shadow_small_system():
    s = b11()
    shadow = induce_from_functional(s, {"e1": Q(1, 3), "d1": Q(1, 7)}, Q(1))
    # e1 line: value 1/3, ln from k >= 0 (1/3 + k > 0 iff k >= 0)
    e1 = root(1, 0)
    for k in range(-4, 5):
        assert shadow.is_ln(Root(e1.coords, k, 0)) == (k >= 0)
        assert shadow.is_ln(Root((-e1).coords, k, 0)) == (k >= 1)
    # 2d1 line: value 2/7
    dd = root(0, 2)
    for k in range(-4, 5):
        assert shadow.is_ln(Root(dd.coords, k, 0)) == (k >= 0)
    assert validate_shadow(shadow, 8).passed


def test_induced_shadow_negative_delta_coefficient():
    s = b11()
    shadow = induce_from_functional(s, {"e1": Q(1, 3), "d1": Q(1, 7)}, Q(-1))
    e1 = root(1, 0)
    for k in range(-4, 5):
        # 1/3 - k > 0 iff k <= 0
        assert shadow.is_ln(Root(e1.coords, k, 0)) == (k <= 0)
    assert validate_shadow(shadow, 6).passed
    for cs in shadow.classes.values():
        assert cs.config["family"] == "down"


def test_induced_shadow_defect_range():
    """Sign colourings always give hybrids with defect -1 or 0."""
    s = d21l()
    shadow = induce_from_functional(
        s, {"g1": Q(1, 5), "g2": Q(1, 7), "g3": Q(1, 11)}, Q(1)
    )
    for cs in shadow.classes.values():
        cfg = cs.config
        assert cfg["family"] == "up"
        assert cfg["t"] in (-1, 0)
    assert validate_shadow(shadow, 8).passed


def test_induced_shadow_boundary_levels_are_in():
    """A functional vanishing on a root level marks that level in."""
    s = b11()
    shadow = induce_from_functional(s, {"e1": Q(-2), "d1": Q(0)}, Q(1))
    e1 = root(1, 0)
    # value on e1+k*delta is k-2: zero at k = 2, so ln starts at k = 3
    assert shadow.ln_levels(e1) == IntegerSet.at_least(3)
    assert shadow.ln_levels(-e1) == IntegerSet.at_least(-1)
    # d1 line: value k exactly; defect at the zero level
    assert shadow.ln_levels(root(0, 1)) == IntegerSet.at_least(1)
    assert validate_shadow(shadow, 6).passed


def test_induced_shadow_rejects_zero_delta_coefficient():
    with pytest.raises(NotAShadowPattern):
        induce_from_functional(b11(), {"e1": Q(1)}, Q(0))
