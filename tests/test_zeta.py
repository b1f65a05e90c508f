"""Tests for the triangulating-functional construction.

Expected bases, marks, u/t flags and functional values below were worked
out by hand from the normalisation rules before being frozen here:

* each rank-1 loop component {+-f} has shifted bases {f + a*delta,
  -f + (1-a)*delta} with both marks 1,
* an assignment (m=0, t=0) forces line thresholds th(-f) = 0, th(f) = 1,
  i.e. the base {-f, f+delta}, where both elements are strictly positive
  (u = 1, t = 1),
* an assignment (m=0, t=1) admits both orientations; the larger-t rule
  keeps t = 1 and the key tie-break picks the base {-f, f+delta} with
  a0 = -f, giving u = 0,
* zeta(delta) = 1 + max(u_i); the mark-1 element a0 of the first
  component enters the basis with value u_1, every other base element
  with mark r gets (zeta(delta) - u_i)/(t_i * r) when strictly positive
  and 0 otherwise.
"""
from __future__ import annotations

from fractions import Fraction as Q

import pytest

from superroots.affine import build_affine
from superroots.errors import (
    BasisMismatch,
    CaseMismatch,
    DependentRoots,
    NoCompatibleBase,
    OutsideSpan,
)
from superroots.finite import parse_type_token
from superroots.intsets import IntegerSet
from superroots.roots import Root, root
from superroots.shadows import DOWN, UP, Shadow
from superroots.subsets import RootSubset, component_parabolic, decompose, even_subset
from superroots.zeta import (
    LinearFunctional,
    ZetaComponent,
    ZetaResult,
    construct_zeta,
    hybrid_assignment_shadows,
    select_base,
    verify_zeta,
)


def b11():
    return build_affine(parse_type_token("B,1,1"))


def d21l():
    return build_affine(parse_type_token("D21L"))


def setup_system(system, assignments, direction=UP):
    """Decompose the even part and colour it with one (m, t) per component."""
    subset = even_subset(system)
    dec = decompose(system, subset, kmax=6)
    table = hybrid_assignment_shadows(system, dec.components, assignments, direction)
    parabolics = tuple(
        component_parabolic(system, comp, table, direction) for comp in dec.components
    )
    return subset, dec, table, parabolics


# -- LinearFunctional ------------------------------------------------------------


def test_functional_values_and_linearity():
    func = LinearFunctional(
        (root(-1, 0), Root((Q(1), Q(0)), 1, 0)), (Q(1), Q(1))
    )
    assert func.value(root(-1, 0)) == 1
    assert func.value(Root((Q(1), Q(0)), 1, 0)) == 1
    # delta = (-e1) + (e1 + delta)
    assert func.value(Root((Q(0), Q(0)), 1, 0)) == 2
    assert func.value(root(1, 0)) == -1
    assert func.value(Root((Q(1), Q(0)), 3, 0)) == 5
    assert func.value(Root((Q(-2), Q(0)), 1, 0)) == 4


def test_functional_rejects_roots_outside_span():
    func = LinearFunctional(
        (root(-1, 0), Root((Q(1), Q(0)), 1, 0)), (Q(1), Q(1))
    )
    with pytest.raises(BasisMismatch):
        func.value(root(0, 1))
    with pytest.raises(BasisMismatch):
        func.value(Root((Q(1), Q(1)), 2, 0))
    # the span miss is the OutsideSpan kind of mismatch ...
    with pytest.raises(OutsideSpan):
        func.value(root(0, 1))
    # ... unlike a root over another ambient basis
    with pytest.raises(BasisMismatch) as exc:
        func.value(root(1, 0, 0))
    assert not isinstance(exc.value, OutsideSpan)


def test_functional_sigma_is_a_coordinate():
    func = LinearFunctional(
        (root(-1, 0), Root((Q(1), Q(0)), 1, 0)), (Q(1), Q(1))
    )
    assert func.value(Root((Q(1), Q(0)), 2, 0)) == 3
    # the sigma-carrying twin is outside the span instead of sharing the value
    with pytest.raises(OutsideSpan):
        func.value(Root((Q(1), Q(0)), 2, 1))
    with_sigma = LinearFunctional(
        (root(-1, 0), Root((Q(1), Q(0)), 1, 0), Root((Q(0), Q(0)), 0, 1)),
        (Q(1), Q(1), Q(5)),
    )
    assert with_sigma.value(Root((Q(1), Q(0)), 2, 1)) == 3 + 5


def test_functional_rejects_dependent_basis():
    # 2*(e1 + delta) = 2*e1 + 2*delta: the values would hang on the list order
    with pytest.raises(DependentRoots):
        LinearFunctional(
            (Root((Q(1), Q(0)), 1, 0), Root((Q(2), Q(0)), 2, 0), root(0, 1)),
            (Q(1), Q(3), Q(0)),
        )


def test_functional_mirrored_swaps_level_sign():
    func = LinearFunctional(
        (root(-1, 0), Root((Q(1), Q(0)), 1, 0)), (Q(1), Q(3))
    )
    mirr = func.mirrored()
    for coords, k in [((Q(1), Q(0)), 2), ((Q(-1), Q(0)), 0), ((Q(0), Q(0)), 3)]:
        assert mirr.value(Root(coords, k, 0)) == func.value(Root(coords, -k, 0))


# -- select_base -----------------------------------------------------------------


def test_select_base_zero_zero_assignment():
    s = d21l()
    _, dec, _, parabolics = setup_system(s, [(0, 0)] * 3)
    bc = select_base(s, dec.components[0], parabolics[0])
    assert bc.elements == (root(-2, 0, 0), Root((Q(2), Q(0), Q(0)), 1, 0))
    assert bc.marks == (1, 1)
    assert bc.a0 == root(-2, 0, 0)
    assert (bc.u, bc.t) == (1, 1)
    assert bc.theta(s.delta) == Root((Q(2), Q(0), Q(0)), 1, 0)


def test_select_base_prefers_larger_t():
    # (0, 1) admits an orientation with u = 1, t = 0; the rule must keep t = 1.
    s = d21l()
    _, dec, _, parabolics = setup_system(s, [(0, 1)] * 3)
    for i, comp in enumerate(dec.components):
        bc = select_base(s, comp, parabolics[i])
        assert (bc.u, bc.t) == (0, 1)
        # tie-break lands on the base anchored at the lex-smaller class side
        assert bc.a0 == min(comp.vectors, key=lambda v: v.key())
        assert bc.marks == (1, 1)


def test_select_base_deterministic():
    s = b11()
    _, dec, _, parabolics = setup_system(s, [(0, 0), (0, 1)])
    first = select_base(s, dec.components[0], parabolics[0])
    second = select_base(s, dec.components[0], parabolics[0])
    assert first == second


def test_select_base_no_compatible_base():
    s = b11()
    _, dec, _, _ = setup_system(s, [(0, 0), (0, 0)])
    comp = dec.components[1]  # the {+-2d1} component
    line_minus = Root((Q(0), Q(-2)), 0, 0)
    line_plus = Root((Q(0), Q(2)), 0, 0)
    # demanding level >= 10 on both sides leaves no threshold pair summing to 1
    P = RootSubset.of(
        s,
        {
            s.zero_root: IntegerSet.at_least(0),
            line_minus: IntegerSet.at_least(0),
            line_plus: IntegerSet.at_least(10),
        },
    )
    with pytest.raises(NoCompatibleBase) as exc:
        select_base(s, comp, P)
    assert exc.value.searched > 0

    # a zero line missing its positive levels is just as fatal
    P2 = RootSubset.of(
        s,
        {
            s.zero_root: IntegerSet.at_most(0),
            line_minus: IntegerSet.at_least(0),
            line_plus: IntegerSet.at_least(1),
        },
    )
    with pytest.raises(NoCompatibleBase):
        select_base(s, comp, P2)


def _exhausting_parabolic(system, comp, level):
    """Every line of the component from ``level`` up: th(f) + th(-f) = 1 cannot fit."""
    mapping = {system.zero_root: IntegerSet.at_least(0)}
    for f in comp.vectors:
        mapping[Root(f.coords, 0, f.sigma)] = IntegerSet.at_least(level)
    return RootSubset.of(system, mapping)


def _base_or_searched(system, comp, P):
    try:
        return select_base(system, comp, P)
    except NoCompatibleBase as exc:
        return ("no compatible base", exc.searched)


@pytest.mark.parametrize("token", ["B,1,1", "D21L", "A,2,1"])
def test_select_base_warm_matches_cold(token):
    """A component reused across parabolics (and kcap values) answers like a fresh one."""
    system = build_affine(parse_type_token(token))
    subset = even_subset(system)
    warm = decompose(system, subset, kmax=6).components
    # kcap 3, 5, 3, 6, 6, 3: found and (on A,2,1's A2 part) exhausted searches
    plan = [(0, 0), (3, 1), (1, -1), (-3, 0), "exhausting", (0, 0)]
    for step in plan:
        if step == "exhausting":
            parabolics = [_exhausting_parabolic(system, comp, 4) for comp in warm]
        else:
            table = hybrid_assignment_shadows(system, warm, [step] * len(warm), UP)
            parabolics = [component_parabolic(system, comp, table, UP) for comp in warm]
        cold = decompose(system, subset, kmax=6).components
        for comp, fresh, P in zip(warm, cold, parabolics):
            assert _base_or_searched(system, comp, P) == _base_or_searched(system, fresh, P)
    assert all(sorted(comp._catalogue) == [3, 5, 6] for comp in warm)


# -- construct_zeta: frozen fingerprints -------------------------------------------


def test_construct_b11_mixed_assignment():
    s = b11()
    subset, dec, table, parabolics = setup_system(s, [(0, 0), (0, 1)])
    result = construct_zeta(s, dec.components, parabolics, UP)
    assert result.case == "case3"
    assert result.direction == UP
    assert result.zeta_delta == 2
    assert tuple(zc.base.u for zc in result.components) == (1, 0)
    func = result.functional
    assert func.basis_roots == (
        root(-1, 0),
        Root((Q(1), Q(0)), 1, 0),
        Root((Q(0), Q(2)), 1, 0),
    )
    assert func.values == (Q(1), Q(1), Q(2))
    assert func.value(s.delta) == 2
    assert func.value(root(1, 0)) == -1
    assert func.value(root(0, 2)) == 0
    assert func.value(root(0, -2)) == 0
    assert verify_zeta(result, subset, 8, shadow=Shadow(s, table)) == []


def test_construct_d21l_fingerprint():
    s = d21l()
    subset, dec, table, parabolics = setup_system(s, [(0, 0), (0, 0), (0, 1)])
    result = construct_zeta(s, dec.components, parabolics, UP)
    assert result.case == "case3"
    assert result.zeta_delta == 2
    assert tuple(zc.base.u for zc in result.components) == (1, 1, 0)
    func = result.functional
    assert func.basis_roots == (
        root(-2, 0, 0),
        Root((Q(2), Q(0), Q(0)), 1, 0),
        Root((Q(0), Q(2), Q(0)), 1, 0),
        Root((Q(0), Q(0), Q(2)), 1, 0),
    )
    assert func.values == (Q(1), Q(1), Q(1), Q(2))
    assert func.value(root(0, -2, 0)) == 1
    assert func.value(root(0, 0, -2)) == 0
    assert func.value(root(0, 0, 2)) == 0
    assert verify_zeta(result, subset, 8, shadow=Shadow(s, table)) == []


@pytest.mark.parametrize(
    "assignments,case,zd,values",
    [
        ([(0, 1)] * 3, "case1", 1, (0, 1, 1, 1)),
        ([(0, 0)] * 3, "case2", 2, (1, 1, 1, 1)),
        ([(0, 0), (0, 1), (0, 1)], "case3", 2, (1, 1, 2, 2)),
        ([(0, 1), (0, 0), (0, 0)], "case4", 2, (0, 2, 1, 1)),
    ],
)
def test_construct_d21l_all_cases(assignments, case, zd, values):
    s = d21l()
    subset, dec, table, parabolics = setup_system(s, assignments)
    result = construct_zeta(s, dec.components, parabolics, UP)
    assert result.case == case
    assert result.zeta_delta == zd
    assert result.functional.values == tuple(Q(v) for v in values)
    assert result.zeta_delta == 1 + max(zc.base.u for zc in result.components)
    # u_i = 1 exactly when the assignment's t vanishes
    for zc, (_, t) in zip(result.components, assignments):
        assert zc.base.u == (1 if t == 0 else 0)
    assert verify_zeta(result, subset, 8, shadow=Shadow(s, table)) == []


def test_construct_down_direction_mirrors():
    s = b11()
    subset, dec, table, parabolics = setup_system(s, [(0, 0), (0, 1)], DOWN)
    result = construct_zeta(s, dec.components, parabolics, DOWN)
    assert result.direction == DOWN
    assert result.case == "case3"
    assert result.zeta_delta == -2
    func = result.functional
    assert func.value(s.delta) == -2
    # mirrored basis carries negated levels
    assert func.basis_roots == (
        root(-1, 0),
        Root((Q(1), Q(0)), -1, 0),
        Root((Q(0), Q(2)), -1, 0),
    )
    assert func.values == (Q(1), Q(1), Q(2))
    assert func.value(root(-1, 0)) == 1
    assert func.value(root(0, 2)) == 0
    # the stored parabolics are the original downward ones
    assert result.components[0].parabolic.levels(root(-1, 0)) == IntegerSet.at_most(0)
    assert result.components[0].parabolic.levels(root(1, 0)) == IntegerSet.at_most(-1)
    assert verify_zeta(result, subset, 8, shadow=Shadow(s, table)) == []


def test_construct_zeta_error_paths():
    s = b11()
    _, dec, _, parabolics = setup_system(s, [(0, 0), (0, 1)])
    with pytest.raises(CaseMismatch):
        construct_zeta(s, dec.components, parabolics[:1], UP)
    with pytest.raises(CaseMismatch):
        construct_zeta(s, (), (), UP)
    with pytest.raises(CaseMismatch):
        construct_zeta(s, dec.components, parabolics, "sideways")


def test_construct_zeta_rejects_improper_parabolic():
    # a parabolic equal to the whole component leaves no strictly positive
    # base element, so no element can carry the normalisation
    s = b11()
    from superroots.subsets import RootSubset

    _, dec, _, parabolics = setup_system(s, [(0, 1), (0, 1)])
    improper = RootSubset.of(
        s,
        {
            s.zero_root: IntegerSet.at_least(0),
            Root((Q(0), Q(-2)), 0, 0): IntegerSet.all(),
            Root((Q(0), Q(2)), 0, 0): IntegerSet.all(),
        },
    )
    with pytest.raises(CaseMismatch):
        construct_zeta(s, dec.components, (parabolics[0], improper), UP)


# -- verify_zeta -----------------------------------------------------------------


def test_verify_detects_tampered_delta_value():
    s = d21l()
    subset, dec, _, parabolics = setup_system(s, [(0, 1)] * 3)
    result = construct_zeta(s, dec.components, parabolics, UP)
    tampered = ZetaResult(
        result.functional, result.case, result.direction, result.components, Q(-3)
    )
    problems = verify_zeta(tampered, subset, 6)
    assert any("not positive" in p for p in problems)


def test_verify_detects_missing_span():
    s = d21l()
    subset, dec, _, parabolics = setup_system(s, [(0, 1)] * 3)
    partial = construct_zeta(s, dec.components[:1], parabolics[:1], UP)
    problems = verify_zeta(partial, subset, 6)
    assert any("span" in p for p in problems)


def test_verify_detects_parabolic_mismatch():
    s = b11()
    subset, dec, table, parabolics = setup_system(s, [(0, 0), (0, 1)])
    result = construct_zeta(s, dec.components, parabolics, UP)
    shifted_table = hybrid_assignment_shadows(s, dec.components, [(0, 0), (1, 0)], UP)
    P2 = component_parabolic(s, dec.components[1], shifted_table, UP)
    swapped = ZetaResult(
        result.functional,
        result.case,
        result.direction,
        (
            result.components[0],
            ZetaComponent(dec.components[1], result.components[1].base, P2),
        ),
        result.zeta_delta,
    )
    problems = verify_zeta(swapped, subset, 6)
    assert any("cone gives" in p for p in problems)


# -- serialisation ----------------------------------------------------------------


def test_result_to_json():
    s = b11()
    _, dec, _, parabolics = setup_system(s, [(0, 0), (0, 1)])
    result = construct_zeta(s, dec.components, parabolics, UP)
    payload = result.to_json(s)
    assert payload == {
        "system": "B,1,1",
        "case": "case3",
        "direction": "up",
        "zeta_delta": "2",
        "basis": ["-e1", "e1+d", "2d1+d"],
        "values": ["1", "1", "2"],
        "components": [
            {
                "theta": "e1+d",
                "base": ["-e1", "e1+d"],
                "marks": [1, 1],
                "t": 1,
                "u": 1,
            },
            {
                "theta": "2d1+d",
                "base": ["-2d1", "2d1+d"],
                "marks": [1, 1],
                "t": 1,
                "u": 0,
            },
        ],
    }


def test_hybrid_assignment_shadow_table():
    s = b11()
    subset = even_subset(s)
    dec = decompose(s, subset, kmax=6)
    table = hybrid_assignment_shadows(s, dec.components, [(0, 0), (2, -1)], UP)
    assert set(table) == {root(-1, 0), root(0, -2)}
    assert table[root(-1, 0)].config == {"family": "up", "m": 0, "t": 0}
    assert table[root(0, -2)].config == {"family": "up", "m": 2, "t": -1}
