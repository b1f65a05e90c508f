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

import functools
import time
from fractions import Fraction as Q
from math import ceil, lcm
from typing import NamedTuple

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from superroots import linalg
from superroots.affine import AffineRootSystem, build_affine
from superroots.basefind import factor_roots, find_base, highest_root
from superroots.cli import run_scenario, scenario_names
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
from superroots.shadows import DOWN, UP, Shadow, hybrid_class
from superroots.subsets import (
    Component,
    RootSubset,
    check_parabolic,
    component_parabolic,
    decompose,
    even_subset,
)
from superroots.zeta import (
    BaseChoice,
    LinearFunctional,
    ZetaComponent,
    ZetaResult,
    _start_base,
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


def _answer(func, r):
    try:
        return func.value(r)
    except (BasisMismatch, OutsideSpan) as exc:
        return type(exc)


@pytest.mark.parametrize("name", scenario_names())
def test_mirrored_functional_matches_one_built_on_the_mirrored_basis(name):
    """``mirrored`` negates delta's entry of the covector and kernel rows in
    place of a second elimination; a functional built from scratch on the
    mirrored basis gives the same value, or the same refusal, on every
    window root, and the same reading of every line."""
    system, _, _, result, _ = run_scenario(name, 6)
    func = result.functional
    mirr = func.mirrored()
    fresh = LinearFunctional(mirr.basis_roots, mirr.values)
    for r, _ in system.window_entries(6):
        assert _answer(mirr, r) == _answer(fresh, r)
        assert mirr.on_line(r) == fresh.on_line(r)
    assert mirr.mirrored()._covector == func._covector


def test_functional_on_line_with_delta_in_the_span():
    func = LinearFunctional(
        (root(-1, 0), Root((Q(1), Q(0)), 1, 0)), (Q(1), Q(3))
    )
    # value(e1 + k*delta) = -1 + 4k on every level
    assert func.on_line(root(1, 0)) == (-1, 4, IntegerSet.all())
    # the level of the root passed in is ignored: it names the line
    assert func.on_line(Root((Q(1), Q(0)), 5, 0)) == (-1, 4, IntegerSet.all())
    for k in (-2, 0, 3):
        assert func.value(Root((Q(1), Q(0)), k, 0)) == -1 + 4 * k
    # e2 is off the span whatever the level
    assert func.on_line(root(0, 1))[2] == IntegerSet.empty()


def test_functional_on_line_with_delta_outside_the_span():
    # span {e1 + delta, 2e2 + delta}: each line meets it at one level at most
    func = LinearFunctional(
        (Root((Q(1), Q(0)), 1, 0), Root((Q(0), Q(2)), 1, 0)), (Q(1), Q(-1))
    )
    assert func.on_line(root(1, 0))[2] == IntegerSet.of(1)
    assert func.on_line(root(-1, 0))[2] == IntegerSet.of(-1)
    assert func.on_line(root(0, 0))[2] == IntegerSet.of(0)
    assert func.on_line(root(1, 2))[2] == IntegerSet.of(2)
    c, w, _ = func.on_line(root(1, 2))
    assert c + 2 * w == func.value(Root((Q(1), Q(2)), 2, 0)) == 0
    # e1 + 4e2 = (e1 + delta) + 2*(2e2 + delta) - 3*delta
    assert func.on_line(root(1, 4))[2] == IntegerSet.of(3)
    # a sigma part is off the span at every level
    assert func.on_line(Root((Q(1), Q(0)), 0, 1))[2] == IntegerSet.empty()


def test_functional_on_line_non_integral_level_is_empty():
    # e1 + k*delta = (2e1 + delta)/2 needs k = 1/2
    func = LinearFunctional(
        (Root((Q(2), Q(0)), 1, 0), Root((Q(0), Q(2)), 1, 0)), (Q(3), Q(1))
    )
    assert func.on_line(root(1, 0))[2] == IntegerSet.empty()
    assert func.on_line(root(2, 0))[2] == IntegerSet.of(1)


def test_functional_on_line_does_not_hang_on_the_kernel_rows():
    func = LinearFunctional(
        (Root((Q(1), Q(0)), 1, 0), Root((Q(0), Q(2)), 1, 0)), (Q(1), Q(-1))
    )
    mixed = LinearFunctional(func.basis_roots, func.values)
    # another basis of the same left null space (a triangular change of rows),
    # with delta in more than one row
    rows = func._kernel
    object.__setattr__(
        mixed,
        "_kernel",
        rows[:1] + tuple(tuple(x + y for x, y in zip(rows[0], row)) for row in rows[1:]),
    )
    assert sum(1 for row in mixed._kernel if row[-2]) >= 2
    for coords in ((1, 0), (-1, 0), (0, 0), (1, 2), (1, 4), (1, 1)):
        for sigma in (0, 1):
            line = Root(tuple(Q(x) for x in coords), 0, sigma)
            assert mixed.on_line(line) == func.on_line(line)


def test_functional_on_line_rejects_another_basis_length():
    func = LinearFunctional(
        (root(-1, 0), Root((Q(1), Q(0)), 1, 0)), (Q(1), Q(1))
    )
    with pytest.raises(BasisMismatch) as exc:
        func.on_line(root(1, 0, 0))
    assert not isinstance(exc.value, OutsideSpan)


# -- the Fraction reading, kept as the oracle of the integer one -------------------


def fraction_dot(u, v) -> Q:
    return sum((x * y for x, y in zip(u, v) if x and y), Q(0))


class FractionFunctional(NamedTuple):
    """A functional read in ``Fraction``s: the covector ``values @ left / den``
    entry by entry, and the kernel rows, as ``factor_roots`` gives them.  The
    oracle of ``LinearFunctional``, which reads the same functional in
    integers over one positive denominator."""

    covector: tuple[Q, ...]
    kernel: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, basis_roots, values) -> "FractionFunctional":
        fac = factor_roots(basis_roots)
        cov = tuple(fraction_dot(values, col) / fac.den for col in zip(*fac.left))
        return cls(cov, tuple(map(tuple, fac.kernel)))

    def value(self, r: Root) -> Q:
        vec = r.vector()
        if len(vec) != len(self.covector):
            raise BasisMismatch(f"{r} does not live over the functional's basis")
        if any(fraction_dot(row, vec) for row in self.kernel):
            raise OutsideSpan(f"{r} is outside the functional's span")
        return fraction_dot(self.covector, vec)

    def on_line(self, line: Root) -> tuple[Q, Q, IntegerSet]:
        vec = Root(line.coords, 0, line.sigma).vector()
        if len(vec) != len(self.covector):
            raise BasisMismatch(f"{line} does not live over the functional's basis")
        at = None  # the level some residue pins, once one does
        levels = IntegerSet.all()
        for row in self.kernel:
            a, b = fraction_dot(row, vec), row[-2]
            if b == 0:
                if a:
                    levels = IntegerSet.empty()
                    break
            elif at is None:
                at = -a / b
                levels = IntegerSet.of(int(at)) if at.denominator == 1 else IntegerSet.empty()
            elif -a / b != at:
                levels = IntegerSet.empty()
                break
        return fraction_dot(self.covector, vec), self.covector[-2], levels


def _reading(read, r):
    try:
        return read(r)
    except (BasisMismatch, OutsideSpan) as exc:
        return type(exc)


def _mixed_kernel(func: LinearFunctional) -> LinearFunctional:
    """The same functional with a kernel row that holds delta added to every
    other row: another basis of the left null space, most often with delta in
    more than one row (``factor_roots`` never puts it in two)."""
    rows = func._kernel
    pivot = next((row for row in rows if row[-2]), None)
    if pivot is None or len(rows) < 2:
        return func
    mixed = tuple(row if row is pivot else tuple(x + y for x, y in zip(row, pivot)) for row in rows)
    return LinearFunctional(func.basis_roots, func.values, func._covector, mixed, func._den)


def _assert_matches_the_oracle(basis, values, probes, mix):
    func = LinearFunctional(basis, values)
    assert func._den > 0
    if mix:
        func = _mixed_kernel(func)
    mirr = func.mirrored()
    assert mirr._den == func._den
    pairs = (
        (func, FractionFunctional.of(basis, values)),
        (mirr, FractionFunctional.of(mirr.basis_roots, values)),
    )
    for r in probes:
        for f, oracle in pairs:
            assert _reading(f.value, r) == _reading(oracle.value, r)
            assert _reading(f.on_line, r) == _reading(oracle.on_line, r)


e1_up = Root((Q(1), Q(0)), 1, 0)
#: factor_roots ends on the pivot -1 here
NEGATIVE_PIVOT = (root(-1, 0), e1_up)
#: delta is off this span, which meets e1's line at k = 1/2 only
HALF_LEVEL = (Root((Q(2), Q(0)), 1, 0), Root((Q(0), Q(2)), 1, 0))
#: its kernel has two rows, one holding delta, so a mixed kernel holds it twice
TWO_ROWS = (e1_up, Root((Q(0), Q(2)), 1, 0))
PROBES = tuple(
    Root((Q(x), Q(y, 2)), k, sigma)
    for x in (-2, 1) for y in (-1, 0, 4) for k in (-1, 0, 3) for sigma in (0, 1)
)


def test_oracle_examples_reach_the_cases_they_name():
    assert factor_roots(NEGATIVE_PIVOT).den < 0
    assert LinearFunctional(NEGATIVE_PIVOT, (Q(1), Q(3)))._den > 0
    mixed = _mixed_kernel(LinearFunctional(TWO_ROWS, (Q(1), Q(-1))))
    assert sum(1 for row in mixed._kernel if row[-2]) >= 2
    oracle = FractionFunctional.of(HALF_LEVEL, (Q(3), Q(1)))
    assert oracle.on_line(root(1, 0))[2] == IntegerSet.empty()
    assert oracle.on_line(root(2, 0))[2] == IntegerSet.of(1)


small_q = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def functional_cases(draw):
    """An independent basis, values on it, probe roots and whether to mix the
    kernel.  Half of the probes are combinations of the basis, so they meet
    the span, at a level that need not be an integer."""
    dim = draw(st.integers(1, 3))
    sigmas = st.sampled_from((-1, 0, 0, 1))

    def some_root(level):
        return Root(tuple(draw(small_q) for _ in range(dim)), draw(level), draw(sigmas))

    basis = tuple(some_root(st.integers(-2, 2)) for _ in range(draw(st.integers(1, dim + 2))))
    assume(linalg.factor([list(row) for row in zip(*(b.vector() for b in basis))]) is not None)
    values = tuple(draw(small_q) for _ in basis)
    probes = [some_root(st.integers(-3, 3)) for _ in range(3)]
    for _ in range(3):
        coeffs = [draw(small_q) for _ in basis]
        vec = [fraction_dot(coeffs, col) for col in zip(*(b.vector() for b in basis))]
        # the line meets the span at vec's level, which need not be an integer;
        # the probe sits there when it is one (and its sigma part is)
        level, sigma = vec[-2:]
        level = int(level) if level.denominator == 1 else draw(st.integers(-3, 3))
        probes.append(Root(tuple(vec[:-2]), level, int(sigma) if sigma.denominator == 1 else 0))
    return basis, values, probes, draw(st.booleans())


@example((NEGATIVE_PIVOT, (Q(1), Q(3)), PROBES, False))
@example((HALF_LEVEL, (Q(3), Q(1)), PROBES, False))
@example((TWO_ROWS, (Q(1), Q(-1)), PROBES, True))
@given(functional_cases())
def test_integer_functional_matches_the_fraction_oracle(case):
    """``value``, ``on_line`` and ``mirrored()`` agree with the Fraction
    reading on every probe, the denominator stays positive whatever the sign
    of the last pivot, and a kernel with delta in several rows reads alike."""
    _assert_matches_the_oracle(*case)


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
    # the box th(2d1) >= min(0, 10), th(-2d1) >= min(1, 0) holds two bases
    assert exc.value.searched == 2

    # a zero line missing its positive levels is just as fatal, before any walk
    P2 = RootSubset.of(
        s,
        {
            s.zero_root: IntegerSet.at_most(0),
            line_minus: IntegerSet.at_least(0),
            line_plus: IntegerSet.at_least(1),
        },
    )
    with pytest.raises(NoCompatibleBase) as exc:
        select_base(s, comp, P2)
    assert exc.value.searched == 0

    # so is a line without an up-ray
    P3 = RootSubset.of(
        s,
        {
            s.zero_root: IntegerSet.at_least(0),
            line_minus: IntegerSet.at_least(0),
            line_plus: IntegerSet.at_most(5),
        },
    )
    with pytest.raises(NoCompatibleBase) as exc:
        select_base(s, comp, P3)
    assert exc.value.searched == 0


def test_select_base_rejects_a_line_held_at_every_level():
    s = b11()
    _, dec, _, _ = setup_system(s, [(0, 0), (0, 0)])
    P = RootSubset.of(
        s,
        {
            s.zero_root: IntegerSet.at_least(0),
            Root((Q(0), Q(-2)), 0, 0): IntegerSet.all(),
            Root((Q(0), Q(2)), 0, 0): IntegerSet.at_least(3),
        },
    )
    with pytest.raises(CaseMismatch):
        select_base(s, dec.components[1], P)


def _exhausting_parabolic(system, comp, level):
    """Every line of the component from ``level`` up: th(f) + th(-f) = 1 cannot fit above 0."""
    mapping = {system.zero_root: IntegerSet.at_least(0)}
    for f in comp.vectors:
        mapping[Root(f.coords, 0, f.sigma)] = IntegerSet.at_least(level)
    return RootSubset.of(system, mapping)


def _verdict(select, system, comp, P, with_searched=True):
    """The chosen base, or the failure with the number of bases searched.

    The capped oracle counts its orbit, not the box, so comparisons against it
    pass ``with_searched=False``.
    """
    try:
        return select(system, comp, P)
    except NoCompatibleBase as exc:
        return ("no compatible base", exc.searched if with_searched else None)


@pytest.mark.parametrize("token", ["B,1,1", "D21L", "A,2,1"])
def test_select_base_warm_matches_cold(token):
    """A component reused across parabolics answers like a fresh one."""
    system = build_affine(parse_type_token(token))
    subset = even_subset(system)
    warm = decompose(system, subset, kmax=6).components
    # found and (on A,2,1's A2 part) exhausted searches
    plan = [(0, 0), (3, 1), (1, -1), (-3, 0), "exhausting", (0, 0)]
    memos = None
    failures = 0
    for step in plan:
        if step == "exhausting":
            parabolics = [_exhausting_parabolic(system, comp, 4) for comp in warm]
        else:
            table = hybrid_assignment_shadows(system, warm, [step] * len(warm), UP)
            parabolics = [component_parabolic(system, comp, table, UP) for comp in warm]
        cold = decompose(system, subset, kmax=6).components
        for comp, fresh, P in zip(warm, cold, parabolics):
            verdict = _verdict(select_base, system, comp, P)
            assert verdict == _verdict(select_base, system, fresh, P)
            assert comp._zeta_start == fresh._zeta_start
            failures += isinstance(verdict, tuple)
        if memos is None:
            memos = [comp._zeta_start for comp in warm]
    # one memo per component, filled once and never replaced by another P
    assert all(memo is not None for memo in memos)
    assert all(comp._zeta_start is memo for comp, memo in zip(warm, memos))
    # failed walks were compared too, box sizes included
    assert failures > 0 or token != "A,2,1"


def test_select_base_on_a_parabolic_that_is_not_closed():
    """Descent (reflecting in simple roots outside P) stops here at a base whose
    simple roots all lie in P but which is not compatible; the box walk finds
    the compatible base."""
    system, comps = _components("A,2,1")
    table = hybrid_assignment_shadows(system, comps, [(-1, -1)] * len(comps), UP)
    comp = next(c for c in comps if len(c.vectors) == 6)  # the A2 part
    P = component_parabolic(system, comp, table, UP)
    assert check_parabolic(P, comp.subset, 6).additive_violations
    bc = select_base(system, comp, P)
    assert [system.format(e) for e in bc.elements] == ["-e1+e2-d", "-e2+e3-d", "e1-e3+3d"]
    assert bc.marks == (1, 1, 1)
    assert (bc.t, bc.u) == (2, 1)


# -- the capped orbit catalogue: the oracle for select_base -----------------------


class _Candidate(NamedTuple):
    """An orbit base that passes every test not involving P."""

    elements: tuple[int, ...]  # indices into _BaseCatalogue.roots
    marks: tuple[int, ...]  # delta-expansion coefficients, all >= 1
    thresholds: tuple[int, ...]  # th(f) for f in comp.vectors, in order


class _BaseCatalogue(NamedTuple):
    """The part of the base search that depends on the component and kcap only."""

    searched: int  # orbit size
    roots: tuple[Root, ...]  # every element of a candidate, once
    lines: tuple[Root, ...]  # the level-0 line of each component vector
    candidates: tuple[_Candidate, ...]  # in orbit (element key) order


def _base_catalogue(system: AffineRootSystem, comp: Component, kcap: int) -> _BaseCatalogue:
    """The start base's reflection orbit within |k| <= kcap, with marks and thresholds.

    The start base is the component's base plus delta - theta.  The walk
    holds every orbit base as integers over it, one position per start
    element: the element's coordinates and delta-level, and each line's
    coordinates x over the base.  The reflection in the element e_j at
    position j sends element i to e_i - A[i][j]*e_j and changes a line's
    x_j alone, by <f, e_j> = sum_i x_i*A[i][j].  Two invariants make the
    start base's data hold at every base, index by index: a reflection is
    an isometry, so the Cartan matrix A carries over, and it fixes delta,
    so the marks (delta's coordinates) do too.  Roots are built once per
    distinct element, at the end.

    A base is kept when its marks are positive integers and its thresholds
    satisfy th(f) + th(-f) = 1, th(f) being the least k with f + k*delta
    positive: the largest ceil(-x_i / m_i).  Neither filter has rejected a
    base on any type tried; ``tests/test_zeta.py`` checks that, and checks
    the walk against a ``Root`` search with one factorisation per base.
    """
    dot_base = find_base(comp.dot)
    theta, _ = highest_root(comp.dot, dot_base)
    start = tuple(sorted(dot_base + (system.delta - theta,), key=Root.key))
    n = len(start)
    columns = [tuple(system.cartan(b, a) for b in start) for a in start]  # columns[j][i] = A[i][j]
    fac = factor_roots(start)
    marks = fac.solve(system.delta.vector())
    lines = tuple(Root(f.coords, 0, f.sigma) for f in comp.vectors)
    expansions = [fac.solve(line.vector()) for line in lines]
    keep = (
        marks is not None
        and all(m.denominator == 1 and m > 0 for m in marks)
        and None not in expansions
    )
    if keep:
        # integer line coordinates, scaled by one common denominator
        scale = lcm(*(x.denominator for xs in expansions for x in xs))
        divisors = [int(m) * scale for m in marks]
        first_xs = tuple(tuple(int(x * scale) for x in xs) for xs in expansions)
    else:
        first_xs = ()
    unit = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    first = (unit, tuple(b.k for b in start), first_xs)
    orbit = {frozenset(unit): first}
    stack = [first]
    while stack:
        coords, ks, xs = stack.pop()
        for j, col in enumerate(columns):
            kj = ks[j]
            image_ks = tuple(k - a * kj for k, a in zip(ks, col))
            if any(k > kcap or k < -kcap for k in image_ks):
                continue
            cj = coords[j]
            image = tuple(
                tuple(x - a * y for x, y in zip(c, cj)) if a else c for c, a in zip(coords, col)
            )
            key = frozenset(image)
            if key in orbit:
                continue
            image_xs = tuple(
                x[:j] + (x[j] - sum(xi * a for xi, a in zip(x, col)),) + x[j + 1:] for x in xs
            )
            orbit[key] = state = (image, image_ks, image_xs)
            stack.append(state)
    if not keep:
        return _BaseCatalogue(len(orbit), (), lines, ())

    # one Root per distinct element; ranks follow Root.key, so bases sort as roots would
    built = {
        c: sum((b.scale(x) for x, b in zip(c, start) if x), system.zero_root)
        for c in set().union(*orbit)
    }
    by_rank = sorted(built, key=lambda c: built[c].key())
    rank = {c: i for i, c in enumerate(by_rank)}
    bases = []
    for coords, _, xs in orbit.values():
        order = sorted(range(n), key=lambda i: rank[coords[i]])
        bases.append((tuple(rank[coords[i]] for i in order), order, xs))
    bases.sort(key=lambda b: b[0])
    opposite = [comp.vectors.index(-f) for f in comp.vectors]
    index: dict[int, int] = {}
    candidates = []
    for ranks, order, xs in bases:
        thresholds = tuple(max(-(x // d) for x, d in zip(line, divisors)) for line in xs)
        if all(thresholds[i] + thresholds[j] == 1 for i, j in enumerate(opposite)):
            candidates.append(
                _Candidate(
                    tuple(index.setdefault(r, len(index)) for r in ranks),
                    tuple(int(marks[i]) for i in order),
                    thresholds,
                )
            )
    roots = tuple(built[by_rank[r]] for r in index)
    return _BaseCatalogue(len(orbit), roots, lines, tuple(candidates))


def _strictly_positive(P: RootSubset, r: Root) -> bool:
    """r lies in P and -r does not: the oracle's own reading, by ``Root``."""
    return P.contains(r) and not P.contains(-r)


def capped_select_base(system, comp, P, catalogue=_base_catalogue):
    """``select_base`` over the orbit within |k| <= kcap, kcap read off P's rays."""
    kcap = 3
    for ks in P.lines.values():
        if ks.up is not None:
            kcap = max(kcap, abs(ks.up) + 2)
        if ks.down is not None:
            kcap = max(kcap, abs(ks.down) + 2)
    cat = catalogue(system, comp, kcap)
    best = None
    if IntegerSet.at_least(1).is_subset(P.levels(system.zero_root)):
        levels = [P.levels(line) for line in cat.lines]
        positive: list[bool | None] = [None] * len(cat.roots)

        def is_positive(e: int) -> bool:
            if positive[e] is None:
                positive[e] = _strictly_positive(P, cat.roots[e])
            return positive[e]

        for cand in cat.candidates:
            if not all(
                IntegerSet.at_least(th).is_subset(ks) for th, ks in zip(cand.thresholds, levels)
            ):
                continue
            total = sum(is_positive(e) for e in cand.elements)
            for i, (e, m) in enumerate(zip(cand.elements, cand.marks)):
                if m != 1:
                    continue
                u = int(is_positive(e))
                # the first maximal t wins: candidates come in key order
                if best is None or total - u > best[0]:
                    best = (total - u, cand, i, u)
    if best is None:
        raise NoCompatibleBase(
            f"no compatible shifted base for component {comp.index}", searched=cat.searched
        )
    _, cand, i, _ = best
    positive = tuple(is_positive(e) for e in cand.elements)
    return BaseChoice(tuple(cat.roots[e] for e in cand.elements), cand.marks, i, positive)


@functools.cache
def _components(token):
    system = build_affine(parse_type_token(token))
    return system, decompose(system, even_subset(system), kmax=6).components


@functools.cache
def _cached_catalogue(token, index, kcap):
    system, comps = _components(token)
    return _base_catalogue(system, comps[index - 1], kcap)


def _assert_matches_capped_oracle(token, pairs, directions, exhausting=()):
    system, comps = _components(token)

    def catalogue(_, comp, kcap):
        return _cached_catalogue(token, comp.index, kcap)

    cases = []
    for direction in directions:
        for pair in pairs:
            table = hybrid_assignment_shadows(system, comps, [pair] * len(comps), direction)
            for comp in comps:
                P = component_parabolic(system, comp, table, direction)
                # a downward P is searched upward, mirrored, as construct_zeta does
                cases.append((comp, P.mirrored() if direction == DOWN else P, (pair, direction)))
    for level in exhausting:
        cases.extend((comp, _exhausting_parabolic(system, comp, level), level) for comp in comps)
    for comp, P, label in cases:
        oracle = functools.partial(capped_select_base, catalogue=catalogue)
        ours = _verdict(select_base, system, comp, P, with_searched=False)
        assert ours == _verdict(oracle, system, comp, P, with_searched=False), (
            token,
            comp.index,
            label,
        )


# the 9 zeta_rank2 types and the two zeta_sweep ones
ORACLE_TYPES = ["B,1,1", "D21L", "A,2,1", "A,1,2", "B,2,1", "B,1,2", "C,3", "D,1,2", "D,2,2", "A,2,2", "G3"]


@pytest.mark.parametrize("token", ORACLE_TYPES)
def test_select_base_matches_the_capped_oracle(token):
    pairs = [(m, t) for m in range(-2, 3) for t in (-1, 0, 1)]
    _assert_matches_capped_oracle(token, pairs, (UP, DOWN), exhausting=(0, 1, 4))


@pytest.mark.parametrize("token", ["F4", "B,3,1"])
def test_select_base_matches_the_capped_oracle_on_rank_3(token):
    _assert_matches_capped_oracle(token, [(0, 0), (1, -1)], (UP,))


# -- the oracle's integer orbit walk against the Root BFS --------------------------


def bfs_candidate_bases(system, comp, kcap):
    """All delta-shifted simple systems reachable by reflections, capped."""
    dot_base = find_base(comp.dot)
    theta, _ = highest_root(comp.dot, dot_base)
    start = tuple(sorted(dot_base + (system.delta - theta,), key=lambda r: r.key()))
    seen = {start}
    queue = [start]
    while queue:
        base = queue.pop()
        for a in base:
            image = []
            ok = True
            for b in base:
                nb = -a if b == a else b - a.scale(Q(system.cartan(b, a)))
                if abs(nb.k) > kcap:
                    ok = False
                    break
                image.append(nb)
            if not ok:
                continue
            nxt = tuple(sorted(image, key=lambda r: r.key()))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return sorted(seen, key=lambda base: tuple(r.key() for r in base))


def factored_base_catalogue(system, comp, kcap):
    """Orbit bases with positive integral marks and thresholds th(f) + th(-f) = 1.

    Each base is factored once; delta and every line are expanded over it.
    The line threshold th(f) is the least k with f + k*delta positive.
    """
    orbit = bfs_candidate_bases(system, comp, kcap)
    lines = tuple(Root(f.coords, 0, f.sigma) for f in comp.vectors)
    opposite = [comp.vectors.index(-f) for f in comp.vectors]
    index: dict[Root, int] = {}
    candidates = []
    for elements in orbit:
        fac = factor_roots(elements)
        marks = fac.solve(system.delta.vector())
        if marks is None or any(m.denominator != 1 or m <= 0 for m in marks):
            continue
        thresholds = []
        for line in lines:
            xs = fac.solve(line.vector())
            if xs is None:
                break
            thresholds.append(max(ceil(-x / m) for x, m in zip(xs, marks)))
        else:
            if all(thresholds[i] + thresholds[j] == 1 for i, j in enumerate(opposite)):
                candidates.append(
                    _Candidate(
                        tuple(index.setdefault(e, len(index)) for e in elements),
                        tuple(int(m) for m in marks),
                        tuple(thresholds),
                    )
                )
    return _BaseCatalogue(len(orbit), tuple(index), lines, tuple(candidates))


# every family with a rank-2 or rank-3 loop component; F4's B3 part is left out,
# since the Root BFS takes seconds per build there
CATALOGUE_TYPES = ["B,1,1", "D21L", "A,2,1", "A,1,2", "B,2,1", "B,1,2", "C,3", "D,2,2", "A,2,2", "G3"]


@pytest.mark.parametrize("token", CATALOGUE_TYPES)
def test_base_catalogue_matches_the_root_bfs(token):
    system, comps = _components(token)
    for comp in comps:
        for kcap in (3, 4, 5):
            assert _base_catalogue(system, comp, kcap) == factored_base_catalogue(
                system, comp, kcap
            ), (token, comp.index, kcap)


def positioned_orbit(system, start, kcap):
    """frozenset(base) -> the base, each element at the position of its start element."""
    pairing = functools.cache(system.cartan)  # delta pairs to zero: finite parts suffice
    orbit = {frozenset(start): start}
    stack = [start]
    while stack:
        base = stack.pop()
        for a in base:
            image = tuple(b - a.scale(pairing(b.finite(), a.finite())) for b in base)
            if all(abs(r.k) <= kcap for r in image) and frozenset(image) not in orbit:
                orbit[frozenset(image)] = image
                stack.append(image)
    return orbit


@pytest.mark.parametrize("token", CATALOGUE_TYPES)
def test_base_catalogue_filters_never_fire(token):
    """Reflections fix delta, so no orbit base fails the P-independent filters."""
    system, comps = _components(token)
    for comp in comps:
        dot_base = find_base(comp.dot)
        theta, _ = highest_root(comp.dot, dot_base)
        start = tuple(sorted(dot_base + (system.delta - theta,), key=Root.key))
        start_marks = [int(m) for m in factor_roots(start).solve(system.delta.vector())]
        for kcap in (3, 4, 5):
            cat = _base_catalogue(system, comp, kcap)
            assert len(cat.candidates) == cat.searched, (token, comp.index, kcap)
            orbit = positioned_orbit(system, start, kcap)
            assert len(orbit) == cat.searched
            for cand in cat.candidates:
                elements = [cat.roots[e] for e in cand.elements]
                mark_of = dict(zip(elements, cand.marks))
                assert [mark_of[r] for r in orbit[frozenset(elements)]] == start_marks


@pytest.mark.parametrize("token", [*ORACLE_TYPES, "F4", "B,3,1"])
def test_start_base_matches_a_solve_over_the_start_base(token):
    """delta = (delta - theta) + theta, so the marks are theta's coefficients and
    1, and a line's coordinates are its expansion over the component's base and 0."""
    system, comps = _components(token)
    for comp in comps:
        dot_base = find_base(comp.dot)
        theta, _ = highest_root(comp.dot, dot_base)
        fac = factor_roots(dot_base + (system.delta - theta,))
        start = _start_base(system, comp)
        assert start.marks == tuple(fac.solve(system.delta.vector())), (token, comp.index)
        assert start.xs == tuple(
            tuple(fac.solve(system.lines[pos].vector())) for pos in start.lines
        ), (token, comp.index)
        assert all(type(x) is int for x in start.marks + sum(start.xs, ()))


@pytest.mark.parametrize("token", ["F4", "B,3,1", "B,4,1", "C,5", "D,4,1", "A,4,2", "D,4,2"])
def test_cold_zeta_on_large_types_within_budget(token):
    """Cold: every component finds its start base and walks its box from scratch."""
    start = time.monotonic()
    system = build_affine(parse_type_token(token))
    _, dec, _, parabolics = setup_system(system, [(0, 0)] * 2)
    result = construct_zeta(system, dec.components, parabolics, UP)
    elapsed = time.monotonic() - start
    assert (result.case, result.zeta_delta) == ("case2", 2)
    assert elapsed < 10.0, f"cold zeta on {token} took {elapsed:.1f}s (budget 10s)"


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


def test_verify_names_a_shadow_line_that_fails_outside_the_window():
    s = b11()
    subset, dec, table, parabolics = setup_system(s, [(0, 0), (0, 1)])
    result = construct_zeta(s, dec.components, parabolics, UP)
    assert verify_zeta(result, subset, 0, shadow=Shadow(s, table)) == []
    # e1 turns ln from level 2 instead of 1, so e1+d is the first disagreement
    rep = root(-1, 0)
    shifted = Shadow(s, {**table, rep: hybrid_class(rep, UP, 0, -1)})
    assert verify_zeta(result, subset, 0, shadow=shifted) == [
        "line e1: signs disagree with the shadow, none with |k| <= 0"
    ]
    assert verify_zeta(result, subset, 1, shadow=shifted) == ["e1+d: positive but not ln"]


@pytest.mark.parametrize("direction", [UP, DOWN])
@pytest.mark.parametrize("token", ["B,1,1", "D21L", "A,2,2"])
def test_zeta_hashes_no_root(token, direction, monkeypatch):
    """Warm construct_zeta and verify_zeta read lines by position: no
    ``Root`` is hashed, so no ``Fraction`` coordinate either."""
    s = build_affine(parse_type_token(token))
    subset, dec, _, parabolics = setup_system(s, [(0, 1)] * 3, direction)  # <= 3 components
    construct_zeta(s, dec.components, parabolics, direction)  # memoises the start bases
    calls = []
    root_hash = Root.__hash__

    def counted(r):
        calls.append(r)
        return root_hash(r)

    monkeypatch.setattr(Root, "__hash__", counted)
    result = construct_zeta(s, dec.components, parabolics, direction)
    assert calls == []
    assert verify_zeta(result, subset, 6) == []
    assert calls == []
    # the counter does see a direct call
    hash(s.delta)
    assert calls == [s.delta]


@pytest.mark.parametrize("token", ["B,1,1", "D21L"])
def test_downward_zeta_eliminates_no_more_than_upward(token, monkeypatch):
    """A warm downward construct_zeta runs the upward one on the mirrored
    parabolics and mirrors its functional by sign: no elimination of its own."""
    s = build_affine(parse_type_token(token))
    counts = {}
    for direction in (UP, DOWN):
        _, dec, _, parabolics = setup_system(s, [(0, 1)] * 3, direction)
        construct_zeta(s, dec.components, parabolics, direction)  # memoises the start bases
        calls, eliminate = [], linalg._eliminate
        monkeypatch.setattr(linalg, "_eliminate", lambda m, c: calls.append(c) or eliminate(m, c))
        construct_zeta(s, dec.components, parabolics, direction)
        monkeypatch.undo()
        counts[direction] = len(calls)
    assert counts[UP] >= 1
    assert counts[DOWN] == counts[UP]


@pytest.mark.parametrize("direction", [UP, DOWN])
@pytest.mark.parametrize("token", ["B,1,1", "D21L", "A,2,2"])
def test_zeta_item_names_each_class_by_position(token, direction, monkeypatch):
    """A warm item shaped like a benchmark one (colour, parabolics, zeta,
    verify against the shadow, parabolic check) names each real class by
    its rep line's position: no line is looked up by ``Root`` more than once
    per class, and the ``Root``-keyed class table is hashed at most twice per
    class (filled once, read once)."""
    s = build_affine(parse_type_token(token))
    subset = even_subset(s)
    comps = decompose(s, subset, kmax=6).components
    assignments = [(0, 1)] * len(comps)

    def item():
        table = hybrid_assignment_shadows(s, comps, assignments, direction)
        parabolics = tuple(component_parabolic(s, comp, table, direction) for comp in comps)
        result = construct_zeta(s, comps, parabolics, direction)
        problems = verify_zeta(result, subset, 10, shadow=Shadow(s, table))
        checks = [check_parabolic(P, comp.subset, 10) for comp, P in zip(comps, parabolics)]
        return problems, checks

    item()  # memoises the start bases and the line sums
    entries, hashes = [], []
    entry, root_hash = AffineRootSystem.entry, Root.__hash__
    monkeypatch.setattr(AffineRootSystem, "entry", lambda self, r: entries.append(r) or entry(self, r))
    monkeypatch.setattr(Root, "__hash__", lambda r: hashes.append(r) or root_hash(r))
    problems, checks = item()
    assert problems == []
    assert all(c.is_parabolic and c.proper for c in checks)
    classes = len(s.real_class_reps)
    assert len(entries) <= classes, entries
    assert len(hashes) <= 2 * classes, hashes


@pytest.fixture
def sign_level_inputs(monkeypatch):
    """Install, on demand, a recorder of every (c, w) that
    ``IntegerSet.where_nonnegative`` and ``where_positive`` receive."""
    seen = []

    def install():
        for name in ("where_nonnegative", "where_positive"):
            original = getattr(IntegerSet, name)

            def recorded(c, w, original=original):
                seen.append((c, w))
                return original(c, w)

            monkeypatch.setattr(IntegerSet, name, staticmethod(recorded))
        return seen

    return install


def _all_ints(pairs) -> bool:
    return all(type(x) is int for pair in pairs for x in pair)  # no bool, no Fraction


@pytest.mark.parametrize("name", scenario_names())
def test_verify_zeta_reads_every_scenario_in_integers(name, sign_level_inputs):
    """Within a scenario, only verify_zeta sets sign levels; every cone and
    shadow check it makes is on integer values."""
    seen = sign_level_inputs()
    *_, problems = run_scenario(name, 6)
    assert problems == []
    assert seen and _all_ints(seen), seen[:5]


@pytest.mark.parametrize("direction", [UP, DOWN])
@pytest.mark.parametrize("token", ["B,1,1", "D21L", "A,2,2"])
def test_warm_verify_zeta_reads_in_integers(token, direction, sign_level_inputs):
    s = build_affine(parse_type_token(token))
    subset, dec, table, parabolics = setup_system(s, [(0, 1)] * 3, direction)  # <= 3 components
    result = construct_zeta(s, dec.components, parabolics, direction)
    shadow = Shadow(s, table)
    assert verify_zeta(result, subset, 10, shadow=shadow) == []  # warm
    seen = sign_level_inputs()
    assert verify_zeta(result, subset, 10, shadow=shadow) == []
    assert seen and _all_ints(seen), seen[:5]


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
