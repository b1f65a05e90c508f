"""Triangulating functionals for unions of component parabolics.

Given the loop components of an even symmetric subset and one parabolic
per component (all hybrid in the same direction), this module finds a
delta-shifted simple system per component that is compatible with the
parabolic, then assigns rational values making the union of parabolics
exactly the nonnegative cone of one linear functional.

Normalisation (stated for the upward direction; downward mirrors k):

* ``zeta(delta) = 1 + max(u_i)`` where ``u_i`` is 1 when the chosen
  mark-1 element of component ``i`` sits in ``P but not -P`` and 0 when
  it sits in ``P and -P``,
* the mark-1 element gets value ``u_i``,
* each remaining base element with mark ``r`` gets
  ``(zeta(delta) - u_i) / (t_i * r)`` when it sits in ``P but not -P``
  and 0 otherwise, ``t_i`` counting the former kind.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from math import gcd
from typing import NamedTuple

from .affine import AffineRootSystem
from .basefind import _expansions, _integral, factor_roots, find_base, highest_root
from .errors import BasisMismatch, CaseMismatch, NoCompatibleBase, OutsideSpan
from .intsets import IntegerSet
# solve stays bound here for the benchmark tracer, whose self-test wraps it at
# every module that imports it
from .linalg import clear_denominators, dot, solve  # noqa: F401
from .roots import KIND_REAL, Root
from .shadows import DOWN, UP, hybrid_class
from .subsets import Component, RootSubset


@dataclass(frozen=True)
class LinearFunctional:
    """Rational functional given by values on an independent root list.

    The basis is factored once, when the functional is built, into integer
    kernel rows and an integer covector ``values @ left`` over one positive
    ``den``, so a root is read with integer dot products and one division.
    """

    basis_roots: tuple[Root, ...]
    values: tuple[Q, ...]
    _covector: tuple[int, ...] | None = field(default=None, repr=False, compare=False)
    _kernel: tuple[tuple[int, ...], ...] = field(default=(), repr=False, compare=False)
    _den: int = field(default=1, repr=False, compare=False)

    def __post_init__(self):
        if self._covector is not None:
            return
        fac = factor_roots(self.basis_roots)
        nums, q = clear_denominators(self.values)
        cov = [dot(nums, col) for col in zip(*fac.left)]
        g = gcd(q * fac.den, *cov) * (1 if fac.den > 0 else -1)  # so that den > 0
        object.__setattr__(self, "_covector", tuple(x // g for x in cov))
        object.__setattr__(self, "_kernel", tuple(map(tuple, fac.kernel)))
        object.__setattr__(self, "_den", q * fac.den // g)

    def value(self, r: Root) -> Q:
        vec, s = clear_denominators(r.vector())
        if len(vec) != len(self._covector):
            raise BasisMismatch(f"{r} does not live over the functional's basis")
        if any(dot(row, vec) for row in self._kernel):
            raise OutsideSpan(f"{r} is outside the functional's span")
        return Q(dot(self._covector, vec), self._den * s)

    def on_line(self, line: Root) -> tuple[Q, Q, IntegerSet]:
        """``read_line`` of the line of ``line``, c and w as values: the value of
        line + k*delta is c + k*w at every level k in ``levels``."""
        vec, s = clear_denominators(Root(line.coords, 0, line.sigma).vector())
        c, w, levels = self.read_line(vec, s)
        return Q(c, self._den * s), Q(w, self._den * s), levels

    def read_line(self, vec: tuple[int, ...], s: int) -> tuple[int, int, IntegerSet]:
        """(c, w, levels) for the line through ``vec / s`` (ints, s > 0, in
        ``Root.vector`` layout): at each level k in ``levels``, where vec / s +
        k*delta lies in the span, its value is (c + k*w) / (den*s).  Each kernel
        row has residue a + k*b there, a from vec and b from delta, so the span
        holds all levels, none, or the one integral k that zeroes every residue."""
        if len(vec) != len(self._covector):
            raise BasisMismatch("the line does not live over the functional's basis")
        at = None  # (a, b) of the first row that pins a level
        levels = IntegerSet.all()
        for row in self._kernel:
            a, b = dot(row, vec), row[-2] * s
            if b == 0:
                if a:
                    levels = IntegerSet.empty()
                    break
            elif at is None:
                at = a, b
                levels = IntegerSet.of(-a // b) if a % b == 0 else IntegerSet.empty()
            elif a * at[1] != at[0] * b:
                levels = IntegerSet.empty()
                break
        return dot(self._covector, vec), self._covector[-2] * s, levels

    def mirrored(self) -> "LinearFunctional":
        """The same values on the basis with delta negated.  That basis is D a, with
        D = D^-1 = diag(1, ..., -1, 1), so left @ D and kernel @ D factor it: no elimination."""
        def flip(v):
            return (*v[:-2], -v[-2], v[-1]) if v else v
        return LinearFunctional(
            tuple(Root(b.coords, -b.k, b.sigma) for b in self.basis_roots),
            self.values,
            flip(self._covector),
            tuple(map(flip, self._kernel)),
            self._den,
        )


@dataclass(frozen=True)
class BaseChoice:
    """A delta-shifted simple system with one element singled out."""

    elements: tuple[Root, ...]
    marks: tuple[int, ...]  # delta-expansion coefficients, all >= 1
    a0_index: int  # index of the singled-out mark-1 element
    positive: tuple[bool, ...]  # whether each element lies in P but not -P

    @property
    def a0(self) -> Root:
        return self.elements[self.a0_index]

    @property
    def t(self) -> int:  # strictly positive elements besides a0
        return sum(self.positive) - self.u

    @property
    def u(self) -> int:  # 1 when a0 is strictly positive
        return int(self.positive[self.a0_index])

    def theta(self, delta: Root) -> Root:
        return delta - self.a0


class _StartBase(NamedTuple):
    """What the base walk needs of a component, whatever the parabolic."""

    lines: tuple[int, ...]  # the position of each component vector's line, increasing
    opposite: tuple[int, ...]  # the index in ``lines`` of -f, per line f
    columns: tuple[tuple[int, ...], ...]  # columns[j][i] = A[i][j] over the start base
    marks: tuple[int, ...]  # delta's coordinates over the start base
    xs: tuple[tuple[int, ...], ...]  # each line's coordinates over the start base


def _start_base(system: AffineRootSystem, comp: Component) -> _StartBase:
    """The start base (the component's base plus delta - theta), in integers.

    delta = (delta - theta) + theta, so delta's marks are theta's coefficients
    and 1; a line at level 0 has its expansion over the component's base and 0.
    """
    dot_base = find_base(comp.dot)
    theta, coeffs = highest_root(comp.dot, dot_base)
    start = dot_base + (system.delta - theta,)
    lines = tuple(pos for pos, _ in comp.subset.by_position() if pos != system.zero_line)
    roots = [system.lines[p] for p in lines]
    return _StartBase(
        lines,
        tuple(lines.index(system.line_negation[p]) for p in lines),
        tuple(tuple(system.cartan(b, a) for b in start) for a in start),
        coeffs + (1,),
        tuple(_integral(r, xs) + (0,) for r, xs in zip(roots, _expansions(dot_base, roots))),
    )


def select_base(
    system: AffineRootSystem, comp: Component, P: RootSubset
) -> BaseChoice:
    """Pick a compatible shifted base for an upward parabolic.

    Compatibility: the positive roots carved out by the base lie inside P
    on every line, positive imaginary levels included.  Among compatible
    choices, prefer a larger ``t`` and break ties by the sorted element
    keys, then by the first mark-1 element, so the result is deterministic.

    A base is walked as its lines' integer coordinates x over it; the
    reflection in the element at position j changes each line's x_j alone,
    by <f, e_j> = sum_i x_i*A[i][j].  A reflection fixes delta and keeps
    the pairing, so the start base's marks m and Cartan matrix A hold at
    every base, position by position.  The threshold th(f), the least k
    with f + k*delta positive, is the largest ceil(-x_i / m_i), and a base
    is compatible exactly when th(f) >= lo(f) on every line, lo(f) being
    the least a with [a, oo) inside P's levels.  Its elements are the
    f + th(f)*delta whose coordinates sum to 1, so no ``Root`` is built
    until the chosen base.

    The walk keeps a base only inside the box th(f) >= min(th0(f), lo(f))
    on every line, th0 being the start base's thresholds; since th(f) +
    th(-f) = 1, these lower bounds are also upper bounds on the opposite
    lines.  Each bound fixes the sign of one root, so the box is an
    intersection of half-apartments: it is convex, holds the start base
    and every compatible base, and simple reflections inside it reach all
    of them.  So the verdict is exact, and NoCompatibleBase.searched counts
    the bases of the box.  A line that P holds at every level has no lo(f)
    and raises CaseMismatch (on a rank-1 component its compatible bases
    are infinitely many).  The start data does not depend on P and is kept
    on the component.
    """
    if not IntegerSet.at_least(1).is_subset(P.levels_at(system.zero_line)):
        raise NoCompatibleBase(
            f"no compatible shifted base for component {comp.index}: "
            "P misses positive imaginary levels"
        )
    start = comp._zeta_start
    if start is None:
        start = _start_base(system, comp)
        object.__setattr__(comp, "_zeta_start", start)
    levels = [P.levels_at(pos) for pos in start.lines]
    for pos, ks in zip(start.lines, levels):
        if ks.up is None and not ks.is_all:
            raise NoCompatibleBase(
                f"no compatible shifted base for component {comp.index}: "
                f"P holds no up-ray on {system.format(system.lines[pos])}"
            )
    for pos, ks in zip(start.lines, levels):
        if ks.is_all:
            raise CaseMismatch(
                f"component {comp.index}: P holds every level of {system.format(system.lines[pos])}, "
                "so no least level bounds the base search"
            )
    lo = [ks.up for ks in levels]
    marks = start.marks

    def thresholds(xs):
        return tuple(max(-(x // m) for x, m in zip(line, marks)) for line in xs)

    first = thresholds(start.xs)
    bound = [min(th, a) for th, a in zip(first, lo)]
    seen = {first}
    stack = [(start.xs, first)]
    best = None
    while stack:
        xs, ths = stack.pop()
        if all(th >= a for th, a in zip(ths, lo)):
            fs, js = [], []  # the base's lines (indices into start.lines), their places in it
            for f, (x, th) in enumerate(zip(xs, ths)):
                coords = [xi + th * m for xi, m in zip(x, marks)]
                if sum(coords) == 1:
                    fs.append(f)
                    js.append(coords.index(1))
            key = tuple((f, ths[f]) for f in fs)
            positive = [-ths[f] not in levels[start.opposite[f]] for f in fs]
            # t is largest at the first mark-1 element that is not strictly positive
            ones = [i for i, j in enumerate(js) if marks[j] == 1]
            i = next((i for i in ones if not positive[i]), ones[0])
            t = sum(positive) - positive[i]
            if best is None or (-t, key) < best[0]:
                best = (-t, key), js, i, positive
        for j, col in enumerate(start.columns):
            image = tuple(
                x[:j] + (x[j] - sum(xi * a for xi, a in zip(x, col)),) + x[j + 1:] for x in xs
            )
            image_ths = thresholds(image)
            if image_ths not in seen and all(th >= b for th, b in zip(image_ths, bound)):
                seen.add(image_ths)
                stack.append((image, image_ths))
    if best is None:
        raise NoCompatibleBase(
            f"no compatible shifted base for component {comp.index}", searched=len(seen)
        )
    (_, key), js, i, positive = best
    elements = tuple(system.lines[start.lines[f]].shift(th) for f, th in key)
    return BaseChoice(elements, tuple(marks[j] for j in js), i, tuple(positive))


@dataclass(frozen=True)
class ZetaComponent:
    component: Component
    base: BaseChoice
    parabolic: RootSubset


@dataclass(frozen=True)
class ZetaResult:
    functional: LinearFunctional
    case: str
    direction: str
    components: tuple[ZetaComponent, ...]
    zeta_delta: Q

    def to_json(self, system: AffineRootSystem) -> dict:
        comps = []
        for zc in self.components:
            comps.append(
                {
                    "theta": system.format(zc.base.theta(system.delta)),
                    "base": [system.format(e) for e in zc.base.elements],
                    "marks": list(zc.base.marks),
                    "t": zc.base.t,
                    "u": zc.base.u,
                }
            )
        return {
            "system": system.token,
            "case": self.case,
            "direction": self.direction,
            "zeta_delta": str(self.zeta_delta),
            "basis": [system.format(b) for b in self.functional.basis_roots],
            "values": [str(v) for v in self.functional.values],
            "components": comps,
        }


def _case_label(us: list[int]) -> str:
    if all(u == 0 for u in us):
        return "case1"
    if all(u == 1 for u in us):
        return "case2"
    return "case3" if us[0] == 1 else "case4"


def construct_zeta(
    system: AffineRootSystem,
    components: tuple[Component, ...],
    parabolics: tuple[RootSubset, ...],
    direction: str = UP,
) -> ZetaResult:
    if len(components) != len(parabolics) or not components:
        raise CaseMismatch("need one parabolic per component")
    if direction == DOWN:
        up = construct_zeta(
            system,
            components,
            tuple(p.mirrored() for p in parabolics),
            UP,
        )
        comps = tuple(
            ZetaComponent(zc.component, zc.base, p)
            for zc, p in zip(up.components, parabolics)
        )
        return ZetaResult(
            up.functional.mirrored(), up.case, DOWN, comps, -up.zeta_delta
        )
    if direction != UP:
        raise CaseMismatch(f"unknown direction {direction!r}")
    bases = [select_base(system, comp, P) for comp, P in zip(components, parabolics)]
    for comp, bc in zip(components, bases):
        if bc.t == 0:
            raise CaseMismatch(
                f"component {comp.index}: no strictly positive base element to "
                "carry the normalisation"
            )
    us = [bc.u for bc in bases]
    zd = Q(1 + max(us))
    basis_roots: list[Root] = []
    values: list[Q] = []
    for idx, bc in enumerate(bases):
        if idx == 0:
            basis_roots.append(bc.a0)
            values.append(Q(bc.u))
        for i, (e, m, positive) in enumerate(zip(bc.elements, bc.marks, bc.positive)):
            if i == bc.a0_index:
                continue
            basis_roots.append(e)
            values.append((zd - bc.u) / (bc.t * m) if positive else Q(0))
    functional = LinearFunctional(tuple(basis_roots), tuple(values))
    for idx, bc in enumerate(bases[1:], start=2):
        got = functional.value(bc.a0)
        if got != Q(bc.u):
            raise CaseMismatch(f"component {idx} normalisation mismatch: {got} != {bc.u}")
    if functional.value(system.delta) != zd:
        raise CaseMismatch("delta value disagrees with the case normalisation")
    comps = tuple(
        ZetaComponent(comp, bc, P)
        for comp, bc, P in zip(components, bases, parabolics)
    )
    return ZetaResult(functional, _case_label(us), UP, comps, zd)


def verify_zeta(
    result: ZetaResult,
    S: RootSubset,
    kmax: int,
    shadow=None,
) -> list[str]:
    """Check the defining properties; returns mismatch descriptions.

    * the delta value is positive (upward) or negative (downward),
    * the union of the component parabolics equals the nonnegative cone
      of the functional, exactly on every line of S,
    * on members of S in the window |k| <= kmax, the functional's own sign
      agrees with membership in that union (the first disagreement only),
    * when a shadow is supplied: strictly positive real members are ln
      and strictly negative ones are in, at every level.

    Each line of S is decided once, in integers: ``read_line`` gives the value
    c + k*w on its ``line_vector`` and the levels where it meets the span.  Window
    levels are enumerated only on a line that fails, to list its
    witnesses in the order of a scan over ``S.window_members(kmax)``;
    ``tests/test_pair_scans.py`` checks the result against that scan.  A
    line that fails the shadow check with no witness in the window is
    named itself.
    """
    func = result.functional
    problems: list[str] = []
    sysm = S.system
    zd = result.zeta_delta
    if result.direction == UP and zd <= 0:
        problems.append(f"delta value {zd} not positive")
    if result.direction == DOWN and zd >= 0:
        problems.append(f"delta value {zd} not negative")
    P = result.components[0].parabolic
    for zc in result.components[1:]:
        P = P.union(zc.parabolic)
    window = range(-kmax, kmax + 1)
    lines, entries, scale = sysm.lines, sysm.line_entries, sysm.line_scale
    zn, zq = (zd * func._den * scale).as_integer_ratio()  # zeta(delta) on c and w's scale
    spans = {}  # position -> (c, w, levels of S on its line that lie in the span)
    settled = set()  # positions whose cone is P's levels with w = zeta(delta): no witness there
    for pos, ks in S.by_position():
        line = lines[pos]
        try:
            c, w, span = func.read_line(sysm.line_vector(pos), scale)
        except BasisMismatch:
            span = IntegerSet.empty()
        else:
            spans[pos] = (c, w, ks.intersect(span))
        if 0 not in span:
            problems.append(f"line {sysm.format(line)} outside the functional span")
            continue
        want = IntegerSet.where_nonnegative(c * zq, zn)
        got = P.levels_at(pos)
        if want != got:
            problems.append(
                f"line {sysm.format(line)}: cone gives {want}, parabolic union gives {got}"
            )
        elif w * zq == zn:
            settled.add(pos)

    def membership_witnesses():
        # positions increase, as in S.window_members
        for pos, (c, w, live) in spans.items():
            if pos in settled:
                continue
            inside = P.levels_at(pos)
            if live.intersect(IntegerSet.where_nonnegative(c, w)) == live.intersect(inside):
                continue
            for k in window:
                if k in live and (c + k * w >= 0) != (k in inside):
                    yield lines[pos].shift(k)

    r = next(membership_witnesses(), None)
    if r is not None:
        problems.append(f"{sysm.format(r)}: value {func.value(r)} vs membership {P.contains(r)}")
    if shadow is not None:
        for pos, (c, w, live) in spans.items():
            if entries[pos].kind != KIND_REAL:
                continue
            line = lines[pos]
            ln = shadow.ln_levels_at(pos)
            positive = live.intersect(IntegerSet.where_positive(c, w))
            negative = live.intersect(IntegerSet.where_positive(-c, -w))
            if positive.is_subset(ln) and negative.intersect(ln).is_empty():
                continue
            before = len(problems)
            for k in window:
                r = line.shift(k)
                if k in positive and k not in ln:
                    problems.append(f"{sysm.format(r)}: positive but not ln")
                if k in negative and k in ln:
                    problems.append(f"{sysm.format(r)}: negative but not in")
            if len(problems) == before:
                problems.append(
                    f"line {sysm.format(line)}: signs disagree with the shadow, "
                    f"none with |k| <= {kmax}"
                )
    return problems


def hybrid_assignment_shadows(
    system: AffineRootSystem,
    components: tuple[Component, ...],
    assignments,
    direction: str,
):
    """Per-class colourings realising one (m, t) hybrid per component."""
    lines, entries = system.lines, system.line_entries
    table = {}
    for comp, (m, t) in zip(components, assignments):
        for pos, _ in comp.subset.by_position():
            if entries[pos].real_class == (pos, 1):
                table[lines[pos]] = hybrid_class(lines[pos], direction, m, t)
    return table
