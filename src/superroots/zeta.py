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
from math import lcm
from typing import NamedTuple

from .affine import AffineRootSystem
from .basefind import factor_roots, find_base, highest_root
from .errors import BasisMismatch, CaseMismatch, NoCompatibleBase, OutsideSpan
from .intsets import IntegerSet
# solve stays bound here for the benchmark tracer, whose self-test wraps it at
# every module that imports it
from .linalg import dot, solve  # noqa: F401
from .roots import Root
from .shadows import DOWN, UP
from .subsets import Component, RootSubset


@dataclass(frozen=True)
class LinearFunctional:
    """Rational functional given by values on an independent root list.

    The basis is factored once, when the functional is built: the value of
    a root is one dot product with the covector ``values @ L``, after the
    kernel rows ``N`` have confirmed that the root lies in the span.
    """

    basis_roots: tuple[Root, ...]
    values: tuple[Q, ...]
    _covector: tuple[Q, ...] = field(init=False, repr=False, compare=False)
    _kernel: tuple[tuple[Q, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fac = factor_roots(self.basis_roots)
        covector = tuple(dot(self.values, column) for column in zip(*fac.left))
        object.__setattr__(self, "_covector", covector)
        object.__setattr__(self, "_kernel", tuple(tuple(row) for row in fac.kernel))

    def value(self, r: Root) -> Q:
        vec = r.vector()
        if len(vec) != len(self._covector):
            raise BasisMismatch(f"{r} does not live over the functional's basis")
        if any(dot(row, vec) for row in self._kernel):
            raise OutsideSpan(f"{r} is outside the functional's span")
        return dot(self._covector, vec)

    def on_line(self, line: Root) -> tuple[Q, Q, IntegerSet]:
        """(c, w, levels) for the line of ``line``: the value of line + k*delta
        is c + k*w at every level k in ``levels``, the levels where it lies in
        the span.

        Each kernel row has residue a + k*b there, a from the level-0 root and
        b from delta, so the span holds all levels, none, or the one integral
        k that zeroes every residue.
        """
        vec = Root(line.coords, 0, line.sigma).vector()
        if len(vec) != len(self._covector):
            raise BasisMismatch(f"{line} does not live over the functional's basis")
        at = None  # the level some residue pins, once one does
        levels = IntegerSet.all()
        for row in self._kernel:
            a, b = dot(row, vec), row[-2]
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
        return dot(self._covector, vec), self._covector[-2], levels

    def mirrored(self) -> "LinearFunctional":
        return LinearFunctional(
            tuple(Root(b.coords, -b.k, b.sigma) for b in self.basis_roots),
            self.values,
        )


@dataclass(frozen=True)
class BaseChoice:
    """A delta-shifted simple system with one element singled out."""

    elements: tuple[Root, ...]
    marks: tuple[int, ...]  # delta-expansion coefficients, all >= 1
    a0_index: int  # index of the singled-out mark-1 element
    t: int  # strictly-positive base elements among the rest
    u: int  # 1 when the singled-out element is strictly positive

    @property
    def a0(self) -> Root:
        return self.elements[self.a0_index]

    @property
    def rest(self) -> tuple[tuple[Root, int], ...]:
        return tuple(
            (e, m)
            for i, (e, m) in enumerate(zip(self.elements, self.marks))
            if i != self.a0_index
        )

    def theta(self, delta: Root) -> Root:
        return delta - self.a0


def _strictly_positive(P: RootSubset, r: Root) -> bool:
    return P.contains(r) and not P.contains(-r)


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


def select_base(
    system: AffineRootSystem, comp: Component, P: RootSubset
) -> BaseChoice:
    """Pick a compatible shifted base for an upward parabolic.

    Compatibility: the positive roots carved out by the base lie inside P
    on every line, positive imaginary levels included.  Among compatible
    choices, prefer a larger ``t`` and break ties by the sorted element
    keys, so the result is deterministic.

    The P-independent work is the component's base catalogue, built on the
    first call for each ``kcap`` and kept on the component; a call itself
    only tests the catalogue's thresholds and elements against P.
    """
    kcap = 3
    for ks in P.lines.values():
        if ks.up is not None:
            kcap = max(kcap, abs(ks.up) + 2)
        if ks.down is not None:
            kcap = max(kcap, abs(ks.down) + 2)
    cat = comp._catalogue.get(kcap)
    if cat is None:
        cat = comp._catalogue[kcap] = _base_catalogue(system, comp, kcap)
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
    t, cand, i, u = best
    return BaseChoice(tuple(cat.roots[e] for e in cand.elements), cand.marks, i, t, u)


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
                    "theta": system.format(system.delta - zc.base.a0),
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
        for e, m in bc.rest:
            basis_roots.append(e)
            P = parabolics[idx]
            if _strictly_positive(P, e):
                values.append((zd - bc.u) / (bc.t * m))
            else:
                values.append(Q(0))
    functional = LinearFunctional(tuple(basis_roots), tuple(values))
    for idx, bc in enumerate(bases):
        if idx == 0:
            continue
        got = functional.value(bc.a0)
        if got != Q(bc.u):
            raise CaseMismatch(
                f"component {idx + 1} normalisation mismatch: {got} != {bc.u}"
            )
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
    * when a shadow is supplied: strictly positive real members in the
      window are ln and strictly negative ones are in.

    Each line of S is decided once, from the functional's value c + k*w
    on it and the levels where it meets the span (``on_line``).  Window
    levels are enumerated only on a line that fails, to list its
    witnesses in the order of a scan over ``S.window_members(kmax)``;
    ``tests/test_pair_scans.py`` checks the result against that scan.
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
    spans = {}  # line -> (c, w, levels of S on it that lie in the span)
    for line, ks in S.lines.items():
        try:
            c, w, span = func.on_line(line)
        except BasisMismatch:
            span = IntegerSet.empty()
        else:
            spans[line] = (c, w, ks.intersect(span))
        if 0 not in span:
            problems.append(f"line {sysm.format(line)} outside the functional span")
            continue
        want = IntegerSet.where_nonnegative(c, zd)
        got = P.levels(line)
        if want != got:
            problems.append(
                f"line {sysm.format(line)}: cone gives {want}, parabolic union gives {got}"
            )
    ordered = sorted(S.lines, key=Root.key)  # the order of S.window_members

    def membership_witnesses():
        for line in ordered:
            if line not in spans:
                continue
            c, w, live = spans[line]
            inside = P.levels_through(line)
            if live.intersect(IntegerSet.where_nonnegative(c, w)) == live.intersect(inside):
                continue
            for k in window:
                if k in live and (c + k * w >= 0) != (k in inside):
                    yield Root(line.coords, k, line.sigma)

    r = next(membership_witnesses(), None)
    if r is not None:
        problems.append(f"{sysm.format(r)}: value {func.value(r)} vs membership {P.contains(r)}")
    if shadow is not None:
        for line in ordered:
            # classify comes first: off the system it raises, in or out of the span
            first = S.lines[line].first_in(window)
            if first is None or sysm.classify(Root(line.coords, first, line.sigma)) != "real":
                continue
            if line not in spans:
                continue
            c, w, live = spans[line]
            ln = shadow.ln_levels(line)
            positive = live.intersect(IntegerSet.where_positive(c, w))
            negative = live.intersect(IntegerSet.where_positive(-c, -w))
            if positive.is_subset(ln) and negative.intersect(ln).is_empty():
                continue
            for k in window:
                r = Root(line.coords, k, line.sigma)
                if k in positive and k not in ln:
                    problems.append(f"{sysm.format(r)}: positive but not ln")
                if k in negative and k in ln:
                    problems.append(f"{sysm.format(r)}: negative but not in")
    return problems


def hybrid_assignment_shadows(
    system: AffineRootSystem,
    components: tuple[Component, ...],
    assignments,
    direction: str,
):
    """Per-class colourings realising one (m, t) hybrid per component."""
    from .shadows import hybrid_class

    table = {}
    for comp, (m, t) in zip(components, assignments):
        reps = []
        for f in comp.vectors:
            rep, _ = system.class_rep(f)
            if rep not in reps:
                reps.append(rep)
        for rep in reps:
            table[rep] = hybrid_class(rep, direction, m, t)
    return table
