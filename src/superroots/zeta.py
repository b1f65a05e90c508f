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
from math import ceil, floor
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


def _candidate_bases(system: AffineRootSystem, comp: Component, kcap: int):
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
    """Orbit bases with positive integral marks and thresholds th(f) + th(-f) = 1.

    Each base is factored once; delta and every line are expanded over it.
    The line threshold th(f) is the least k with f + k*delta positive.
    """
    orbit = _candidate_bases(system, comp, kcap)
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


def _functional_levels(c: Q, w: Q) -> IntegerSet:
    """Levels k with c + k*w >= 0."""
    if w == 0:
        return IntegerSet.all() if c >= 0 else IntegerSet.empty()
    boundary = -c / w
    if w > 0:
        return IntegerSet.at_least(ceil(boundary))
    return IntegerSet.at_most(floor(boundary))


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
    * windowed double check of the same statement on members,
    * when a shadow is supplied: strictly positive real members are ln
      and strictly negative real members are in.
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
    for line, ks in S.lines.items():
        try:
            c = func.value(Root(line.coords, 0, line.sigma))
        except BasisMismatch:
            problems.append(f"line {sysm.format(line)} outside the functional span")
            continue
        want = _functional_levels(c, zd)
        got = P.levels(line)
        if want != got:
            problems.append(
                f"line {sysm.format(line)}: cone gives {want}, parabolic union gives {got}"
            )
    for r in S.window_members(kmax):
        try:
            val = func.value(r)
        except BasisMismatch:
            continue  # already reported by the line pass above
        if (val >= 0) != P.contains(r):
            problems.append(f"{sysm.format(r)}: value {val} vs membership {P.contains(r)}")
            break
    if shadow is not None:
        for r in S.window_members(kmax):
            if sysm.classify(r) != "real":
                continue
            try:
                val = func.value(r)
            except BasisMismatch:
                continue
            if val > 0 and not shadow.is_ln(r):
                problems.append(f"{sysm.format(r)}: positive but not ln")
            if val < 0 and not shadow.is_in(r):
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
