"""Subsets of a loop system described line by line, and their decomposition.

A subset stores, for every (finite vector, sigma) line, the exact set of
delta-levels it contains.  That makes symmetry, closure, covering and
properness checks exact on whole lines rather than sampled.

``decompose`` splits the even part of such a subset into the loop
extensions of the orthogonality components of its finite core, which is
the shape the parabolic construction consumes.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .affine import AffineRootSystem
from .errors import (
    HypothesisViolated,
    NotAFiniteRootSystem,
    NotUniformlyHybrid,
)
from .finite import FiniteRootSet, FiniteTypeId, check_supersystem_axioms, irreducible_components
from .intsets import IntegerSet
from .roots import EVEN, KIND_REAL, Root


@dataclass(frozen=True, eq=False)
class RootSubset:
    system: AffineRootSystem
    lines: dict  # line id (k=0 Root) -> IntegerSet

    @staticmethod
    def of(system: AffineRootSystem, mapping) -> "RootSubset":
        clean = {}
        for line, ks in mapping.items():
            if ks.is_empty():
                continue
            clean[line] = ks
        return RootSubset(system, clean)

    def levels(self, line: Root) -> IntegerSet:
        return self.lines.get(line, IntegerSet.empty())

    def levels_through(self, r: Root) -> IntegerSet:
        """The levels on the line through ``r``; empty off the system."""
        e = self.system.entry(r)
        return IntegerSet.empty() if e is None else self.levels(self.system.lines[e.pos])

    def contains(self, r: Root) -> bool:
        return r.k in self.levels_through(r)

    def __contains__(self, r: Root) -> bool:
        return self.contains(r)

    def negated(self) -> "RootSubset":
        out = {}
        for line, ks in self.lines.items():
            out[-line] = ks.negate()
        return RootSubset.of(self.system, out)

    def union(self, other: "RootSubset") -> "RootSubset":
        out = dict(self.lines)
        for line, ks in other.lines.items():
            out[line] = out.get(line, IntegerSet.empty()).union(ks)
        return RootSubset.of(self.system, out)

    def same_as(self, other: "RootSubset") -> bool:
        return self.lines == other.lines

    def is_symmetric(self) -> bool:
        return self.same_as(self.negated())

    def mirrored(self) -> "RootSubset":
        """The k -> -k image."""
        return RootSubset.of(
            self.system, {line: ks.negate() for line, ks in self.lines.items()}
        )

    def window_members(self, kmax: int) -> tuple[Root, ...]:
        out = []
        for line in sorted(self.lines, key=lambda r: r.key()):
            ks = self.lines[line]
            for k in range(-kmax, kmax + 1):
                if k in ks:
                    out.append(Root(line.coords, k, line.sigma))
        return tuple(out)

    def closure_violations(self, kmax: int) -> list[tuple[Root, Root, Root]]:
        """Windowed violations of (S + S) intersect R subset-of S."""
        return _window_violations(self, kmax)

    def even_part(self) -> "RootSubset":
        keep = {}
        for line, ks in self.lines.items():
            if self.system.parity(Root(line.coords, 0, line.sigma)) == EVEN:
                keep[line] = ks
        return RootSubset.of(self.system, keep)


def _by_position(sub: RootSubset) -> dict[int, IntegerSet]:
    """The level sets of ``sub``'s lines that are system lines, by position."""
    where = sub.system.line_positions
    return {where[line]: ks for line, ks in sub.lines.items() if line in where}


def _window_violations(
    P: RootSubset, kmax: int, S: RootSubset | None = None
) -> list[tuple[Root, Root, Root]]:
    """Triples (a, b, a + b) with a, b in P's window |k| <= kmax and a + b in
    S (the whole system when S is None) but not in P.

    Whether a + b lies in S or P depends only on the line of a + b and on
    its level, so each pair of lines is added once, by position
    (``AffineRootSystem.line_sum``): its target line and the level sums that
    land in S but not in P.  Only integer levels are enumerated per pair, in
    the order of a scan over ``P.window_members(kmax)`` squared.
    """
    system = P.system
    where = system.line_positions
    lines = sorted(P.lines, key=lambda r: r.key())
    positions = [where.get(line) for line in lines]
    window = range(-kmax, kmax + 1)
    levels = [[k for k in window if k in P.lines[line]] for line in lines]
    have_at = _by_position(P)
    need_at = None if S is None else _by_position(S)
    empty, full = IntegerSet.empty(), IntegerSet.all()
    rows = []
    for la, pa, ka in zip(lines, positions, levels):
        row = []
        for lb, pb, kb in zip(lines, positions, levels):
            if not ka or not kb:
                continue
            if pa is None or pb is None:
                # a line given off the system's list: add the roots themselves
                t = la + lb
                e = system.entry(t)
                pt = None if e is None else e.pos
            else:
                pt = system.line_sum(pa, pb)
                t = None if pt is None else system.lines[pt]
            if pt is None:
                continue
            have = have_at.get(pt, empty)
            need = full if need_at is None else need_at.get(pt, empty)
            if need.is_subset(have):
                continue
            sums = range(ka[0] + kb[0], ka[-1] + kb[-1] + 1)
            missed = {k for k in sums if k in need and k not in have}
            if missed:
                row.append((lb, kb, t, missed))
        rows.append(row)
    out = []
    for la, ka, row in zip(lines, levels, rows):
        for i in ka:
            a = Root(la.coords, i, la.sigma)
            for lb, kb, t, missed in row:
                for j in kb:
                    if i + j in missed:
                        b = Root(lb.coords, j, lb.sigma)
                        out.append((a, b, Root(t.coords, i + j, t.sigma)))
    return out


def full_lines_subset(system: AffineRootSystem, finite_vectors, include_imaginary: bool = True) -> RootSubset:
    """Whole lines over the given finite vectors (plus the whole zero line)."""
    mapping = {}
    if include_imaginary:
        mapping[system.zero_root] = IntegerSet.all()
    for f in finite_vectors:
        mapping[Root(f.coords, 0, f.sigma)] = IntegerSet.all()
    return RootSubset.of(system, mapping)


def even_subset(system: AffineRootSystem) -> RootSubset:
    """The whole even part as a line subset."""
    mapping = {system.zero_root: IntegerSet.all()}
    for line in system.lines:
        if line == system.zero_root:
            continue
        if system.parity(line) == EVEN:
            mapping[line] = IntegerSet.all()
    return RootSubset.of(system, mapping)


@dataclass(frozen=True)
class Component:
    index: int
    dot: FiniteRootSet
    vectors: tuple[Root, ...]  # nonzero finite vectors, negation-closed
    subset: RootSubset  # full lines over the vectors, zero line included
    # zeta.select_base's P-independent start base; filled on its first call
    _zeta_start: object = field(default=None, init=False, compare=False, hash=False, repr=False)


@dataclass(frozen=True)
class Decomposition:
    system: AffineRootSystem
    subset: RootSubset
    core: FiniteRootSet  # the finite vectors under the even lines, 0 adjoined
    components: tuple[Component, ...]


def _missing_level(ks: IntegerSet, kmax: int) -> int | None:
    """The first level of the window [-kmax, kmax] that ``ks`` misses, else
    the missing level nearest the window (lower first), else None.

    In normal form the missing levels are the integers strictly between the
    rays that are not points, so the window's neighbours skip points only.
    """
    ks = ks if ks.is_all else IntegerSet.make(ks.down, ks.up, ks.points)
    if ks.is_all:
        return None
    inside = ks.complement_in(range(-kmax, kmax + 1))
    if inside:
        return inside[0]
    below = -kmax - 1 if ks.up is None else min(-kmax - 1, ks.up - 1)
    while below in ks.points:
        below -= 1
    above = kmax + 1 if ks.down is None else max(kmax + 1, ks.down + 1)
    while above in ks.points:
        above += 1
    return min((k for k in (below, above) if k not in ks), key=abs)


def decompose(system: AffineRootSystem, subset: RootSubset, kmax: int = 6) -> Decomposition:
    """Split a symmetric closed subset along its even finite core.

    Requirements checked here:

    * the subset is symmetric and (windowed) closed,
    * every even line that meets the subset lies in it entirely, at every
      level (a missing level beyond the window is named as the witness too),
    * the finite core is a finite root system (all vectors real, pairings
      integral, strings unbroken).
    """
    if not subset.is_symmetric():
        raise HypothesisViolated("subset is not symmetric")
    bad = subset.closure_violations(kmax)
    if bad:
        a, b, s = bad[0]
        raise HypothesisViolated(
            f"subset not closed: {system.format(a)} + {system.format(b)} = {system.format(s)} missing",
            witness=s,
        )
    s0 = subset.even_part()
    core_vectors = []
    for line, ks in s0.lines.items():
        if line == system.zero_root:
            continue
        gap = _missing_level(ks, kmax)
        if gap is not None:
            raise HypothesisViolated(
                f"even line {system.format(line)} only partially present",
                witness=Root(line.coords, gap, line.sigma),
            )
        core_vectors.append(Root(line.coords))
    if not any(
        system.classify(Root(v.coords)) == KIND_REAL for v in core_vectors
    ):
        raise HypothesisViolated("the even part carries no real lines")
    zero = system.zero_root
    members = tuple(sorted(set(core_vectors) | {zero}, key=lambda r: r.key()))
    core = FiniteRootSet(
        FiniteTypeId("PURE"), system.basis, members, frozenset(), label="core"
    )
    for v in core.nonzero:
        if core.kind(v) != KIND_REAL:
            raise NotAFiniteRootSystem(
                f"core vector {system.format(v)} is not real"
            )
    report = check_supersystem_axioms(core)
    if not report.passed:
        raise NotAFiniteRootSystem(
            f"core fails axioms {','.join(report.failed_axioms)}"
        )
    comps = []
    for idx, dot in enumerate(irreducible_components(core)):
        vectors = dot.nonzero
        comps.append(
            Component(
                idx + 1,
                dot,
                vectors,
                full_lines_subset(system, vectors),
            )
        )
    return Decomposition(system, subset, core, comps)


def component_parabolic(
    system: AffineRootSystem,
    comp: Component,
    class_shadows: dict,
    direction: str,
) -> RootSubset:
    """P = (ln part of the component) + (negated in part) + half the zero line.

    ``class_shadows`` maps canonical class representatives to their
    colourings; every class referenced by the component must be hybrid in
    the requested direction, otherwise NotUniformlyHybrid is raised.
    """
    from .shadows import DOWN, UP

    if direction not in (UP, DOWN):
        raise NotUniformlyHybrid(f"unknown direction {direction!r}")
    mapping = {}
    mapping[system.zero_root] = (
        IntegerSet.at_least(0) if direction == UP else IntegerSet.at_most(0)
    )
    for f in comp.vectors:
        rep, side = system.class_rep(f)
        cs = class_shadows.get(rep)
        if cs is None:
            raise NotUniformlyHybrid(f"class {system.format(rep)} has no colouring")
        try:
            got_direction = cs.direction
        except Exception as exc:  # unclassifiable side shapes
            raise NotUniformlyHybrid(f"class {system.format(rep)}: {exc}") from exc
        if got_direction != direction:
            raise NotUniformlyHybrid(
                f"class {system.format(rep)} is {got_direction or 'tight'}, wanted {direction}"
            )
        ln_here = cs.ln_set(side)
        in_opposite = cs.in_set(-side)
        mapping[Root(f.coords, 0, f.sigma)] = ln_here.union(in_opposite.negate())
    return RootSubset.of(system, mapping)


@dataclass(frozen=True)
class ParabolicCheck:
    additive_violations: tuple
    covering_failures: tuple
    proper: bool

    @property
    def is_parabolic(self) -> bool:
        return not self.additive_violations and not self.covering_failures


def _ray_sum(x: IntegerSet, y: IntegerSet) -> IntegerSet:
    """Minkowski sum of two ray-shaped level sets."""
    if x.is_empty() or y.is_empty():
        return IntegerSet.empty()
    if x.is_all or y.is_all:
        return IntegerSet.all()
    if x.up is not None and y.up is not None:
        return IntegerSet.at_least(x.up + y.up)
    if x.down is not None and y.down is not None:
        return IntegerSet.at_most(x.down + y.down)
    return IntegerSet.all()  # opposite rays sum onto every level


def check_parabolic(P: RootSubset, S: RootSubset, kmax: int) -> ParabolicCheck:
    """(P+P) closure inside S, and P u -P = S (exact, line-wise).

    The closure direction is exact whenever every involved level set is a
    ray (the shapes the parabolic builder produces); otherwise it falls
    back to a windowed enumeration with |k| <= kmax.
    """
    system = P.system
    additive = []
    all_rays = all(ks.is_ray_shape() for ks in P.lines.values()) and all(
        ks.is_ray_shape() for ks in S.lines.values()
    )
    if all_rays:
        where = system.line_positions
        items = [(fa, ka, where.get(fa)) for fa, ka in P.lines.items()]
        have_at, need_at = _by_position(P), _by_position(S)
        # S lines off the system's list can only be met by adding the roots
        off = len(need_at) < len(S.lines)
        for fa, ka, pa in items:
            for fb, kb, pb in items:
                pt = None if pa is None or pb is None else system.line_sum(pa, pb)
                if pt is not None:
                    target = system.lines[pt]
                    ks_t, have = need_at.get(pt), have_at.get(pt, IntegerSet.empty())
                elif pa is None or pb is None or off:
                    target = fa + fb
                    ks_t, have = S.levels(target), P.levels(target)
                else:
                    continue
                if ks_t is None or ks_t.is_empty():
                    continue
                got = _ray_sum(ka, kb)
                need = got.intersect(ks_t)
                if not need.is_subset(have):
                    additive.append((fa, fb, target))
    else:
        additive = _window_violations(P, kmax, S)
    covering = []
    neg = P.negated()
    for line, ks in S.lines.items():
        got = P.levels(line).union(neg.levels(line))
        if got != ks:
            covering.append((line, got, ks))
    for line in P.lines:
        if line not in S.lines:
            covering.append((line, P.levels(line), IntegerSet.empty()))
    proper = not P.same_as(S)
    return ParabolicCheck(tuple(additive), tuple(covering), proper)
