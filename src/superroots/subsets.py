"""Subsets of a loop system described line by line, and their decomposition.

A subset stores, for every (finite vector, sigma) line of its system, the
exact set of delta-levels it contains, keyed by the line's position in
``system.lines``.  ``RootSubset.of`` is the way in: it maps each key to the
line it names and raises NotARoot for anything else.  That makes symmetry,
covering, properness and closure (``_closure_gaps``, which every closure
check reads) exact on whole lines rather than sampled.

``decompose`` splits the even part of such a subset into the loop
extensions of the orthogonality components of its finite core, which is
the shape the parabolic construction consumes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from .affine import AffineRootSystem
from .errors import (
    HypothesisViolated,
    NotAFiniteRootSystem,
    NotARoot,
    NotUniformlyHybrid,
)
from .finite import FiniteRootSet, FiniteTypeId, check_supersystem_axioms, irreducible_components
from .intsets import IntegerSet
from .roots import EVEN, KIND_REAL, Root
from .shadows import DOWN, UP


_EMPTY = IntegerSet.empty()


@dataclass(frozen=True, eq=False)
class RootSubset:
    system: AffineRootSystem
    #: position in ``system.lines`` -> its non-empty levels, positions increasing;
    #: only ``of`` and the subsets derived below fill it
    _at: dict[int, IntegerSet]

    @staticmethod
    def of(system: AffineRootSystem, mapping) -> "RootSubset":
        """The subset with levels ``mapping[key]`` on the line each key names.

        A key may be any k = 0 member of its line (a block-shifted ANN vector
        names the line of its projection); keys that name the same line are
        merged by union, and empty level sets are dropped.  Raises NotARoot
        for a key with k != 0 or on no line of the system.
        """
        at = {}
        for key, ks in mapping.items():
            e = None if key.k else system.entry(key)
            if e is None:
                raise NotARoot(f"{key} names no line of {system.token}")
            if not ks.is_empty():
                at[e.pos] = at[e.pos].union(ks) if e.pos in at else ks
        return RootSubset(system, dict(sorted(at.items())))

    @property
    def lines(self) -> MappingProxyType:
        """A read-only view: line ``Root`` -> levels, in position order."""
        lines = self.system.lines
        return MappingProxyType({lines[pos]: ks for pos, ks in self._at.items()})

    def by_position(self):
        """(position in ``system.lines``, levels) per line met, in position order."""
        return self._at.items()

    def levels_at(self, pos: int) -> IntegerSet:
        """The levels on the line at ``pos`` in ``system.lines``."""
        return self._at.get(pos, _EMPTY)

    def levels(self, r: Root) -> IntegerSet:
        """The levels on the line through ``r``; empty off the system."""
        e = self.system.entry(r)
        return _EMPTY if e is None else self._at.get(e.pos, _EMPTY)

    def contains(self, r: Root) -> bool:
        return r.k in self.levels(r)

    def __contains__(self, r: Root) -> bool:
        return self.contains(r)

    # The derived subsets below keep every level set non-empty and the
    # positions increasing, so they skip ``of``.

    def negated(self) -> "RootSubset":
        neg = self.system.line_negation
        at = sorted((neg[pos], ks.negate()) for pos, ks in self._at.items())
        return RootSubset(self.system, dict(at))

    def union(self, other: "RootSubset") -> "RootSubset":
        out = dict(self._at)
        for pos, ks in other._at.items():
            out[pos] = out[pos].union(ks) if pos in out else ks
        return RootSubset(self.system, dict(sorted(out.items())))

    def same_as(self, other: "RootSubset") -> bool:
        return self._at == other._at

    def is_symmetric(self) -> bool:
        return self.same_as(self.negated())

    def mirrored(self) -> "RootSubset":
        """The k -> -k image."""
        return RootSubset(self.system, {pos: ks.negate() for pos, ks in self._at.items()})

    def window_members(self, kmax: int) -> tuple[Root, ...]:
        lines, window = self.system.lines, range(-kmax, kmax + 1)
        return tuple(lines[pos].shift(k) for pos, ks in self._at.items() for k in window if k in ks)

    def closure_violations(self, kmax: int) -> list[tuple[Root, Root, Root]]:
        """Windowed violations of (S + S) intersect R subset-of S, in the
        order of a scan over ``window_members(kmax)`` squared; window levels
        are walked only on the pairs of lines ``_closure_gaps`` flags."""
        return _window_witnesses(self, list(_closure_gaps(self)), kmax)

    def even_part(self) -> "RootSubset":
        entries = self.system.line_entries
        keep = {pos: ks for pos, ks in self._at.items() if entries[pos].parity == EVEN}
        return RootSubset(self.system, keep)


def _closure_gaps(P: RootSubset, S: RootSubset | None = None):
    """Yield (a, b, t), positions in ``system.lines``, for each pair of P's
    lines whose sum lies on a line t (of S, when given) where P_a + P_b, cut
    to S_t when S is given, is not a subset of P_t: exact Minkowski sums, no
    window.  Pairs come in position order, first line then second.
    """
    line_sum = P.system.line_sum
    have = P._at
    need = None if S is None else S._at
    for a, ka in have.items():
        for b, kb in have.items():
            t = line_sum(a, b)
            if t is None:
                continue
            reach = ka + kb
            if need is not None:
                if t not in need:
                    continue
                reach = reach.intersect(need[t])
            if not reach.is_subset(have.get(t, _EMPTY)):
                yield a, b, t


def _window_witnesses(P: RootSubset, gaps: list, kmax: int) -> list[tuple[Root, Root, Root]]:
    """``closure_violations`` on the pairs of lines ``gaps`` (from ``_closure_gaps(P)``)."""
    if not gaps:
        return []
    lines = P.system.lines
    window = range(-kmax, kmax + 1)
    levels = {pos: [k for k in window if k in ks] for pos, ks in P._at.items()}
    rows = {}
    for a, b, t in gaps:
        rows.setdefault(a, []).append((lines[b], levels[b], lines[t], P.levels_at(t)))
    out = []
    for a, row in rows.items():
        for i in levels[a]:
            alpha = lines[a].shift(i)
            for lb, kb, lt, have in row:
                for j in kb:
                    if i + j not in have:
                        out.append((alpha, lb.shift(j), lt.shift(i + j)))
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
    """The whole even part as a line subset (the zero line is even)."""
    return RootSubset(system, {e.pos: IntegerSet.all() for e in system.line_entries if e.parity == EVEN})


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

    * the subset is symmetric and closed at every level (a pair of lines
      with no window witness is named by its line triple, after the rest),
    * every even line that meets the subset lies in it entirely, at every
      level (a missing level beyond the window is named as the witness too),
    * the finite core is a finite root system (all vectors real, pairings
      integral, strings unbroken).
    """
    if not subset.is_symmetric():
        raise HypothesisViolated("subset is not symmetric")
    gaps = list(_closure_gaps(subset))
    bad = _window_witnesses(subset, gaps, kmax)
    if bad:
        a, b, s = bad[0]
        raise HypothesisViolated(
            f"subset not closed: {system.format(a)} + {system.format(b)} = {system.format(s)} missing",
            witness=s,
        )
    lines, entries = system.lines, system.line_entries
    core_lines = [system.zero_line]
    for pos, ks in subset.even_part().by_position():
        if pos == system.zero_line:
            continue
        gap = _missing_level(ks, kmax)
        if gap is not None:
            raise HypothesisViolated(
                f"even line {system.format(lines[pos])} only partially present",
                witness=lines[pos].shift(gap),
            )
        core_lines.append(pos)
    if not any(entries[pos].kind == KIND_REAL for pos in core_lines):
        raise HypothesisViolated("the even part carries no real lines")
    # even lines carry sigma = 0, so each is its finite vector
    members = tuple(lines[pos] for pos in sorted(core_lines))
    core = FiniteRootSet(
        FiniteTypeId("PURE"), system.basis, members, frozenset(), label="core"
    )
    for v in core.nonzero:
        if core.kind(v) != KIND_REAL:
            raise NotAFiniteRootSystem(f"core vector {system.format(v)} is not real")
    report = check_supersystem_axioms(core)
    if not report.passed:
        raise NotAFiniteRootSystem(f"core fails axioms {','.join(report.failed_axioms)}")
    if gaps:
        fa, fb, t = (lines[pos] for pos in gaps[0])
        raise HypothesisViolated(
            f"subset not closed: lines {system.format(fa)} + {system.format(fb)} reach levels of "
            f"{system.format(t)} it lacks, none with |k| <= {kmax}",
            witness=(fa, fb, t),
        )
    comps = [
        Component(idx + 1, dot, dot.nonzero, full_lines_subset(system, dot.nonzero))
        for idx, dot in enumerate(irreducible_components(core))
    ]
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
    the requested direction, otherwise NotUniformlyHybrid is raised.  The
    table is read once per class, at the position of the rep's line.  A
    hybrid side is a ray, so every level set is non-empty.
    """
    if direction not in (UP, DOWN):
        raise NotUniformlyHybrid(f"unknown direction {direction!r}")
    lines, entries, neg = system.lines, system.line_entries, system.line_negation
    at = {system.zero_line: IntegerSet.at_least(0) if direction == UP else IntegerSet.at_most(0)}
    for pos, _ in comp.subset.by_position():
        if entries[pos].real_class != (pos, 1):
            continue  # the zero line, or the negative side of a class
        rep = lines[pos]
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
        for p, side in ((pos, 1), (neg[pos], -1)):
            at[p] = cs.ln_set(side).union(cs.in_set(-side).negate())
    return RootSubset(system, dict(sorted(at.items())))


@dataclass(frozen=True)
class ParabolicCheck:
    additive_violations: tuple
    covering_failures: tuple
    proper: bool

    @property
    def is_parabolic(self) -> bool:
        return not self.additive_violations and not self.covering_failures


def check_parabolic(P: RootSubset, S: RootSubset, kmax: int) -> ParabolicCheck:
    """(P + P) intersect S inside P, and P u -P = S, exact on whole lines.

    For each pair of P's lines (f_a, f_b) whose sum lies on a line t of S,
    the levels (P_a + P_b) intersect S_t must lie in P_t; a pair that fails
    is reported as the line triple (f_a, f_b, t).  The verdict reads no
    window: ``kmax`` stays in the signature for callers that pass one.
    """
    lines = P.system.lines
    additive = tuple((lines[a], lines[b], lines[t]) for a, b, t in _closure_gaps(P, S))
    covering = []
    neg = P.negated()
    for pos, ks in S.by_position():
        got = P.levels_at(pos).union(neg.levels_at(pos))
        if got != ks:
            covering.append((lines[pos], got, ks))
    for pos, ks in P.by_position():
        if pos not in S._at:
            covering.append((lines[pos], ks, _EMPTY))
    proper = not P.same_as(S)
    return ParabolicCheck(additive, tuple(covering), proper)
