"""Subsets of a loop system described line by line, and their decomposition.

A subset stores, for every (finite vector, sigma) line of its system, the
exact set of delta-levels it contains.  ``RootSubset.of`` is the boundary:
it keys each level set by the system line it names and raises NotARoot for
anything else, so the checks below only meet system lines.  That makes
symmetry, covering, properness and closure (``_closure_gaps``, which every
closure check reads) exact on whole lines rather than sampled.

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
    NotARoot,
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
        """The subset with levels ``mapping[key]`` on the line each key names.

        A key may be any k = 0 member of its line (a block-shifted ANN vector
        names the line of its projection); keys that name the same line are
        merged by union, and empty level sets are dropped.  Raises NotARoot
        for a key with k != 0 or on no line of the system.
        """
        where, lines = system.line_positions, system.lines
        clean = {}
        for key, ks in mapping.items():
            if key not in where:
                e = None if key.k else system.entry(key)
                if e is None:
                    raise NotARoot(f"{key} names no line of {system.token}")
                key = lines[e.pos]
            if not ks.is_empty():
                clean[key] = clean[key].union(ks) if key in clean else ks
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

    # The derived subsets below are keyed by system lines already, and every
    # level set in them is non-empty, so they skip ``of``.

    def negated(self) -> "RootSubset":
        return RootSubset(self.system, {-line: ks.negate() for line, ks in self.lines.items()})

    def union(self, other: "RootSubset") -> "RootSubset":
        out = dict(self.lines)
        for line, ks in other.lines.items():
            out[line] = out[line].union(ks) if line in out else ks
        return RootSubset(self.system, out)

    def same_as(self, other: "RootSubset") -> bool:
        return self.lines == other.lines

    def is_symmetric(self) -> bool:
        return self.same_as(self.negated())

    def mirrored(self) -> "RootSubset":
        """The k -> -k image."""
        return RootSubset(self.system, {line: ks.negate() for line, ks in self.lines.items()})

    def window_members(self, kmax: int) -> tuple[Root, ...]:
        out = []
        for line in sorted(self.lines, key=lambda r: r.key()):
            ks = self.lines[line]
            for k in range(-kmax, kmax + 1):
                if k in ks:
                    out.append(Root(line.coords, k, line.sigma))
        return tuple(out)

    def closure_violations(self, kmax: int) -> list[tuple[Root, Root, Root]]:
        """Windowed violations of (S + S) intersect R subset-of S, in the
        order of a scan over ``window_members(kmax)`` squared; window levels
        are walked only on the pairs of lines ``_closure_gaps`` flags."""
        gaps = sorted(_closure_gaps(self), key=_scan_order)
        if not gaps:
            return []
        window = range(-kmax, kmax + 1)
        levels = {line: [k for k in window if k in ks] for line, ks in self.lines.items()}
        rows = {}
        for fa, fb, t in gaps:
            rows.setdefault(fa, []).append((fb, levels[fb], t, self.levels(t)))
        out = []
        for la, row in rows.items():
            for i in levels[la]:
                a = Root(la.coords, i, la.sigma)
                for lb, kb, t, have in row:
                    for j in kb:
                        if i + j not in have:
                            out.append((a, Root(lb.coords, j, lb.sigma), Root(t.coords, i + j, t.sigma)))
        return out

    def even_part(self) -> "RootSubset":
        keep = {line: ks for line, ks in self.lines.items() if self.system.parity(line) == EVEN}
        return RootSubset(self.system, keep)


def _scan_order(gap: tuple[Root, Root, Root]) -> tuple:
    """Line triples by their first line, then their second, in ``Root.key`` order."""
    return gap[0].key(), gap[1].key()


def _closure_gaps(P: RootSubset, S: RootSubset | None = None):
    """Yield (f_a, f_b, t) for each pair of P's lines whose sum lies on a
    line t (of S, when given) where P_a + P_b, cut to S_t when S is given,
    is not a subset of P_t: exact Minkowski sums, no window.  Raises
    NotARoot for a key on no system line (a subset built without ``of``).
    """
    system = P.system
    where = system.line_positions

    def position(line: Root) -> int:
        if line not in where:
            raise NotARoot(f"{line} is not a line of {system.token}")
        return where[line]

    items = [(fa, ka, position(fa)) for fa, ka in P.lines.items()]
    have_at = {pa: ka for _, ka, pa in items}
    need_at = None if S is None else {position(line): ks for line, ks in S.lines.items()}
    empty = IntegerSet.empty()
    for fa, ka, pa in items:
        for fb, kb, pb in items:
            pt = system.line_sum(pa, pb)
            if pt is None:
                continue
            reach = ka + kb
            if need_at is not None:
                if pt not in need_at:
                    continue
                reach = reach.intersect(need_at[pt])
            if not reach.is_subset(have_at.get(pt, empty)):
                yield fa, fb, system.lines[pt]


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

    * the subset is symmetric and closed at every level (a pair of lines
      with no window witness is named by its line triple, after the rest),
    * every even line that meets the subset lies in it entirely, at every
      level (a missing level beyond the window is named as the witness too),
    * the finite core is a finite root system (all vectors real, pairings
      integral, strings unbroken).
    """
    if not subset.is_symmetric():
        raise HypothesisViolated("subset is not symmetric")
    gaps = sorted(_closure_gaps(subset), key=_scan_order)
    if gaps:
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
    if gaps:
        fa, fb, t = gaps[0]
        raise HypothesisViolated(
            f"subset not closed: lines {system.format(fa)} + {system.format(fb)} reach levels of "
            f"{system.format(t)} it lacks, none with |k| <= {kmax}",
            witness=gaps[0],
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


def check_parabolic(P: RootSubset, S: RootSubset, kmax: int) -> ParabolicCheck:
    """(P + P) intersect S inside P, and P u -P = S, exact on whole lines.

    For each pair of P's lines (f_a, f_b) whose sum lies on a line t of S,
    the levels (P_a + P_b) intersect S_t must lie in P_t; a pair that fails
    is reported as the line triple (f_a, f_b, t).  The verdict reads no
    window: ``kmax`` stays in the signature for callers that pass one.
    """
    additive = tuple(_closure_gaps(P, S))
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
    return ParabolicCheck(additive, tuple(covering), proper)
