"""ln/in colourings of the real roots and their consistency laws.

A shadow assigns, to every real class (a canonical finite vector and its
negative), the set of delta-levels coloured ``ln`` on each side.  Admissible
sides are full rays, everything, or nothing; the classifier names the four
shapes (full_ln / full_in / up / down, hybrids carrying the offset ``m``
and the defect ``t``) and rejects anything else.

Three laws are checked:

* sums of two ln roots that land on a real root stay ln,
* a ln root plus twice a ln root that lands on a real root stays ln,
* colouring is scale-consistent: when both ``f`` and ``2f`` are real,
  the level ``k`` on the ``f`` line and the level ``2k`` on the ``2f``
  line agree.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction as Q

from .affine import AffineRootSystem
from .errors import NotAShadowPattern
from .intsets import IntegerSet
from .roots import KIND_REAL, Root

FULL_LN = "full_ln"
FULL_IN = "full_in"
UP = "up"
DOWN = "down"
TIGHT = "tight"


def hybrid_sets(direction: str, m: int, t: int) -> tuple[IntegerSet, IntegerSet]:
    """(plus-side, minus-side) ln levels of a hybrid class colouring."""
    if t not in (-1, 0, 1):
        raise NotAShadowPattern(f"hybrid defect t={t} outside -1..1")
    if direction == UP:
        return IntegerSet.at_least(m), IntegerSet.at_least(1 - t - m)
    if direction == DOWN:
        return IntegerSet.at_most(m), IntegerSet.at_most(t - m - 1)
    raise NotAShadowPattern(f"unknown hybrid direction {direction!r}")


@dataclass(frozen=True)
class ClassShadow:
    """ln levels on both sides of one real class."""

    rep: Root
    plus_ln: IntegerSet
    minus_ln: IntegerSet

    def __post_init__(self) -> None:
        if not self.plus_ln.is_ray_shape() or not self.minus_ln.is_ray_shape():
            raise NotAShadowPattern(
                f"class {self.rep}: side colourings must be rays, all, or nothing"
            )

    def ln_set(self, side: int) -> IntegerSet:
        return self.plus_ln if side > 0 else self.minus_ln

    def in_set(self, side: int) -> IntegerSet:
        """Complement of the ln side; both sides are ray shapes."""
        s = self.ln_set(side)
        if s.is_all:
            return IntegerSet.empty()
        if s.up is not None:
            return IntegerSet.at_most(s.up - 1)
        if s.down is not None:
            return IntegerSet.at_least(s.down + 1)
        return IntegerSet.all()

    @property
    def config(self) -> dict:
        """Classified shape; raises NotAShadowPattern when not nameable."""
        p, m = self.plus_ln, self.minus_ln
        if p.is_all and m.is_all:
            return {"family": FULL_LN, "m": 0, "t": 0}
        if p.is_empty() and m.is_empty():
            return {"family": FULL_IN, "m": 0, "t": 0}
        # both sides are ray shapes: an up (down) threshold is a pure up (down) ray
        if p.up is not None and m.up is not None:
            mm = p.up
            t = 1 - mm - m.up
            if t not in (-1, 0, 1):
                raise NotAShadowPattern(f"up thresholds ({p.up},{m.up}) give defect {t}")
            return {"family": UP, "m": mm, "t": t}
        if p.down is not None and m.down is not None:
            mm = p.down
            t = mm + m.down + 1
            if t not in (-1, 0, 1):
                raise NotAShadowPattern(f"down thresholds ({p.down},{m.down}) give defect {t}")
            return {"family": DOWN, "m": mm, "t": t}
        if (p.is_all or p.is_empty()) and (m.is_all or m.is_empty()):
            return {
                "family": TIGHT,
                "plus": "ln" if p.is_all else "in",
                "minus": "ln" if m.is_all else "in",
            }
        raise NotAShadowPattern(
            f"class {self.rep}: mixed ray directions do not form a pattern"
        )

    @property
    def direction(self) -> str | None:
        """"up"/"down" for hybrids, None for tight shapes."""
        fam = self.config["family"]
        if fam in (UP, DOWN):
            return fam
        return None

    def mirrored(self) -> "ClassShadow":
        """The k -> -k image (up-hybrids become down-hybrids and so on)."""
        return ClassShadow(self.rep, self.plus_ln.negate(), self.minus_ln.negate())


def hybrid_class(rep: Root, direction: str, m: int, t: int) -> ClassShadow:
    plus, minus = hybrid_sets(direction, m, t)
    return ClassShadow(rep, plus, minus)


def tight_class(rep: Root, plus_ln: bool, minus_ln: bool) -> ClassShadow:
    full, none = IntegerSet.all(), IntegerSet.empty()
    return ClassShadow(rep, full if plus_ln else none, full if minus_ln else none)


def anchored_class(system: AffineRootSystem, anchor: Root, cfg: dict) -> ClassShadow:
    """The colouring of ``anchor``'s class, with ``cfg`` (as ``ClassShadow.config``
    writes it) read on anchor's side.

    The stored representative is always the canonical one, so when the
    anchor is the negative side the two sides swap places.
    """
    if not isinstance(cfg, dict):
        raise NotAShadowPattern(f"a class colouring is a JSON object, got {cfg!r}")
    family = cfg.get("family")
    rep, side = system.class_rep(anchor)
    full, none = IntegerSet.all(), IntegerSet.empty()
    if family in (FULL_LN, FULL_IN):
        plus = minus = full if family == FULL_LN else none
    elif family == TIGHT:
        for key in ("plus", "minus"):
            if cfg[key] not in ("ln", "in"):
                raise NotAShadowPattern(f"tight side {key!r} must be 'ln' or 'in', got {cfg[key]!r}")
        plus, minus = (full if cfg[key] == "ln" else none for key in ("plus", "minus"))
    elif family in (UP, DOWN):
        for key in ("m", "t"):
            if type(cfg[key]) is not int:  # a JSON integer: no float, bool or string
                raise NotAShadowPattern(f"hybrid {key!r} must be an integer, got {cfg[key]!r}")
        plus, minus = hybrid_sets(family, cfg["m"], cfg["t"])
    else:
        raise NotAShadowPattern(f"unknown pattern family {family!r}")
    return ClassShadow(rep, plus, minus) if side > 0 else ClassShadow(rep, minus, plus)


def anchored_hybrid(
    system: AffineRootSystem, anchor: Root, direction: str, m: int, t: int
) -> ClassShadow:
    """Hybrid colouring described relative to ``anchor`` (either class side)."""
    return anchored_class(system, anchor, {"family": direction, "m": m, "t": t})


@dataclass(frozen=True)
class Violation:
    law: str
    alpha: Root
    beta: Root | None
    target: Root | None
    detail: str


@dataclass(frozen=True)
class ShadowReport:
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class Shadow:
    """``classes`` maps each real class's canonical rep (a ``Root``) to its
    colouring.  It is read once, into one colouring per rep line position;
    the readers below name a line by its position in ``system.lines``."""

    system: AffineRootSystem
    classes: dict

    @staticmethod
    def of(system: AffineRootSystem, class_shadows) -> "Shadow":
        table = {}
        for cs in class_shadows:
            if cs.rep in table:
                raise NotAShadowPattern(f"class {system.format(cs.rep)} is coloured twice")
            table[cs.rep] = cs
        shadow = Shadow(system, table)
        missing = [rep for rep, pos, _ in system.real_class_lines if pos not in shadow._by_rep]
        if missing:
            raise NotAShadowPattern(
                f"classes without a colouring: {[system.format(r) for r in missing]}"
            )
        return shadow

    @cached_property
    def _by_rep(self) -> dict[int, ClassShadow]:
        """Each class's colouring by its rep line's position; a key that is
        no class's canonical rep colours nothing."""
        lines, out = self.system.lines, {}
        for rep, cs in self.classes.items():
            e = self.system.entry(rep)
            if e is not None and e.real_class == (e.pos, 1) and lines[e.pos] == rep:
                out[e.pos] = cs
        return out

    def colouring_at(self, pos: int) -> tuple[ClassShadow, int]:
        """The colouring of the real line at ``pos`` and the line's side of its class."""
        rep, side = self.system.line_entries[pos].real_class
        if rep not in self._by_rep:
            raise NotAShadowPattern(
                f"class of {self.system.format(self.system.lines[rep])} has no colouring"
            )
        return self._by_rep[rep], side

    def ln_levels_at(self, pos: int) -> IntegerSet:
        """The ln levels of the real line at ``pos``."""
        cs, side = self.colouring_at(pos)
        return cs.ln_set(side)

    def is_ln(self, r: Root) -> bool:
        return r.k in self.ln_levels(r)

    def is_in(self, r: Root) -> bool:
        return not self.is_ln(r)

    def ln_levels(self, finite_vector: Root) -> IntegerSet:
        """ln levels along a given real finite vector (either sign)."""
        return self.ln_levels_at(self.system.real_entry(finite_vector).pos)

    def in_levels(self, finite_vector: Root) -> IntegerSet:
        cs, side = self.colouring_at(self.system.real_entry(finite_vector).pos)
        return cs.in_set(side)

    def mirrored(self) -> "Shadow":
        return Shadow(
            self.system, {rep: cs.mirrored() for rep, cs in self.classes.items()}
        )

    def config_json(self) -> dict:
        classes = [
            {"rep": self.system.format(rep), "config": self.classes[rep].config}
            for rep in sorted(self.classes, key=lambda r: r.key())
        ]
        return {"system": self.system.token, "classes": classes}


def validate_shadow(shadow: Shadow, kmax: int, class_filter=None) -> ShadowReport:
    """Windowed check of the two sum laws and scale consistency.

    Whether alpha + beta (law ``sum``) or alpha + 2*beta (law ``sum2``) is
    real, and which levels of its line are ln, depend only on the lines of
    alpha and beta.  So each pair of real lines is added once, by position
    (``AffineRootSystem.line_sum``), and only the ln levels inside
    |k| <= kmax are enumerated.  Every side is a ray shape, so a pair's
    level sums miss the target's ln levels somewhere exactly when they miss
    them at an end of their range.  Violations come out in the order of a
    scan over window pairs: alpha outer, beta inner, ``sum`` before ``sum2``.
    """
    system = shadow.system
    lines, entries = system.lines, system.line_entries
    names: dict[tuple[int, int], str] = {}  # window roots recur across violations

    def fmt(pos: int, k: int) -> str:
        """The rendering of level k on the line at ``pos`` in ``system.lines``."""
        name = names.get((pos, k))
        if name is None:
            name = names[pos, k] = system.format(lines[pos].shift(k))
        return name

    window = range(-kmax, kmax + 1)
    classes = [
        (p, q) for rep, p, q in system.real_class_lines
        if class_filter is None or rep in class_filter
    ]
    real = []  # (real line position, its ln levels in the window)
    for pair in classes:
        for pos in pair:
            ln = shadow.ln_levels_at(pos)
            real.append((pos, [k for k in window if k in ln]))
    rows = []
    for pa, ka in real:
        row = []
        for pb, kb in real:
            if not ka or not kb:
                continue
            laws = []
            for law, m in (("sum", 1), ("sum2", 2)):
                pt = system.line_sum(pa, pb, m)
                if pt is None or entries[pt].kind0 != KIND_REAL:
                    continue
                ln_t = shadow.ln_levels_at(pt)
                if ka[0] + m * kb[0] not in ln_t or ka[-1] + m * kb[-1] not in ln_t:
                    laws.append((law, m, pt, ln_t))
            if laws:
                row.append((pb, kb, laws))
        rows.append(row)
    violations: list[Violation] = []
    for (pa, ka), row in zip(real, rows):
        for i in ka:
            alpha = lines[pa].shift(i)
            for pb, kb, laws in row:
                for j in kb:
                    for law, m, pt, ln_t in laws:
                        if i + m * j in ln_t:
                            continue
                        violations.append(Violation(
                            law, alpha, lines[pb].shift(j), lines[pt].shift(i + m * j),
                            f"{fmt(pa, i)} , {fmt(pb, j)} are ln but {fmt(pt, i + m * j)} is in",
                        ))
    # scale consistency between the f and 2f lines
    for pair in classes:
        doubled = [system.line_sum(system.zero_line, p, 2) for p in pair]
        if doubled[0] is None or entries[doubled[0]].kind0 != KIND_REAL:
            continue
        for p, p2 in zip(pair, doubled):
            ln1, ln2 = shadow.ln_levels_at(p), shadow.ln_levels_at(p2)
            for k in window:
                if (k in ln1) != (2 * k in ln2):
                    violations.append(Violation(
                        "scale", lines[p].shift(k), None, lines[p2].shift(2 * k),
                        f"{fmt(p, k)} and {fmt(p2, 2 * k)} disagree",
                    ))
    return ShadowReport(tuple(violations))


def induce_from_functional(
    system: AffineRootSystem, coeffs: dict, delta_coeff: Q
) -> Shadow:
    """Colour every real root by the sign of a linear functional.

    ``coeffs`` maps basis symbols to rationals; ``delta_coeff`` must be
    nonzero.  A root is ln exactly when the functional is positive on it,
    which always produces hybrid colourings with defect in {-1, 0}.
    """
    wd = Q(delta_coeff)
    if wd == 0:
        raise NotAShadowPattern("the delta coefficient must be nonzero")
    weights = [Q(coeffs.get(sym, 0)) for sym in system.basis.symbols]

    def value(f: Root) -> Q:
        return sum((w * c for w, c in zip(weights, f.coords)), Q(0))

    out = []
    for rep in system.real_class_reps:
        c = value(rep)
        out.append(
            ClassShadow(rep, IntegerSet.where_positive(c, wd), IntegerSet.where_positive(-c, wd))
        )
    return Shadow.of(system, out)
