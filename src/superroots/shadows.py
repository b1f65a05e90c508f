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
from fractions import Fraction as Q
from math import ceil, floor

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


def anchored_hybrid(
    system: AffineRootSystem, anchor: Root, direction: str, m: int, t: int
) -> ClassShadow:
    """Hybrid colouring described relative to ``anchor`` (either class side).

    The stored representative is always the canonical one, so when the
    anchor is the negative side the two ray sets swap places.
    """
    rep, side = system.class_rep(anchor)
    plus, minus = hybrid_sets(direction, m, t)
    if side > 0:
        return ClassShadow(rep, plus, minus)
    return ClassShadow(rep, minus, plus)


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

    def summary(self) -> str:
        if self.passed:
            return "consistent"
        return f"{len(self.violations)} violation(s), first: {self.violations[0].detail}"


@dataclass(frozen=True)
class Shadow:
    system: AffineRootSystem
    classes: dict

    @staticmethod
    def of(system: AffineRootSystem, class_shadows) -> "Shadow":
        table = {}
        for cs in class_shadows:
            table[cs.rep] = cs
        missing = [r for r in system.real_class_reps if r not in table]
        if missing:
            raise NotAShadowPattern(
                f"classes without a colouring: {[system.format(r) for r in missing]}"
            )
        return Shadow(system, table)

    def class_of(self, r: Root) -> tuple[ClassShadow, int]:
        rep, side = self.system.class_rep(r)
        return self.classes[rep], side

    def is_ln(self, r: Root) -> bool:
        cs, side = self.class_of(r)
        return self.system.canonicalize(r).k in cs.ln_set(side)

    def is_in(self, r: Root) -> bool:
        return not self.is_ln(r)

    def ln_levels(self, finite_vector: Root) -> IntegerSet:
        """ln levels along a given real finite vector (either sign)."""
        cs, side = self.class_of(finite_vector)
        return cs.ln_set(side)

    def in_levels(self, finite_vector: Root) -> IntegerSet:
        cs, side = self.class_of(finite_vector)
        return cs.in_set(side)

    def mirrored(self) -> "Shadow":
        return Shadow(
            self.system, {rep: cs.mirrored() for rep, cs in self.classes.items()}
        )

    def config_json(self) -> dict:
        classes = []
        for rep in sorted(self.classes, key=lambda r: r.key()):
            classes.append(
                {"rep": self.system.format(rep), "config": self.classes[rep].config}
            )
        return {"system": self.system.token, "classes": classes}


def validate_shadow(shadow: Shadow, kmax: int, class_filter=None) -> ShadowReport:
    """Windowed check of the two sum laws and scale consistency.

    Whether alpha + beta (law ``sum``) or alpha + 2*beta (law ``sum2``) is
    real, and which levels of its line are ln, depend only on the lines of
    alpha and beta.  So each pair of lines is looked up once, and only the
    ln levels inside |k| <= kmax are enumerated.  Violations come out in the
    order of a scan over window pairs: alpha outer, beta inner, ``sum``
    before ``sum2``.
    """
    system = shadow.system
    window = range(-kmax, kmax + 1)
    lines = []  # (real finite vector, its ln levels in the window)
    for rep in system.real_class_reps:
        if class_filter is not None and rep not in class_filter:
            continue
        for f in (rep, -rep):
            ln = shadow.ln_levels(f)
            lines.append((f, [k for k in window if k in ln]))
    rows = []
    for fa, ka in lines:
        row = []
        for fb, kb in lines:
            if not ka or not kb:
                continue
            laws = []
            for law, m, t in (("sum", 1, fa + fb), ("sum2", 2, fa + fb.scale(Q(2)))):
                if not system.contains(t) or system.classify(t) != KIND_REAL:
                    continue
                ln_t = shadow.ln_levels(t)
                sums = range(ka[0] + m * kb[0], ka[-1] + m * kb[-1] + 1)
                missed = {k for k in sums if k not in ln_t}
                if missed:
                    laws.append((law, m, t, missed))
            if laws:
                row.append((fb, kb, laws))
        rows.append(row)
    violations: list[Violation] = []
    for (fa, ka), row in zip(lines, rows):
        for i in ka:
            alpha = Root(fa.coords, i, fa.sigma)
            for fb, kb, laws in row:
                for j in kb:
                    for law, m, t, missed in laws:
                        if i + m * j not in missed:
                            continue
                        beta = Root(fb.coords, j, fb.sigma)
                        target = Root(t.coords, i + m * j, t.sigma)
                        violations.append(
                            Violation(
                                law,
                                alpha,
                                beta,
                                target,
                                f"{system.format(alpha)} , {system.format(beta)} are ln "
                                f"but {system.format(target)} is in",
                            )
                        )
    # scale consistency between the f and 2f lines
    for rep in system.real_class_reps:
        if class_filter is not None and rep not in class_filter:
            continue
        doubled = rep.scale(Q(2))
        if not system.contains(doubled) or system.classify(doubled) != KIND_REAL:
            continue
        for f, f2 in ((rep, doubled), (-rep, -doubled)):
            ln, ln2 = shadow.ln_levels(f), shadow.ln_levels(f2)
            for k in window:
                if (k in ln) != (2 * k in ln2):
                    a = Root(f.coords, k, f.sigma)
                    b = Root(f2.coords, 2 * k, f2.sigma)
                    violations.append(
                        Violation(
                            "scale",
                            a,
                            None,
                            b,
                            f"{system.format(a)} and {system.format(b)} disagree",
                        )
                    )
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

    def side_set(c: Q) -> IntegerSet:
        # levels k with c + k*wd > 0
        boundary = -c / wd
        if wd > 0:
            return IntegerSet.at_least(floor(boundary) + 1)
        return IntegerSet.at_most(ceil(boundary) - 1)

    out = []
    for rep in system.real_class_reps:
        c = value(rep)
        out.append(ClassShadow(rep, side_set(c), side_set(-c)))
    return Shadow.of(system, out)
