"""Exact subsets of the integers built from rays and finitely many points.

Shadow membership along a fixed finite direction, the delta-ladder of a
parabolic subset over one finite root, and base-positivity constraints are
all sets of this shape: a downward ray, an upward ray, plus a finite
correction.  The class keeps a normal form so equality is structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class IntegerSet:
    """Union of (-inf, down], [up, +inf) and a finite set of points.

    ``down`` / ``up`` of None mean that ray is absent.  Normal form, as
    ``make`` produces it:

    * all of Z is ``is_all=True`` with ``down=None``, ``up=None`` and no
      points;
    * otherwise the rays do not meet (``up > down + 1`` when both exist),
      every point lies strictly between them (``down < p < up``), and no
      point is adjacent to a ray (``down + 1`` and ``up - 1`` are never
      points; they are folded into the ray).

    So two sets are equal exactly when their fields are.
    """

    down: int | None = None
    up: int | None = None
    points: frozenset[int] = frozenset()
    is_all: bool = False

    # -- constructors ---------------------------------------------------

    @staticmethod
    def empty() -> "IntegerSet":
        return IntegerSet()

    @staticmethod
    def all() -> "IntegerSet":
        return IntegerSet(is_all=True)

    @staticmethod
    def at_least(a: int) -> "IntegerSet":
        return IntegerSet(up=a)

    @staticmethod
    def at_most(b: int) -> "IntegerSet":
        return IntegerSet(down=b)

    @staticmethod
    def of(*pts: int) -> "IntegerSet":
        return IntegerSet(points=frozenset(pts))

    @staticmethod
    def where_nonnegative(c: int | Fraction, w: int | Fraction) -> "IntegerSet":
        """The levels k with c + k*w >= 0.  Floor division is exact on ints
        and Fractions alike, and builds no Fraction from ints."""
        if w == 0:
            return IntegerSet.all() if c >= 0 else IntegerSet.empty()
        if w > 0:
            return IntegerSet.at_least(-(c // w))
        return IntegerSet.at_most(-c // w)

    @staticmethod
    def where_positive(c: int | Fraction, w: int | Fraction) -> "IntegerSet":
        """The levels k with c + k*w > 0."""
        if w == 0:
            return IntegerSet.all() if c > 0 else IntegerSet.empty()
        if w > 0:
            return IntegerSet.at_least(-c // w + 1)
        return IntegerSet.at_most(-(c // w) - 1)

    @staticmethod
    def make(down: int | None, up: int | None, pts) -> "IntegerSet":
        """Normalize an arbitrary (down-ray, up-ray, points) description."""
        points = set(pts)
        # fold adjacent points into the rays; once folded, the rays can only meet
        if down is not None:
            while down + 1 in points:
                down += 1
        if up is not None:
            while up - 1 in points:
                up -= 1
        if down is not None and up is not None and up <= down + 1:
            return IntegerSet.all()
        points = {p for p in points
                  if (down is None or p > down) and (up is None or p < up)}
        return IntegerSet(down=down, up=up, points=frozenset(points))

    # -- queries ----------------------------------------------------------

    def __contains__(self, k: int) -> bool:
        if self.is_all:
            return True
        if self.down is not None and k <= self.down:
            return True
        if self.up is not None and k >= self.up:
            return True
        return k in self.points

    def is_empty(self) -> bool:
        return not self.is_all and self.down is None and self.up is None and not self.points

    def is_finite(self) -> bool:
        return not self.is_all and self.down is None and self.up is None

    def is_ray_shape(self) -> bool:
        """All, empty, or exactly one ray with no points."""
        return self.is_all or (not self.points and (self.down is None or self.up is None))

    def bounded_below(self) -> bool:
        return not self.is_all and self.down is None

    def min(self) -> int:
        if not self.bounded_below():
            raise ValueError("unbounded below")
        cands = list(self.points)
        if self.up is not None:
            cands.append(self.up)
        return min(cands)

    # -- algebra ------------------------------------------------------------

    def union(self, other: "IntegerSet") -> "IntegerSet":
        if self.is_all or other.is_all:
            return IntegerSet.all()
        down = _max_opt(self.down, other.down)
        up = _min_opt(self.up, other.up)
        return IntegerSet.make(down, up, set(self.points) | set(other.points))

    def intersect(self, other: "IntegerSet") -> "IntegerSet":
        if self.is_all:
            return other
        if other.is_all:
            return self
        # a full ray survives intersection only if both sides carry one
        down = None if self.down is None or other.down is None else min(self.down, other.down)
        up = None if self.up is None or other.up is None else max(self.up, other.up)
        # each side's points that the other holds, and the levels where one
        # side's down-ray overlaps the other's up-ray; make drops what the rays cover
        pts = set()
        for p in self.points:
            if p in other:
                pts.add(p)
        for p in other.points:
            if p in self:
                pts.add(p)
        if self.down is not None and other.up is not None and other.up <= self.down:
            pts.update(range(other.up, self.down + 1))
        if other.down is not None and self.up is not None and self.up <= other.down:
            pts.update(range(self.up, other.down + 1))
        return IntegerSet.make(down, up, pts)

    def __add__(self, other: "IntegerSet") -> "IntegerSet":
        """The Minkowski sum {a + b : a in self, b in other}.

        Ray-plus-points sets are closed under it: a ray plus any member of
        the other set is a ray the same way, opposite rays sum onto all of Z,
        and points add pairwise.
        """
        if self.is_empty() or other.is_empty():
            return IntegerSet.empty()
        if self.is_all or other.is_all:
            return IntegerSet.all()
        if not self.points and not other.points:
            # two rays pointing the same way: the parabolic builder's shapes
            if self.down is None and other.down is None:
                return IntegerSet(up=self.up + other.up)
            if self.up is None and other.up is None:
                return IntegerSet(down=self.down + other.down)
        pairs = ((self, other), (other, self))
        if any(x.down is not None and y.up is not None for x, y in pairs):
            return IntegerSet.all()
        down = up = None
        for x, y in pairs:
            # y has no ray against x's, so its extreme member is a point or its own ray end
            if x.down is not None:
                down = _max_opt(down, x.down + max(y.points, default=y.down))
            if x.up is not None:
                up = _min_opt(up, x.up + min(y.points, default=y.up))
        return IntegerSet.make(down, up, {p + q for p in self.points for q in other.points})

    def negate(self) -> "IntegerSet":
        """The set {-k : k in self}."""
        if self.is_all:
            return self
        return IntegerSet.make(
            None if self.up is None else -self.up,
            None if self.down is None else -self.down,
            {-p for p in self.points},
        )

    def shift(self, c: int) -> "IntegerSet":
        if self.is_all:
            return self
        return IntegerSet(
            None if self.down is None else self.down + c,
            None if self.up is None else self.up + c,
            frozenset(p + c for p in self.points),
            False,
        )

    def is_subset(self, other: "IntegerSet") -> bool:
        if other.is_all:
            return True
        if self.is_all:
            return False
        if self.down is not None and (other.down is None or other.down < self.down):
            return False
        if self.up is not None and (other.up is None or other.up > self.up):
            return False
        return all(p in other for p in self.points)

    def complement_in(self, window: range) -> list[int]:
        return [k for k in window if k not in self]

    def __str__(self) -> str:
        if self.is_all:
            return "Z"
        if self.is_empty():
            return "{}"
        bits = []
        if self.down is not None:
            bits.append(f"(..{self.down}]")
        for p in sorted(self.points):
            bits.append(str(p))
        if self.up is not None:
            bits.append(f"[{self.up}..)")
        return " u ".join(bits)


def _max_opt(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def _min_opt(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)
