"""Exact subsets of the integers built from rays and finitely many points.

Shadow membership along a fixed finite direction, the delta-ladder of a
parabolic subset over one finite root, and base-positivity constraints are
all sets of this shape: a downward ray, an upward ray, plus a finite
correction.  The class keeps a normal form so equality is structural.
"""

from __future__ import annotations

from dataclasses import dataclass


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
    def make(down: int | None, up: int | None, pts) -> "IntegerSet":
        """Normalize an arbitrary (down-ray, up-ray, points) description."""
        points = set(pts)
        if down is not None and up is not None and up <= down + 1:
            return IntegerSet.all()
        # fold adjacent points into the rays until stable
        changed = True
        while changed:
            changed = False
            if down is not None:
                while down + 1 in points:
                    points.discard(down + 1)
                    down += 1
                    changed = True
            if up is not None:
                while up - 1 in points:
                    points.discard(up - 1)
                    up -= 1
                    changed = True
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
        pts: set[int] = set()
        # points of one side that land in the other
        for p in self.points:
            if p in other:
                pts.add(p)
        for p in other.points:
            if p in self:
                pts.add(p)
        # ray-overlap fragments: my down-ray against other's up-ray etc.
        if self.down is not None and other.up is not None and other.up <= self.down:
            # [other.up, self.down] survives unless covered by combined rays
            for k in range(other.up, self.down + 1):
                if (down is None or k > down) and (up is None or k < up):
                    pts.add(k)
        if other.down is not None and self.up is not None and self.up <= other.down:
            for k in range(self.up, other.down + 1):
                if (down is None or k > down) and (up is None or k < up):
                    pts.add(k)
        return IntegerSet.make(down, up, pts)

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
