"""Support sets built from point / ray / line descriptors.

A support is a finite union of components, each either a single lattice
point or an arithmetic progression ``anchor + n * step`` with ``n``
ranging over a point, an upward ray (n >= 0), a downward ray (n <= 0),
or all integers.  Two direction operators are evaluated exactly on this
descriptor algebra:

* ``is_bounded_direction(supp, alpha)`` — along ``alpha``, every ray
  ``lam + k*alpha`` (k > 0) meets the support finitely often,
* ``is_shift_stable(supp, alpha)`` — ``alpha + supp`` is contained in
  ``supp``.

The shift check refuses (``DirectionNotDecidable``) when ``alpha`` is
parallel to no descriptor axis while the support extends infinitely
along two or more distinct axes; everything else is decided exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from math import ceil, floor, gcd

from .errors import DirectionNotDecidable
from .intsets import IntegerSet
from .linalg import solve
from .roots import Root

EXT_POINT = "point"
EXT_UP = "up"
EXT_DOWN = "down"
EXT_LINE = "line"
_EXTENTS = (EXT_POINT, EXT_UP, EXT_DOWN, EXT_LINE)


def _entries(r: Root) -> tuple[Q, ...]:
    return r.coords + (Q(r.k), Q(r.sigma))


def _is_zero(r: Root) -> bool:
    return all(x == 0 for x in _entries(r))


def parallel_ratio(a: Root, b: Root) -> Q | None:
    """The scalar c with a = c * b, or None (b must be nonzero)."""
    ea, eb = _entries(a), _entries(b)
    ratio = None
    for x, y in zip(ea, eb):
        if y != 0:
            ratio = x / y
            break
    if ratio is None:
        raise ValueError("reference vector is zero")
    if all(x == ratio * y for x, y in zip(ea, eb)):
        return ratio
    return None


@dataclass(frozen=True)
class SupportComponent:
    anchor: Root
    step: Root
    extent: str

    def __post_init__(self):
        if self.extent not in _EXTENTS:
            raise ValueError(f"unknown extent {self.extent!r}")
        if self.extent != EXT_POINT and _is_zero(self.step):
            raise ValueError("an infinite component needs a nonzero step")

    @property
    def index_levels(self) -> IntegerSet:
        if self.extent == EXT_POINT:
            return IntegerSet.of(0)
        if self.extent == EXT_UP:
            return IntegerSet.at_least(0)
        if self.extent == EXT_DOWN:
            return IntegerSet.at_most(0)
        return IntegerSet.all()

    def contains(self, x: Root) -> bool:
        d = x - self.anchor
        if _is_zero(d):
            return True
        if self.extent == EXT_POINT:
            return False
        n = parallel_ratio(d, self.step)
        return n is not None and n.denominator == 1 and int(n) in self.index_levels


@dataclass(frozen=True)
class SupportSet:
    components: tuple[SupportComponent, ...] = field(default_factory=tuple)

    def __post_init__(self):
        dims = {len(c.anchor.coords) for c in self.components}
        if len(dims) > 1:
            raise ValueError("mixed ambient dimensions")

    @staticmethod
    def of(*components: SupportComponent) -> "SupportSet":
        return SupportSet(tuple(components))

    @staticmethod
    def point(anchor: Root) -> SupportComponent:
        return SupportComponent(anchor, Root(tuple(Q(0) for _ in anchor.coords), 0, 0), EXT_POINT)

    def contains(self, x: Root) -> bool:
        return any(c.contains(x) for c in self.components)

    def __contains__(self, x: Root) -> bool:
        return self.contains(x)

    @property
    def is_empty(self) -> bool:
        return not self.components


def is_bounded_direction(supp: SupportSet, alpha: Root) -> bool:
    """True when {k > 0 : lam + k*alpha in supp} is finite for every lam."""
    if _is_zero(alpha):
        return supp.is_empty
    for comp in supp.components:
        if comp.extent == EXT_POINT:
            continue
        c = parallel_ratio(alpha, comp.step)
        if c is None:
            continue  # a line along alpha meets this component at most once
        if c > 0 and comp.extent in (EXT_UP, EXT_LINE):
            return False
        if c < 0 and comp.extent in (EXT_DOWN, EXT_LINE):
            return False
    return True


@dataclass(frozen=True)
class _ModularRay:
    """m-values m ≡ residue (mod gap), cut to a half-line when bounded."""

    gap: int  # >= 1
    residue: int
    lower: int | None  # m >= lower when set
    upper: int | None  # m <= upper when set

    def hits_class(self, r: int) -> bool:
        return (r - self.residue) % self.gap == 0


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _egcd(b, a % b)
    return (g, y, x - (a // b) * y)


def _parallel_cover(
    target_anchor: Root, step: Root, comp: SupportComponent, ratio: Q
) -> tuple[list[_ModularRay], list[int]]:
    """Cover of {target_anchor + m*step} by comp, comp.step = ratio*step."""
    offset = target_anchor - comp.anchor
    if _is_zero(offset):
        e = Q(0)
    else:
        e_ratio = parallel_ratio(offset, step)
        if e_ratio is None:
            return [], []
        e = -e_ratio  # solve target + m*step = comp: m*step = -offset + m'*comp.step
    p, q = ratio.numerator, ratio.denominator
    eq = e * q
    if eq.denominator != 1:
        return [], []
    eq = int(eq)
    # q*m - p*m' = eq, gcd(p, q) = 1; general solution m = m0 + p*tau, m' = m0p + q*tau
    _, x, y = _egcd(q, p)
    m0, m0p = x * eq, -y * eq
    levels = comp.index_levels
    if comp.extent == EXT_LINE:
        lo_tau, hi_tau = None, None
    elif comp.extent == EXT_UP:
        lo_tau, hi_tau = ceil(Q(levels.up - m0p, q)), None
    elif comp.extent == EXT_DOWN:
        lo_tau, hi_tau = None, floor(Q(levels.down - m0p, q))
    else:  # point component: m' = 0
        if m0p % q != 0:
            return [], []
        tau = -m0p // q
        return [], [m0 + p * tau]
    gap = abs(p)
    if p > 0:
        lower = None if lo_tau is None else m0 + p * lo_tau
        upper = None if hi_tau is None else m0 + p * hi_tau
    else:
        lower = None if hi_tau is None else m0 + p * hi_tau
        upper = None if lo_tau is None else m0 + p * lo_tau
    return [_ModularRay(gap, m0 % gap, lower, upper)], []


def _transversal_cover(
    target_anchor: Root, step: Root, comp: SupportComponent
) -> list[int]:
    """Points of {target_anchor + m*step} on a non-parallel component.

    The two steps are nonzero and not parallel, so the columns of
    m*step - m'*comp.step are independent and ``solve`` returns the one
    solution, or None when there is none.
    """
    rows = [[s, -c] for s, c in zip(_entries(step), _entries(comp.step))]
    rhs = [c - t for c, t in zip(_entries(comp.anchor), _entries(target_anchor))]
    sol = solve(rows, rhs)
    if sol is None:
        return []
    m, mp = sol
    if m.denominator != 1 or mp.denominator != 1:
        return []
    if int(mp) not in comp.index_levels:
        return []
    return [int(m)]


def _restrict_to_class(ks: IntegerSet, r: int, period: int) -> IntegerSet:
    """ks ∩ (r + period*Z), reparametrised by j with m = r + period*j."""
    out = IntegerSet.empty()
    if ks.is_all:
        return IntegerSet.all()
    if ks.down is not None:
        out = out.union(IntegerSet.at_most(floor(Q(ks.down - r, period))))
    if ks.up is not None:
        out = out.union(IntegerSet.at_least(ceil(Q(ks.up - r, period))))
    pts = [(p - r) // period for p in ks.points if (p - r) % period == 0]
    return out.union(IntegerSet.of(*pts))


def _covers_progression(
    needed: IntegerSet, rays: list[_ModularRay], points: list[int]
) -> bool:
    period = 1
    for ray in rays:
        period = period * ray.gap // gcd(period, ray.gap)
    for r in range(period):
        need_r = _restrict_to_class(needed, r, period)
        if need_r.is_empty():
            continue
        cov = IntegerSet.empty()
        for ray in rays:
            if not ray.hits_class(r):
                continue
            if ray.lower is None and ray.upper is None:
                cov = IntegerSet.all()
                break
            part = IntegerSet.all()
            if ray.lower is not None:
                part = part.intersect(IntegerSet.at_least(ceil(Q(ray.lower - r, period))))
            if ray.upper is not None:
                part = part.intersect(IntegerSet.at_most(floor(Q(ray.upper - r, period))))
            cov = cov.union(part)
        cov = cov.union(IntegerSet.of(*[(p - r) // period for p in points if (p - r) % period == 0]))
        if not need_r.is_subset(cov):
            return False
    return True


def is_shift_stable(supp: SupportSet, alpha: Root) -> bool:
    """True when alpha + supp is contained in supp."""
    if supp.is_empty or _is_zero(alpha):
        return True
    infinite = [c for c in supp.components if c.extent != EXT_POINT]
    if infinite and all(parallel_ratio(alpha, c.step) is None for c in infinite):
        axes: list[Root] = []
        for c in infinite:
            if all(parallel_ratio(c.step, s) is None for s in axes):
                axes.append(c.step)
        if len(axes) >= 2:
            raise DirectionNotDecidable(
                "shift direction crosses several infinite axes; refusing to guess"
            )
    for comp in supp.components:
        shifted_anchor = comp.anchor + alpha
        if comp.extent == EXT_POINT:
            if not supp.contains(shifted_anchor):
                return False
            continue
        rays: list[_ModularRay] = []
        points: list[int] = []
        for other in supp.components:
            if other.extent == EXT_POINT:
                d = other.anchor - shifted_anchor
                if _is_zero(d):
                    points.append(0)
                else:
                    m = parallel_ratio(d, comp.step)
                    if m is not None and m.denominator == 1:
                        points.append(int(m))
                continue
            ratio = parallel_ratio(other.step, comp.step)
            if ratio is not None:
                extra_rays, extra_pts = _parallel_cover(
                    shifted_anchor, comp.step, other, ratio
                )
                rays.extend(extra_rays)
                points.extend(extra_pts)
            else:
                points.extend(_transversal_cover(shifted_anchor, comp.step, other))
        full_rays = [ray for ray in rays if ray.gap == 1 and ray.lower is None and ray.upper is None]
        if full_rays:
            continue
        if not rays and not comp.index_levels.is_finite():
            return False
        if not _covers_progression(comp.index_levels, rays, points):
            return False
    return True
