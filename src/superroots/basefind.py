"""Simple-system extraction for finite root collections.

Positivity is fixed once and for all by the lexicographic rule (first
nonzero coordinate positive).  The simple roots of that positive system
are the positive vectors that do not split as a sum of two positive
vectors, and the highest root of an irreducible piece is the positive
root that dominates every other in the simple-coordinate partial order.
"""
from __future__ import annotations

from fractions import Fraction as Q

from .errors import DependentRoots, NotAFiniteRootSystem, OutsideSpan
from .finite import FiniteRootSet
# solve stays bound here for the benchmark tracer, whose self-test wraps it at
# every module that imports it
from .linalg import Factor, factor, solve  # noqa: F401
from .roots import Root


def is_lex_positive(r: Root) -> bool:
    for c in r.coords:
        if c != 0:
            return c > 0
    return False


def positive_roots(rs: FiniteRootSet) -> tuple[Root, ...]:
    return tuple(r for r in rs.nonzero if is_lex_positive(r))


def find_base(rs: FiniteRootSet) -> tuple[Root, ...]:
    """The simple roots of the lexicographic positive system, sorted."""
    pos = positive_roots(rs)
    pos_set = set(pos)
    base = []
    for a in pos:
        if any((a - b) in pos_set for b in pos if b != a and is_lex_positive(a - b)):
            continue
        base.append(a)
    return tuple(sorted(base, key=lambda r: r.key()))


def factor_roots(roots: tuple[Root, ...]) -> Factor:
    """Factorisation for expanding vectors over ``roots`` by ``Root.vector``.

    The delta and sigma multiplicities are coordinates like the finite
    ones, so an expansion has to match them too.  Raises DependentRoots
    when the roots are linearly dependent, since an expansion over them
    would not be unique.
    """
    fac = factor([list(row) for row in zip(*(r.vector() for r in roots))])
    if fac is None:
        raise DependentRoots(f"{len(roots)} roots are linearly dependent")
    return fac


def expand_in_base(base: tuple[Root, ...], target: Root) -> tuple[Q, ...] | None:
    """Coefficients of target over the base vectors, or None if outside."""
    if not base:
        return None
    sol = factor_roots(base).solve(target.vector())
    return None if sol is None else tuple(sol)


def integer_expansion(base: tuple[Root, ...], target: Root) -> tuple[int, ...]:
    coeffs = expand_in_base(base, target)
    if coeffs is None:
        raise OutsideSpan(f"{target} is not in the base span")
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise NotAFiniteRootSystem(f"non-integral expansion coefficient {c}")
        out.append(int(c))
    return tuple(out)


def highest_root(rs: FiniteRootSet, base: tuple[Root, ...] | None = None) -> tuple[Root, tuple[int, ...]]:
    """Dominant positive root of an irreducible collection with its coefficients.

    Raises NotAFiniteRootSystem when no positive root dominates all others,
    which signals a reducible input.
    """
    if base is None:
        base = find_base(rs)
    pos = positive_roots(rs)
    expansions = {r: integer_expansion(base, r) for r in pos}
    best: Root | None = None
    for r, cf in expansions.items():
        if best is None or sum(cf) > sum(expansions[best]):
            best = r
    if best is None:
        raise NotAFiniteRootSystem("no positive roots")
    top = expansions[best]
    for r, cf in expansions.items():
        if any(c > t for c, t in zip(cf, top)):
            raise NotAFiniteRootSystem(
                f"no dominant root: {r} exceeds {best} in some coordinate"
            )
    return best, top
