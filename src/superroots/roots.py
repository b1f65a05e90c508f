"""Roots as exact coordinate vectors, and the bilinear forms they pair under.

A root is a finite-part vector over a named ambient basis, together with an
integer delta-multiplicity k (the affine direction) and an integer
sigma-multiplicity s (an extra formal isotropic direction that only the
A(n,n) affinization uses).  Both delta and sigma pair to zero with
everything, so the form is carried entirely by the finite part.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BasisMismatch, IsotropicReflectionError, NotARoot
from .scalars import LAMBDA, ONE, Q, Scalar, scalar_div

Coords = tuple[Q, ...]

# classification vocabulary shared across the package
KIND_ZERO = "zero"
KIND_IMAGINARY = "imaginary"
KIND_REAL = "real"
KIND_NONSINGULAR = "nonsingular"
EVEN = "even"
ODD = "odd"


@dataclass(frozen=True)
class Root:
    """finite_coords + k*delta + sigma_mult*sigma."""

    coords: Coords
    k: int = 0
    sigma: int = 0

    # -- vector operations (delta and sigma parts transform linearly) --

    def __add__(self, other: "Root") -> "Root":
        if len(self.coords) != len(other.coords):
            raise BasisMismatch("adding roots over different ambient bases")
        return Root(
            tuple(a + b for a, b in zip(self.coords, other.coords)),
            self.k + other.k,
            self.sigma + other.sigma,
        )

    def __neg__(self) -> "Root":
        return Root(tuple(-a for a in self.coords), -self.k, -self.sigma)

    def __sub__(self, other: "Root") -> "Root":
        return self + (-other)

    def scale(self, c) -> "Root":
        c = Q(c)
        s = c * self.sigma
        if s.denominator != 1:
            raise NotARoot(f"scaling by {c} gives fractional sigma part")
        kk = c * self.k
        if kk.denominator != 1:
            raise NotARoot(f"scaling by {c} gives fractional delta part")
        return Root(tuple(c * a for a in self.coords), int(kk), int(s))

    # -- queries ---------------------------------------------------------

    def finite(self) -> "Root":
        """The same vector with delta and sigma parts dropped."""
        return Root(self.coords, 0, 0)

    def is_zero_vector(self) -> bool:
        return self.k == 0 and self.sigma == 0 and all(a == 0 for a in self.coords)

    def finite_is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def shift(self, dk: int) -> "Root":
        return Root(self.coords, self.k + dk, self.sigma)

    def vector(self) -> tuple:
        """Finite coordinates, then the delta and sigma multiplicities."""
        return self.coords + (self.k, self.sigma)

    def key(self) -> tuple:
        """Deterministic sort key."""
        return (self.coords, self.k, self.sigma)


def root(*coords, k: int = 0, sigma: int = 0) -> Root:
    return Root(tuple(Q(c) for c in coords), k, sigma)


@dataclass(frozen=True)
class AmbientBasis:
    """Named coordinates with a diagonal Gram matrix of exact scalars.

    Every basis used by this package is orthogonal, so a diagonal suffices.
    The (delta, anything) = (sigma, anything) = 0 rule is implicit: those
    directions simply do not appear in the Gram.
    """

    symbols: tuple[str, ...]
    gram_diag: tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.symbols) != len(self.gram_diag):
            raise BasisMismatch("symbol/Gram length mismatch")

    @property
    def dim(self) -> int:
        return len(self.symbols)

    def unit(self, i: int, k: int = 0, sigma: int = 0) -> Root:
        coords = tuple(Q(1) if j == i else Q(0) for j in range(self.dim))
        return Root(coords, k, sigma)

    def unit_named(self, symbol: str, k: int = 0, sigma: int = 0) -> Root:
        return self.unit(self.symbols.index(symbol), k, sigma)

    def form(self, a: Root, b: Root) -> Scalar:
        """Bilinear form value; delta and sigma components contribute 0."""
        if len(a.coords) != self.dim or len(b.coords) != self.dim:
            raise BasisMismatch("root does not live over this basis")
        total = Scalar(Q(0))
        for x, y, g in zip(a.coords, b.coords, self.gram_diag):
            if x and y:
                total = total + g * (x * y)
        return total

    def norm(self, a: Root) -> Scalar:
        return self.form(a, a)

    def coords_dict(self, a: Root) -> dict[str, Q]:
        return {s: c for s, c in zip(self.symbols, a.coords) if c != 0}


def eps_delta_basis(m: int, n: int) -> AmbientBasis:
    """Basis e1..em (norm +1) and d1..dn (norm -1)."""
    symbols = tuple(f"e{i}" for i in range(1, m + 1)) + tuple(
        f"d{j}" for j in range(1, n + 1)
    )
    gram = tuple(ONE for _ in range(m)) + tuple(-ONE for _ in range(n))
    return AmbientBasis(symbols, gram)


def d21_basis() -> AmbientBasis:
    """Basis g1, g2, g3 of the one-parameter rank-3 family.

    Norms lambda, -1-lambda, 1: the three mutually orthogonal directions
    whose pairwise sums are the isotropic odd roots.
    """
    return AmbientBasis(
        ("g1", "g2", "g3"),
        (LAMBDA, Scalar(Q(-1), Q(-1)), ONE),
    )


def f4_basis() -> AmbientBasis:
    """Basis e (norm 3), d1, d2, d3 (norm -1) for the 40-dimensional
    exceptional system.  The norm-3 convention absorbs the usual sqrt(3)
    so all coordinates stay rational."""
    return AmbientBasis(
        ("e", "d1", "d2", "d3"),
        (Scalar(Q(3)), -ONE, -ONE, -ONE),
    )


def g3_basis() -> AmbientBasis:
    """Basis e1, e2, e3 (norm +1, summing to zero is NOT imposed here;
    roots use differences only) and nu (norm -2) for the 31-dimensional
    exceptional system."""
    return AmbientBasis(
        ("e1", "e2", "e3", "nu"),
        (ONE, ONE, ONE, Scalar(Q(-2))),
    )


def cartan_integer(basis: AmbientBasis, beta: Root, alpha: Root) -> Q:
    """2(beta,alpha)/(alpha,alpha) as an exact rational.

    Raises IsotropicReflectionError when (alpha,alpha) = 0, and NotARoot
    when the quotient does not collapse to a rational (which cannot happen
    for genuine root pairs).
    """
    nn = basis.norm(alpha)
    if nn.is_zero():
        raise IsotropicReflectionError("reflection in an isotropic direction")
    num = basis.form(beta, alpha) * 2
    q = scalar_div(num, nn)
    if not q.is_rational():
        raise NotARoot(f"pairing 2({beta},{alpha})/({alpha},{alpha}) = {q} not rational")
    return q.const


def reflect(basis: AmbientBasis, beta: Root, alpha: Root) -> Root:
    """beta - <beta,alpha> alpha, for non-isotropic alpha."""
    c = cartan_integer(basis, beta, alpha)
    return beta - alpha.scale(c)


def format_root(basis: AmbientBasis, a: Root) -> str:
    """Deterministic plain-text rendering like 'e1-e2+2d' or 's-d'."""
    parts: list[str] = []

    def push(coef: Q, sym: str):
        if coef == 0:
            return
        if coef == 1:
            parts.append(f"+{sym}" if parts else sym)
        elif coef == -1:
            parts.append(f"-{sym}")
        else:
            c = str(coef)
            if parts and not c.startswith("-"):
                c = "+" + c
            parts.append(f"{c}{sym}")

    for sym, coef in zip(basis.symbols, a.coords):
        push(coef, sym)
    push(Q(a.sigma), "s")
    push(Q(a.k), "d")
    return "".join(parts) if parts else "0"
