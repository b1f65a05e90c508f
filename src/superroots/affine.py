"""Loop extensions of the finite families: vectors plus a delta ladder.

A member is ``f + s*sigma + k*delta`` where ``f`` runs over the finite
vectors, ``k`` over all integers, and ``s`` is zero except on the
isotropic lines of the equal-block family ANN, whose mixed vectors carry
a forced sigma sign (both signs when the two blocks have size two, since
distinct abstract functionals then project to the same vector).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import cached_property

from .errors import NotARoot, NotRealRoot, RankError
from .finite import FiniteRootSet, FiniteTypeId, build_finite, ann_block_traceless
from .roots import (
    EVEN,
    KIND_IMAGINARY,
    KIND_NONSINGULAR,
    KIND_REAL,
    KIND_ZERO,
    AmbientBasis,
    Root,
    cartan_integer,
    format_root,
    reflect as reflect_vector,
)
from .scalars import EXCLUDED_LAMBDA, Scalar


@dataclass(frozen=True)
class AffineRootSystem:
    type_id: FiniteTypeId
    finite: FiniteRootSet
    #: allowed sigma multiplicities per nonzero finite vector
    sigma_options: dict
    lambda_value: Q | None = None
    _kind_cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def basis(self) -> AmbientBasis:
        return self.finite.basis

    @property
    def lambda_mode(self) -> str:
        if self.lambda_value is None:
            return "symbolic"
        return f"rational:{self.lambda_value}"

    # -- normal forms -----------------------------------------------------

    def canonicalize(self, r: Root) -> Root:
        if len(r.coords) != self.basis.dim:
            raise NotARoot(f"{r} has {len(r.coords)} coordinates, expected {self.basis.dim}")
        if self.type_id.family == "ANN":
            return ann_block_traceless(self.basis, r)
        return r

    # -- membership and classification -------------------------------------

    def contains(self, r: Root) -> bool:
        try:
            c = self.canonicalize(r)
        except NotARoot:
            return False
        f = Root(c.coords)
        if f.is_zero_vector():
            return c.sigma == 0
        if f not in self.finite.members:
            return False
        return c.sigma in self.sigma_options.get(f, (0,))

    def __contains__(self, r: Root) -> bool:
        return self.contains(r)

    def classify(self, r: Root) -> str:
        if not self.contains(r):
            raise NotARoot(f"{r} is not a member of {self.token}")
        c = self.canonicalize(r)
        if c.is_zero_vector():
            return KIND_ZERO
        f = Root(c.coords)
        cached = self._kind_cache.get(f)
        if cached is None:
            if self.finite.is_orthogonal_to_all(f):
                cached = KIND_IMAGINARY
            elif not self.finite.norm(f).is_zero():
                cached = KIND_REAL
            else:
                cached = KIND_NONSINGULAR
            self._kind_cache[f] = cached
        if cached == KIND_IMAGINARY and c.k == 0 and c.sigma == 0:
            return KIND_ZERO
        return cached

    def parity(self, r: Root) -> str:
        if not self.contains(r):
            raise NotARoot(f"{r} is not a member of {self.token}")
        c = self.canonicalize(r)
        f = Root(c.coords)
        if f.is_zero_vector():
            return EVEN
        return self.finite.parity(f)

    # -- structure ----------------------------------------------------------

    @property
    def token(self) -> str:
        return self.type_id.token

    @cached_property
    def delta(self) -> Root:
        return Root(tuple(Q(0) for _ in range(self.basis.dim)), 1, 0)

    @cached_property
    def zero_root(self) -> Root:
        return Root(tuple(Q(0) for _ in range(self.basis.dim)), 0, 0)

    @cached_property
    def real_class_reps(self) -> tuple[Root, ...]:
        reps = set()
        for f in self.finite.real_roots():
            reps.add(min(f, -f, key=lambda r: r.key()))
        return tuple(sorted(reps, key=lambda r: r.key()))

    def class_rep(self, r: Root) -> tuple[Root, int]:
        """Canonical class representative of a real member and the side.

        Returns (rep, +1) when the finite part equals rep, (rep, -1) when
        it equals -rep.  Raises NotRealRoot on anything non-real.
        """
        if self.classify(r) != KIND_REAL:
            raise NotRealRoot(f"{r} is not a real member")
        f = Root(self.canonicalize(r).coords)
        rep = min(f, -f, key=lambda x: x.key())
        return rep, (1 if f == rep else -1)

    @cached_property
    def lines(self) -> tuple[Root, ...]:
        """All (finite vector, sigma) line identifiers, zero line included."""
        out = [self.zero_root]
        for f in self.finite.nonzero:
            for s in sorted(self.sigma_options.get(f, (0,))):
                out.append(Root(f.coords, 0, s))
        return tuple(sorted(out, key=lambda r: r.key()))

    def window(self, kmax: int) -> tuple[Root, ...]:
        out = []
        for line in self.lines:
            for k in range(-kmax, kmax + 1):
                out.append(Root(line.coords, k, line.sigma))
        return tuple(sorted(out, key=lambda r: r.key()))

    # -- arithmetic ----------------------------------------------------------

    def cartan(self, beta: Root, alpha: Root) -> int:
        if self.classify(alpha) != KIND_REAL:
            raise NotRealRoot(f"{alpha} is not real")
        val = cartan_integer(self.basis, self.canonicalize(beta), self.canonicalize(alpha))
        if val.denominator != 1:
            raise NotARoot(f"pairing <{beta},{alpha}> = {val} is not integral")
        return int(val)

    def reflect(self, beta: Root, alpha: Root) -> Root:
        """Reflection of beta in the hyperplane of a real root alpha."""
        if self.classify(alpha) != KIND_REAL:
            raise NotRealRoot(f"{alpha} is not real")
        image = reflect_vector(self.basis, self.canonicalize(beta), self.canonicalize(alpha))
        if not self.contains(image):
            raise NotARoot(f"reflection image {image} left the system")
        return image

    def format(self, r: Root) -> str:
        return format_root(self.basis, self.canonicalize(r))

    # -- serialisation ---------------------------------------------------------

    @property
    def ranks(self) -> list[int]:
        fam = self.type_id.family
        if fam in ("F4", "G3", "D21L"):
            return []
        if fam == "CN":
            return [self.type_id.n]
        if fam == "S":
            return [self.type_id.m]
        return [self.type_id.m, self.type_id.n]

    def export(self, kmax: int) -> dict:
        roots = []
        for r in self.window(kmax):
            roots.append(
                {
                    "coords": {s: str(c) for s, c in self.basis.coords_dict(r).items()},
                    "k": r.k,
                    "sigma": r.sigma,
                    "kind": self.classify(r),
                    "parity": self.parity(r),
                }
            )
        return {
            "type": self.token,
            "ranks": self.ranks,
            "lambda_mode": self.lambda_mode,
            "roots": roots,
        }


def _evaluated_basis(basis: AmbientBasis, lam: Q) -> AmbientBasis:
    gram = tuple(Scalar(g.at(lam)) for g in basis.gram_diag)
    return AmbientBasis(basis.symbols, gram)


def build_affine(type_id: FiniteTypeId, lambda_value: Q | None = None) -> AffineRootSystem:
    """Construct the loop extension of a finite family member."""
    if not type_id.affine_allowed:
        raise RankError(f"family {type_id.family} has no loop extension here")
    if type_id.family == "D" and type_id.m == 1:
        # the single-epsilon even-orthogonal mix goes by its one-parameter name
        type_id = FiniteTypeId("CN", 1, type_id.n + 1)
    fin = build_finite(type_id)
    if lambda_value is not None:
        lam = Q(lambda_value)
        if lam in EXCLUDED_LAMBDA:
            raise ValueError(f"lambda = {lam} is excluded")
        if type_id.family == "D21L":
            fin = FiniteRootSet(
                fin.type_id,
                _evaluated_basis(fin.basis, lam),
                fin.roots,
                fin.odd,
                fin.label,
            )
    else:
        lam = None
    sigma_options: dict[Root, tuple[int, ...]] = {}
    if type_id.family == "ANN":
        mb = type_id.n + 1
        basis = fin.basis
        es = [basis.unit(i) for i in range(mb)]
        ds = [basis.unit(mb + j) for j in range(mb)]
        acc: dict[Root, set[int]] = {}
        for i in range(mb):
            for j in range(mb):
                v = ann_block_traceless(basis, es[i] - ds[j])
                acc.setdefault(v, set()).add(1)
                acc.setdefault(-v, set()).add(-1)
        sigma_options = {v: tuple(sorted(s)) for v, s in acc.items()}
    return AffineRootSystem(type_id, fin, sigma_options, lam)
