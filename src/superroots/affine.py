"""Loop extensions of the finite families: vectors plus a delta ladder.

A member is ``f + s*sigma + k*delta`` where ``f`` runs over the finite
vectors, ``k`` over all integers, and ``s`` is zero except on the
isotropic lines of the equal-block family ANN, whose mixed vectors carry
a forced sigma sign (both signs when the two blocks have size two, since
distinct abstract functionals then project to the same vector).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction as Q
from functools import cached_property
from itertools import groupby
from typing import NamedTuple

from .errors import NotARoot, NotRealRoot, RankError
from .finite import FiniteRootSet, FiniteTypeId, ann_block_traceless, build_finite, gl_odd_coords
from .roots import (
    EVEN,
    KIND_IMAGINARY,
    KIND_REAL,
    KIND_ZERO,
    ODD,
    AmbientBasis,
    Root,
    cartan_integer,
    format_root,
    reflect as reflect_vector,
)
from .scalars import EXCLUDED_LAMBDA, Scalar


class LineEntry(NamedTuple):
    """What every member on one line is, decided once for the line."""

    pos: int  # the line's position in ``AffineRootSystem.lines``
    kind0: str  # kind of the member at k = 0
    kind: str  # kind of the members at k != 0
    parity: str
    real_class: tuple[int, int] | None  # (position of the rep's line, side) of a real line

    def kind_at(self, k: int) -> str:
        return self.kind0 if k == 0 else self.kind


@dataclass(frozen=True)
class AffineRootSystem:
    type_id: FiniteTypeId
    finite: FiniteRootSet
    #: allowed sigma multiplicities per finite vector, keyed by its integer
    #: coordinates (``finite._view.coords``); a vector not listed takes sigma 0
    sigma_options: dict
    lambda_value: Q | None = None

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

    @cached_property
    def _line_keys(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Each line's integer key and the index in ``finite.roots`` of its
        finite vector, in position order.

        The key is the vector's integer coordinates over the members' common
        denominator (``finite._view``), sigma last; the sigma options are
        read by those coordinates too, so no ``Root`` is hashed.  Sorting on
        the keys sorts the lines in ``Root.key`` order, so positions follow
        that order.
        """
        options = self.sigma_options
        return tuple(sorted(
            (x + (s,), i)
            for i, x in enumerate(self.finite._view.coords)
            for s in options.get(x, (0,))
        ))

    @cached_property
    def _line_at(self) -> dict[tuple[int, ...], int]:
        """The position of each line's integer key; ``entry`` and
        ``line_sum`` look lines up here."""
        return {key: pos for pos, (key, _) in enumerate(self._line_keys)}

    @cached_property
    def lines(self) -> tuple[Root, ...]:
        """All (finite vector, sigma) line identifiers, zero line included;
        a line's position here is its name inside the library."""
        roots = self.finite.roots
        return tuple(
            Root(roots[i].coords, 0, key[-1]) if key[-1] else roots[i] for key, i in self._line_keys
        )

    @property
    def line_scale(self) -> int:
        """The lines' common denominator, the scale of ``line_vector``."""
        return self.finite._view.denom

    def line_vector(self, pos: int) -> tuple[int, ...]:
        """Line ``pos``'s member at level 0, as ``Root.vector`` times ``line_scale``."""
        key, _ = self._line_keys[pos]
        return key[:-1] + (0, key[-1] * self.line_scale)

    @cached_property
    def line_negation(self) -> tuple[int, ...]:
        """The position of each line's negative (-f, -sigma)."""
        at = self._line_at
        return tuple(at[tuple(-x for x in key)] for key, _ in self._line_keys)

    @cached_property
    def line_entries(self) -> tuple[LineEntry, ...]:
        """Each line's entry, by its position in ``lines``.

        A member's kind depends only on its line and on whether k = 0, and
        its parity on its line alone, so each line is classified once here.
        """
        fin, neg = self.finite, self.line_negation
        odd = fin.odd_at
        out = []
        for pos, (key, i) in enumerate(self._line_keys):
            kind = fin.kinds[i]
            if kind == KIND_ZERO:
                # the zero line: 0 at k = 0, a multiple of delta elsewhere
                out.append(LineEntry(pos, KIND_ZERO, KIND_IMAGINARY, EVEN, None))
                continue
            kind0 = KIND_ZERO if kind == KIND_IMAGINARY and key[-1] == 0 else kind
            real_class = None
            if kind == KIND_REAL:
                # the rep is the side with the smaller key, so the earlier line
                real_class = (min(pos, neg[pos]), 1 if pos < neg[pos] else -1)
            out.append(LineEntry(pos, kind0, kind, ODD if i in odd else EVEN, real_class))
        return tuple(out)

    def entry(self, r: Root) -> LineEntry | None:
        """The entry of r's line, or None when r is not a member.  r is looked
        up as it is first; a hit is exact, since ANN's block projection fixes
        every line, so only a miss pays for ``canonicalize``."""
        pos = self._position(r)
        if pos is None and self.type_id.family == "ANN":
            try:
                pos = self._position(self.canonicalize(r))
            except NotARoot:
                return None
        return None if pos is None else self.line_entries[pos]

    def _position(self, r: Root) -> int | None:
        x = self.finite._view.ints(r.coords)
        return None if x is None else self._line_at.get(x + (r.sigma,))

    def _member_entry(self, r: Root) -> LineEntry:
        e = self.entry(r)
        if e is None:
            raise NotARoot(f"{r} is not a member of {self.token}")
        return e

    def contains(self, r: Root) -> bool:
        return self.entry(r) is not None

    def __contains__(self, r: Root) -> bool:
        return self.contains(r)

    def classify(self, r: Root) -> str:
        return self._member_entry(r).kind_at(r.k)

    def parity(self, r: Root) -> str:
        return self._member_entry(r).parity

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
    def zero_line(self) -> int:
        """The position of the zero line, whose members are the multiples of delta."""
        return self._line_at[(0,) * (self.basis.dim + 1)]

    @cached_property
    def real_class_reps(self) -> tuple[Root, ...]:
        return tuple(rep for rep, _, _ in self.real_class_lines)

    def real_entry(self, r: Root) -> LineEntry:
        """The entry of a real member's line; raises NotRealRoot on anything non-real."""
        e = self._member_entry(r)
        if e.kind_at(r.k) != KIND_REAL:
            raise NotRealRoot(f"{r} is not a real member")
        return e

    def class_rep(self, r: Root) -> tuple[Root, int]:
        """Canonical class representative of a real member and the side:
        (rep, +1) when the finite part is rep, (rep, -1) when it is -rep."""
        rep, side = self.real_entry(r).real_class
        return self.lines[rep], side

    @cached_property
    def real_class_lines(self) -> tuple[tuple[Root, int, int], ...]:
        """(rep, position of rep's line, position of -rep's line) per real
        class, in ``Root.key`` order of the reps."""
        return tuple(
            (self.lines[e.pos], e.pos, self.line_negation[e.pos])
            for e in self.line_entries
            if e.real_class == (e.pos, 1)
        )

    @cached_property
    def _line_sums(self) -> dict[tuple[int, int, int], int | None]:
        """``line_sum``'s memo, filled one (a, b, m) at a time."""
        return {}

    def line_sum(self, a: int, b: int, m: int = 1) -> int | None:
        """The position of the line holding f_a + m*f_b (sigmas added), or
        None when that sum lies on no line.

        Lines hold canonical coords, and ANN's block projection is linear, so
        the sum of two lines is already canonical: it is added in integers and
        looked up as it is.  Each (a, b, m) is added once, on first use; an
        eager table over every pair would cost more than a whole pair scan on
        a freshly built system.
        """
        memo = self._line_sums
        pos = memo.get((a, b, m), -1)
        if pos == -1:
            keys = self._line_keys
            pos = memo[a, b, m] = self._line_at.get(
                tuple(x + m * y for x, y in zip(keys[a][0], keys[b][0]))
            )
        return pos

    @cached_property
    def _coord_groups(self) -> tuple:
        """The lines grouped by finite vector, in key order: (coords, ((sigma,
        entry), ...)); grouped on the integer keys."""
        keys, lines = self._line_keys, self.lines
        groups = (tuple(g) for _, g in groupby(self.line_entries, lambda e: keys[e.pos][0][:-1]))
        return tuple((lines[g[0].pos].coords, tuple((lines[e.pos].sigma, e) for e in g)) for g in groups)

    def window_entries(self, kmax: int):
        """Each root with |k| <= kmax and its line's entry, in ``Root.key()``
        order: lines that share coords interleave by k, then by sigma."""
        for coords, sigmas in self._coord_groups:
            for k in range(-kmax, kmax + 1):
                for sigma, entry in sigmas:
                    yield Root(coords, k, sigma), entry

    def window(self, kmax: int) -> tuple[Root, ...]:
        return tuple(r for r, _ in self.window_entries(kmax))

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
        rendered: dict[int, dict[str, str]] = {}  # coordinate strings per line position
        for r, e in self.window_entries(kmax):
            coords = rendered.get(e.pos)
            if coords is None:
                coords = rendered[e.pos] = {
                    s: str(c) for s, c in self.basis.coords_dict(r).items()
                }
            roots.append(
                {
                    "coords": dict(coords),
                    "k": r.k,
                    "sigma": r.sigma,
                    "kind": e.kind_at(r.k),
                    "parity": e.parity,
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
            fin = replace(fin, basis=_evaluated_basis(fin.basis, lam))
    else:
        lam = None
    sigma_options: dict[tuple[int, ...], tuple[int, ...]] = {}
    if type_id.family == "ANN":
        # the builder's own odd vectors, over the view's denominator n + 1:
        # their -1 entries leave no common factor to reduce
        acc: dict[tuple[int, ...], set[int]] = {}
        for v in gl_odd_coords(type_id.n + 1, fin.basis.dim, traceless=True):
            acc.setdefault(v, set()).add(1)
            acc.setdefault(tuple(-c for c in v), set()).add(-1)
        sigma_options = {v: tuple(sorted(s)) for v, s in acc.items()}
    return AffineRootSystem(type_id, fin, sigma_options, lam)
