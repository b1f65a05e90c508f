"""Finite root collections for the supported families.

Every family is realised concretely inside a diagonal ambient basis.  The
zero functional is always a member, negation closure is explicit, and the
grading (even/odd) is stored next to the vectors rather than recomputed,
because the grading is constructor data while kinds (real/nonsingular)
are always derived from the bilinear form.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import cached_property
from itertools import combinations, count, islice, permutations, product
from math import gcd, lcm
from operator import mul

from .errors import NotARoot, RankError, TooFewSamples
# matrix_rank stays bound here for the benchmark tracer, whose self-test wraps
# it at this module
from .linalg import det as matrix_det, pivot_columns, rank as matrix_rank  # noqa: F401
from .roots import (
    EVEN,
    KIND_IMAGINARY,
    KIND_NONSINGULAR,
    KIND_REAL,
    KIND_ZERO,
    ODD,
    AmbientBasis,
    Root,
    d21_basis,
    eps_delta_basis,
    f4_basis,
    g3_basis,
)
from .scalars import Scalar, scalar_div

#: families that admit the loop construction (k-shifted copies).
AFFINE_FAMILIES = frozenset({"A", "ANN", "B", "CN", "D", "F4", "G3", "D21L"})
#: all families the finite builder understands.
FINITE_FAMILIES = AFFINE_FAMILIES | {"C", "BC", "S"}


@dataclass(frozen=True)
class FiniteTypeId:
    """Identifier for a finite family member.

    ``family`` is one of:

    * ``"A"``    -- two distinct block sizes ``m+1`` and ``n+1`` (``m != n``)
    * ``"ANN"``  -- equal blocks of size ``n+1`` (block-traceless realisation)
    * ``"B"``    -- odd orthogonal/symplectic mix, ``m >= 0``, ``n >= 1``
    * ``"CN"``   -- single-parameter family ``C(n)``, one epsilon direction
    * ``"C"``    -- doubled roots on both blocks, ``m, n >= 1``
    * ``"D"``    -- even orthogonal/symplectic mix, ``m, n >= 1``
    * ``"BC"``   -- all lengths on both blocks, ``m + n >= 1``
    * ``"S"``    -- traceful equal-block variant (degenerate form), ``m >= 2``
    * ``"F4"``, ``"G3"``, ``"D21L"`` -- exceptional, parameter-free
    * ``"PURE"`` -- ad-hoc component (returned by decompositions only)

    Ids are canonical: ``CN`` always carries ``m = 1``, ``S`` carries
    ``n = m``, and the parameter-free families refuse ranks.
    """

    family: str
    m: int = 0
    n: int = 0

    def __post_init__(self) -> None:
        fam = self.family
        if fam in ("F4", "G3", "D21L", "PURE"):
            if self.m or self.n:
                raise RankError(f"{fam} takes no ranks, got ({self.m},{self.n})")
        elif fam == "A":
            if self.m < 0 or self.n < 0 or self.m == self.n:
                raise RankError(f"A requires m,n >= 0 and m != n, got ({self.m},{self.n})")
        elif fam == "ANN":
            if self.n < 1 or self.m != self.n:
                raise RankError(f"ANN requires m == n >= 1, got ({self.m},{self.n})")
        elif fam == "B":
            if self.m < 0 or self.n < 1:
                raise RankError(f"B requires m >= 0 and n >= 1, got ({self.m},{self.n})")
        elif fam == "CN":
            if self.n < 2:
                raise RankError(f"C(n) requires n >= 2, got n={self.n}")
            object.__setattr__(self, "m", 1)  # C(n) has no first rank
        elif fam == "C":
            if self.m < 1 or self.n < 1:
                raise RankError(f"C requires m,n >= 1, got ({self.m},{self.n})")
        elif fam == "D":
            if self.m < 1 or self.n < 1:
                raise RankError(f"D requires m,n >= 1, got ({self.m},{self.n})")
        elif fam == "BC":
            if self.m < 0 or self.n < 0 or self.m + self.n < 1:
                raise RankError(f"BC requires m,n >= 0 and m+n >= 1, got ({self.m},{self.n})")
        elif fam == "S":
            if self.m < 2 or self.n not in (0, self.m):
                raise RankError(f"S requires a single parameter m >= 2, got ({self.m},{self.n})")
            object.__setattr__(self, "n", self.m)
        else:
            raise RankError(f"unknown family {fam!r}")

    @property
    def token(self) -> str:
        fam = self.family
        if fam in ("F4", "G3", "D21L", "PURE"):
            return fam
        if fam == "ANN":
            return f"A,{self.n},{self.n}"
        if fam == "CN":
            return f"C,{self.n}"
        if fam == "S":
            return f"S,{self.m}"
        return f"{fam},{self.m},{self.n}"

    @property
    def affine_allowed(self) -> bool:
        return self.family in AFFINE_FAMILIES


def parse_type_token(text: str) -> FiniteTypeId:
    """Parse tokens such as ``"B,1,1"``, ``"A,2,1"``, ``"C,2"``, ``"g3"``."""
    parts = [p.strip() for p in text.split(",")]
    fam = parts[0].upper()
    args = []
    for p in parts[1:]:
        try:
            args.append(int(p))
        except ValueError as exc:
            raise RankError(f"bad rank {p!r} in type token {text!r}") from exc
    if fam in ("F4", "G3", "D21L"):
        if args:
            raise RankError(f"{fam} takes no ranks")
        return FiniteTypeId(fam)
    if fam == "S":
        if len(args) != 1:
            raise RankError("S takes exactly one rank")
        return FiniteTypeId("S", args[0], args[0])
    if fam == "C" and len(args) == 1:
        return FiniteTypeId("CN", 1, args[0])
    if len(args) != 2:
        raise RankError(f"type token {text!r} needs two ranks")
    m, n = args
    if fam == "A" and m == n:
        return FiniteTypeId("ANN", m, n)
    if fam not in ("A", "B", "C", "D", "BC"):
        raise RankError(f"unknown family {fam!r}")
    return FiniteTypeId(fam, m, n)


@dataclass(frozen=True)
class _IntegerView:
    """The members of a ``FiniteRootSet`` in integers, paired once.

    ``coords[i]`` is member i's coordinates times ``denom``, the least common
    denominator of all members' coordinates, and ``index`` maps those tuples
    back to i.  The builders hand these tuples over as they make them; a
    hand-built set's ``Root``s go through ``_integers`` first.
    ``table[i][j]`` is the form value (r_i, r_j), summed in integers and
    divided out once, so it is exactly ``basis.form(r_i, r_j)``.  When no
    norm of the basis carries lambda, ``numer[i][j]`` is that sum itself:
    the table entries times one positive integer.
    """

    denom: int
    coords: tuple[tuple[int, ...], ...]
    index: dict[tuple[int, ...], int]
    table: tuple[tuple[Scalar, ...], ...]
    numer: tuple[tuple[int, ...], ...] | None

    @classmethod
    def of(cls, denom: int, coords: tuple[tuple[int, ...], ...], basis: AmbientBasis) -> "_IntegerView":
        # the Gram diagonal over one integer scale: a rational lambda such as
        # 5/3 gives its const and lambda parts denominators too
        gram = basis.gram_diag
        scale = lcm(*(q.denominator for g in gram for q in (g.const, g.lam)))
        consts = [int(g.const * scale) for g in gram]
        lams = [int(g.lam * scale) for g in gram]
        carries_lam = any(lams)
        den = scale * denom * denom
        values: dict[tuple[int, int], Scalar] = {}
        rows = [[None] * len(coords) for _ in coords]
        numer = [[0] * len(coords) for _ in coords]
        for i, x in enumerate(coords):
            cx, lx = list(map(mul, consts, x)), list(map(mul, lams, x))
            for j in range(i, len(coords)):
                y = coords[j]
                c = sum(map(mul, cx, y))
                lam = sum(map(mul, lx, y)) if carries_lam else 0
                value = values.get((c, lam))
                if value is None:
                    value = values[c, lam] = Scalar(Q(c, den), Q(lam, den))
                rows[i][j] = rows[j][i] = value
                numer[i][j] = numer[j][i] = c
        index = {x: i for i, x in enumerate(coords)}
        return cls(
            denom, coords, index, tuple(map(tuple, rows)),
            None if carries_lam else tuple(map(tuple, numer)),
        )

    def ints(self, coords) -> tuple[int, ...] | None:
        """These (Fraction) coordinates times ``denom``, or None when that
        leaves a fraction (so they are no member's)."""
        ints = []
        for c in coords:
            if self.denom % c.denominator:
                return None
            ints.append(c.numerator * (self.denom // c.denominator))
        return tuple(ints)

    def find(self, coords) -> int | None:
        """The index of the member with these (Fraction) coordinates, or None."""
        return self.index.get(self.ints(coords))


def _integers(roots: tuple[Root, ...]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Hand-built members' coordinates over their least common denominator."""
    denom = lcm(*(c.denominator for r in roots for c in r.coords))
    return denom, tuple(
        tuple(c.numerator * (denom // c.denominator) for c in r.coords) for r in roots
    )


def _string_spans(alpha: tuple[int, ...], coords) -> list:
    """Per member, its (p, q) on its alpha-string, or the broken-string text.

    All vectors are integer tuples over one denominator.  With a pivot i
    where alpha_i != 0, two members differ by an integer multiple of alpha
    exactly when r*alpha_i - r_i*alpha and r_i mod alpha_i agree, so that
    pair keys the string; within it, r_i // alpha_i is the level along alpha
    up to a shift (floor division keeps a negative alpha_i's order right).
    A zero alpha puts every member on its own string.
    """
    pivot = next((i for i, a in enumerate(alpha) if a), None)
    if pivot is None:
        return [(0, 0)] * len(coords)
    ai = alpha[pivot]
    strings: dict = {}
    levels = []
    for x in coords:
        xi = x[pivot]
        key = (tuple(c * ai - xi * a for c, a in zip(x, alpha)), xi % ai)
        strings.setdefault(key, []).append(xi // ai)
        levels.append((key, xi // ai))
    for ks in strings.values():
        ks.sort()
    spans = []
    for key, level in levels:
        ks = strings[key]
        if ks == list(range(ks[0], ks[-1] + 1)):
            spans.append((level - ks[0], ks[-1] - level))
        else:
            spans.append(f"broken string {[k - level for k in ks]}")
    return spans


@dataclass(frozen=True)
class FiniteRootSet:
    """A concrete finite set of root vectors with grading data.

    Pair queries between members (norms, kinds, root strings, the axioms and
    the components) read one integer view of the members, built on first
    use; ``basis.form`` only pairs vectors that are not members.  The grading
    is kept as the positions in ``roots`` of the odd members.
    """

    type_id: FiniteTypeId
    basis: AmbientBasis
    roots: tuple[Root, ...]
    odd_at: frozenset[int]
    label: str = ""
    #: (denom, coords) of the integer view, when the builder made the roots from them
    _ints: tuple | None = field(default=None, compare=False, repr=False)
    # the members' (p, q) per alpha-string, per alpha's coordinates; filled lazily
    _strings: dict = field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )

    def __contains__(self, r: Root) -> bool:
        return not r.k and not r.sigma and self._view.find(r.coords) is not None

    @cached_property
    def nonzero(self) -> tuple[Root, ...]:
        return tuple(r for r in self.roots if not r.is_zero_vector())

    @cached_property
    def odd(self) -> frozenset[Root]:
        return frozenset(self.roots[i] for i in self.odd_at)

    @cached_property
    def _view(self) -> _IntegerView:
        return _IntegerView.of(*(self._ints or _integers(self.roots)), self.basis)

    def _position(self, r: Root) -> int:
        i = self._view.find(r.coords)
        if i is None or r.k or r.sigma:
            raise NotARoot(f"{r} is not a member")
        return i

    def parity(self, r: Root) -> str:
        return ODD if self._position(r) in self.odd_at else EVEN

    def norm(self, r: Root):
        i = self._view.find(r.coords)
        return self.basis.form(r, r) if i is None else self._view.table[i][i]

    @cached_property
    def kinds(self) -> tuple[str, ...]:
        """Each member's kind, in ``roots`` order, read off the pairing table."""
        view = self._view
        return tuple(
            KIND_ZERO if not any(x)
            else KIND_IMAGINARY if all(v.is_zero() for v in row)
            else KIND_NONSINGULAR if row[i].is_zero()
            else KIND_REAL
            for i, (x, row) in enumerate(zip(view.coords, view.table))
        )

    def kind(self, r: Root) -> str:
        return self.kinds[self._position(r)]

    def real_roots(self) -> tuple[Root, ...]:
        return tuple(r for r, kind in zip(self.roots, self.kinds) if kind == KIND_REAL)

    def nonsingular_roots(self) -> tuple[Root, ...]:
        return tuple(r for r, kind in zip(self.roots, self.kinds) if kind == KIND_NONSINGULAR)

    def _spans(self, alpha: Root) -> list:
        """Each member's (p, q) on its alpha-string, or its broken-string
        text, in ``roots`` order; memoised per alpha."""
        spans = self._strings.get(alpha.coords)
        if spans is None:
            view = self._view
            # over a denominator that also clears alpha's, when alpha is no member
            extra = lcm(*((c * view.denom).denominator for c in alpha.coords))
            coords = view.coords if extra == 1 else [
                tuple(c * extra for c in x) for x in view.coords
            ]
            ints = tuple(int(c * view.denom * extra) for c in alpha.coords)
            spans = self._strings[alpha.coords] = _string_spans(ints, coords)
        return spans

    @cached_property
    def span_basis(self) -> tuple[Root, ...]:
        """Each nonzero root outside the span of the roots before it: the
        pivot columns of the roots-as-columns matrix."""
        columns = [list(row) for row in zip(*(r.coords for r in self.nonzero))]
        return tuple(self.nonzero[c] for c in pivot_columns(columns))

    @property
    def span_rank(self) -> int:
        return len(self.span_basis)


def negation_closure(vectors) -> set[Root]:
    """The vectors together with their negatives."""
    return {w for v in vectors for w in (v, -v)}


def _finish(type_id: FiniteTypeId, basis: AmbientBasis, even, odd, denom: int = 1) -> FiniteRootSet:
    """``even`` and ``odd`` (integer tuples over ``denom``), their negatives and zero.

    ``denom`` is reduced to the members' least common denominator.  The
    members sort as integer tuples, as a positive common scale keeps
    ``Root.key`` order; each ``Root`` is made once, and the view gets the tuples.
    """
    g = gcd(denom, *(c for v in (*even, *odd) for c in v))
    denom //= g
    even, odd = ({tuple(s * c // g for c in v) for v in vs for s in (1, -1)} for vs in (even, odd))
    coords = tuple(sorted(even | odd | {(0,) * basis.dim}))
    qs = {c: Q(c, denom) for c in {c for x in coords for c in x}}
    return FiniteRootSet(
        type_id, basis, tuple(Root(tuple(map(qs.__getitem__, x))) for x in coords),
        frozenset(i for i, x in enumerate(coords) if x in odd), type_id.token, (denom, coords),
    )


def _vector(dim: int, *terms: tuple[int, int]) -> tuple[int, ...]:
    """The integer vector with coefficient c at index i, for each (i, c) in ``terms``."""
    return tuple(sum(c for i, c in terms if i == k) for k in range(dim))


def block_units(mb: int, nb: int) -> tuple[AmbientBasis, list[Root], list[Root]]:
    """The eps/delta basis with blocks of sizes mb and nb, and its unit vectors."""
    basis = eps_delta_basis(mb, nb)
    return basis, [basis.unit(i) for i in range(mb)], [basis.unit(mb + j) for j in range(nb)]


def ann_block_traceless(basis: AmbientBasis, r: Root) -> Root:
    """Project coordinates to zero block-trace (both blocks have equal size)."""
    dim = basis.dim
    half = dim // 2
    coords = list(r.coords)
    te = sum(coords[:half], Q(0)) / half
    td = sum(coords[half:], Q(0)) / half
    new = tuple(c - te for c in coords[:half]) + tuple(c - td for c in coords[half:])
    return Root(new, r.k, r.sigma)


def gl_odd_coords(mb: int, dim: int, traceless: bool = False) -> list[tuple[int, ...]]:
    """The odd vectors e_i - d_j of the gl shape, whose first block has size mb.

    Each comes once, oriented from the first block to the second, as an
    integer tuple.  With ``traceless`` (equal blocks) it is projected to zero
    block-trace and scaled by mb, which leaves -1 entries, so mb is the
    members' least common denominator.
    """
    scale, shift = (mb, 1) if traceless else (1, 0)
    return [
        tuple(scale * ((k == i) - (k == j)) - (shift if k < mb else -shift) for k in range(dim))
        for i in range(mb)
        for j in range(mb, dim)
    ]


def _build_gl(type_id: FiniteTypeId, mb: int, nb: int, traceless: bool = False) -> FiniteRootSet:
    """gl shape: the differences inside each block are even, e_i - d_j odd;
    over denominator mb when ``traceless``."""
    dim, scale = mb + nb, mb if traceless else 1
    blocks = (range(mb), range(mb, dim))
    even = [_vector(dim, (a, scale), (b, -scale)) for bl in blocks for a, b in permutations(bl, 2)]
    return _finish(type_id, eps_delta_basis(mb, nb), even, gl_odd_coords(mb, dim, traceless), scale)


def _build_osp(type_id: FiniteTypeId, m: int, n: int) -> FiniteRootSet:
    """osp shape on m eps and n delta directions.

    Every family has e_i +- e_r, 2d_j and d_j +- d_s (even) and e_i +- d_j
    (odd).  B and BC add e_i (even) and d_j (odd); C and BC add 2e_i.
    """
    fam, dim = type_id.family, m + n
    es, ds = range(m), range(m, dim)
    singles = fam in ("B", "BC")
    even = [_vector(dim, (e, 1)) for e in es if singles]
    even += [_vector(dim, (e, 2)) for e in es if fam in ("C", "BC")]
    even += [_vector(dim, (d, 2)) for d in ds]
    pairs = [ab for block in (es, ds) for ab in combinations(block, 2)]
    even += [_vector(dim, (a, 1), (b, s)) for a, b in pairs for s in (1, -1)]
    odd = [_vector(dim, (d, 1)) for d in ds if singles]
    odd += [_vector(dim, (e, 1), (d, s)) for e, d in product(es, ds) for s in (1, -1)]
    return _finish(type_id, eps_delta_basis(m, n), even, odd)


def _build_d21l() -> FiniteRootSet:
    even = [_vector(3, (i, 2)) for i in range(3)]
    odd = [(1, s2, s3) for s2 in (1, -1) for s3 in (1, -1)]
    return _finish(FiniteTypeId("D21L"), d21_basis(), even, odd)


def _build_f4() -> FiniteRootSet:
    """Over denominator 2: e, d_i and d_i +- d_j even, (e +- d1 +- d2 +- d3)/2 odd."""
    even = [_vector(4, (i, 2)) for i in range(4)]
    for i, j in combinations(range(1, 4), 2):
        even += [_vector(4, (i, 2), (j, 2)), _vector(4, (i, 2), (j, -2))]
    odd = [(1, *signs) for signs in product((1, -1), repeat=3)]
    return _finish(FiniteTypeId("F4"), f4_basis(), even, odd, 2)


def _build_g3() -> FiniteRootSet:
    """nu (odd) and 2nu; e_i - e_j and 2e_i - e_j - e_t (even); nu + e_i - e_j (odd)."""
    diffs = [_vector(4, (i, 1), (j, -1)) for i, j in permutations(range(3), 2)]
    even = [_vector(4, (3, 2)), *diffs]
    even += [_vector(4, (i, 2), (j, -1), (t, -1)) for i, j, t in ((0, 1, 2), (1, 0, 2), (2, 0, 1))]
    odd = [_vector(4, (3, 1)), *(d[:3] + (1,) for d in diffs)]
    return _finish(FiniteTypeId("G3"), g3_basis(), even, odd)


_EXCEPTIONAL = {"D21L": _build_d21l, "F4": _build_f4, "G3": _build_g3}


def build_finite(type_id: FiniteTypeId) -> FiniteRootSet:
    fam, m, n = type_id.family, type_id.m, type_id.n
    if fam == "A":
        return _build_gl(type_id, m + 1, n + 1)
    if fam == "ANN":
        return _build_gl(type_id, n + 1, n + 1, traceless=True)
    if fam == "S":
        # Mixed vectors kept traceful: the form on the span is degenerate,
        # which is exactly what the axiom checker must find.
        return _build_gl(type_id, m, m)
    if fam == "CN":
        # One epsilon direction, n-1 delta directions: the m=1 even-orthogonal mix.
        return _build_osp(type_id, 1, n - 1)
    if fam in ("B", "C", "D", "BC"):
        return _build_osp(type_id, m, n)
    if fam in _EXCEPTIONAL:
        return _EXCEPTIONAL[fam]()
    raise RankError(f"cannot build family {fam!r}")


def even_part_label(type_id: FiniteTypeId) -> str:
    """Display label of the even part, for the tabulated families only."""
    fam, m, n = type_id.family, type_id.m, type_id.n
    if fam == "D" and m == 1:
        fam = "CN"
    if fam == "A":
        return "A_m ⊕ A_n ⊕ ℂ"
    if fam == "ANN":
        return "A_n ⊕ A_n"
    if fam == "B":
        return "B_m ⊕ C_n"
    if fam == "CN":
        return "C_{n-1} ⊕ ℂ"
    if fam == "D":
        return "D_m ⊕ C_n"
    if fam == "F4":
        return "A_1 ⊕ B_3"
    if fam == "G3":
        return "A_1 ⊕ G_2"
    if fam == "D21L":
        return "A_1 ⊕ A_1 ⊕ A_1"
    raise RankError(f"no tabulated even-part label for {type_id.token}")


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomResult:
    axiom: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class AxiomReport:
    results: tuple[AxiomResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failed_axioms(self) -> tuple[str, ...]:
        return tuple(r.axiom for r in self.results if not r.passed)

    def __str__(self) -> str:
        return "\n".join(
            f"({r.axiom}) {'ok' if r.passed else 'FAIL'}" + (f": {r.detail}" if r.detail else "")
            for r in self.results
        )


def root_string(rs: FiniteRootSet, beta: Root, alpha: Root) -> tuple[int, int, tuple[Root, ...]]:
    """The set {k : beta + k*alpha is a member} as (p, q, chain).

    Returns p, q >= 0 such that the chain is beta - p*alpha ... beta + q*alpha.
    Only finite coordinates are compared.  The members are split into
    alpha-strings once per alpha, in integers over one common denominator,
    and every member's (p, q) is kept on ``rs``, so a call is a lookup.
    Raises ValueError("string does not contain beta") when beta is not a
    member, and ValueError("broken string [...]"), listing every such k,
    when the members on beta + Z*alpha skip a step; the axiom checker
    reports both as axiom (d).
    """
    i = rs._view.find(beta.coords)
    if i is None:
        raise ValueError("string does not contain beta")
    span = rs._spans(alpha)[i]
    if isinstance(span, str):
        raise ValueError(span)
    p, q = span
    chain = tuple(beta + alpha.scale(Q(k)) for k in range(-p, q + 1))
    return p, q, chain


def _primes():
    """2, 3, 5, 7, 11, ...: the default parameter samples of axiom (f)."""
    for n in count(2):
        if all(n % d for d in range(2, n)):
            yield n


def _pairing(rs: FiniteRootSet, b: int, a: int) -> int | Q:
    """<beta, alpha> = 2(beta, alpha)/(alpha, alpha) for members b and a, read
    off the pairing table; alpha must not be isotropic.  Over a basis that
    carries lambda the two entries are divided exactly, raising like
    ``cartan_integer``."""
    view = rs._view
    if view.numer is not None:
        num, norm = 2 * view.numer[b][a], view.numer[a][a]
        return num // norm if num % norm == 0 else Q(num, norm)
    q = scalar_div(view.table[b][a] * 2, view.table[a][a])
    if not q.is_rational():
        beta, alpha = rs.roots[b], rs.roots[a]
        raise NotARoot(f"pairing 2({beta},{alpha})/({alpha},{alpha}) = {q} not rational")
    return q.const


def _axioms_c_d(rs: FiniteRootSet, reals: list[int]) -> tuple[str | None, str | None]:
    """The first failures of axioms (c) and (d), scanning the (alpha, beta)
    pairs in order with one pairing per pair, until both have failed."""
    roots = rs.roots
    detail_c = detail_d = None
    for a in reals:
        spans = rs._spans(roots[a])
        for b, span in enumerate(spans):
            diff = None
            if detail_d is None:
                if isinstance(span, str):
                    detail_d = f"string({roots[b]};{roots[a]}): {span}"
                else:
                    diff = span[0] - span[1]
            if detail_c is None or diff is not None:
                val = _pairing(rs, b, a)
                if detail_c is None and val.denominator != 1:
                    detail_c = f"<{roots[b]},{roots[a]}> = {val}"
                if diff is not None and diff != val:
                    detail_d = f"string({roots[b]};{roots[a]}): p-q={diff} vs {val}"
            if detail_c is not None and detail_d is not None:
                return detail_c, detail_d
    return detail_c, detail_d


def check_supersystem_axioms(rs: FiniteRootSet, samples: tuple[Q, ...] = ()) -> AxiomReport:
    """Evaluate the six defining conditions (a)-(f) on a finite root collection.

    (a) zero is a member (the detail records the size and span rank); (b)
    negation closure; (c) <beta, alpha> is an integer for real alpha; (d)
    the alpha-string through beta is unbroken with p - q = <beta, alpha>;
    (e) beta + alpha or beta - alpha is a member when alpha is nonsingular
    and (alpha, beta) != 0; (f) the form is nondegenerate on the span, at
    enough parameter ``samples`` to decide a lambda-carrying form (the
    first primes by default; too few raise ``TooFewSamples``).  Each check
    reports the first failing pair in ``roots`` order.

    Every pairing is read from the set's integer pairing table, every root
    string from its integer string table, and (b) and (e) test membership
    on integer coordinate tuples, so no pair of members is paired twice.
    """
    results: list[AxiomResult] = []
    view = rs._view
    table = view.table
    roots = rs.roots

    # (a) finite, contains zero, spans its linear span (recorded as rank).
    ok_a = (0,) * rs.basis.dim in view.index
    results.append(
        AxiomResult("a", ok_a, f"{len(roots)} vectors, span rank {rs.span_rank}")
    )

    # (b) closed under negation.
    bad_b = [r for r, x in zip(roots, view.coords) if tuple(-c for c in x) not in view.index]
    results.append(AxiomResult("b", not bad_b, "" if not bad_b else f"missing -{bad_b[0]}"))

    kinds = rs.kinds

    # (c) integrality of pairings against real roots, and (d) unbroken
    # strings through real roots with p - q matching the pairing.
    detail_c, detail_d = _axioms_c_d(rs, [a for a, k in enumerate(kinds) if k == KIND_REAL])
    results.append(AxiomResult("c", detail_c is None, detail_c or ""))
    results.append(AxiomResult("d", detail_d is None, detail_d or ""))

    # (e) nonzero isotropic roots must move by +-alpha when not orthogonal.
    detail_e = ""
    for a, k in enumerate(kinds):
        if k != KIND_NONSINGULAR:
            continue
        y = view.coords[a]
        for b, x in enumerate(view.coords):
            if table[a][b].is_zero():
                continue
            if (
                tuple(p + q for p, q in zip(x, y)) in view.index
                or tuple(p - q for p, q in zip(x, y)) in view.index
            ):
                continue
            detail_e = f"{roots[b]} +- {roots[a]} both absent"
            break
        if detail_e:
            break
    results.append(AxiomResult("e", not detail_e, detail_e))

    # (f) the form restricted to the span must be nondegenerate.  The Gram
    # determinant of a span basis is, by Cauchy-Binet, a sum of products of
    # len(span_basis) ambient norms, each affine in lambda; so it is a
    # polynomial in lambda whose degree is at most the number of ambient
    # norms that carry lambda, capped at the rank.  It vanishes identically
    # exactly when it vanishes at one more distinct sample than that.
    span = [view.find(r.coords) for r in rs.span_basis]
    degree = min(len(span), sum(1 for g in rs.basis.gram_diag if g.lam != 0))
    if samples:
        samples = tuple(dict.fromkeys(samples))
        if len(samples) <= degree:
            raise TooFewSamples(
                f"axiom (f) needs {degree + 1} distinct parameter samples, got {len(samples)}"
            )
    else:
        samples = tuple(Q(p) for p in islice(_primes(), degree + 1))
    dets = [
        matrix_det([[table[a][b].at(lam) for b in span] for a in span])
        for lam in samples[: degree + 1]
    ]
    if all(d != 0 for d in dets):
        results.append(AxiomResult("f", True, f"span rank {len(span)}"))
    elif all(d == 0 for d in dets):
        results.append(AxiomResult("f", False, "form degenerate on the span"))
    else:
        bad = samples[dets.index(Q(0))]
        results.append(AxiomResult("f", False, f"form degenerate at parameter {bad}"))
    return AxiomReport(tuple(results))


def irreducible_components(rs: FiniteRootSet) -> tuple[FiniteRootSet, ...]:
    """Split the nonzero vectors by the non-orthogonality graph.

    Vectors orthogonal to everything are dropped; each component gets the
    zero vector adjoined and inherits the grading.
    """
    view = rs._view
    coords, table = view.coords, view.table
    nodes = [i for i, x in enumerate(coords) if any(x) and not all(v.is_zero() for v in table[i])]
    seen: set[int] = set()
    comps: list[list[int]] = []
    for start in nodes:
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            cur = stack.pop()
            comp.append(cur)
            for other in nodes:
                if other in seen:
                    continue
                if not table[cur][other].is_zero():
                    seen.add(other)
                    stack.append(other)
        comps.append(comp)
    # integer coordinates sort members as Root.key does; -1 stands for zero
    comps.sort(key=lambda c: min(coords[i] for i in c))
    zero = Root(tuple(Q(0) for _ in range(rs.basis.dim)))
    out = []
    for idx, comp in enumerate(comps):
        members = sorted([(coords[i], i) for i in comp] + [((0,) * rs.basis.dim, -1)])
        out.append(
            FiniteRootSet(
                FiniteTypeId("PURE"),
                rs.basis,
                tuple(rs.roots[i] if i >= 0 else zero for _, i in members),
                frozenset(p for p, (_, i) in enumerate(members) if i in rs.odd_at),
                label=f"{rs.label}#{idx + 1}",
            )
        )
    return tuple(out)
