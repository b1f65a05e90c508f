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
    cartan_integer,
    d21_basis,
    eps_delta_basis,
    f4_basis,
    g3_basis,
)

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
class FiniteRootSet:
    """A concrete finite set of root vectors with grading data."""

    type_id: FiniteTypeId
    basis: AmbientBasis
    roots: tuple[Root, ...]
    odd: frozenset[Root]
    label: str = ""
    # root_string's alpha-strings, per alpha's coordinates; filled lazily
    _strings: dict = field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )
    # kind per member, filled lazily
    _kinds: dict = field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )

    @cached_property
    def members(self) -> frozenset[Root]:
        return frozenset(self.roots)

    def __contains__(self, r: Root) -> bool:
        return r in self.members

    @cached_property
    def nonzero(self) -> tuple[Root, ...]:
        return tuple(r for r in self.roots if not r.is_zero_vector())

    def parity(self, r: Root) -> str:
        if r not in self.members:
            raise NotARoot(f"{r} is not a member")
        return ODD if r in self.odd else EVEN

    def norm(self, r: Root):
        return self.basis.form(r, r)

    def is_orthogonal_to_all(self, r: Root) -> bool:
        return all(self.basis.form(r, s).is_zero() for s in self.roots)

    def kind(self, r: Root) -> str:
        kind = self._kinds.get(r)
        if kind is None:
            if r not in self.members:
                raise NotARoot(f"{r} is not a member")
            if r.is_zero_vector():
                kind = KIND_ZERO
            elif self.is_orthogonal_to_all(r):
                kind = KIND_IMAGINARY
            elif not self.norm(r).is_zero():
                kind = KIND_REAL
            else:
                kind = KIND_NONSINGULAR
            self._kinds[r] = kind
        return kind

    def real_roots(self) -> tuple[Root, ...]:
        return tuple(r for r in self.nonzero if self.kind(r) == KIND_REAL)

    def nonsingular_roots(self) -> tuple[Root, ...]:
        return tuple(r for r in self.nonzero if self.kind(r) == KIND_NONSINGULAR)

    @cached_property
    def span_basis(self) -> tuple[Root, ...]:
        """Each nonzero root outside the span of the roots before it: the
        pivot columns of the roots-as-columns matrix."""
        columns = [list(row) for row in zip(*(r.coords for r in self.nonzero))]
        return tuple(self.nonzero[c] for c in pivot_columns(columns))

    @property
    def span_rank(self) -> int:
        return len(self.span_basis)


def _finish(type_id: FiniteTypeId, basis: AmbientBasis, vectors, odd, label: str = "") -> FiniteRootSet:
    zero = Root(tuple(Q(0) for _ in range(basis.dim)))
    allr = set(vectors) | {zero}
    for v in list(allr):
        allr.add(-v)
    odd_set = set()
    for v in odd:
        odd_set.add(v)
        odd_set.add(-v)
    ordered = tuple(sorted(allr, key=lambda r: r.key()))
    return FiniteRootSet(type_id, basis, ordered, frozenset(odd_set), label or type_id.token)


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


def gl_odd_vectors(basis: AmbientBasis, mb: int, traceless: bool = False):
    """The odd vectors e_i - d_j of the gl shape, whose first block has size mb.

    Each comes once, oriented from the first block to the second; with
    ``traceless`` it is projected to zero block-trace (equal blocks only).
    """
    for i in range(mb):
        for j in range(mb, basis.dim):
            v = basis.unit(i) - basis.unit(j)
            yield ann_block_traceless(basis, v) if traceless else v


def _build_gl(type_id: FiniteTypeId, mb: int, nb: int, traceless: bool = False) -> FiniteRootSet:
    """gl shape: the differences inside each block are even, e_i - d_j odd."""
    basis, es, ds = block_units(mb, nb)
    even = [a - b for block in (es, ds) for a, b in permutations(block, 2)]
    odd = list(gl_odd_vectors(basis, mb, traceless))
    return _finish(type_id, basis, even + odd, odd)


def _build_osp(type_id: FiniteTypeId, m: int, n: int) -> FiniteRootSet:
    """osp shape on m eps and n delta directions.

    Every family has e_i +- e_r, 2d_j and d_j +- d_s (even) and e_i +- d_j
    (odd).  B and BC add e_i (even) and d_j (odd); C and BC add 2e_i.
    """
    fam = type_id.family
    basis, es, ds = block_units(m, n)
    vecs: list[Root] = []
    odd: list[Root] = []
    singles = fam in ("B", "BC")
    for e in es:
        if singles:
            vecs.append(e)
        if fam in ("C", "BC"):
            vecs.append(e.scale(Q(2)))
    for d in ds:
        if singles:
            vecs.append(d)
            odd.append(d)
        vecs.append(d.scale(Q(2)))
    for block in (es, ds):
        for a, b in combinations(block, 2):
            vecs += [a + b, a - b]
    for e, d in product(es, ds):
        odd += [e + d, e - d]
    return _finish(type_id, basis, vecs + odd, odd)


def _build_d21l() -> FiniteRootSet:
    basis = d21_basis()
    g1, g2, g3 = (basis.unit(i) for i in range(3))
    vecs: list[Root] = []
    odd: list[Root] = []
    for g in (g1, g2, g3):
        vecs.append(g.scale(Q(2)))
    for s2 in (Q(1), Q(-1)):
        for s3 in (Q(1), Q(-1)):
            v = g1 + g2.scale(s2) + g3.scale(s3)
            vecs.append(v)
            odd.append(v)
    return _finish(FiniteTypeId("D21L"), basis, vecs, odd)


def _build_f4() -> FiniteRootSet:
    basis = f4_basis()
    e = basis.unit(0)
    ds = [basis.unit(1 + i) for i in range(3)]
    vecs: list[Root] = [e]
    odd: list[Root] = []
    for i in range(3):
        vecs.append(ds[i])
        for j in range(i + 1, 3):
            vecs.append(ds[i] + ds[j])
            vecs.append(ds[i] - ds[j])
    half = Q(1, 2)
    for s1 in (Q(1), Q(-1)):
        for s2 in (Q(1), Q(-1)):
            for s3 in (Q(1), Q(-1)):
                v = (e + ds[0].scale(s1) + ds[1].scale(s2) + ds[2].scale(s3)).scale(half)
                vecs.append(v)
                odd.append(v)
    return _finish(FiniteTypeId("F4"), basis, vecs, odd)


def _build_g3() -> FiniteRootSet:
    basis = g3_basis()
    es = [basis.unit(i) for i in range(3)]
    nu = basis.unit(3)
    vecs: list[Root] = [nu, nu.scale(Q(2))]
    odd: list[Root] = [nu]
    diffs = []
    for i in range(3):
        for j in range(3):
            if i != j:
                diffs.append(es[i] - es[j])
    for d in diffs:
        vecs.append(d)
    for (i, j, t) in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        vecs.append(es[i].scale(Q(2)) - es[j] - es[t])
    for d in diffs:
        v = nu + d
        vecs.append(v)
        odd.append(v)
    return _finish(FiniteTypeId("G3"), basis, vecs, odd)


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


def _alpha_strings(rs: FiniteRootSet, alpha: Root) -> tuple[dict, dict]:
    """The members of ``rs`` split into alpha-strings, memoised on ``rs``.

    With a pivot i where alpha_i != 0 and t = r_i / alpha_i, two members
    differ by an integer multiple of alpha exactly when r - t*alpha and
    t mod 1 agree, so that pair keys the string.  Returns ``strings`` (key
    to the sorted t values of its members) and ``place`` (a member's
    coordinates to its key and t).  A zero alpha puts every member on its
    own string.
    """
    memo = rs._strings.get(alpha.coords)
    if memo is not None:
        return memo
    pivot = next((i for i, a in enumerate(alpha.coords) if a != 0), None)
    strings: dict = {}
    place: dict = {}
    for r in rs.roots:
        if pivot is None:
            key, t = r.coords, Q(0)
        else:
            t = r.coords[pivot] / alpha.coords[pivot]
            key = (tuple(c - t * a for c, a in zip(r.coords, alpha.coords)), t % 1)
        strings.setdefault(key, []).append(t)
        place[r.coords] = (key, t)
    for ts in strings.values():
        ts.sort()
    memo = rs._strings[alpha.coords] = (strings, place)
    return memo


def _string_span(rs: FiniteRootSet, beta: Root, alpha: Root) -> tuple[int, int]:
    """(p, q) of ``root_string``, looked up in the alpha-strings of ``rs``."""
    strings, place = _alpha_strings(rs, alpha)
    hit = place.get(beta.coords)
    if hit is None:
        raise ValueError("string does not contain beta")
    key, tb = hit
    ks = [int(t - tb) for t in strings[key]]
    if ks != list(range(ks[0], ks[-1] + 1)):
        raise ValueError(f"broken string {ks}")
    return -ks[0], ks[-1]


def root_string(rs: FiniteRootSet, beta: Root, alpha: Root) -> tuple[int, int, tuple[Root, ...]]:
    """The set {k : beta + k*alpha is a member} as (p, q, chain).

    Returns p, q >= 0 such that the chain is beta - p*alpha ... beta + q*alpha.
    Only finite coordinates are compared.  Raises ValueError("string does
    not contain beta") when beta is not a member, and ValueError("broken
    string [...]"), listing every such k, when the members on beta + Z*alpha
    skip a step; the axiom checker catches both and reports axiom (d).
    """
    p, q = _string_span(rs, beta, alpha)
    chain = tuple(beta + alpha.scale(Q(k)) for k in range(-p, q + 1))
    return p, q, chain


def _primes():
    """2, 3, 5, 7, 11, ...: the default parameter samples of axiom (f)."""
    for n in count(2):
        if all(n % d for d in range(2, n)):
            yield n


def check_supersystem_axioms(rs: FiniteRootSet, samples: tuple[Q, ...] = ()) -> AxiomReport:
    """Evaluate the six defining conditions on a finite root collection."""
    results: list[AxiomResult] = []
    zero = Root(tuple(Q(0) for _ in range(rs.basis.dim)))

    # (a) finite, contains zero, spans its linear span (recorded as rank).
    ok_a = zero in rs.members
    results.append(
        AxiomResult("a", ok_a, f"{len(rs.roots)} vectors, span rank {rs.span_rank}")
    )

    # (b) closed under negation.
    bad_b = [r for r in rs.roots if -r not in rs.members]
    results.append(AxiomResult("b", not bad_b, "" if not bad_b else f"missing -{bad_b[0]}"))

    reals = rs.real_roots()

    # (c) integrality of pairings against real roots, and (d) unbroken
    # strings through real roots with p - q matching the pairing.  One pass
    # over the (alpha, beta) pairs serves both, with one pairing per pair,
    # and stops once both have failed.
    detail_c = detail_d = None
    for alpha, beta in product(reals, rs.roots):
        diff = None
        if detail_d is None:
            try:
                p, q = _string_span(rs, beta, alpha)
            except ValueError as exc:
                detail_d = f"string({beta};{alpha}): {exc}"
            else:
                diff = p - q
        if detail_c is None or diff is not None:
            val = cartan_integer(rs.basis, beta, alpha)
            if detail_c is None and val.denominator != 1:
                detail_c = f"<{beta},{alpha}> = {val}"
            if diff is not None and Q(diff) != val:
                detail_d = f"string({beta};{alpha}): p-q={diff} vs {val}"
        if detail_c is not None and detail_d is not None:
            break
    results.append(AxiomResult("c", detail_c is None, detail_c or ""))
    results.append(AxiomResult("d", detail_d is None, detail_d or ""))

    # (e) nonzero isotropic roots must move by +-alpha when not orthogonal.
    ok_e, detail_e = True, ""
    for alpha in rs.nonsingular_roots():
        for beta in rs.roots:
            if rs.basis.form(alpha, beta).is_zero():
                continue
            if (beta + alpha) in rs.members or (beta - alpha) in rs.members:
                continue
            ok_e, detail_e = False, f"{beta} +- {alpha} both absent"
            break
        if not ok_e:
            break
    results.append(AxiomResult("e", ok_e, detail_e))

    # (f) the form restricted to the span must be nondegenerate.  The Gram
    # determinant of a span basis is, by Cauchy-Binet, a sum of products of
    # len(span_basis) ambient norms, each affine in lambda; so it is a
    # polynomial in lambda whose degree is at most the number of ambient
    # norms that carry lambda, capped at the rank.  It vanishes identically
    # exactly when it vanishes at one more distinct sample than that.
    span_basis = rs.span_basis
    degree = min(len(span_basis), sum(1 for g in rs.basis.gram_diag if g.lam != 0))
    if samples:
        samples = tuple(dict.fromkeys(samples))
        if len(samples) <= degree:
            raise TooFewSamples(
                f"axiom (f) needs {degree + 1} distinct parameter samples, got {len(samples)}"
            )
    else:
        samples = tuple(Q(p) for p in islice(_primes(), degree + 1))
    dets = []
    for lam in samples[: degree + 1]:
        gram = [
            [rs.basis.form(a, b).at(lam) for b in span_basis]
            for a in span_basis
        ]
        dets.append(matrix_det(gram))
    if all(d != 0 for d in dets):
        results.append(AxiomResult("f", True, f"span rank {len(span_basis)}"))
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
    nodes = [r for r in rs.nonzero if not rs.is_orthogonal_to_all(r)]
    node_set = set(nodes)
    seen: set[Root] = set()
    comps: list[list[Root]] = []
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
                if not rs.basis.form(cur, other).is_zero():
                    seen.add(other)
                    stack.append(other)
        comps.append(sorted(comp, key=lambda r: r.key()))
        node_set -= set(comp)
    comps.sort(key=lambda c: c[0].key())
    zero = Root(tuple(Q(0) for _ in range(rs.basis.dim)))
    out = []
    for idx, comp in enumerate(comps):
        members = tuple(sorted(set(comp) | {zero}, key=lambda r: r.key()))
        out.append(
            FiniteRootSet(
                FiniteTypeId("PURE"),
                rs.basis,
                members,
                frozenset(r for r in comp if r in rs.odd),
                label=f"{rs.label}#{idx + 1}",
            )
        )
    return tuple(out)
