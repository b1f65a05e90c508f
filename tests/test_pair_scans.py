"""Differential tests: the line-pair scans against the windowed scans they replace.

``_closure_gaps`` decides each pair of lines exactly, from Minkowski sums
of their level sets; it is checked, within S through ``check_parabolic`` and
within the whole system, against the windowed closure scan on a window wide
enough to hold a witness of every failing pair, projected to line triples.
``closure_violations`` walks window levels only on the pairs it flags, and
``validate_shadow`` and ``root_string`` decide each pair of roots from the
pair's lines and a few integer levels; ``verify_zeta`` decides each line
from the functional's exact level sets on it; kinds, the axioms and
``irreducible_components`` read a finite set's integer pairing table; an
affine system's ``contains``, ``classify``, ``parity`` and ``class_rep``
read its line index, and the pair scans add lines by position with
``line_sum``.  The reference functions below are the plain windowed scans
that enumerate every window root or pair of window roots, add lines as
``Fraction`` roots, and pair finite roots with ``basis.form`` one pair at a
time; the exact versions must return the same answers in the same order,
and raise the same errors.
"""

from __future__ import annotations

import random
from fractions import Fraction as Q
from itertools import product

import pytest

from superroots import (
    FiniteRootSet,
    FiniteTypeId,
    IntegerSet,
    Root,
    RootSubset,
    Shadow,
    build_affine,
    build_finite,
    cartan_integer,
    check_parabolic,
    check_supersystem_axioms,
    decompose,
    even_subset,
    hybrid_class,
    induce_from_functional,
    irreducible_components,
    parse_type_token,
    root,
    root_string,
    tight_class,
    validate_shadow,
)
from superroots.errors import BasisMismatch, NotARoot, NotRealRoot, SuperrootsError
from superroots.linalg import det
from superroots.roots import (
    EVEN,
    KIND_IMAGINARY,
    KIND_NONSINGULAR,
    KIND_REAL,
    KIND_ZERO,
    eps_delta_basis,
)
from superroots.shadows import DOWN, UP, ShadowReport, Violation
from superroots.subsets import _closure_gaps, component_parabolic
from superroots.zeta import (
    LinearFunctional,
    ZetaComponent,
    ZetaResult,
    construct_zeta,
    hybrid_assignment_shadows,
    verify_zeta,
)

# -- reference scans --------------------------------------------------------------


def windowed_contains(sub: RootSubset, r: Root) -> bool:
    if not sub.system.contains(r):
        return False
    c = sub.system.canonicalize(r)
    return c.k in sub.levels(Root(c.coords, 0, c.sigma))


def windowed_closure_violations(P: RootSubset, kmax: int, S: RootSubset | None = None):
    """Every window pair (a, b) of P with a + b in S (the system if None) but not in P."""
    members = P.window_members(kmax)
    out = []
    missing = {}  # sum -> whether it is in S but not in P; many pairs share a sum
    for a in members:
        for b in members:
            s = a + b
            bad = missing.get(s)
            if bad is None:
                inside = P.system.contains(s) if S is None else windowed_contains(S, s)
                bad = missing[s] = inside and not windowed_contains(P, s)
            if bad:
                out.append((a, b, s))
    return out


#: ``random_levels``' sets are constant on k <= -5 and on k >= 5, so a pair of
#: lines that breaks closure has a witness pair with both levels in [-10, 10]
WIDE = 10


def line_of(r: Root) -> Root:
    return Root(r.coords, 0, r.sigma)


def windowed_line_triples(P: RootSubset, S: RootSubset | None, kmax: int = WIDE) -> set:
    """``windowed_closure_violations`` projected to (line, line, target line)."""
    return {tuple(map(line_of, t)) for t in windowed_closure_violations(P, kmax, S)}


def ray_sum(x: IntegerSet, y: IntegerSet) -> IntegerSet:
    """Minkowski sum of two ray-shaped level sets."""
    if x.is_empty() or y.is_empty():
        return IntegerSet.empty()
    if x.is_all or y.is_all:
        return IntegerSet.all()
    if x.up is not None and y.up is not None:
        return IntegerSet.at_least(x.up + y.up)
    if x.down is not None and y.down is not None:
        return IntegerSet.at_most(x.down + y.down)
    return IntegerSet.all()  # opposite rays sum onto every level


def fraction_ray_additive(P: RootSubset, S: RootSubset):
    """``check_parabolic``'s closure test on ray shapes, adding each pair of
    lines as roots and summing rays case by case."""
    out = []
    for fa, ka in P.lines.items():
        for fb, kb in P.lines.items():
            target = fa + fb
            ks_t = S.levels(target)
            if ks_t.is_empty():
                continue
            if not ray_sum(ka, kb).intersect(ks_t).is_subset(P.levels(target)):
                out.append((fa, fb, target))
    return tuple(out)


def windowed_validate_shadow(shadow: Shadow, kmax: int, class_filter=None) -> ShadowReport:
    system = shadow.system
    violations = []
    reals = []
    for rep in system.real_class_reps:
        if class_filter is not None and rep not in class_filter:
            continue
        for sign in (1, -1):
            f = rep if sign > 0 else -rep
            for k in range(-kmax, kmax + 1):
                reals.append(Root(f.coords, k, f.sigma))
    ln_roots = [r for r in reals if shadow.is_ln(r)]
    for alpha in ln_roots:
        for beta in ln_roots:
            for law, target in (("sum", alpha + beta), ("sum2", alpha + beta.scale(Q(2)))):
                if not system.contains(target):
                    continue
                if system.classify(target) != KIND_REAL:
                    continue
                if not shadow.is_ln(target):
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
    for rep in system.real_class_reps:
        if class_filter is not None and rep not in class_filter:
            continue
        doubled = rep.scale(Q(2))
        if not system.contains(doubled) or system.classify(doubled) != KIND_REAL:
            continue
        for sign in (1, -1):
            f = rep if sign > 0 else -rep
            f2 = doubled if sign > 0 else -doubled
            for k in range(-kmax, kmax + 1):
                a = Root(f.coords, k, f.sigma)
                b = Root(f2.coords, 2 * k, f2.sigma)
                if shadow.is_ln(a) != shadow.is_ln(b):
                    violations.append(
                        Violation("scale", a, None, b, f"{system.format(a)} and {system.format(b)} disagree")
                    )
    return ShadowReport(tuple(violations))


def _multiple_of(candidate: Root, base: Root):
    ratio = None
    for c, b in zip(candidate.coords, base.coords):
        if b == 0:
            if c != 0:
                return None
        else:
            q = c / b
            if ratio is None:
                ratio = q
            elif ratio != q:
                return None
    return ratio


def scanned_root_string(rs: FiniteRootSet, beta: Root, alpha: Root):
    ks = []
    for r in rs.roots:
        diff = r - beta
        if diff.is_zero_vector():
            ks.append(0)
            continue
        q = _multiple_of(diff, alpha)
        if q is not None and q.denominator == 1:
            ks.append(int(q))
    ks.sort()
    if not ks or 0 not in ks:
        raise ValueError("string does not contain beta")
    if ks != list(range(ks[0], ks[-1] + 1)):
        raise ValueError(f"broken string {ks}")
    chain = tuple(beta + alpha.scale(Q(k)) for k in range(ks[0], ks[-1] + 1))
    return -ks[0], ks[-1], chain


def scanned_axioms_c_d(rs: FiniteRootSet) -> tuple[str, str]:
    """Axioms (c) and (d) as two separate scans, rendered like AxiomReport lines."""
    reals = rs.real_roots()
    detail_c = ""
    for alpha, beta in product(reals, rs.roots):
        val = cartan_integer(rs.basis, beta, alpha)
        if val.denominator != 1:
            detail_c = f"<{beta},{alpha}> = {val}"
            break
    detail_d = ""
    for alpha, beta in product(reals, rs.roots):
        try:
            p, q, _ = scanned_root_string(rs, beta, alpha)
        except ValueError as exc:
            detail_d = f"string({beta};{alpha}): {exc}"
            break
        expect = cartan_integer(rs.basis, beta, alpha)
        if Q(p - q) != expect:
            detail_d = f"string({beta};{alpha}): p-q={p - q} vs {expect}"
            break
    return tuple(
        f"({ax}) {'FAIL' if detail else 'ok'}" + (f": {detail}" if detail else "")
        for ax, detail in (("c", detail_c), ("d", detail_d))
    )


def scanned_kind(rs: FiniteRootSet, r: Root) -> str:
    if r.is_zero_vector():
        return KIND_ZERO
    if all(rs.basis.form(r, s).is_zero() for s in rs.roots):
        return KIND_IMAGINARY
    return KIND_NONSINGULAR if rs.basis.form(r, r).is_zero() else KIND_REAL


def scanned_contains(sys_, r: Root) -> bool:
    """Root-by-root membership: canonicalise, then look the finite part up."""
    try:
        c = sys_.canonicalize(r)
    except NotARoot:
        return False
    f = Root(c.coords)
    if f.is_zero_vector():
        return c.sigma == 0
    if f not in sys_.finite.roots:
        return False
    return c.sigma in sys_.sigma_options.get(sys_.finite._view.ints(f.coords), (0,))


def scanned_classify(sys_, r: Root) -> str:
    if not scanned_contains(sys_, r):
        raise NotARoot(f"{r} is not a member of {sys_.token}")
    c = sys_.canonicalize(r)
    kind = sys_.finite.kind(c.finite())
    if kind == KIND_ZERO:
        return KIND_ZERO if c.k == 0 else KIND_IMAGINARY
    if kind == KIND_IMAGINARY and c.k == 0 and c.sigma == 0:
        return KIND_ZERO
    return kind


def scanned_parity(sys_, r: Root) -> str:
    if not scanned_contains(sys_, r):
        raise NotARoot(f"{r} is not a member of {sys_.token}")
    f = Root(sys_.canonicalize(r).coords)
    if f.is_zero_vector():
        return EVEN
    return sys_.finite.parity(f)


def scanned_class_rep(sys_, r: Root) -> tuple[Root, int]:
    if scanned_classify(sys_, r) != KIND_REAL:
        raise NotRealRoot(f"{r} is not a real member")
    f = Root(sys_.canonicalize(r).coords)
    rep = min(f, -f, key=lambda x: x.key())
    return rep, (1 if f == rep else -1)


def scanned_axiom_e(rs: FiniteRootSet) -> str:
    """The first nonsingular alpha and beta with (alpha, beta) != 0 and beta +- alpha absent."""
    members = set(rs.roots)
    for alpha in rs.roots:
        if scanned_kind(rs, alpha) != KIND_NONSINGULAR:
            continue
        for beta in rs.roots:
            if rs.basis.form(alpha, beta).is_zero():
                continue
            if beta + alpha not in members and beta - alpha not in members:
                return f"{beta} +- {alpha} both absent"
    return ""


def scanned_gram(rs: FiniteRootSet, lam) -> list[list[Q]]:
    return [[rs.basis.form(a, b).at(lam) for b in rs.span_basis] for a in rs.span_basis]


def scanned_axiom_report(rs: FiniteRootSet) -> str:
    """``str(check_supersystem_axioms(rs))`` from pair-by-pair ``basis.form`` scans."""
    zero = Root(tuple(Q(0) for _ in range(rs.basis.dim)))
    details = {"a": f"{len(rs.roots)} vectors, span rank {rs.span_rank}"}
    members = set(rs.roots)
    passed = {"a": zero in members}
    missing = [r for r in rs.roots if -r not in members]
    details["b"] = f"missing -{missing[0]}" if missing else ""
    lines = [
        f"({ax}) {'ok' if passed.get(ax, not details[ax]) else 'FAIL'}"
        + (f": {details[ax]}" if details[ax] else "")
        for ax in ("a", "b")
    ]
    lines += scanned_axioms_c_d(rs)
    detail_e = scanned_axiom_e(rs)
    lines.append(f"(e) FAIL: {detail_e}" if detail_e else "(e) ok")
    rank = len(rs.span_basis)
    degree = min(rank, sum(1 for g in rs.basis.gram_diag if g.lam != 0))
    samples = [Q(p) for p in (2, 3, 5, 7, 11)][: degree + 1]
    dets = [det(scanned_gram(rs, lam)) for lam in samples]
    if all(dets):
        lines.append(f"(f) ok: span rank {rank}")
    elif not any(dets):
        lines.append("(f) FAIL: form degenerate on the span")
    else:
        lines.append(f"(f) FAIL: form degenerate at parameter {samples[dets.index(0)]}")
    return "\n".join(lines)


def scanned_components(rs: FiniteRootSet) -> list[tuple[Root, ...]]:
    """The non-orthogonality components of the non-imaginary nonzero roots, each with 0."""
    nodes = [r for r in rs.nonzero if scanned_kind(rs, r) != KIND_IMAGINARY]
    zero = Root(tuple(Q(0) for _ in range(rs.basis.dim)))
    seen: set[Root] = set()
    comps = []
    for start in nodes:
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            cur = stack.pop()
            for other in nodes:
                if other not in comp and not rs.basis.form(cur, other).is_zero():
                    comp.add(other)
                    stack.append(other)
        seen |= comp
        comps.append(comp)
    comps.sort(key=lambda c: min(r.key() for r in c))
    return [tuple(sorted(c | {zero}, key=lambda r: r.key())) for c in comps]


def windowed_verify_zeta(result: ZetaResult, S: RootSubset, kmax: int, shadow=None) -> list[str]:
    """verify_zeta with its membership and shadow checks as root-by-root window scans."""
    func = result.functional
    problems: list[str] = []
    sysm = S.system
    zd = result.zeta_delta
    if result.direction == UP and zd <= 0:
        problems.append(f"delta value {zd} not positive")
    if result.direction == DOWN and zd >= 0:
        problems.append(f"delta value {zd} not negative")
    P = result.components[0].parabolic
    for zc in result.components[1:]:
        P = P.union(zc.parabolic)
    for line, ks in S.lines.items():
        try:
            c = func.value(Root(line.coords, 0, line.sigma))
        except BasisMismatch:
            problems.append(f"line {sysm.format(line)} outside the functional span")
            continue
        want = IntegerSet.where_nonnegative(c, zd)
        got = P.levels(line)
        if want != got:
            problems.append(
                f"line {sysm.format(line)}: cone gives {want}, parabolic union gives {got}"
            )
    for r in S.window_members(kmax):
        try:
            val = func.value(r)
        except BasisMismatch:
            continue
        if (val >= 0) != windowed_contains(P, r):
            problems.append(f"{sysm.format(r)}: value {val} vs membership {windowed_contains(P, r)}")
            break
    if shadow is not None:
        for r in S.window_members(kmax):
            if sysm.classify(r) != "real":
                continue
            try:
                val = func.value(r)
            except BasisMismatch:
                continue
            if val > 0 and not shadow.is_ln(r):
                problems.append(f"{sysm.format(r)}: positive but not ln")
            if val < 0 and not shadow.is_in(r):
                problems.append(f"{sysm.format(r)}: negative but not in")
    return problems


# -- cases ---------------------------------------------------------------------------

#: the shadow-validation, decomposition and axiom types the benchmark runs
VALIDATE_TYPES = ["B,1,1", "B,2,1", "D21L", "A,2,1", "G3", "F4"]
DECOMPOSE_CELLS = [("B,2,1", 6), ("A,1,2", 6), ("D,2,2", 5), ("G3", 4), ("F4", 4)]
AXIOM_TYPES = [
    "A,1,1", "B,1,1", "C,2", "C,3", "D,1,1", "D,2,1", "D,1,2", "BC,1,1", "D21L",
    "A,2,1", "A,1,2", "B,2,1", "B,1,2", "BC,2,1", "BC,1,2", "D,2,2",
    "A,2,2", "B,2,2", "BC,2,2", "F4", "G3", "S,2",
]
#: types with sigma-carrying lines (equal blocks of size two and three)
ANN_TYPES = ["A,1,1", "A,2,2"]
#: zeta types: rank-1 components, the rank-2 A2 component, G3 and sigma lines
ZETA_TYPES = ["B,1,1", "D21L", "A,2,1", "G3", "A,2,2"]
HYBRID_PAIRS = [(m, t) for m in (-1, 0, 1) for t in (-1, 0, 1)]


def system(token):
    return build_affine(parse_type_token(token))


def random_levels(rng: random.Random) -> IntegerSet:
    """Rays, everything, point sets and partial lines, in normal form."""
    pick = rng.randrange(6)
    if pick == 0:
        return IntegerSet.all()
    if pick == 1:
        return IntegerSet.at_least(rng.randint(-2, 2))
    if pick == 2:
        return IntegerSet.at_most(rng.randint(-2, 2))
    pts = rng.sample(range(-4, 5), rng.randint(1, 4))
    if pick == 3:
        return IntegerSet.of(*pts)
    down = rng.randint(-5, -2) if rng.random() < 0.5 else None
    up = rng.randint(2, 5) if rng.random() < 0.5 else None
    return IntegerSet.make(down, up, pts)


def random_subset(sys_, rng: random.Random, lines=None) -> RootSubset:
    lines = sys_.lines if lines is None else lines
    mapping = {line: random_levels(rng) for line in lines if rng.random() < 0.6}
    return RootSubset.of(sys_, mapping)


def random_class_shadows(sys_, rng: random.Random) -> Shadow:
    classes = []
    for rep in sys_.real_class_reps:
        if rng.random() < 0.3:
            plus = rng.random() < 0.5
            classes.append(tight_class(rep, plus, not plus))
        else:
            classes.append(
                hybrid_class(rep, rng.choice((UP, DOWN)), rng.randint(-2, 2), rng.choice((-1, 0, 1)))
            )
    return Shadow.of(sys_, classes)


def functional_shadow(sys_, rng: random.Random) -> Shadow:
    coeffs = {
        sym: Q(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 12))
        for sym in sys_.basis.symbols
    }
    return induce_from_functional(sys_, coeffs, Q(rng.choice(("1", "-1", "1/2", "-3/2"))))


# -- closure -------------------------------------------------------------------------


@pytest.mark.parametrize("token,kmax", DECOMPOSE_CELLS)
def test_closure_matches_windowed_scan_on_even_parts(token, kmax):
    sub = even_subset(system(token))
    assert sub.closure_violations(kmax) == windowed_closure_violations(sub, kmax) == []


@pytest.mark.parametrize(
    "token", sorted(set(VALIDATE_TYPES + [t for t, _ in DECOMPOSE_CELLS] + ANN_TYPES + ["C,2"]))
)
def test_closure_matches_windowed_scan_on_random_subsets(token):
    sys_ = system(token)
    rng = random.Random(f"closure {token}")
    found = 0
    for _ in range(3):
        sub = random_subset(sys_, rng)
        got = sub.closure_violations(3)
        assert got == windowed_closure_violations(sub, 3)
        found += len(got)
    assert found  # the comparison saw violations, not only empty lists


def test_closure_covers_sigma_lines():
    sys_ = system("A,1,1")
    sigma_lines = [line for line in sys_.lines if line.sigma]
    assert sigma_lines
    rng = random.Random("sigma lines")
    sub = RootSubset.of(sys_, {line: random_levels(rng) for line in sys_.lines})
    got = sub.closure_violations(3)
    assert got == windowed_closure_violations(sub, 3)
    assert any(a.sigma or b.sigma for a, b, _ in got)


# -- check_parabolic on any level sets ---------------------------------------------------


def exact_additive(P: RootSubset, S: RootSubset) -> set:
    got = check_parabolic(P, S, 3).additive_violations
    assert check_parabolic(P, S, 0).additive_violations == got  # no window enters
    assert len(set(got)) == len(got)  # each pair of lines is reported once
    return set(got)


@pytest.mark.parametrize("token", ["B,1,1", "D21L", "A,2,1", "B,2,1"])
def test_parabolic_fallback_matches_windowed_scan(token):
    """Points, partial lines and rays: the exact line triples are the wide
    windowed scan's, within S and within the whole system."""
    sys_ = system(token)
    dec = decompose(sys_, even_subset(sys_), kmax=4)
    rng = random.Random(f"parabolic {token}")
    for comp in dec.components:
        lines = sorted(comp.subset.lines, key=lambda r: r.key())
        for within in (comp.subset, random_subset(sys_, rng, lines)):
            P = RootSubset.of(
                sys_, {**random_subset(sys_, rng, lines).lines, lines[0]: IntegerSet.of(0, 2)}
            )
            assert exact_additive(P, within) == windowed_line_triples(P, within)
            gaps = {tuple(sys_.lines[pos] for pos in gap) for gap in _closure_gaps(P)}
            assert gaps == windowed_line_triples(P, None)


def test_parabolic_fallback_on_partial_lines():
    sys_ = system("B,1,1")
    comp = decompose(sys_, even_subset(sys_), kmax=6).components[1]
    dd = Root((Q(0), Q(2)), 0, 0)
    P = RootSubset.of(
        sys_,
        {
            sys_.zero_root: IntegerSet.make(-3, 3, [0]),
            dd: IntegerSet.at_least(0),
            -dd: IntegerSet.of(0, 1),
        },
    )
    got = exact_additive(P, comp.subset)
    assert got == windowed_line_triples(P, comp.subset)
    # every pair but dd + dd and -dd + -dd (no line) fills levels P misses
    z = sys_.zero_root
    assert got == {
        (z, z, z), (z, dd, dd), (dd, z, dd), (z, -dd, -dd), (-dd, z, -dd),
        (dd, -dd, z), (-dd, dd, z),
    }


def random_ray_subset(sys_, rng: random.Random) -> RootSubset:
    """Rays and whole lines only, on about two lines in three."""
    picks = (
        lambda: IntegerSet.all(),
        lambda: IntegerSet.at_least(rng.randint(-2, 2)),
        lambda: IntegerSet.at_most(rng.randint(-2, 2)),
    )
    return RootSubset.of(
        sys_, {line: rng.choice(picks)() for line in sys_.lines if rng.random() < 0.6}
    )


def touches_sigma(triples) -> bool:
    return any(r.sigma for triple in triples for r in triple)


@pytest.mark.parametrize("token", ANN_TYPES + ["B,2,1"])
def test_parabolic_matches_oracles_on_subsets_with_sigma_lines(token):
    sys_ = system(token)
    rng = random.Random(f"sigma parabolic {token}")
    mixed, rays = [], []
    for _ in range(3):
        P, S = random_subset(sys_, rng), random_subset(sys_, rng)
        got = exact_additive(P, S)
        assert got == windowed_line_triples(P, S)
        mixed += got
        P, S = random_ray_subset(sys_, rng), random_ray_subset(sys_, rng)
        got = check_parabolic(P, S, 3).additive_violations
        assert got == fraction_ray_additive(P, S)
        rays += got
    assert mixed and rays
    if token in ANN_TYPES:  # the comparisons met sigma lines on both shapes
        assert touches_sigma(mixed) and touches_sigma(rays)


# -- shadow sum laws -------------------------------------------------------------------


@pytest.mark.parametrize("token", VALIDATE_TYPES + ["A,2,2"])
def test_validate_matches_windowed_scan(token):
    sys_ = system(token)
    rng = random.Random(f"validate {token}")
    clean = functional_shadow(sys_, rng)
    violating = random_class_shadows(sys_, rng)
    got = validate_shadow(clean, 3)
    assert got == windowed_validate_shadow(clean, 3)
    assert got.passed
    got = validate_shadow(violating, 3)
    assert got == windowed_validate_shadow(violating, 3)
    if token != "D21L":  # its real lines are mutually orthogonal: no sum is real
        assert not got.passed


@pytest.mark.parametrize("token", ["B,1,1", "B,2,1", "G3", "F4"])
def test_validate_with_class_filter_matches_windowed_scan(token):
    sys_ = system(token)
    rng = random.Random(f"filter {token}")
    reps = sys_.real_class_reps
    for _ in range(2):
        shadow = random_class_shadows(sys_, rng)
        keep = set(rng.sample(reps, max(1, len(reps) // 2)))
        assert validate_shadow(shadow, 3, class_filter=keep) == windowed_validate_shadow(
            shadow, 3, class_filter=keep
        )


def test_validate_reports_every_law_in_scan_order():
    shadow = random_class_shadows(system("B,2,1"), random.Random("all laws"))
    got = validate_shadow(shadow, 2)
    assert got == windowed_validate_shadow(shadow, 2)
    assert {v.law for v in got.violations} == {"sum", "sum2", "scale"}


# -- root strings and axioms (c), (d) ------------------------------------------------------


@pytest.mark.parametrize("token", AXIOM_TYPES)
def test_root_string_matches_scan(token):
    rs = build_finite(parse_type_token(token))
    for alpha in rs.real_roots():
        for beta in rs.roots:
            assert root_string(rs, beta, alpha) == scanned_root_string(rs, beta, alpha)
    report = str(check_supersystem_axioms(rs)).splitlines()
    assert tuple(report[2:4]) == scanned_axioms_c_d(rs)


def gapped_set() -> FiniteRootSet:
    """{0, +-e1, +-3e1, +-(2e1+e2)}: a broken e1-string and a non-integral pairing."""
    e1, e2 = root(1, 0), root(0, 1)
    vecs = {Root((Q(0), Q(0)))}
    for v in (e1, e1.scale(3), e1.scale(2) + e2):
        vecs |= {v, -v}
    return FiniteRootSet(
        FiniteTypeId("PURE"), eps_delta_basis(2, 0),
        tuple(sorted(vecs, key=lambda r: r.key())), frozenset(), "gapped",
    )


def raised(fn, *args) -> str:
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


def test_root_string_errors_match_scan():
    rs = gapped_set()
    e1, e2 = root(1, 0), root(0, 1)
    for beta, alpha in ((e1, e1), (e1.scale(3), e1), (-e1, e1)):
        text = raised(root_string, rs, beta, alpha)
        assert text.startswith("broken string")
        assert text == raised(scanned_root_string, rs, beta, alpha)
    b11 = build_finite(parse_type_token("B,1,1"))
    for beta, alpha in ((e2.scale(3), e2), (e1 + e2.scale(2), e1), (e1.scale(2), root(1, 1))):
        text = raised(root_string, b11, beta, alpha)
        assert text == "string does not contain beta"
        assert text == raised(scanned_root_string, b11, beta, alpha)


def pairing_table_cases():
    """Every axiom type, the gapped set, and D21L at rational lambdas whose
    Gram diagonals carry denominators (5/3, -1/2) or not (7)."""
    cases = [(token, build_finite(parse_type_token(token))) for token in AXIOM_TYPES]
    cases.append(("gapped", gapped_set()))
    for lam in ("5/3", "-1/2", "7"):
        fin = build_affine(parse_type_token("D21L"), lambda_value=Q(lam)).finite
        cases.append((f"D21L@{lam}", fin))
    return cases


PAIRING_TABLE_CASES = pairing_table_cases()
PAIRING_TABLE_IDS = [name for name, _ in PAIRING_TABLE_CASES]


@pytest.mark.parametrize("case", PAIRING_TABLE_CASES, ids=PAIRING_TABLE_IDS)
def test_kinds_match_pairwise_scan(case):
    _, rs = case
    assert [rs.kind(r) for r in rs.roots] == [scanned_kind(rs, r) for r in rs.roots]
    assert [rs.norm(r) for r in rs.roots] == [rs.basis.norm(r) for r in rs.roots]


@pytest.mark.parametrize("case", PAIRING_TABLE_CASES, ids=PAIRING_TABLE_IDS)
def test_axiom_report_matches_pairwise_scan(case):
    _, rs = case
    assert str(check_supersystem_axioms(rs)) == scanned_axiom_report(rs)


@pytest.mark.parametrize("case", PAIRING_TABLE_CASES, ids=PAIRING_TABLE_IDS)
def test_components_match_pairwise_scan(case):
    _, rs = case
    comps = irreducible_components(rs)
    assert [c.roots for c in comps] == scanned_components(rs)
    assert [c.odd for c in comps] == [rs.odd & set(c.roots) for c in comps]


def test_axiom_e_failure_matches_pairwise_scan():
    """B,1,1 without +-(e1 - d1): -2d1 +- (-e1 - d1) are both absent, so (e) fails."""
    b11 = build_finite(parse_type_token("B,1,1"))
    e1, d1 = root(1, 0), root(0, 1)
    kept = tuple(r for r in b11.roots if r not in (e1 - d1, d1 - e1))
    odd_at = frozenset(i for i, r in enumerate(kept) if r in b11.odd)
    rs = FiniteRootSet(FiniteTypeId("PURE"), b11.basis, kept, odd_at, "cut")
    report = check_supersystem_axioms(rs)
    assert "e" in report.failed_axioms
    assert str(report) == scanned_axiom_report(rs)


def test_axioms_c_and_d_both_fail_like_the_scans():
    rs = gapped_set()
    report = check_supersystem_axioms(rs)
    assert report.failed_axioms[:2] == ("c", "d")
    assert tuple(str(report).splitlines()[2:4]) == scanned_axioms_c_d(rs)


# -- verify_zeta ---------------------------------------------------------------------------


def zeta_system(token):
    """(system, even subset, components)."""
    sys_ = system(token)
    sub = even_subset(sys_)
    return sys_, sub, decompose(sys_, sub, kmax=6).components


def zeta_case(sys_, comps, assignment, direction):
    """(result, shadow table), or None when the construction raises."""
    table = hybrid_assignment_shadows(sys_, comps, assignment, direction)
    try:
        parabolics = tuple(component_parabolic(sys_, c, table, direction) for c in comps)
        return construct_zeta(sys_, comps, parabolics, direction), table
    except SuperrootsError:
        return None


def assert_verify_matches_windowed(result, sub, shadows) -> int:
    """Compare on kmax 3, 6 and 10 for each shadow; returns the problems seen."""
    seen = 0
    for kmax in (3, 6, 10):
        for shadow in shadows:
            got = verify_zeta(result, sub, kmax, shadow=shadow)
            assert got == windowed_verify_zeta(result, sub, kmax, shadow=shadow)
            seen += len(got)
    return seen


@pytest.mark.parametrize("direction", [UP, DOWN])
@pytest.mark.parametrize("token", ZETA_TYPES)
def test_verify_zeta_matches_windowed_scan(token, direction):
    sys_, sub, comps = zeta_system(token)
    rng = random.Random(f"zeta {token} {direction}")
    built = seen = 0
    for _ in range(3):
        assignment = [rng.choice(HYBRID_PAIRS) for _ in comps]
        case = zeta_case(sys_, comps, assignment, direction)
        if case is None:
            continue
        built += 1
        result, table = case
        # a colouring from another assignment disagrees with the functional
        other = hybrid_assignment_shadows(
            sys_, comps, [rng.choice(HYBRID_PAIRS) for _ in comps], direction
        )
        seen += assert_verify_matches_windowed(
            result, sub, (None, Shadow(sys_, table), Shadow(sys_, other))
        )
    assert built and seen  # the comparison saw problems, not only empty lists


def _b11_case():
    sys_, sub, comps = zeta_system("B,1,1")
    result, table = zeta_case(sys_, comps, [(0, 0), (0, 1)], UP)
    return sys_, sub, comps, result, (None, Shadow(sys_, table))


def test_verify_zeta_matches_windowed_scan_on_tampered_results():
    sys_, sub, comps, result, shadows = _b11_case()
    tampered = ZetaResult(
        result.functional, result.case, result.direction, result.components, Q(-3)
    )
    shifted = hybrid_assignment_shadows(sys_, comps, [(0, 0), (1, 0)], UP)
    swapped = ZetaResult(
        result.functional,
        result.case,
        result.direction,
        (
            result.components[0],
            ZetaComponent(
                comps[1], result.components[1].base, component_parabolic(sys_, comps[1], shifted, UP)
            ),
        ),
        result.zeta_delta,
    )
    partial = construct_zeta(sys_, comps[:1], (result.components[0].parabolic,), UP)
    seen = [assert_verify_matches_windowed(r, sub, shadows) for r in (tampered, swapped, partial)]
    assert all(seen)


def test_verify_zeta_matches_windowed_scan_when_the_span_misses_delta():
    sys_, sub, _, result, shadows = _b11_case()
    e1_up = Root((Q(1), Q(0)), 1, 0)
    d1_up = Root((Q(0), Q(2)), 1, 0)
    for func in (
        # every line of the even part meets this span at one level
        LinearFunctional((e1_up, d1_up), (Q(1), Q(-1))),
        # e1 + k*delta lies in this span at k = 1/2 only, so at no level
        LinearFunctional((Root((Q(2), Q(0)), 1, 0), d1_up), (Q(3), Q(1))),
        # over another ambient basis: every line is a basis mismatch
        LinearFunctional((root(1, 0, 0),), (Q(1),)),
    ):
        hand_built = ZetaResult(func, result.case, UP, result.components, result.zeta_delta)
        assert assert_verify_matches_windowed(hand_built, sub, shadows)


# -- the affine line index ----------------------------------------------------------------

#: every affine family; A,1,1's odd lines carry sigma of both signs, A,2,2's one
LINE_INDEX_CASES = [
    ("A,2,1", None), ("A,1,1", None), ("A,2,2", None), ("B,1,1", None), ("B,2,1", None),
    ("C,3", None), ("D,1,1", None), ("D,2,1", None), ("F4", None), ("G3", None),
    ("D21L", None), ("D21L", Q(1, 2)),
]


def outcome(fn, *args):
    """The value of a call, or the type and message of the error it raised."""
    try:
        return "value", fn(*args)
    except SuperrootsError as exc:
        return type(exc), str(exc)


def line_index_probes(sys_) -> list[Root]:
    """Window roots, block-shifted copies of them on equal-block types, and
    non-members: wrong dimensions, a vector off every line, and sigmas that
    no line, or not that line, allows."""
    window = list(sys_.window(2))
    dim = sys_.basis.dim
    zero = (Q(0),) * dim
    probes = window + [
        Root(zero[:-1]),
        Root(zero + (Q(0),), 1),
        Root(window[0].coords[1:], 0, window[0].sigma),
        Root((Q(1, 3),) + zero[1:], 2),
        Root(zero, 0, 1),
        Root(zero, -3, -1),
    ]
    allowed = {(line.coords, line.sigma) for line in sys_.lines}
    for line in sys_.lines:
        for sigma in (-2, -1, 0, 1, 2):
            if (line.coords, sigma) not in allowed:
                probes += [Root(line.coords, 0, sigma), Root(line.coords, 1, sigma)]
    if sys_.type_id.family == "ANN":
        half = dim // 2
        for r in window:
            shifted = tuple(c + 1 for c in r.coords[:half]) + r.coords[half:]
            probes.append(Root(shifted, r.k, r.sigma))
    return probes


@pytest.mark.parametrize("token,lam", LINE_INDEX_CASES, ids=[
    token if lam is None else f"{token}@{lam}" for token, lam in LINE_INDEX_CASES
])
def test_line_index_matches_root_by_root_logic(token, lam):
    sys_ = build_affine(parse_type_token(token), lam)
    probes = line_index_probes(sys_)
    members = 0
    for r in probes:
        assert sys_.contains(r) == scanned_contains(sys_, r), r
        members += sys_.contains(r)
        for method, ref in (
            (sys_.classify, scanned_classify),
            (sys_.parity, scanned_parity),
            (sys_.class_rep, scanned_class_rep),
        ):
            assert outcome(method, r) == outcome(ref, sys_, r), (method.__name__, r)
    # the probes reach members and non-members, real and not
    assert 0 < members < len(probes)
    kinds = {outcome(sys_.class_rep, r)[0] for r in probes}
    assert kinds == {"value", NotARoot, NotRealRoot}
    # the window generator yields the window in key order, with each root's own entry
    pairs = list(sys_.window_entries(3))
    assert [r for r, _ in pairs] == sorted((r for r, _ in pairs), key=lambda r: r.key())
    assert len(pairs) == 7 * len(sys_.lines)
    for r, e in pairs:
        assert e == sys_.entry(r)
        assert (e.kind_at(r.k), e.parity) == (scanned_classify(sys_, r), scanned_parity(sys_, r))


def test_line_index_sigma_of_both_signs():
    sys_ = build_affine(parse_type_token("A,1,1"))
    both = [
        line for line in sys_.lines
        if line.sigma and Root(line.coords, 0, -line.sigma) in sys_.lines
    ]
    assert {line.sigma for line in both} == {-1, 1}
    for line in both:
        for k in (-1, 0, 2):
            r = Root(line.coords, k, line.sigma)
            assert sys_.classify(r) == scanned_classify(sys_, r) == KIND_NONSINGULAR


# -- line sums -----------------------------------------------------------------------------

#: every type the pair-scan tests use: A,1,1's sigma lines take both signs,
#: A,2,2's one; and D21L at a rational lambda
LINE_SUM_CASES = [
    (token, None)
    for token in sorted(
        set(VALIDATE_TYPES + [t for t, _ in DECOMPOSE_CELLS] + ANN_TYPES + ZETA_TYPES + ["C,2"])
    )
] + [("D21L", Q(1, 2))]


@pytest.mark.parametrize("token,lam", LINE_SUM_CASES, ids=[
    token if lam is None else f"{token}@{lam}" for token, lam in LINE_SUM_CASES
])
def test_line_sum_matches_fraction_sums(token, lam):
    sys_ = build_affine(parse_type_token(token), lam)
    lines = sys_.lines
    hits = set()
    for a, la in enumerate(lines):
        for b, lb in enumerate(lines):
            for m in (1, 2):
                e = sys_.entry(la + lb.scale(m))
                want = None if e is None else e.pos
                assert sys_.line_sum(a, b, m) == want, (la, lb, m)
                if want is not None:
                    hits.add((m, lines[want].sigma != 0))
    assert (1, False) in hits and (2, False) in hits
    if sys_.type_id.family == "ANN":  # sums that land on sigma lines too
        assert (1, True) in hits and (2, True) in hits
    assert len(sys_._line_sums) == 2 * len(lines) ** 2
    assert all(sys_.line_sum(a, b, m) == pos for (a, b, m), pos in list(sys_._line_sums.items()))


def counting_root_arithmetic(monkeypatch) -> list[str]:
    """Record every ``Root.__add__`` and ``Root.scale`` call from here on."""
    calls: list[str] = []
    for name in ("__add__", "scale"):
        fn = getattr(Root, name)

        def wrapper(*args, _fn=fn, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(Root, name, wrapper)
    return calls


@pytest.mark.parametrize("token", VALIDATE_TYPES + ANN_TYPES)
def test_pair_scans_add_no_roots(token, monkeypatch):
    """validate_shadow, closure_violations and check_parabolic's ray path add
    lines by position: no ``Fraction`` root is added or scaled per pair."""
    built = system(token)
    rng = random.Random(f"no roots {token}")
    comps = decompose(built, even_subset(built), kmax=4).components
    table = hybrid_assignment_shadows(built, comps, [(0, 1)] * len(comps), UP)
    parabolics = [(component_parabolic(built, c, table, UP), c.subset) for c in comps]
    assert all(ks.is_ray_shape() for P, _ in parabolics for ks in P.lines.values())
    cold = [system(token) for _ in range(2)]
    shadows = [functional_shadow(cold[0], rng), random_class_shadows(cold[1], rng)]
    subsets = [even_subset(built), random_subset(built, rng)]
    calls = counting_root_arithmetic(monkeypatch)
    reports = [validate_shadow(shadow, 3) for shadow in shadows]
    closures = [sub.closure_violations(3) for sub in subsets]
    checks = [check_parabolic(P, S, 3) for P, S in parabolics]
    assert calls == []
    # each cold system added each pair of real lines at most once per law,
    # and doubled each real line at most once
    for sys_ in cold:
        R = 2 * len(sys_.real_class_reps)
        assert 0 < len(sys_._line_sums) <= 2 * R * R + R
    # the counters do see a direct call, and the scans saw work
    built.lines[0] + built.lines[0]
    assert calls == ["__add__"]
    assert reports[0].passed
    assert closures[0] == [] and closures[1]
    assert checks
