"""Unit tests for the finite families: construction, counts, axioms.

Member counts are frozen from the closed-form sizes of each family's root
list (pairs, doubled vectors, half-sum vectors), computed independently of
the builders:

* two blocks of sizes p, q with difference vectors only:
  p(p-1) + q(q-1) + 2pq nonzero vectors
* B(m,n): 2m^2 + 2n^2 + 2n + 4mn
* C(m,n): 2(m+n)^2
* D(m,n): 2m(m-1) + 2n^2 + 4mn
* BC(m,n): 2m^2 + 2m + 2n^2 + 2n + 4mn
* C(n) single-epsilon: 2n^2 - 2
* equal blocks of size p, traceful: 2p(p-1) + 2p^2
* equal blocks of size 2, traceless: negation collapses the mixed vectors
  pairwise, 4 + 4 nonzero
* exceptional: 14 (rank-3 family), 36 (norm-3 exceptional), 28 (norm--2
  exceptional)

Each count below adds 1 for the zero vector, which every set contains.
The second number is the size of the odd part, negatives included: the
mixed vectors (2pq, or 4mn for e_i +- d_j), plus 2n for the d_j of B and
BC; 8, 16 and 14 for the exceptional families (G3: nu and nu + the six
differences).

The builders work in integer vectors over one denominator; the ``Fraction``
builders they replaced are kept at the end of this file as the oracle for
member order, grading and the integer view.
"""

from __future__ import annotations

import sys
from fractions import Fraction as Q
from itertools import combinations, permutations, product

import pytest

from superroots import (
    EVEN,
    KIND_NONSINGULAR,
    KIND_REAL,
    KIND_ZERO,
    ODD,
    FiniteRootSet,
    FiniteTypeId,
    RankError,
    Root,
    TooFewSamples,
    build_affine,
    build_finite,
    check_supersystem_axioms,
    even_part_label,
    irreducible_components,
    parse_type_token,
    root,
    root_string,
)
from superroots import roots
from superroots.finite import ann_block_traceless, block_units, negation_closure
from superroots.linalg import rank
from superroots.roots import AmbientBasis, d21_basis, eps_delta_basis, f4_basis, g3_basis

EXPECTED_COUNTS = {
    "A,2,1": (21, 12),  # blocks 3,2: 6 + 2 + 12
    "A,1,2": (21, 12),  # blocks 2,3
    "A,1,1": (9, 4),  # traceless equal blocks of 2: 4 even + 4 odd
    "A,2,2": (31, 18),  # equal blocks of 3: 12 even + 18 odd
    "B,0,1": (5, 2),
    "B,1,1": (11, 6),
    "B,2,1": (21, 10),
    "B,1,2": (23, 12),
    "B,2,2": (37, 20),  # 8 + 8 + 4 + 16 nonzero
    "C,1,1": (9, 4),
    "C,2,1": (19, 8),
    "C,1,2": (19, 8),
    "C,2,2": (33, 16),
    "D,1,1": (7, 4),
    "D,2,1": (15, 8),
    "D,1,2": (17, 8),
    "D,2,2": (29, 16),
    "BC,1,0": (5, 0),
    "BC,0,1": (5, 2),
    "BC,1,1": (13, 6),
    "BC,2,2": (41, 20),
    "C,2": (7, 4),  # 2n^2 - 2 = 6 at n = 2
    "C,3": (17, 8),
    "S,2": (13, 8),
    "D21L": (15, 8),
    "F4": (37, 16),
    "G3": (29, 14),
}


@pytest.mark.parametrize(
    "token,counts",
    sorted(EXPECTED_COUNTS.items()),
    ids=[f"{token}-{count}" for token, (count, _) in sorted(EXPECTED_COUNTS.items())],
)
def test_member_counts(token, counts):
    count, odd = counts
    rs = build_finite(parse_type_token(token))
    assert len(rs.roots) == count
    assert len(set(rs.roots)) == count  # no duplicates survive normalisation
    assert len(rs.odd) == odd  # a vector moved between the parts keeps the count


def test_parse_type_token():
    assert parse_type_token("B,1,1") == FiniteTypeId("B", 1, 1)
    assert parse_type_token("b,1,1") == FiniteTypeId("B", 1, 1)
    assert parse_type_token("A,2,2") == FiniteTypeId("ANN", 2, 2)
    assert parse_type_token("C,3") == FiniteTypeId("CN", 1, 3)
    assert parse_type_token("S,2") == FiniteTypeId("S", 2, 2)
    assert parse_type_token("f4") == FiniteTypeId("F4")
    assert parse_type_token("D21L") == FiniteTypeId("D21L")


def test_parse_type_token_errors():
    for bad in ("A,1", "B,1", "Q,1,1", "F4,1", "S,1,2", "B,x,1", "C,1"):
        with pytest.raises(RankError):
            parse_type_token(bad)


def test_rank_constraints():
    with pytest.raises(RankError):
        FiniteTypeId("A", 1, 1)  # equal blocks must go through ANN
    with pytest.raises(RankError):
        FiniteTypeId("B", 1, 0)
    with pytest.raises(RankError):
        FiniteTypeId("CN", 1, 1)
    with pytest.raises(RankError):
        FiniteTypeId("S", 1, 1)
    with pytest.raises(RankError):
        FiniteTypeId("BC", 0, 0)


def test_build_stamps_canonical_ids():
    # C(n) ignores its first rank and S keeps one rank; the builder stamps
    # the canonical id whatever the caller passed.
    assert build_finite(FiniteTypeId("CN", 0, 3)).type_id == FiniteTypeId("CN", 1, 3)
    assert build_finite(FiniteTypeId("CN", 0, 3)) == build_finite(FiniteTypeId("CN", 1, 3))
    assert build_finite(FiniteTypeId("S", 3, 0)).type_id == FiniteTypeId("S", 3, 3)
    assert build_finite(FiniteTypeId("S", 3, 0)) == build_finite(FiniteTypeId("S", 3, 3))


def test_ids_are_canonical():
    # the affine system and its finite part carry one and the same id
    for tid in (FiniteTypeId("CN", 0, 3), FiniteTypeId("CN", 5, 3), FiniteTypeId("D", 1, 2)):
        system = build_affine(tid)
        assert system.type_id == system.finite.type_id == FiniteTypeId("CN", 1, 3)
    assert FiniteTypeId("S", 3, 0) == FiniteTypeId("S", 3, 3)
    for fam in ("F4", "G3", "D21L", "PURE"):
        with pytest.raises(RankError, match="takes no ranks"):
            FiniteTypeId(fam, 3, 2)
    with pytest.raises(RankError):
        FiniteTypeId("F4", 0, 1)


def test_token_round_trip():
    for token in EXPECTED_COUNTS:
        tid = parse_type_token(token)
        assert parse_type_token(tid.token) == tid


def test_contains_zero_and_negation():
    for token in EXPECTED_COUNTS:
        rs = build_finite(parse_type_token(token))
        zero = Root(tuple(Q(0) for _ in range(rs.basis.dim)))
        assert zero in rs
        members = set(rs.roots)
        for r in rs.roots:
            assert -r in rs
            # membership is the vector's, delta and sigma parts included
            for other in (r.shift(1), Root(r.coords, 0, 1), r + r, r.scale(Q(1, 2))):
                assert (other in rs) == (other in members)


def test_b11_exact_member_list():
    rs = build_finite(parse_type_token("B,1,1"))
    e1 = root(1, 0)
    d1 = root(0, 1)
    expected = {
        Root((Q(0), Q(0))),
        e1, -e1,
        d1, -d1,
        d1.scale(2), d1.scale(-2),
        e1 + d1, -(e1 + d1),
        e1 - d1, -(e1 - d1),
    }
    assert set(rs.roots) == expected
    # gradation: the delta block and the mixed vectors are odd
    assert {r for r in rs.roots if r in rs.odd} == {
        d1, -d1, e1 + d1, -(e1 + d1), e1 - d1, -(e1 - d1)
    }


def test_parity_counts():
    rs = build_finite(parse_type_token("F4"))
    odd = [r for r in rs.nonzero if rs.parity(r) == ODD]
    even = [r for r in rs.nonzero if rs.parity(r) == EVEN]
    assert (len(even), len(odd)) == (20, 16)
    g3 = build_finite(parse_type_token("G3"))
    odd = [r for r in g3.nonzero if g3.parity(r) == ODD]
    assert len(odd) == 14
    d21 = build_finite(parse_type_token("D21L"))
    odd = [r for r in d21.nonzero if d21.parity(r) == ODD]
    assert len(odd) == 8


def test_kind_classification():
    rs = build_finite(parse_type_token("B,1,1"))
    e1 = root(1, 0)
    d1 = root(0, 1)
    assert rs.kind(Root((Q(0), Q(0)))) == KIND_ZERO
    assert rs.kind(e1) == KIND_REAL
    assert rs.kind(d1) == KIND_REAL  # norm -1: real odd
    assert rs.kind(e1 + d1) == KIND_NONSINGULAR  # isotropic but not central
    assert rs.kind(e1 - d1) == KIND_NONSINGULAR


def test_nonsingular_roots_are_odd_and_isotropic():
    for token in ("B,2,2", "C,2,2", "D,2,1", "D21L", "F4", "G3", "A,2,1"):
        rs = build_finite(parse_type_token(token))
        for r in rs.nonsingular_roots():
            assert rs.parity(r) == ODD
            assert rs.norm(r).is_zero()


def test_equal_block_traceless_sum_is_zero():
    """In the traceless equal-block family every member has zero block sums."""
    rs = build_finite(parse_type_token("A,2,2"))
    half = rs.basis.dim // 2
    for r in rs.roots:
        assert sum(r.coords[:half], Q(0)) == 0
        assert sum(r.coords[half:], Q(0)) == 0


def test_root_string_oracles():
    rs = build_finite(parse_type_token("B,1,1"))
    e1 = root(1, 0)
    d1 = root(0, 1)
    # string through e1 along d1: e1-d1, e1, e1+d1
    p, q, chain = root_string(rs, e1, d1)
    assert (p, q) == (1, 1)
    assert chain == (e1 - d1, e1, e1 + d1)
    # string through 2d1 along d1: -2d1 .. 2d1
    p, q, chain = root_string(rs, d1.scale(2), d1)
    assert (p, q) == (4, 0)
    assert len(chain) == 5
    # string through zero along e1: -e1, 0, e1
    p, q, chain = root_string(rs, Root((Q(0), Q(0))), e1)
    assert (p, q) == (1, 1)


def test_root_string_matches_pairing_everywhere():
    rs = build_finite(parse_type_token("D,2,1"))
    from superroots import cartan_integer

    for alpha in rs.real_roots():
        for beta in rs.roots:
            p, q, _ = root_string(rs, beta, alpha)
            assert Q(p - q) == cartan_integer(rs.basis, beta, alpha)


AXIOM_TOKENS = [
    "A,2,1", "A,1,2", "A,1,1", "A,2,2",
    "B,1,1", "B,2,1", "B,1,2", "B,2,2",
    "C,1,1", "C,2,1", "C,1,2", "C,2,2",
    "D,1,1", "D,2,1", "D,1,2", "D,2,2",
    "BC,1,1", "BC,2,1", "BC,1,2", "BC,2,2",
    "C,2", "C,3", "D21L", "F4", "G3",
]


@pytest.mark.parametrize("token", AXIOM_TOKENS)
def test_axioms_pass(token):
    rs = build_finite(parse_type_token(token))
    report = check_supersystem_axioms(rs)
    assert report.passed, str(report)
    assert [r.axiom for r in report.results] == ["a", "b", "c", "d", "e", "f"]


def test_degenerate_family_fails_only_nondegeneracy():
    rs = build_finite(parse_type_token("S,2"))
    report = check_supersystem_axioms(rs)
    assert not report.passed
    assert report.failed_axioms == ("f",)


def test_degenerate_family_larger_rank():
    rs = build_finite(parse_type_token("S,3"))
    report = check_supersystem_axioms(rs)
    assert report.failed_axioms == ("f",)


def test_axioms_custom_samples():
    rs = build_finite(parse_type_token("D21L"))
    report = check_supersystem_axioms(rs, samples=(Q(1, 2), Q(4), Q(-3)))
    assert report.passed


def test_axiom_f_samples_follow_the_degree_bound():
    # the D21L Gram determinant has degree 2 in lambda (two norms carry it),
    # so three distinct samples decide it and two do not
    rs = build_finite(parse_type_token("D21L"))
    with pytest.raises(TooFewSamples, match="needs 3 distinct parameter samples, got 2"):
        check_supersystem_axioms(rs, samples=(Q(2), Q(3), Q(2)))
    assert str(check_supersystem_axioms(rs, samples=(Q(-2), Q(3), Q(2)))) == str(
        check_supersystem_axioms(rs)
    )
    # a lambda-free form is decided by a single sample
    b11 = build_finite(parse_type_token("B,1,1"))
    assert check_supersystem_axioms(b11, samples=(Q(5),)).passed
    s2 = build_finite(parse_type_token("S,2"))
    report = check_supersystem_axioms(s2, samples=(Q(5),))
    assert str(report).splitlines()[-1] == "(f) FAIL: form degenerate on the span"


def test_even_part_labels():
    assert even_part_label(parse_type_token("B,1,1")) == "B_m ⊕ C_n"
    assert even_part_label(parse_type_token("A,2,1")) == "A_m ⊕ A_n ⊕ ℂ"
    assert even_part_label(parse_type_token("A,2,2")) == "A_n ⊕ A_n"
    assert even_part_label(parse_type_token("C,3")) == "C_{n-1} ⊕ ℂ"
    # the single-epsilon even-orthogonal mix shares the one-parameter label
    assert even_part_label(FiniteTypeId("D", 1, 2)) == "C_{n-1} ⊕ ℂ"
    assert even_part_label(parse_type_token("D21L")) == "A_1 ⊕ A_1 ⊕ A_1"
    assert even_part_label(parse_type_token("F4")) == "A_1 ⊕ B_3"
    assert even_part_label(parse_type_token("G3")) == "A_1 ⊕ G_2"


def test_irreducible_components_connected_systems():
    for token in ("B,1,1", "D21L", "S,2"):
        rs = build_finite(parse_type_token(token))
        comps = irreducible_components(rs)
        assert len(comps) == 1
        assert set(comps[0].roots) == set(rs.roots)


def test_irreducible_components_splits_orthogonal_pieces():
    # hand-built reducible set: {0, +-e1, +-2d1} over a 2-dim basis
    basis = eps_delta_basis(1, 1)
    e1 = root(1, 0)
    dd = root(0, 2)
    members = (Root((Q(0), Q(0))), e1, -e1, dd, -dd)
    rs = FiniteRootSet(
        FiniteTypeId("PURE"), basis,
        tuple(sorted(members, key=lambda r: r.key())), frozenset(), "adhoc",
    )
    comps = irreducible_components(rs)
    assert len(comps) == 2
    sizes = sorted(len(c.roots) for c in comps)
    assert sizes == [3, 3]  # each keeps the zero vector
    for c in comps:
        assert Root((Q(0), Q(0))) in c


def test_span_rank():
    assert build_finite(parse_type_token("B,1,1")).span_rank == 2
    assert build_finite(parse_type_token("A,1,1")).span_rank == 2
    assert build_finite(parse_type_token("F4")).span_rank == 4
    assert build_finite(parse_type_token("D21L")).span_rank == 3


def _greedy_span_basis(rs):
    """Oracle: keep each root that raises the rank of the roots kept so far."""
    basis, mat = [], []
    for r in rs.nonzero:
        if rank(mat + [list(r.coords)]) > len(mat):
            mat.append(list(r.coords))
            basis.append(r)
    return tuple(basis)


def _small_ids():
    ids = {FiniteTypeId(fam) for fam in ("F4", "G3", "D21L")}
    for fam in ("A", "ANN", "B", "CN", "C", "D", "BC", "S"):
        for m in range(5):
            for n in range(5):
                try:
                    ids.add(FiniteTypeId(fam, m, n))
                except RankError:
                    pass
    return sorted(ids, key=lambda t: (t.family, t.m, t.n))


def test_span_basis_matches_greedy_rank_loop():
    # axiom (f) takes its span basis from one elimination; every finite id
    # with m, n <= 4 gets the basis of the root-by-root rank loop
    ids = _small_ids()
    assert len(ids) == 109
    for tid in ids:
        rs = build_finite(tid)
        assert rs.span_basis == _greedy_span_basis(rs), tid
        assert len(rs.span_basis) == rank([list(r.coords) for r in rs.nonzero]), tid


@pytest.mark.parametrize("token", ["F4", "BC,2,2"])
def test_axiom_check_pairs_no_root_twice(token, monkeypatch):
    # the checker reads the integer pairing and string tables, so it makes no
    # per-pair call to the form or to cartan_integer on these rational bases
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    cartan = roots.cartan_integer
    monkeypatch.setattr(AmbientBasis, "form", counted(AmbientBasis.form))
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "superroots" and getattr(module, "cartan_integer", None) is cartan:
            monkeypatch.setattr(module, "cartan_integer", counted(cartan))
    rs = build_finite(parse_type_token(token))
    assert check_supersystem_axioms(rs).passed
    assert calls == []
    # the counters do see a direct call
    alpha = rs.real_roots()[0]
    roots.cartan_integer(rs.basis, alpha, alpha)
    assert calls == ["cartan_integer", "form", "form"]


# ---------------------------------------------------------------------------
# the Fraction builders, kept as the oracle for the integer ones
# ---------------------------------------------------------------------------


def oracle_gl(mb, nb, traceless=False):
    basis, es, ds = block_units(mb, nb)
    even = [a - b for block in (es, ds) for a, b in permutations(block, 2)]
    odd = [e - d for e in es for d in ds]
    if traceless:
        odd = [ann_block_traceless(basis, v) for v in odd]
    return basis, even + odd, odd


def oracle_osp(fam, m, n):
    basis, es, ds = block_units(m, n)
    vecs, odd = [], []
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
    return basis, vecs + odd, odd


def oracle_d21l():
    basis = d21_basis()
    g1, g2, g3 = (basis.unit(i) for i in range(3))
    vecs = [g.scale(Q(2)) for g in (g1, g2, g3)]
    odd = [g1 + g2.scale(s2) + g3.scale(s3) for s2 in (Q(1), Q(-1)) for s3 in (Q(1), Q(-1))]
    return basis, vecs + odd, odd


def oracle_f4():
    basis = f4_basis()
    e = basis.unit(0)
    ds = [basis.unit(1 + i) for i in range(3)]
    vecs = [e]
    for i in range(3):
        vecs.append(ds[i])
        for j in range(i + 1, 3):
            vecs += [ds[i] + ds[j], ds[i] - ds[j]]
    odd = [
        (e + ds[0].scale(s1) + ds[1].scale(s2) + ds[2].scale(s3)).scale(Q(1, 2))
        for s1 in (Q(1), Q(-1)) for s2 in (Q(1), Q(-1)) for s3 in (Q(1), Q(-1))
    ]
    return basis, vecs + odd, odd


def oracle_g3():
    basis = g3_basis()
    es = [basis.unit(i) for i in range(3)]
    nu = basis.unit(3)
    diffs = [es[i] - es[j] for i in range(3) for j in range(3) if i != j]
    vecs = [nu, nu.scale(Q(2)), *diffs]
    vecs += [es[i].scale(Q(2)) - es[j] - es[t] for i, j, t in ((0, 1, 2), (1, 0, 2), (2, 0, 1))]
    odd = [nu] + [nu + d for d in diffs]
    return basis, vecs + odd[1:], odd


def oracle_build(type_id):
    """Today's builders and ``_finish`` in ``Fraction``s: (basis, roots, odd)."""
    fam, m, n = type_id.family, type_id.m, type_id.n
    basis, vectors, odd = (
        oracle_gl(m + 1, n + 1) if fam == "A"
        else oracle_gl(n + 1, n + 1, traceless=True) if fam == "ANN"
        else oracle_gl(m, m) if fam == "S"
        else oracle_osp("D", 1, n - 1) if fam == "CN"
        else oracle_osp(fam, m, n) if fam in ("B", "C", "D", "BC")
        else {"D21L": oracle_d21l, "F4": oracle_f4, "G3": oracle_g3}[fam]()
    )
    zero = Root(tuple(Q(0) for _ in range(basis.dim)))
    ordered = tuple(sorted(negation_closure([*vectors, zero]), key=lambda r: r.key()))
    return basis, ordered, frozenset(negation_closure(odd))


#: the eleven finite families of ``golden/regen_cli.py``'s FINITE_TYPES, then
#: A,2,2's traceless blocks over 3 and D21L at a rational lambda
ORACLE_CASES = [
    *((t, None) for t in (
        "A,2,1", "A,1,1", "B,1,1", "C,3", "C,1,1", "D,2,1", "BC,1,1", "S,2", "F4", "G3", "D21L",
    )),
    ("A,2,2", None),
    ("D21L", Q(5, 3)),
]


@pytest.mark.parametrize("token, lam", ORACLE_CASES, ids=[f"{t}-{lam}" for t, lam in ORACLE_CASES])
def test_integer_builders_match_the_fraction_oracle(token, lam):
    type_id = parse_type_token(token)
    rs = build_finite(type_id) if lam is None else build_affine(type_id, lam).finite
    _, roots, odd = oracle_build(type_id)
    assert rs.roots == roots  # order included
    assert rs.odd == odd
    # the oracle's members, hand-built, convert their Fractions for the view
    hand = FiniteRootSet(
        type_id, rs.basis, roots, frozenset(i for i, r in enumerate(roots) if r in odd)
    )
    new, old = rs._view, hand._view
    assert new.denom == old.denom
    assert new.coords == old.coords
    assert new.table == old.table
    assert new.numer == old.numer
