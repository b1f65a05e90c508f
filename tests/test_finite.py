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
"""

from __future__ import annotations

from fractions import Fraction as Q

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
from superroots.linalg import rank
from superroots.roots import eps_delta_basis

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
    assert len(rs.members) == count  # no duplicates survive normalisation
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
        for r in rs.roots:
            assert -r in rs


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
    assert rs.members == expected
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
        assert Root((Q(0), Q(0))) in c.members


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
