"""Unit tests for simple-system extraction and expansions.

Oracle: for every family tested, each lexicographically positive vector
must be a nonnegative integer combination of the extracted simple roots,
the number of simple roots must equal the span rank, and the dominant
root must bound all positive expansions coordinatewise.
"""

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from superroots import (
    BasisMismatch,
    DependentRoots,
    NotAFiniteRootSystem,
    OutsideSpan,
    build_finite,
    expand_in_base,
    find_base,
    highest_root,
    integer_expansion,
    parse_type_token,
    root,
)
from superroots import basefind
from superroots.affine import build_affine
from superroots.basefind import is_lex_positive, positive_roots
from superroots.subsets import decompose, even_subset

TOKENS = ["A,2,1", "A,1,1", "A,2,2", "B,1,1", "B,2,1", "B,1,2",
          "C,1,1", "C,2,2", "D,2,1", "D,2,2", "BC,1,1",
          "C,2", "C,3", "D21L", "F4", "G3"]


def test_lex_positivity_splits_nonzero_vectors():
    for token in TOKENS:
        rs = build_finite(parse_type_token(token))
        pos = positive_roots(rs)
        assert len(pos) * 2 == len(rs.nonzero)
        for r in pos:
            assert not is_lex_positive(-r)


@pytest.mark.parametrize("token", TOKENS)
def test_base_generates_positives_with_nonnegative_integers(token):
    rs = build_finite(parse_type_token(token))
    base = find_base(rs)
    assert len(base) == rs.span_rank
    for r in positive_roots(rs):
        coeffs = integer_expansion(base, r)
        assert all(c >= 0 for c in coeffs)
        assert any(c > 0 for c in coeffs)
    # base members expand as unit vectors
    for i, b in enumerate(base):
        cf = integer_expansion(base, b)
        assert cf == tuple(1 if j == i else 0 for j in range(len(base)))


def test_base_is_deterministic():
    for token in ("B,1,1", "D21L", "F4"):
        rs = build_finite(parse_type_token(token))
        assert find_base(rs) == find_base(rs)


def test_b11_base_explicitly():
    rs = build_finite(parse_type_token("B,1,1"))
    base = find_base(rs)
    # positives: e1, e1+-d1, d1-ish... simple ones are e1-d1 and d1
    assert set(base) == {root(1, -1), root(0, 1)}


def test_d21l_base_explicitly():
    rs = build_finite(parse_type_token("D21L"))
    base = find_base(rs)
    g = lambda *cs: root(*cs)
    # lexicographic positives are generated by g1-g2-g3, 2g2, 2g3
    assert set(base) == {g(1, -1, -1), g(0, 2, 0), g(0, 0, 2)}


def test_expand_in_base():
    base = (root(1, -1), root(0, 1))
    assert expand_in_base(base, root(1, 1)) == (Q(1), Q(2))
    assert expand_in_base(base, root(1, 0)) == (Q(1), Q(1))
    assert expand_in_base(base, root(0, 0)) == (Q(0), Q(0))
    assert expand_in_base((), root(1, 0)) is None
    # outside the span
    short = (root(1, 0, 0),)
    assert expand_in_base(short, root(0, 1, 0)) is None


def test_integer_expansion_errors():
    base = (root(2, 0), root(0, 1))
    with pytest.raises(NotAFiniteRootSystem):
        integer_expansion(base, root(1, 0))
    with pytest.raises(BasisMismatch):
        integer_expansion((root(1, 0, 0),), root(0, 1, 0))
    with pytest.raises(OutsideSpan):
        integer_expansion((root(1, 0, 0),), root(0, 1, 0))


def test_expansion_over_dependent_roots_raises():
    # over (e1, 2e1) the expansion of e1 is not unique
    with pytest.raises(DependentRoots):
        expand_in_base((root(1, 0), root(2, 0)), root(1, 0))


def test_highest_root_examples():
    rs = build_finite(parse_type_token("B,1,1"))
    top, coeffs = highest_root(rs)
    assert top == root(1, 1)  # e1+d1 = 2*d1 + (e1-d1)
    # base is sorted by key: (d1, e1-d1) -> coefficients follow that order
    base = find_base(rs)
    assert coeffs == (2, 1)
    assert top == sum((b.scale(c) for b, c in zip(base, coeffs)), root(0, 0))
    assert sum(coeffs) == max(
        sum(integer_expansion(base, r)) for r in positive_roots(rs)
    )


def test_highest_root_dominates_everywhere():
    for token in ("B,1,1", "B,2,1", "D21L", "F4", "G3", "C,2"):
        rs = build_finite(parse_type_token(token))
        base = find_base(rs)
        top, coeffs = highest_root(rs, base)
        for r in positive_roots(rs):
            cf = integer_expansion(base, r)
            assert all(c <= t for c, t in zip(cf, coeffs))


def test_highest_root_rejects_reducible():
    from superroots import FiniteRootSet, FiniteTypeId, Root
    from superroots.roots import eps_delta_basis

    basis = eps_delta_basis(1, 1)
    e1, dd = root(1, 0), root(0, 2)
    members = (Root((Q(0), Q(0))), e1, -e1, dd, -dd)
    rs = FiniteRootSet(FiniteTypeId("PURE"), basis,
                       tuple(sorted(members, key=lambda r: r.key())),
                       frozenset(), "adhoc")
    with pytest.raises(NotAFiniteRootSystem):
        highest_root(rs)


@pytest.mark.parametrize("token, index, positives", [("G3", 1, 6), ("F4", 2, 9)])
def test_highest_root_factors_its_base_once(token, index, positives, monkeypatch):
    """Each positive root is one solve against a single factorisation of the base."""
    system = build_affine(parse_type_token(token))
    comp = decompose(system, even_subset(system), kmax=6).components[index - 1]
    assert len(positive_roots(comp.dot)) == positives
    calls = []
    factor = basefind.factor
    monkeypatch.setattr(basefind, "factor", lambda a: calls.append(a) or factor(a))
    highest_root(comp.dot)
    assert len(calls) == 1
