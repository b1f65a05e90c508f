"""Unit tests for the loop extensions (delta ladders over the finite sets)."""

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from superroots import (
    EVEN,
    AffineRootSystem,
    FiniteRootSet,
    KIND_IMAGINARY,
    KIND_NONSINGULAR,
    KIND_REAL,
    KIND_ZERO,
    ODD,
    NotARoot,
    NotRealRoot,
    RankError,
    Root,
    build_affine,
    classification_report,
    parse_type_token,
    root,
)
from superroots.cli import main


def aff(token: str, lam=None):
    return build_affine(parse_type_token(token), lam)


def test_delta_and_zero():
    s = aff("B,1,1")
    assert s.delta == root(0, 0, k=1)
    assert s.zero_root == root(0, 0)
    assert s.delta in s
    assert s.zero_root in s
    assert s.classify(s.zero_root) == KIND_ZERO
    for k in (-3, -1, 1, 2, 7):
        assert s.classify(s.delta.scale(k)) == KIND_IMAGINARY
        assert s.parity(s.delta.scale(k)) == EVEN


def test_membership_ladder():
    s = aff("B,1,1")
    e1 = root(1, 0)
    d1 = root(0, 1)
    for k in range(-4, 5):
        assert e1.shift(k) in s
        assert (e1 + d1).shift(k) in s
        assert d1.scale(2).shift(k) in s
    # vectors outside the finite family are never members
    assert root(2, 0) not in s
    assert root(1, 1).scale(2) not in s
    assert root(Q(1, 2), 0) not in s
    # sigma is locked to zero outside the equal-block family
    assert Root((Q(1), Q(0)), 0, 1) not in s
    assert root(0, 0, k=1, sigma=1) not in s


def test_wrong_dimension_is_not_member():
    s = aff("B,1,1")
    assert root(1, 0, 0) not in s
    with pytest.raises(NotARoot):
        s.classify(root(1, 0, 0))


def test_classification_constant_along_ladder():
    s = aff("D,2,1")
    cases = {
        root(1, -1, 0): KIND_REAL,
        root(0, 0, 2): KIND_REAL,
        root(1, 0, 1): KIND_NONSINGULAR,
        root(1, 0, -1): KIND_NONSINGULAR,
    }
    for f, kind in cases.items():
        for k in range(-3, 4):
            assert s.classify(f.shift(k)) == kind


def test_parity_examples():
    s = aff("B,1,1")
    assert s.parity(root(1, 0, k=5)) == EVEN
    assert s.parity(root(0, 1, k=-2)) == ODD
    assert s.parity(root(0, 2, k=3)) == EVEN
    assert s.parity(root(1, 1, k=0)) == ODD


def test_equal_block_sigma_small():
    """Block size 2: both sigma signs are allowed on every mixed line."""
    s = aff("A,1,1")
    v = s.canonicalize(root(1, 0, -1, 0))  # first mixed functional
    assert v.coords == (Q(1, 2), Q(-1, 2), Q(-1, 2), Q(1, 2))
    for sig in (1, -1):
        for k in (-2, 0, 3):
            assert Root(v.coords, k, sig) in s
            assert s.classify(Root(v.coords, k, sig)) == KIND_NONSINGULAR
            assert s.parity(Root(v.coords, k, sig)) == ODD
    assert Root(v.coords, 0, 0) not in s
    assert Root(v.coords, 0, 2) not in s
    # even lines carry no sigma
    w = root(1, -1, 0, 0)
    assert w in s
    assert Root(w.coords, 0, 1) not in s


def test_equal_block_sigma_large():
    """Block size 3: each mixed line carries exactly one sigma sign."""
    s = aff("A,2,2")
    raw = root(1, 0, 0, -1, 0, 0)
    v = s.canonicalize(raw)
    assert Root(v.coords, 0, 1) in s
    assert Root(v.coords, 0, -1) not in s
    assert Root((-v).coords, 0, -1) in s
    assert Root((-v).coords, 0, 1) not in s


def test_equal_block_canonicalize_projects():
    s = aff("A,1,1")
    raw = root(1, 0, -1, 0, k=2, sigma=1)
    c = s.canonicalize(raw)
    assert sum(c.coords[:2], Q(0)) == 0
    assert sum(c.coords[2:], Q(0)) == 0
    assert (c.k, c.sigma) == (2, 1)
    assert raw in s  # membership works on unprojected input


def test_single_epsilon_alias():
    """The m=1 even-orthogonal mix is exposed under the one-parameter name."""
    s = build_affine(parse_type_token("D,1,2"))
    assert s.token == "C,3"
    assert s.type_id == parse_type_token("C,3")
    assert build_affine(parse_type_token("C,3")).token == "C,3"


def test_families_without_loop_extension():
    with pytest.raises(RankError):
        aff("S,2")


def test_lambda_rational_mode():
    s = aff("D21L", Q(1, 2))
    assert s.lambda_mode == "rational:1/2"
    g1 = root(1, 0, 0)
    assert s.finite.norm(g1.scale(2)).const == Q(2)  # 4 * (1/2)
    assert s.classify(g1.scale(2)) == KIND_REAL
    assert s.classify(root(1, 1, 1)) == KIND_NONSINGULAR
    with pytest.raises(ValueError):
        aff("D21L", Q(0))
    with pytest.raises(ValueError):
        aff("D21L", Q(-1))


def test_lambda_symbolic_mode():
    s = aff("D21L")
    assert s.lambda_mode == "symbolic"
    assert s.classify(root(0, 2, 0)) == KIND_REAL
    assert s.classify(root(1, -1, 1)) == KIND_NONSINGULAR


def test_cartan_and_reflect():
    s = aff("B,1,1")
    e1 = root(1, 0)
    d1 = root(0, 1)
    assert s.cartan(e1, d1) == 0
    assert s.cartan(d1.scale(2), d1) == 4
    assert s.cartan(s.delta, e1) == 0
    assert s.reflect(e1, e1) == -e1
    assert s.reflect(e1.shift(3), e1) == (-e1).shift(3)
    assert s.reflect(s.delta, d1) == s.delta
    # reflection in an affine real root: r = d1 + delta
    alpha = d1.shift(1)
    img = s.reflect(d1, alpha)
    assert img in s
    assert img == d1 - alpha.scale(s.cartan(d1, alpha))


def test_cartan_rejects_non_real():
    s = aff("B,1,1")
    with pytest.raises(NotRealRoot):
        s.cartan(root(1, 0), s.delta)
    with pytest.raises(NotRealRoot):
        s.reflect(root(1, 0), root(1, 1))


def test_reflection_stays_inside_system():
    s = aff("D,2,1")
    window = s.window(2)
    reals = [r for r in window if s.classify(r) == KIND_REAL]
    for alpha in reals[:20]:
        for beta in window[:60]:
            assert s.reflect(beta, alpha) in s


def test_class_reps():
    s = aff("B,1,1")
    e1 = root(1, 0)
    rep, side = s.class_rep(e1.shift(3))
    assert rep == -e1  # lexicographically smaller coordinate tuple
    assert side == -1
    rep2, side2 = s.class_rep((-e1).shift(-2))
    assert (rep2, side2) == (-e1, 1)
    with pytest.raises(NotRealRoot):
        s.class_rep(root(1, 1))
    # every real class rep is its own canonical form
    for rep in s.real_class_reps:
        r, side = s.class_rep(rep)
        assert (r, side) == (rep, 1)


def test_lines_and_window_counts():
    s = aff("B,1,1")
    assert len(s.lines) == 11  # 10 nonzero lines + zero line
    assert len(s.window(2)) == 11 * 5
    assert len(s.window(0)) == 11
    ann = aff("A,1,1")
    # 4 even lines + 4 mixed lines with two sigma signs each + zero line
    assert len(ann.lines) == 13


def test_window_is_sorted_and_deterministic():
    s = aff("D21L")
    w1 = s.window(3)
    w2 = s.window(3)
    assert w1 == w2
    assert list(w1) == sorted(w1, key=lambda r: r.key())


def test_export_shape():
    s = aff("B,1,1")
    data = s.export(1)
    assert data["type"] == "B,1,1"
    assert data["ranks"] == [1, 1]
    assert data["lambda_mode"] == "symbolic"
    assert len(data["roots"]) == 33
    entry = data["roots"][0]
    assert set(entry) == {"coords", "k", "sigma", "kind", "parity"}
    # deterministic double export
    assert s.export(1) == data


def test_export_gives_each_root_its_own_coords():
    data = aff("A,1,1").export(1)
    first, second = data["roots"][0], data["roots"][1]
    assert first["coords"] == second["coords"] and first["coords"] is not second["coords"]
    first["coords"]["e1"] = "7"
    assert second["coords"]["e1"] != "7"


@pytest.mark.parametrize("token", ["A,1,1", "B,2,1", "F4"])
def test_window_reports_classify_each_line_once(token, monkeypatch, capsys):
    # the reports read one entry per line, so the finite kinds and affine
    # classifications they ask for do not grow with the window
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(FiniteRootSet, "kind", counted(FiniteRootSet.kind))
    monkeypatch.setattr(AffineRootSystem, "classify", counted(AffineRootSystem.classify))

    def counts(kmax):
        out = []
        for report in (
            lambda: classification_report(aff(token), kmax),
            lambda: aff(token).export(kmax),
            lambda: main(["build", "--type", token, "--window", str(kmax)]),
        ):
            calls.clear()
            report()
            out.append((calls.count("kind"), calls.count("classify")))
        return out

    small, large = counts(2), counts(10)
    assert small == large
    lines = len(aff(token).lines)
    assert all(kinds <= lines and classified == 0 for kinds, classified in small)
    capsys.readouterr()


@pytest.mark.parametrize(
    "token, lam", [("B,1,1", None), ("F4", None), ("G3", None), ("D21L", Q(5, 3)), ("A,2,2", None)]
)
def test_cold_line_table_sorts_and_hashes_no_root(token, lam, monkeypatch):
    # the finite members are built, sorted and looked up as integer tuples,
    # sigma options included, so a cold build and its line table never read
    # Root.key or hash a Root; the Root is only the boundary
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("key", "__hash__"):
        monkeypatch.setattr(Root, name, counted(getattr(Root, name)))
    s = aff(token, lam)
    s.lines, s.line_entries
    window = list(s.window_entries(2))
    assert calls == []
    assert len(window) == 5 * len(s.lines)
    # the counters do see a direct call
    hash(s.lines[0]), s.lines[0].key()
    assert calls == ["__hash__", "key"]


def test_format():
    s = aff("B,1,1")
    assert s.format(root(1, -1, k=2)) == "e1-d1+2d"
    assert s.format(s.delta) == "d"
