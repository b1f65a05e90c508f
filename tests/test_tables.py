"""Unit tests for the reference classification predicates and errata records."""

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from superroots import (
    Root,
    build_affine,
    classification_report,
    discrepancies,
    golden_classification,
    parse_type_token,
    root,
)
from superroots.tables import printed_classification

TABULATED = ["A,2,1", "A,1,1", "A,2,2", "B,1,1", "B,2,1", "C,2", "C,3",
             "D,2,1", "D,1,1", "D21L", "F4", "G3"]


@pytest.mark.parametrize("token", TABULATED)
def test_runtime_matches_golden_tables(token):
    system = build_affine(parse_type_token(token))
    assert classification_report(system, 4) == []


def test_report_flags_planted_mismatch():
    """Sanity check that the comparator can actually fail, and that it names
    every window root of the offending line, kind before parity."""
    system = build_affine(parse_type_token("B,1,1"))
    entries = list(system.line_entries)
    pos = system.entry(root(0, 1)).pos  # d1
    assert entries[pos].parity == "odd"
    # plant the mismatch in the line's entry: its parity everywhere, its kind at k = 0
    entries[pos] = entries[pos]._replace(parity="even", kind0="nonsingular")
    vars(system)["line_entries"] = tuple(entries)
    problems = classification_report(system, 2)
    assert problems == [
        "d1-2d: parity even != odd",
        "d1-d: parity even != odd",
        "d1: kind nonsingular != real",
        "d1: parity even != odd",
        "d1+d: parity even != odd",
        "d1+2d: parity even != odd",
    ]


def test_golden_sets_partition_lines():
    for token in TABULATED:
        tid = parse_type_token(token)
        g = golden_classification(tid)
        assert not (g.real & g.ns)
        assert not (g.even & g.odd)
        assert g.real | g.ns == g.even | g.odd


def test_no_discrepancies_for_consistent_families():
    for token in ("A,2,1", "B,1,1", "B,2,1", "D,2,1", "D21L", "F4"):
        assert discrepancies(parse_type_token(token)) == ()


def test_single_epsilon_discrepancies():
    """The one-parameter family's printed rows list a phantom doubled vector
    and overshoot one index bound."""
    out = discrepancies(parse_type_token("C,2"))
    assert len(out) == 3
    by_key = {(d.table, d.column): d for d in out}
    e1_doubled = root(1, 0).scale(2)
    kind_real = by_key[("kind", "real")]
    assert set(kind_real.printed_only) == {e1_doubled, -e1_doubled}
    assert kind_real.corrected_only == ()
    assert kind_real.note != ""
    parity_even = by_key[("parity", "even")]
    assert set(parity_even.printed_only) == {e1_doubled, -e1_doubled}
    assert parity_even.note != ""
    # the index-bound slip is textual only: no vector difference to show
    kind_ns = by_key[("kind", "ns")]
    assert kind_ns.printed_only == () and kind_ns.corrected_only == ()
    assert "bound" in kind_ns.note


def test_norm_minus_two_exceptional_swap():
    """Two line families are swapped between columns in the printed rows."""
    out = discrepancies(parse_type_token("G3"))
    assert len(out) == 4
    by_key = {(d.table, d.column): d for d in out}
    es = [root(*[1 if i == j else 0 for j in range(3)], 0) for i in range(3)]
    nu = root(0, 0, 0, 1)
    longs = set()
    for (i, j, t) in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        v = es[i].scale(2) - es[j] - es[t]
        longs |= {v, -v}
    nu_diffs = set()
    for i in range(3):
        for j in range(3):
            if i != j:
                v = nu + es[i] - es[j]
                nu_diffs |= {v, -v}
    assert set(by_key[("kind", "real")].printed_only) == nu_diffs
    assert set(by_key[("kind", "real")].corrected_only) == longs
    assert set(by_key[("kind", "ns")].printed_only) == longs
    assert set(by_key[("kind", "ns")].corrected_only) == nu_diffs
    assert set(by_key[("parity", "even")].printed_only) == nu_diffs
    assert set(by_key[("parity", "odd")].printed_only) == longs
    for d in out:
        assert "swapped" in d.note


def test_equal_block_parity_bound():
    """The printed parity rows stop one index short for the equal-block family."""
    out = discrepancies(parse_type_token("A,1,1"))
    assert {(d.table, d.column) for d in out} == {("parity", "even"), ("parity", "odd")}
    by_key = {(d.table, d.column): d for d in out}
    even = by_key[("parity", "even")]
    assert even.printed_only == ()
    assert len(even.corrected_only) == 4  # all four even difference lines
    odd = by_key[("parity", "odd")]
    assert len(odd.corrected_only) == 6  # sigma-lines beyond the printed bound
    for d in out:
        assert "one short" in d.note


def test_printed_variant_differs_only_where_recorded():
    for token in TABULATED:
        tid = parse_type_token(token)
        g = golden_classification(tid)
        p = printed_classification(tid)
        recorded = {(d.table, d.column) for d in discrepancies(tid)
                    if d.printed_only or d.corrected_only}
        actual = set()
        for table, col in (("kind", "real"), ("kind", "ns"),
                           ("parity", "even"), ("parity", "odd")):
            if getattr(g, "ns" if col == "ns" else col) != getattr(p, "ns" if col == "ns" else col):
                actual.add((table, col))
        assert actual == recorded


def test_golden_rejects_untabulated():
    from superroots import RankError

    with pytest.raises(RankError):
        golden_classification(parse_type_token("BC,1,1"))
    with pytest.raises(RankError):
        golden_classification(parse_type_token("C,1,1"))
