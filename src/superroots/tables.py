"""Reference classification predicates for the loop families.

Two variants are kept for each family: the ``golden`` variant, which is
consistent with the bilinear form and the grading conventions used by the
builders, and the ``printed`` variant, which reproduces a published
tabulation verbatim.  The two differ in a few places; those differences
are surfaced as :class:`Discrepancy` records (reported, never silently
patched).  All predicates here are written as independent literal loops,
so they can serve as oracles for the runtime classification.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import product

from .errors import RankError
from .finite import FiniteTypeId, ann_block_traceless, block_units
from .roots import Root, d21_basis, f4_basis, g3_basis


@dataclass(frozen=True)
class LineClassification:
    """Nonzero line identifiers by kind and parity (zero line implied)."""

    real: frozenset
    ns: frozenset
    even: frozenset
    odd: frozenset


@dataclass(frozen=True)
class Discrepancy:
    type_token: str
    table: str  # "kind" or "parity"
    column: str
    printed_only: tuple
    corrected_only: tuple
    note: str = ""


def _pm(vectors) -> set:
    out = set()
    for v in vectors:
        out.add(v)
        out.add(-v)
    return out


def _a_lines(m: int, n: int) -> LineClassification:
    _, es, ds = block_units(m + 1, n + 1)
    real = set()
    for i in range(m + 1):
        for r in range(m + 1):
            if i != r:
                real.add(es[i] - es[r])
    for j in range(n + 1):
        for s in range(n + 1):
            if j != s:
                real.add(ds[j] - ds[s])
    ns = _pm(es[i] - ds[j] for i in range(m + 1) for j in range(n + 1))
    return LineClassification(frozenset(real), frozenset(ns), frozenset(real), frozenset(ns))


def _ann_lines(n: int, block: int) -> LineClassification:
    """Equal-block lines with explicit sigma; ``block`` bounds the indices."""
    nb = n + 1
    basis, es, ds = block_units(nb, nb)
    real = set()
    for i in range(block):
        for j in range(block):
            if i != j:
                real.add(es[i] - es[j])
                real.add(ds[i] - ds[j])
    ns = set()
    for i in range(block):
        for j in range(block):
            v = ann_block_traceless(basis, es[i] - ds[j])
            ns.add(Root(v.coords, 0, 1))
            ns.add(Root((-v).coords, 0, -1))
    return LineClassification(frozenset(real), frozenset(ns), frozenset(real), frozenset(ns))


def _b_lines(m: int, n: int) -> LineClassification:
    _, es, ds = block_units(m, n)
    real = set(_pm(es))
    for i in range(m):
        for r in range(i + 1, m):
            real |= _pm((es[i] + es[r], es[i] - es[r]))
    real |= _pm(ds)
    real |= _pm(d.scale(Q(2)) for d in ds)
    for j in range(n):
        for s in range(j + 1, n):
            real |= _pm((ds[j] + ds[s], ds[j] - ds[s]))
    ns = set()
    for i in range(m):
        for j in range(n):
            ns |= _pm((es[i] + ds[j], es[i] - ds[j]))
    odd = set(_pm(ds))
    odd |= ns
    even = (real | ns) - odd
    return LineClassification(frozenset(real), frozenset(ns), frozenset(even), frozenset(odd))


def _cn_lines(n: int, printed: bool) -> LineClassification:
    basis, es, ds = block_units(1, n - 1)
    real = set(_pm(d.scale(Q(2)) for d in ds))
    for j in range(n - 1):
        for s in range(j + 1, n - 1):
            real |= _pm((ds[j] + ds[s], ds[j] - ds[s]))
    if printed:
        real |= _pm([es[0].scale(Q(2))])
    ns = set()
    for j in range(n - 1):
        ns |= _pm((es[0] + ds[j], es[0] - ds[j]))
    even = set(real)
    odd = set(ns)
    return LineClassification(frozenset(real), frozenset(ns), frozenset(even), frozenset(odd))


def _d_lines(m: int, n: int) -> LineClassification:
    _, es, ds = block_units(m, n)
    real = set()
    for i in range(m):
        for r in range(i + 1, m):
            real |= _pm((es[i] + es[r], es[i] - es[r]))
    real |= _pm(d.scale(Q(2)) for d in ds)
    for j in range(n):
        for s in range(j + 1, n):
            real |= _pm((ds[j] + ds[s], ds[j] - ds[s]))
    ns = set()
    for i in range(m):
        for j in range(n):
            ns |= _pm((es[i] + ds[j], es[i] - ds[j]))
    return LineClassification(frozenset(real), frozenset(ns), frozenset(real), frozenset(ns))


def _f4_lines() -> LineClassification:
    basis = f4_basis()
    e = basis.unit(0)
    ds = [basis.unit(1 + i) for i in range(3)]
    real = set(_pm([e]))
    real |= _pm(ds)
    for i in range(3):
        for j in range(i + 1, 3):
            real |= _pm((ds[i] + ds[j], ds[i] - ds[j]))
    ns = set()
    for s1, s2, s3 in product((Q(1), Q(-1)), repeat=3):
        half = (e + ds[0].scale(s1) + ds[1].scale(s2) + ds[2].scale(s3)).scale(Q(1, 2))
        ns |= _pm([half])
    return LineClassification(frozenset(real), frozenset(ns), frozenset(real), frozenset(ns))


def _g3_lines(printed: bool) -> LineClassification:
    basis = g3_basis()
    es = [basis.unit(i) for i in range(3)]
    nu = basis.unit(3)
    diffs = [es[i] - es[j] for i in range(3) for j in range(3) if i != j]
    longs = [es[i].scale(Q(2)) - es[j] - es[t] for (i, j, t) in ((0, 1, 2), (1, 0, 2), (2, 0, 1))]
    nu_diffs = [nu + d for d in diffs]
    base_real = set(_pm([nu, nu.scale(Q(2))])) | set(diffs)
    if printed:
        real = base_real | _pm(nu_diffs)
        ns = _pm(longs)
        even = set(_pm([nu.scale(Q(2))])) | set(diffs) | _pm(nu_diffs)
        odd = _pm([nu]) | _pm(longs)
    else:
        real = base_real | _pm(longs)
        ns = _pm(nu_diffs)
        even = set(_pm([nu.scale(Q(2))])) | set(diffs) | _pm(longs)
        odd = _pm([nu]) | _pm(nu_diffs)
    return LineClassification(frozenset(real), frozenset(ns), frozenset(even), frozenset(odd))


def _d21l_lines() -> LineClassification:
    basis = d21_basis()
    gs = [basis.unit(i) for i in range(3)]
    real = _pm(g.scale(Q(2)) for g in gs)
    ns = set()
    for s2, s3 in product((Q(1), Q(-1)), repeat=2):
        v = gs[0] + gs[1].scale(s2) + gs[2].scale(s3)
        ns |= _pm([v])
    return LineClassification(frozenset(real), frozenset(ns), frozenset(real), frozenset(ns))


def golden_classification(type_id: FiniteTypeId) -> LineClassification:
    fam = type_id.family
    if fam == "A":
        return _a_lines(type_id.m, type_id.n)
    if fam == "ANN":
        return _ann_lines(type_id.n, type_id.n + 1)
    if fam == "B":
        return _b_lines(type_id.m, type_id.n)
    if fam == "CN":
        return _cn_lines(type_id.n, printed=False)
    if fam == "D":
        return _d_lines(type_id.m, type_id.n)
    if fam == "F4":
        return _f4_lines()
    if fam == "G3":
        return _g3_lines(printed=False)
    if fam == "D21L":
        return _d21l_lines()
    raise RankError(f"no tabulated classification for {type_id.token}")


def printed_classification(type_id: FiniteTypeId) -> LineClassification:
    fam = type_id.family
    if fam == "CN":
        return _cn_lines(type_id.n, printed=True)
    if fam == "G3":
        return _g3_lines(printed=True)
    if fam == "ANN":
        golden = _ann_lines(type_id.n, type_id.n + 1)
        narrowed = _ann_lines(type_id.n, type_id.n)  # parity row stops one index early
        return LineClassification(golden.real, golden.ns, narrowed.even, narrowed.odd)
    return golden_classification(type_id)


def discrepancies(type_id: FiniteTypeId) -> tuple[Discrepancy, ...]:
    """Set differences between the printed and golden predicates."""
    golden = golden_classification(type_id)
    printed = printed_classification(type_id)
    token = type_id.token
    notes = {
        ("CN", "kind", "real"): "a doubled first-block vector is listed that the family does not contain",
        ("CN", "kind", "ns"): "the printed index bound exceeds the second block size by one",
        ("CN", "parity", "even"): "a doubled first-block vector is listed that the family does not contain",
        ("G3", "kind", "real"): "two line families are swapped between the real and nonsingular columns",
        ("G3", "kind", "ns"): "two line families are swapped between the real and nonsingular columns",
        ("G3", "parity", "even"): "the same two line families are swapped between the parity columns",
        ("G3", "parity", "odd"): "the same two line families are swapped between the parity columns",
        ("ANN", "parity", "even"): "the printed index bound stops one short of the block size",
        ("ANN", "parity", "odd"): "the printed index bound stops one short of the block size",
    }
    out = []
    for table, col in (("kind", "real"), ("kind", "ns"), ("parity", "even"), ("parity", "odd")):
        g = getattr(golden, col)
        p = getattr(printed, col)
        if g == p:
            continue
        out.append(
            Discrepancy(
                token,
                table,
                col,
                tuple(sorted(p - g, key=lambda r: r.key())),
                tuple(sorted(g - p, key=lambda r: r.key())),
                notes.get((type_id.family, table, col), ""),
            )
        )
    # the CN nonsingular bound slip involves a symbol outside the ambient
    # basis, so it cannot appear as a vector difference; record it textually.
    if type_id.family == "CN":
        out.append(
            Discrepancy(token, "kind", "ns", (), (), notes[("CN", "kind", "ns")])
        )
    return tuple(out)


def classification_report(system, kmax: int) -> list[str]:
    """Compare runtime classification against the golden predicates.

    Returns human-readable mismatch lines; an empty list means the window
    agrees exactly (same members, same kinds, same parities).
    """
    from .roots import KIND_IMAGINARY, KIND_NONSINGULAR, KIND_REAL, KIND_ZERO, EVEN, ODD

    golden = golden_classification(system.type_id)
    problems: list[str] = []
    zero_line = system.zero_root
    expected_lines = {zero_line} | set(golden.real) | set(golden.ns)
    actual_lines = set(system.lines)
    for extra in sorted(actual_lines - expected_lines, key=lambda r: r.key()):
        problems.append(f"unexpected line {system.format(extra)}")
    for missing in sorted(expected_lines - actual_lines, key=lambda r: r.key()):
        problems.append(f"missing line {system.format(missing)}")
    if problems:
        return problems
    for r in system.window(kmax):
        line = Root(r.coords, 0, r.sigma)
        if line == zero_line:
            want_kind = KIND_ZERO if r.k == 0 else KIND_IMAGINARY
            want_parity = EVEN
        elif line in golden.real:
            want_kind, want_parity = KIND_REAL, (EVEN if line in golden.even else ODD)
        else:
            want_kind, want_parity = KIND_NONSINGULAR, (EVEN if line in golden.even else ODD)
        got_kind = system.classify(r)
        got_parity = system.parity(r)
        if got_kind != want_kind:
            problems.append(f"{system.format(r)}: kind {got_kind} != {want_kind}")
        if got_parity != want_parity:
            problems.append(f"{system.format(r)}: parity {got_parity} != {want_parity}")
    return problems
