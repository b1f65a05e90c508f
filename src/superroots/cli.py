"""Command-line front end.

Subcommands
-----------
build            text summary of an affine system (basis, lines, window counts)
classify         compare every windowed root's kind/parity with the stored tables
axioms           run the six finite-system axioms on a finite type
shadow-validate  check a shadow colouring against the sum and scale laws
decompose        split the even part of an affine system into loop components
zeta             run a named hybrid scenario end to end and verify the functional
tables           print the stored kind/parity tables and source discrepancies
export           machine-readable JSON dump of a windowed system

Exit codes: 0 = success / all checks pass, 1 = violations found,
2 = usage error.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction as Q

from .affine import AffineRootSystem, build_affine
from .errors import (
    HypothesisViolated,
    NotAFiniteRootSystem,
    NotAShadowPattern,
    RankError,
    SuperrootsError,
)
from .finite import build_finite, check_supersystem_axioms, parse_type_token
from .roots import Root
from .shadows import (
    DOWN,
    FULL_IN,
    FULL_LN,
    TIGHT,
    UP,
    Shadow,
    anchored_class,
    validate_shadow,
)
from .subsets import check_parabolic, component_parabolic, decompose, even_subset
from .tables import classification_report, discrepancies, golden_classification
from .zeta import construct_zeta, hybrid_assignment_shadows, verify_zeta

_INTEGER = re.compile(r"-?[0-9]+")  # int() would also take "+1", "0_0" and " 1"
_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?\*?([a-zA-Z][a-zA-Z0-9]*)")


def parse_root_expr(system: AffineRootSystem, text: str) -> Root:
    """Parse expressions like ``e1-d1+2d`` (``d`` = delta, ``s`` = sigma)."""
    s = text.replace(" ", "").replace("−", "-")
    dim = system.basis.dim
    coords = [Q(0)] * dim
    k = Q(0)
    sigma = Q(0)
    if s == "0":
        return system.zero_root
    pos = 0
    for m in _TERM.finditer(s):
        if m.start() != pos:
            raise ValueError(f"cannot parse {text!r} near {s[pos:]!r}")
        pos = m.end()
        sign = Q(-1) if m.group(1) == "-" else Q(1)
        coeff = sign * (Q(m.group(2)) if m.group(2) else Q(1))
        sym = m.group(3)
        if sym == "d":
            k += coeff
        elif sym == "s":
            sigma += coeff
        elif sym in system.basis.symbols:
            coords[system.basis.symbols.index(sym)] += coeff
        else:
            raise ValueError(f"unknown symbol {sym!r} in {text!r}")
    if pos != len(s):
        raise ValueError(f"cannot parse {text!r} near {s[pos:]!r}")
    if k.denominator != 1 or sigma.denominator != 1:
        raise ValueError(f"{text!r}: delta and sigma multiplicities must be integers")
    return system.canonicalize(Root(tuple(coords), int(k), int(sigma)))


def _window(text: str) -> int:
    """The type of every ``--window``: an integer K >= 0."""
    try:
        k = int(text)
    except ValueError:
        k = -1
    if k < 0:
        raise argparse.ArgumentTypeError(f"expects an integer K >= 0, got {text!r}")
    return k


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--type", required=True, help="type token, e.g. B,1,1 or d21l")
    sub.add_argument("--window", type=_window, default=5, help="delta window |k| <= K (default 5)")
    sub.add_argument(
        "--lambda",
        dest="lam",
        default="symbolic",
        help="parameter for the one-parameter family: 'symbolic' or p/q not in {0,-1}",
    )


def _lambda_value(parser: argparse.ArgumentParser, text: str) -> Q | None:
    if text == "symbolic":
        return None
    try:
        value = Q(text)
    except (ValueError, ZeroDivisionError):
        parser.error(f"--lambda expects 'symbolic' or a rational p/q, got {text!r}")
    if value in (Q(0), Q(-1)):
        parser.error("--lambda must avoid 0 and -1")
    return value


def _affine(parser: argparse.ArgumentParser, args) -> AffineRootSystem:
    try:
        type_id = parse_type_token(args.type)
        return build_affine(type_id, lambda_value=_lambda_value(parser, args.lam))
    except (RankError, ValueError) as exc:
        parser.error(str(exc))


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {output}")
    else:
        print(text)


def _fmt_roots(system: AffineRootSystem, roots) -> str:
    return ", ".join(system.format(r) for r in sorted(roots, key=lambda r: r.key()))


def _cmd_build(parser, args) -> int:
    system = _affine(parser, args)
    kmax = args.window
    counts = {"zero": 0, "imaginary": 0, "real": 0, "nonsingular": 0}
    parity = {"even": 0, "odd": 0}
    for r, e in system.window_entries(kmax):
        counts[e.kind_at(r.k)] += 1
        parity[e.parity] += 1
    lines = [
        f"system: {system.token}",
        f"lambda mode: {system.lambda_mode}",
        "basis: "
        + ", ".join(
            f"{sym} (norm {system.basis.norm(system.basis.unit(i))})"
            for i, sym in enumerate(system.basis.symbols)
        ),
        f"lines: {len(system.lines)} (including the imaginary line)",
        f"window |k| <= {kmax}: "
        + ", ".join(f"{counts[k]} {k}" for k in ("zero", "imaginary", "real", "nonsingular"))
        + f"; {parity['even']} even, {parity['odd']} odd",
    ]
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_classify(parser, args) -> int:
    system = _affine(parser, args)
    try:
        problems = classification_report(system, args.window)
    except RankError as exc:
        parser.error(str(exc))
    if problems:
        _emit("\n".join(problems), args.output)
        return 1
    _emit(f"classification OK: {system.token}, window |k| <= {args.window}", args.output)
    return 0


def _cmd_axioms(parser, args) -> int:
    try:
        type_id = parse_type_token(args.type)
        rs = build_finite(type_id)
    except (RankError, ValueError) as exc:
        parser.error(str(exc))
    report = check_supersystem_axioms(rs)
    _emit(f"type: {args.type}\n{report}", args.output)
    return 0 if report.passed else 1


def _uniform_config(spec: str) -> dict:
    parts = spec.split(",")
    family = parts[0]
    if family in (FULL_LN, FULL_IN):
        return {"family": family}
    if family == TIGHT and len(parts) == 3:
        return {"family": TIGHT, "plus": parts[1], "minus": parts[2]}
    if family in (UP, DOWN) and len(parts) == 3 and all(map(_INTEGER.fullmatch, parts[1:])):
        return {"family": family, "m": int(parts[1]), "t": int(parts[2])}
    raise ValueError(
        f"bad pattern spec {spec!r}; use full_ln, full_in, tight,<ln|in>,<ln|in>, "
        "or up|down,<m>,<t>"
    )


def _cmd_shadow_validate(parser, args) -> int:
    system = _affine(parser, args)
    try:
        if args.config:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
            entries = data["classes"] if isinstance(data, dict) else None
            if not isinstance(entries, list) or not all(
                isinstance(e, dict) and isinstance(e.get("rep"), str) for e in entries
            ):
                raise NotAShadowPattern('expected {"classes": [{"rep": <root>, "config": {...}}, ...]}')
            classes = [
                anchored_class(system, parse_root_expr(system, e["rep"]), e["config"])
                for e in entries
            ]
        else:
            cfg = _uniform_config(args.uniform)
            classes = [anchored_class(system, rep, cfg) for rep in system.real_class_reps]
        shadow = Shadow.of(system, classes)
    except (OSError, KeyError, ValueError, SuperrootsError) as exc:
        parser.error(f"bad shadow configuration: {exc}")
    report = validate_shadow(shadow, args.window)
    out = {
        "shadow": shadow.config_json(),
        "window": args.window,
        "violations": [
            {
                "law": v.law,
                "alpha": system.format(v.alpha),
                "beta": system.format(v.beta) if v.beta is not None else None,
                "sum": system.format(v.target) if v.target is not None else None,
                "detail": v.detail,
            }
            for v in report.violations
        ],
    }
    _emit(json.dumps(out, indent=2), args.output)
    return 0 if report.passed else 1


def _cmd_decompose(parser, args) -> int:
    system = _affine(parser, args)
    try:
        dec = decompose(system, even_subset(system), kmax=args.window)
    except (HypothesisViolated, NotAFiniteRootSystem, SuperrootsError) as exc:
        print(f"decomposition failed: {exc}", file=sys.stderr)
        return 1
    out = {
        "system": system.token,
        "component_count": len(dec.components),
        "components": [
            {
                "index": comp.index,
                "vectors": [system.format(v) for v in comp.vectors],
                "lines": len(comp.subset.lines),
            }
            for comp in dec.components
        ],
    }
    _emit(json.dumps(out, indent=2), args.output)
    return 0


_SCENARIO_SYSTEMS = {"b11": "B,1,1", "d21l": "D21L"}
_CASE_PATTERNS = {
    "case1": lambda n: [(0, 1)] * n,
    "case2": lambda n: [(0, 0)] * n,
    "case3": lambda n: [(0, 0)] + [(0, 1)] * (n - 1),
    "case4": lambda n: [(0, 1)] + [(0, 0)] * (n - 1),
}


def scenario_names() -> list[str]:
    names = []
    for sys_key in sorted(_SCENARIO_SYSTEMS):
        for case in sorted(_CASE_PATTERNS):
            names.append(f"{sys_key}-{case}")
            names.append(f"{sys_key}-{case}-down")
    return names


def run_scenario(name: str, kmax: int):
    """Build, decompose, colour, and triangulate one named scenario.

    Returns (system, decomposition, parabolics, zeta result, problems).
    """
    parts = name.split("-")
    if len(parts) not in (2, 3) or parts[0] not in _SCENARIO_SYSTEMS or parts[1] not in _CASE_PATTERNS:
        raise ValueError(f"unknown scenario {name!r}; choose from {', '.join(scenario_names())}")
    direction = DOWN if len(parts) == 3 and parts[2] == "down" else UP
    if len(parts) == 3 and parts[2] != "down":
        raise ValueError(f"unknown scenario suffix {parts[2]!r}")
    system = build_affine(parse_type_token(_SCENARIO_SYSTEMS[parts[0]]))
    subset = even_subset(system)
    dec = decompose(system, subset, kmax=max(6, kmax))
    assignments = _CASE_PATTERNS[parts[1]](len(dec.components))
    table = hybrid_assignment_shadows(system, dec.components, assignments, direction)
    parabolics = tuple(
        component_parabolic(system, comp, table, direction) for comp in dec.components
    )
    result = construct_zeta(system, dec.components, parabolics, direction)
    problems = verify_zeta(result, subset, kmax, shadow=Shadow(system, table))
    for comp, P in zip(dec.components, parabolics):
        check = check_parabolic(P, comp.subset, kmax)
        if not check.is_parabolic:
            problems.append(f"component {comp.index}: not a parabolic subset of its lines")
        if not check.proper:
            problems.append(f"component {comp.index}: parabolic is not proper")
    return system, dec, parabolics, result, problems


def _cmd_zeta(parser, args) -> int:
    if args.list:
        _emit("\n".join(scenario_names()), args.output)
        return 0
    if not args.scenario:
        parser.error("--scenario NAME is required (or use --list)")
    try:
        system, _, _, result, problems = run_scenario(args.scenario, args.window)
    except (ValueError, SuperrootsError) as exc:
        parser.error(str(exc))
    payload = result.to_json(system)
    payload["violations"] = problems
    _emit(json.dumps(payload, indent=2), args.output)
    return 0 if not problems else 1


def _cmd_tables(parser, args) -> int:
    system = _affine(parser, args)
    type_id = system.type_id
    try:
        golden = golden_classification(type_id)
    except RankError as exc:
        parser.error(str(exc))
    lines = [
        f"type: {system.token}",
        "kind table (line representatives, corrected):",
        f"  real:        {_fmt_roots(system, golden.real)}",
        f"  nonsingular: {_fmt_roots(system, golden.ns)}",
        "parity table (line representatives, corrected):",
        f"  even: {_fmt_roots(system, golden.even)}",
        f"  odd:  {_fmt_roots(system, golden.odd)}",
    ]
    diffs = discrepancies(type_id)
    if diffs:
        lines.append("printed-source discrepancies:")
        for d in diffs:
            lines.append(f"  - [{d.table}/{d.column}] {d.note}")
            if d.printed_only:
                lines.append(f"      printed only:   {_fmt_roots(system, d.printed_only)}")
            if d.corrected_only:
                lines.append(f"      corrected only: {_fmt_roots(system, d.corrected_only)}")
    else:
        lines.append("printed-source discrepancies: none")
    problems = classification_report(system, args.window)
    if problems:
        lines.append(f"window check (|k| <= {args.window}): {len(problems)} mismatch(es)")
        lines.extend(f"  {p}" for p in problems)
    else:
        lines.append(f"window check (|k| <= {args.window}): OK")
    _emit("\n".join(lines), args.output)
    return 1 if problems else 0


def _cmd_export(parser, args) -> int:
    system = _affine(parser, args)
    _emit(json.dumps(system.export(args.window), indent=2), args.output)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser every ``main`` call reads: its ``prog`` is fixed and no
    action has a mutable default, so parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="superroots",
        description="Exact root systems of untwisted affine Lie superalgebras.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    specs = [
        ("build", _cmd_build, "summarise an affine system"),
        ("classify", _cmd_classify, "check windowed kinds/parities against the stored tables"),
        ("axioms", _cmd_axioms, "run the finite-system axioms"),
        ("shadow-validate", _cmd_shadow_validate, "check a shadow against the closure laws"),
        ("decompose", _cmd_decompose, "split the even part into loop components"),
        ("zeta", _cmd_zeta, "run a named hybrid scenario and verify the functional"),
        ("tables", _cmd_tables, "print stored tables and source discrepancies"),
        ("export", _cmd_export, "JSON dump of a windowed system"),
    ]
    for name, func, help_text in specs:
        sub = subs.add_parser(name, help=help_text)
        if name == "zeta":
            sub.add_argument("--scenario", help="scenario name, e.g. d21l-case3")
            sub.add_argument("--list", action="store_true", help="list scenario names")
            sub.add_argument("--window", type=_window, default=5)
        elif name == "axioms":
            # finite families only: no delta window and no lambda to read
            sub.add_argument("--type", required=True, help="finite type token, e.g. B,2,2 or S,2")
        else:
            _add_common(sub)
        if name == "shadow-validate":
            group = sub.add_mutually_exclusive_group()
            group.add_argument("--config", help="JSON file with per-class patterns")
            group.add_argument(
                "--uniform",
                default=FULL_LN,
                help="apply one pattern spec to every class (default full_ln)",
            )
        sub.add_argument("--output", help="write the report to a file instead of stdout")
        # a handler's usage errors print its own subcommand's usage
        sub.set_defaults(func=func, parser=sub)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args.parser, args)
        sys.stdout.flush()  # a reader that left shows here at the latest
    except BrokenPipeError:
        # ``superroots ... | head``: Python flushes stdout again at exit, so
        # point it at devnull to keep that flush from raising, and fail quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
