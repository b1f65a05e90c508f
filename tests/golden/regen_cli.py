"""Regenerate the golden CLI outputs that ``tests/test_cli_golden.py`` checks.

Usage, from the repository root::

    PYTHONPATH=src python3 tests/golden/regen_cli.py

Each call in ``calls()`` runs ``superroots.cli.main`` in-process, from this
directory so that ``--config`` names the shadow fixtures beside this script;
its exit code and everything it prints to stdout are written to
``cli_outputs.json`` beside it too.  Run it only on a commit whose outputs are known good:
the test then fails on any later change that alters a single byte of them.
"""
from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from superroots.cli import main, scenario_names  # noqa: E402

#: one type of each affine family; A,1,1 is the one whose sigma takes both signs
AFFINE_TYPES = ("A,2,1", "A,1,1", "B,1,1", "C,3", "D,2,1", "F4", "G3", "D21L")
#: one type of each of the eleven finite families
FINITE_TYPES = ("A,2,1", "A,1,1", "B,1,1", "C,3", "C,1,1", "D,2,1", "BC,1,1", "S,2", "F4", "G3", "D21L")
#: the nine types whose windowed classification the stored tables check
TABULATED_TYPES = ("A,2,1", "A,1,1", "B,1,1", "B,2,1", "C,2", "D,2,1", "D21L", "F4", "G3")
#: per-class shadow fixtures mixing up, down and tight classes: G3 and A,2,2
#: violate the sum laws (A,2,2 on its sigma type); no admissible colouring of
#: A,1,1's two orthogonal classes violates them
SHADOW_CONFIGS = (("G3", "shadow_g3.json"), ("A,2,2", "shadow_a22.json"), ("A,1,1", "shadow_a11.json"))


def calls() -> list[list[str]]:
    out = [["zeta", "--scenario", name] for name in scenario_names()]
    out += [["axioms", "--type", t] for t in FINITE_TYPES]
    # A,1,1 and A,2,2 are the equal-block types, whose line tables hold sigma lines
    out += [["decompose", "--type", t] for t in ("B,1,1", "D21L", "A,2,1", "F4", "A,1,1", "A,2,2")]
    for t in AFFINE_TYPES:
        out += [["build", "--type", t], ["export", "--type", t, "--window", "1"]]
    out += [
        ["build", "--type", "D21L", "--lambda", "1/2"],
        ["export", "--type", "D21L", "--window", "1", "--lambda", "1/2"],
    ]
    out += [["tables", "--type", t] for t in ("C,3", "G3", "A,1,1")]
    out += [["classify", "--type", t] for t in TABULATED_TYPES]
    out += [
        ["export", "--type", "A,1,1", "--window", "3"],
        ["build", "--type", "A,1,1", "--window", "7"],
        ["tables", "--type", "G3", "--window", "6"],
        ["shadow-validate", "--type", "B,1,1", "--window", "4", "--uniform", "up,0,1"],
    ]
    # cases whose finite members the builders scale differently: A,2,2's
    # traceless blocks over denominator 3, a rational lambda, C(n) reached
    # through D,1,n, and F4's half-sums
    out += [
        ["export", "--type", "A,2,2", "--window", "1"],
        ["classify", "--type", "A,2,2"],
        ["export", "--type", "D21L", "--window", "1", "--lambda", "5/3"],
        ["export", "--type", "D,1,2", "--window", "1"],
        ["tables", "--type", "F4"],
    ]
    out += [
        ["shadow-validate", "--type", t, "--window", "2", "--config", name]
        for t, name in SHADOW_CONFIGS
    ]
    return out


def run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


if __name__ == "__main__":
    os.chdir(HERE)
    cases = []
    for argv in calls():
        code, stdout = run(argv)
        cases.append({"argv": argv, "exit": code, "stdout": stdout})
    path = HERE / "cli_outputs.json"
    path.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} calls to {path}")
