"""Regenerate the golden CLI outputs that ``tests/test_cli_golden.py`` checks.

Usage, from the repository root::

    PYTHONPATH=src python3 tests/golden/regen_cli.py

Each call in ``CALLS`` runs ``superroots.cli.main`` in-process; its exit
code and everything it prints to stdout are written to ``cli_outputs.json``
beside this script.  Run it only on a commit whose outputs are known good:
the test then fails on any later change that alters a single byte of them.
"""
from __future__ import annotations

import io
import json
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


def calls() -> list[list[str]]:
    out = [["zeta", "--scenario", name] for name in scenario_names()]
    out += [["axioms", "--type", t] for t in FINITE_TYPES]
    out += [["decompose", "--type", t] for t in ("B,1,1", "D21L", "A,2,1", "F4")]
    for t in AFFINE_TYPES:
        out += [["build", "--type", t], ["export", "--type", t, "--window", "1"]]
    out += [
        ["build", "--type", "D21L", "--lambda", "1/2"],
        ["export", "--type", "D21L", "--window", "1", "--lambda", "1/2"],
    ]
    out += [["tables", "--type", t] for t in ("C,3", "G3", "A,1,1")]
    return out


def run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


if __name__ == "__main__":
    cases = []
    for argv in calls():
        code, stdout = run(argv)
        cases.append({"argv": argv, "exit": code, "stdout": stdout})
    path = HERE / "cli_outputs.json"
    path.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} calls to {path}")
