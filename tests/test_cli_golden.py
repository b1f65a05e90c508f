"""Byte-identical CLI output against outputs recorded on a known-good commit.

``golden/cli_outputs.json`` holds, per call, the argv, the exit code and
the whole stdout of ``superroots.cli.main``; ``golden/regen_cli.py`` lists
the calls and rewrites the file.  The calls cover every ``zeta`` scenario,
``axioms`` on each finite family, ``decompose``, ``build`` and ``export``
on each affine family (both lambda modes of D21L) and ``tables``.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from superroots.cli import main

CASES = json.loads(
    (Path(__file__).parent / "golden" / "cli_outputs.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_output_matches_golden(case, capsys):
    code = main(list(case["argv"]))
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["exit"]
