"""Byte-identical CLI output against outputs recorded on a known-good commit.

``golden/cli_outputs.json`` holds, per call, the argv, the exit code and
the whole stdout of ``superroots.cli.main``; ``golden/regen_cli.py`` lists
the calls and rewrites the file.  The calls cover every ``zeta`` scenario,
``axioms`` on each finite family, ``decompose``, ``build`` and ``export``
on each affine family (both lambda modes of D21L), ``tables``, ``classify``
on the nine tabulated types, wider ``build``/``export``/``tables`` windows,
one uniform ``shadow-validate`` and three ``shadow-validate --config`` calls
on the fixtures in ``golden/``, two of them violating, and the types whose
finite members the builders scale differently (``A,2,2``, ``D21L`` at
lambda = 5/3, ``D,1,2`` and ``F4``).  Every call runs from
``golden/``, as the script records them.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from superroots.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cli_outputs.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_output_matches_golden(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(list(case["argv"]))
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["exit"]
