"""End-to-end tests of the command-line interface.

Exit code contract: 0 = checks pass, 1 = violations found, 2 = usage
errors (argparse raises SystemExit(2) via parser.error).
"""
from __future__ import annotations

import json
import os
import sys

import pytest

from superroots.affine import build_affine
from superroots.cli import main, parse_root_expr, run_scenario, scenario_names
from superroots.finite import parse_type_token
from superroots.roots import Root, root


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def expect_usage_error(*argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


# -- parse_root_expr ---------------------------------------------------------------


def test_parse_root_expr_basic():
    s = build_affine(parse_type_token("B,1,1"))
    assert parse_root_expr(s, "e1-d1+2d") == Root((1, -1), 2, 0)
    assert parse_root_expr(s, "d") == s.delta
    assert parse_root_expr(s, "0") == s.zero_root
    assert parse_root_expr(s, "2e1") == root(2, 0)
    assert parse_root_expr(s, "1/2e1+1/2d1") == Root((0.5, 0.5), 0, 0)
    assert parse_root_expr(s, "-e1 + d") == Root((-1, 0), 1, 0)


def test_parse_root_expr_sigma_term():
    s = build_affine(parse_type_token("A,1,1"))
    r = parse_root_expr(s, "s-2d")
    assert r.sigma == 1 and r.k == -2
    assert all(c == 0 for c in r.coords)


def test_parse_root_expr_errors():
    s = build_affine(parse_type_token("B,1,1"))
    with pytest.raises(ValueError):
        parse_root_expr(s, "e9")
    with pytest.raises(ValueError):
        parse_root_expr(s, "e1++d1")
    with pytest.raises(ValueError):
        parse_root_expr(s, "1/2d")


# -- build -------------------------------------------------------------------------


def test_build_summary(capsys):
    rc, out = run(capsys, "build", "--type", "B,1,1")
    assert rc == 0
    assert "system: B,1,1" in out
    assert "lines: 11" in out


def test_build_lambda_modes(capsys):
    rc, out = run(capsys, "build", "--type", "D21L", "--lambda", "1/2")
    assert rc == 0
    assert "lambda mode: rational:1/2" in out
    expect_usage_error("build", "--type", "D21L", "--lambda", "0")
    expect_usage_error("build", "--type", "D21L", "--lambda", "-1")
    expect_usage_error("build", "--type", "D21L", "--lambda", "chaos")


def test_build_bad_types_exit_2():
    expect_usage_error("build", "--type", "Q,9")
    expect_usage_error("build", "--type", "C,1")
    expect_usage_error("build", "--type", "S,2")  # finite-only degenerate family


# -- classify / tables ----------------------------------------------------------------


def test_classify_ok(capsys):
    rc, out = run(capsys, "classify", "--type", "B,1,1")
    assert rc == 0
    assert "classification OK" in out


def test_classify_untabulated_type_exits_2():
    expect_usage_error("classify", "--type", "BC,2,2")


def test_tables_report(capsys):
    rc, out = run(capsys, "tables", "--type", "C,2")
    assert rc == 0
    assert "printed-source discrepancies:" in out
    assert "window check (|k| <= 5): OK" in out


def test_tables_untabulated_type_exits_2():
    expect_usage_error("tables", "--type", "BC,1,1")


# -- axioms ------------------------------------------------------------------------


def test_axioms_pass(capsys):
    rc, out = run(capsys, "axioms", "--type", "B,2,2")
    assert rc == 0
    assert "type: B,2,2" in out
    assert "(f) ok" in out


def test_axioms_degenerate_family_fails(capsys):
    rc, out = run(capsys, "axioms", "--type", "s,2")
    assert rc == 1
    assert "(f) FAIL" in out
    assert "(c) ok" in out


def test_axioms_bad_rank_exits_2():
    expect_usage_error("axioms", "--type", "B,0,0")


def test_axioms_refuses_affine_options():
    # the finite axioms have no delta window and no parameter to set
    expect_usage_error("axioms", "--type", "D21L", "--lambda", "1/2")
    expect_usage_error("axioms", "--type", "B,1,1", "--window", "3")


# -- shadow-validate ------------------------------------------------------------------


def test_shadow_validate_default_uniform(capsys):
    rc, out = run(capsys, "shadow-validate", "--type", "B,1,1")
    assert rc == 0
    payload = json.loads(out)
    assert payload["violations"] == []
    assert payload["window"] == 5
    reps = [c["rep"] for c in payload["shadow"]["classes"]]
    # ordered by coordinate key: (-1,0) before (0,-2) before (0,-1)
    assert reps == ["-e1", "-2d1", "-d1"]


def test_shadow_validate_uniform_violations(capsys):
    rc, out = run(capsys, "shadow-validate", "--type", "B,1,1", "--uniform", "up,2,0")
    assert rc == 1
    payload = json.loads(out)
    assert payload["violations"]
    assert all(v["law"] in {"sum", "sum2", "scale"} for v in payload["violations"])
    assert any(v["law"] == "scale" for v in payload["violations"])


def test_shadow_validate_bad_specs():
    expect_usage_error("shadow-validate", "--type", "B,1,1", "--uniform", "bogus")
    expect_usage_error("shadow-validate", "--type", "B,1,1", "--uniform", "up,2")


def test_shadow_validate_config_file(tmp_path, capsys):
    cfg = {
        "classes": [
            {"rep": "-e1", "config": {"family": "up", "m": 0, "t": 1}},
            {"rep": "-d1", "config": {"family": "up", "m": 0, "t": 1}},
            {"rep": "-2d1", "config": {"family": "up", "m": 0, "t": 1}},
        ]
    }
    path = tmp_path / "shadow.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    rc, out = run(capsys, "shadow-validate", "--type", "B,1,1", "--config", str(path))
    assert rc == 0
    assert json.loads(out)["violations"] == []


def test_shadow_validate_incomplete_config_exits_2(tmp_path):
    cfg = {"classes": [{"rep": "-e1", "config": {"family": "up", "m": 0, "t": 1}}]}
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    expect_usage_error("shadow-validate", "--type", "B,1,1", "--config", str(path))


def test_shadow_validate_missing_file_exits_2(tmp_path):
    expect_usage_error(
        "shadow-validate", "--type", "B,1,1", "--config", str(tmp_path / "nope.json")
    )


# -- decompose ----------------------------------------------------------------------


def test_decompose_json(capsys):
    rc, out = run(capsys, "decompose", "--type", "B,1,1")
    assert rc == 0
    assert json.loads(out) == {
        "system": "B,1,1",
        "component_count": 2,
        "components": [
            {"index": 1, "vectors": ["-e1", "e1"], "lines": 3},
            {"index": 2, "vectors": ["-2d1", "2d1"], "lines": 3},
        ],
    }


# -- zeta ---------------------------------------------------------------------------


def test_zeta_list(capsys):
    rc, out = run(capsys, "zeta", "--list")
    names = out.split()
    assert rc == 0
    assert names == scenario_names()
    assert len(names) == 16
    assert names[0] == "b11-case1"
    assert "d21l-case3-down" in names


def test_zeta_scenario_up(capsys):
    rc, out = run(capsys, "zeta", "--scenario", "d21l-case3")
    assert rc == 0
    payload = json.loads(out)
    assert payload["system"] == "D21L"
    assert payload["case"] == "case3"
    assert payload["direction"] == "up"
    assert payload["zeta_delta"] == "2"
    assert payload["violations"] == []


def test_zeta_scenario_down(capsys):
    rc, out = run(capsys, "zeta", "--scenario", "b11-case1-down")
    assert rc == 0
    payload = json.loads(out)
    assert payload["direction"] == "down"
    assert payload["zeta_delta"] == "-1"
    assert payload["violations"] == []


def test_zeta_usage_errors():
    expect_usage_error("zeta")
    expect_usage_error("zeta", "--scenario", "nope-case9")
    expect_usage_error("zeta", "--scenario", "b11-case1-sideways")


def test_zeta_runs_are_deterministic(capsys):
    rc1, out1 = run(capsys, "zeta", "--scenario", "b11-case2")
    rc2, out2 = run(capsys, "zeta", "--scenario", "b11-case2")
    assert (rc1, rc2) == (0, 0)
    assert out1 == out2


def test_run_scenario_library_hook():
    system, dec, parabolics, result, problems = run_scenario("b11-case4", 6)
    assert problems == []
    assert len(parabolics) == len(dec.components) == 2
    assert result.case == "case4"
    assert [zc.base.u for zc in result.components] == [0, 1]


# -- export and --output --------------------------------------------------------------


def test_export_payload(capsys):
    rc, out = run(capsys, "export", "--type", "B,1,1", "--window", "1")
    assert rc == 0
    payload = json.loads(out)
    assert payload["type"] == "B,1,1"
    assert len(payload["roots"]) == 33
    assert set(payload["roots"][0]) == {"coords", "k", "sigma", "kind", "parity"}


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "dump.json"
    rc, out = run(capsys, "export", "--type", "B,1,1", "--window", "1", "--output", str(target))
    assert rc == 0
    assert f"wrote {target}" in out
    assert len(json.loads(target.read_text(encoding="utf-8"))["roots"]) == 33


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--type", "B,1,1", "--window", "2"),
        ("axioms", "--type", "B,1,1"),
        ("tables", "--type", "C,2", "--window", "2"),
        ("zeta", "--list"),
    ],
    ids=["classify", "axioms", "tables", "zeta-list"],
)
def test_output_flag_writes_the_stdout_report(argv, tmp_path, capsys):
    rc, out = run(capsys, *argv)
    target = tmp_path / "report.txt"
    rc_file, out_file = run(capsys, *argv, "--output", str(target))
    assert rc_file == rc == 0
    assert out_file == f"wrote {target}\n"
    assert target.read_text(encoding="utf-8") == out


# -- a reader that leaves early ------------------------------------------------------


class ClosedPipe:
    """A stdout whose reader has gone, as under ``superroots ... | head``: every
    write raises, and its descriptor is a file the test owns."""

    def __init__(self, fd: int):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_broken_pipe_exits_1_without_a_traceback(tmp_path, monkeypatch, capsys):
    target = tmp_path / "stdout"
    fd = os.open(target, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
        assert main(["decompose", "--type", "A,1,1", "--window", "4"]) == 1
        # the descriptor now leads to devnull: the flush at exit cannot fail
        os.write(fd, b"lost")
    finally:
        os.close(fd)
    assert target.read_bytes() == b""
    assert capsys.readouterr().err == ""


# -- one parser for every call --------------------------------------------------------


def test_main_reuses_one_parser_across_usage_errors(capsys):
    from superroots.cli import build_parser

    argvs = [
        ["classify", "--type", "B,1,1", "--window", "2"],
        ["shadow-validate", "--type", "B,1,1", "--window", "2", "--uniform", "up,0,1"],
        ["zeta", "--list"],
        ["axioms", "--type", "S,2"],
    ]
    bad = ["shadow-validate", "--type", "B,1,1", "--config", "x.json", "--uniform", "up,0,1"]

    def call(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def fresh(argv):
        build_parser.cache_clear()
        return call(argv)

    want = [fresh(argv) for argv in argvs]
    want_bad = fresh(bad)
    assert want_bad[0] == ("exit", 2) and "not allowed with argument" in want_bad[2]
    parser = build_parser()
    before = [call(argv) for argv in argvs]
    assert call(bad) == want_bad
    after = [call(argv) for argv in argvs]
    assert before == after == want
    assert build_parser() is parser
