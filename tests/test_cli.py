"""Command-line interface tests: exit codes, report output, artifact
emission, option precedence, and determinism of exported text."""

from __future__ import annotations

import json
import pathlib

import pytest

from listterm.cli import (
    EXIT_ERR_STATE,
    EXIT_PARSE_ERROR,
    EXIT_PROVED,
    EXIT_UNKNOWN,
    Settings,
    build_parser,
    load_config,
    main,
    nondet_stream,
)
from listterm.its import parse_its_text

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def cli(capsys, *args):
    code = main([str(a) for a in args])
    out, err = capsys.readouterr()
    return code, out, err


# --- analyze exit codes ---------------------------------------------------------


def test_analyze_proved_exits_zero(capsys):
    code, out, _ = cli(capsys, "analyze", CORPUS / "count_up.ll")
    assert code == EXIT_PROVED
    assert "MemorySafeAndTerminating" in out


def test_analyze_straight_line_proved(capsys):
    code, out, _ = cli(capsys, "analyze", CORPUS / "straight_line.ll")
    assert code == EXIT_PROVED


def test_analyze_error_state_exits_two(capsys):
    code, out, _ = cli(capsys, "analyze", CORPUS / "null_deref.ll")
    assert code == EXIT_ERR_STATE
    assert "ERR-reached" in out


def test_analyze_bad_store_exits_two(capsys):
    code, out, _ = cli(capsys, "analyze", CORPUS / "store_into_invariant.ll")
    assert code == EXIT_ERR_STATE


def test_analyze_nonterminating_exits_three(capsys):
    code, out, _ = cli(capsys, "analyze", CORPUS / "infinite_loop.ll")
    assert code == EXIT_UNKNOWN
    assert "Unknown" in out


def test_analyze_cyclic_list_exits_three(capsys):
    code, _, _ = cli(capsys, "analyze", CORPUS / "cyclic_traverse.ll")
    assert code == EXIT_UNKNOWN


def test_parse_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.ll"
    bad.write_text("define i32 @main() {\nentry:\n  this is not ir\n}\n")
    code, out, err = cli(capsys, "analyze", bad)
    assert code == EXIT_PARSE_ERROR
    assert "parse error" in err


def test_missing_file_exits_one(capsys):
    code, _, err = cli(capsys, "analyze", "/nonexistent/program.ll")
    assert code == EXIT_PARSE_ERROR
    assert err


# --- json report ----------------------------------------------------------------


def test_json_report_schema(capsys):
    code, out, _ = cli(capsys, "analyze", CORPUS / "count_up.ll", "--json")
    assert code == EXIT_PROVED
    doc = json.loads(out)
    assert set(doc) == {"artifacts", "certificates", "exit_code",
                        "seg_outcome", "stats", "verdict"}
    assert set(doc["stats"]) == {"nodes", "edges", "merges",
                                 "entailment_queries", "its_locations",
                                 "its_transitions"}
    assert doc["verdict"] == "MemorySafeAndTerminating"
    assert doc["exit_code"] == 0
    assert doc["certificates"] and "rank" in doc["certificates"][0]


def test_json_report_byte_identical_across_runs(capsys):
    _, first, _ = cli(capsys, "analyze", CORPUS / "count_up.ll", "--json")
    _, second, _ = cli(capsys, "analyze", CORPUS / "count_up.ll", "--json")
    assert first == second


def test_json_verdict_for_error_program(capsys):
    code, out, _ = cli(capsys, "analyze", CORPUS / "null_deref.ll", "--json")
    doc = json.loads(out)
    assert doc["verdict"] == "ERR-reached"
    assert doc["seg_outcome"] == "err"
    assert doc["certificates"] == []


# --- artifact emission ----------------------------------------------------------


def test_emit_graph_dot(tmp_path, capsys):
    path = tmp_path / "graph.dot"
    code, out, _ = cli(capsys, "analyze", CORPUS / "count_up.ll",
                       "--emit-graph", path, "--json")
    assert code == EXIT_PROVED
    text = path.read_text()
    assert text.startswith("digraph")
    assert json.loads(out)["artifacts"]["graph"] == str(path)


def test_emit_graph_json(tmp_path, capsys):
    path = tmp_path / "graph.json"
    cli(capsys, "analyze", CORPUS / "count_up.ll", "--emit-graph", path)
    doc = json.loads(path.read_text())
    assert "nodes" in doc and "edges" in doc


def test_emit_its_file(tmp_path, capsys):
    path = tmp_path / "system.smt2"
    code, _, _ = cli(capsys, "analyze", CORPUS / "count_up.ll",
                     "--emit-its", path)
    assert code == EXIT_PROVED
    text = path.read_text()
    assert text.startswith("(set-logic HORN)")
    assert parse_its_text(text)["rules"]


def test_graph_subcommand_prints_dot(capsys):
    code, out, _ = cli(capsys, "graph", CORPUS / "count_up.ll")
    assert code == EXIT_PROVED
    assert out.startswith("digraph")


def test_graph_subcommand_deterministic(capsys):
    _, first, _ = cli(capsys, "graph", CORPUS / "build_only.ll")
    _, second, _ = cli(capsys, "graph", CORPUS / "build_only.ll")
    assert first == second


def test_its_subcommand_parses_back(capsys):
    code, out, _ = cli(capsys, "its", CORPUS / "count_up.ll")
    assert code == EXIT_PROVED
    doc = parse_its_text(out)
    assert doc["relations"] and doc["rules"]


def test_its_subcommand_rejects_error_program(capsys):
    code, out, err = cli(capsys, "its", CORPUS / "null_deref.ll")
    assert code == EXIT_ERR_STATE
    assert not out
    assert "not complete" in err


# --- concrete runner ------------------------------------------------------------


def test_run_halts_and_reports(capsys):
    code, out, _ = cli(capsys, "run", CORPUS / "count_up.ll", "--seed", 1)
    assert code == EXIT_PROVED
    assert "halted=True" in out and "error=False" in out


def test_run_deterministic_byte_identical(capsys):
    args = ("run", CORPUS / "build_only.ll", "--seed", 7, "--trace")
    _, first, _ = cli(capsys, *args)
    _, second, _ = cli(capsys, *args)
    assert first == second
    assert first.count("\n") > 3


def test_run_error_program_exits_two(capsys):
    code, out, _ = cli(capsys, "run", CORPUS / "null_deref.ll", "--seed", 0)
    assert code == EXIT_ERR_STATE
    assert "error=True" in out


def test_run_fuel_exhaustion(capsys):
    code, _, err = cli(capsys, "run", CORPUS / "infinite_loop.ll",
                       "--fuel", 50)
    assert code == EXIT_UNKNOWN
    assert "fuel" in err


def test_nondet_stream_reproducible():
    a = [next(iter_) for iter_ in [nondet_stream(42)] for _ in range(8)]
    s = nondet_stream(42)
    b = [next(s) for _ in range(8)]
    assert a == b
    assert 0 <= b[0] <= 5 and 0 <= b[1] <= 5


# --- differential check ---------------------------------------------------------


def test_check_reports_zero_violations(capsys):
    code, out, _ = cli(capsys, "check", CORPUS / "count_up.ll",
                       "--runs", 10)
    assert code == EXIT_PROVED
    assert "0 representation violations" in out


def test_check_error_program_zero_violations(capsys):
    code, out, _ = cli(capsys, "check", CORPUS / "null_deref.ll",
                       "--runs", 10)
    assert code == EXIT_PROVED
    assert "0 representation violations" in out


# --- configuration --------------------------------------------------------------


def test_load_config_parses_and_ignores_comments(tmp_path):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("# options\nmax_nodes = 50\nfuel=123\n\nseed=9 # tail\n")
    assert load_config(str(cfg)) == {"max_nodes": "50", "fuel": "123",
                                     "seed": "9"}


def test_load_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("bogus=1\n")
    with pytest.raises(ValueError):
        load_config(str(cfg))


def test_config_file_limits_analysis(tmp_path, capsys):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("max_nodes=3\n")
    code, out, _ = cli(capsys, "analyze", CORPUS / "count_up.ll",
                       "--config", cfg)
    assert code == EXIT_UNKNOWN
    assert "Unknown" in out


def test_flag_overrides_config_file(tmp_path, capsys):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("max_nodes=3\n")
    code, _, _ = cli(capsys, "analyze", CORPUS / "count_up.ll",
                     "--config", cfg, "--max-nodes", 10000)
    assert code == EXIT_PROVED


def test_env_supplies_smt_command(monkeypatch):
    monkeypatch.setenv("LISTTERM_SMT_CMD", "some-solver")
    args = build_parser().parse_args(
        ["analyze", str(CORPUS / "count_up.ll")])
    assert Settings(args).smt == "some-solver"


def test_flag_beats_env_for_smt_command(monkeypatch):
    monkeypatch.setenv("LISTTERM_SMT_CMD", "env-solver")
    args = build_parser().parse_args(
        ["analyze", str(CORPUS / "count_up.ll"), "--smt", "flag-solver"])
    assert Settings(args).smt == "flag-solver"


def test_config_beats_env_for_smt_command(tmp_path, monkeypatch):
    monkeypatch.setenv("LISTTERM_SMT_CMD", "env-solver")
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("smt=file-solver\n")
    args = build_parser().parse_args(
        ["analyze", str(CORPUS / "count_up.ll"), "--config", str(cfg)])
    assert Settings(args).smt == "file-solver"


def test_explicit_zero_limits_are_kept(capsys, tmp_path):
    """An explicit 0, from a flag or the config file, is a limit that
    stops the work; it is not replaced by the default."""
    cfg = tmp_path / "opts.cfg"
    for command, flags, config, code in [
            ("analyze", [], None, EXIT_PROVED),
            ("analyze", ["--max-nodes", "0"], None, EXIT_UNKNOWN),
            ("analyze", ["--max-merges", "0"], None, EXIT_UNKNOWN),
            ("analyze", [], "max_nodes=0\n", EXIT_UNKNOWN),
            ("analyze", [], "max_merges=0\n", EXIT_UNKNOWN),
            ("run", [], None, EXIT_PROVED),
            ("run", ["--fuel", "0"], None, EXIT_UNKNOWN),
            ("run", [], "fuel=0\n", EXIT_UNKNOWN)]:
        if config is not None:
            cfg.write_text(config)
            flags = flags + ["--config", cfg]
        got = cli(capsys, command, CORPUS / "count_up.ll", *flags)[0]
        assert got == code, (command, flags, config)


@pytest.mark.parametrize("config, args", [
    ("max_nodes\n", ["analyze"]),
    (None, ["analyze", "--config", "/nonexistent/opts.cfg"]),
    ("max_nodes=abc\n", ["analyze"]),
    (None, ["analyze", "--max-nodes", "-3"]),
    (None, ["check", "--runs", "-2"]),
    (None, ["analyze", "--max-nodes", "abc"]),
    (None, ["analyze", "--bogus"]),
], ids=["config-line", "missing-config", "config-not-int",
        "negative-max-nodes", "negative-runs", "flag-not-int", "unknown-flag"])
def test_bad_input_exits_one_with_message(capsys, tmp_path, config, args):
    if config is not None:
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(config)
        args = args + ["--config", cfg]
    code, out, err = cli(capsys, args[0], CORPUS / "count_up.ll", *args[1:])
    assert code == EXIT_PARSE_ERROR
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if config == "max_nodes=abc\n":  # the message names the key and the file
        assert f"{cfg}:1: max_nodes" in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: listterm analyze")
