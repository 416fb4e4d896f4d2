"""Command-line interface tests: exit codes, report output, artifact
emission, the flags each subcommand takes, and determinism of exported
text."""

from __future__ import annotations

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from listterm.cli import (
    EXIT_ERR_STATE,
    EXIT_PARSE_ERROR,
    EXIT_PROVED,
    EXIT_UNKNOWN,
    _rank_str,
    main,
    nondet_stream,
)
from listterm.its import parse_its_text
from listterm.logic import SymVar, Term

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


def _reference_rank_str(rank) -> str:
    """The rank text as ``cli._rank_str`` wrote it before it shared
    ``logic.linear_text`` with ``Term.__str__``."""
    parts = []
    for v, coeff in sorted(rank.coeffs, key=lambda vc: (vc[0].hint,
                                                        vc[0].id)):
        mag = "" if abs(coeff) == 1 else f"{abs(coeff)}*"
        if not parts:
            sign = "-" if coeff < 0 else ""
        else:
            sign = " - " if coeff < 0 else " + "
        parts.append(f"{sign}{mag}{v.hint}")
    if rank.const or not parts:
        sign = "" if not parts else (" - " if rank.const < 0 else " + ")
        parts.append(f"{sign}{abs(rank.const) if parts else rank.const}")
    return "".join(parts)


def _reference_term_str(t: Term) -> str:
    """The term text as ``Term.__str__`` wrote it before it shared
    ``logic.linear_text`` with ``cli._rank_str``."""
    parts = []
    for v, c in t.coeffs:
        if c == 1:
            parts.append(f"{v.name}")
        elif c == -1:
            parts.append(f"-{v.name}")
        else:
            parts.append(f"{c}*{v.name}")
    if t.const or not parts:
        parts.append(str(t.const))
    return " + ".join(parts).replace("+ -", "- ")


@st.composite
def linear_terms(draw):
    """Terms over up to five variables with distinct ids and mixed,
    possibly repeated hints; the corpus's ranks (``-k + n``, ``-j + m``,
    ``len``) have no other coefficient than 1 or -1, and no constant."""
    n = draw(st.integers(0, 5))
    ids = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n,
                        unique=True))
    hints = draw(st.lists(st.sampled_from(["n", "len", "k", "tail_ptr", "v0",
                                           "x.y"]), min_size=n, max_size=n))
    coeffs = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=n,
                           max_size=n))
    return Term._build(draw(st.integers(-5, 5)), {
        SymVar(i, h): c for i, h, c in zip(ids, hints, coeffs)})


@given(linear_terms())
def test_linear_terms_print_as_before(t):
    assert _rank_str(t) == _reference_rank_str(t)
    assert str(t) == _reference_term_str(t)


# --- artifact emission ----------------------------------------------------------

# A variable's name in an export: its hint, "_" and its number.  The
# corpus's hints have no dot, and its program variables and blocks no such
# suffix.
EXPORTED_NAME = re.compile(r"\b[A-Za-z_]\w*_(\d+)\b")


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.ll")))
def test_exports_number_their_variables_from_one(tmp_path, capsys, name):
    """The JSON graph and the transition system each number their
    variables 1..n, one number per name."""
    graph, its = tmp_path / "graph.json", tmp_path / "its.smt2"
    cli(capsys, "analyze", CORPUS / name, "--emit-graph", graph,
        "--emit-its", its)
    doc = json.loads(graph.read_text())
    texts = [" ".join([n.get("state", "") for n in doc["nodes"]] + [
        f"{v} {w}" for e in doc["edges"]
        for v, w in e.get("instantiation", {}).items()])]
    texts += [its.read_text()] if its.exists() else []
    for text in texts:
        names = {m.group(0): int(m.group(1))
                 for m in EXPORTED_NAME.finditer(text)}
        assert sorted(names.values()) == list(range(1, len(names) + 1))




def test_emit_graph_dot(tmp_path, capsys):
    path = tmp_path / "graph.dot"
    code, out, _ = cli(capsys, "analyze", CORPUS / "count_up.ll",
                       "--emit-graph", path, "--json")
    assert code == EXIT_PROVED
    text = path.read_text()
    assert text.startswith("digraph")
    assert json.loads(out)["artifacts"]["graph"] == str(path)


def test_emit_graph_dot_with_text_report(tmp_path, capsys):
    path = tmp_path / "graph.dot"
    code, out, _ = cli(capsys, "analyze", CORPUS / "count_up.ll",
                       "--emit-graph", path)
    assert code == EXIT_PROVED
    assert path.read_text().startswith("digraph")
    assert out.startswith("verdict: ")


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


def test_emit_graph_dot_deterministic(tmp_path, capsys):
    first, second = tmp_path / "first.dot", tmp_path / "second.dot"
    for path in (first, second):
        cli(capsys, "analyze", CORPUS / "build_only.ll", "--emit-graph", path)
    assert first.read_bytes() == second.read_bytes()


def test_emit_its_parses_back(tmp_path, capsys):
    path = tmp_path / "system.smt2"
    cli(capsys, "analyze", CORPUS / "count_up.ll", "--emit-its", path)
    doc = parse_its_text(path.read_text())
    assert doc["relations"] and doc["rules"]


def test_emit_its_skipped_for_error_program(tmp_path, capsys):
    path = tmp_path / "system.smt2"
    code, out, _ = cli(capsys, "analyze", CORPUS / "null_deref.ll",
                       "--emit-its", path, "--json")
    assert code == EXIT_ERR_STATE
    assert not path.exists()
    assert "its" not in json.loads(out)["artifacts"]


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
    """Five steps stop infinite_loop before its first repeat, at step 8."""
    code, _, err = cli(capsys, "run", CORPUS / "infinite_loop.ll",
                       "--fuel", 5)
    assert code == EXIT_UNKNOWN
    assert "fuel" in err


def test_run_trace_is_printed_when_the_fuel_runs_out(capsys):
    code, out, err = cli(capsys, "run", CORPUS / "infinite_loop.ll",
                         "--fuel", 5, "--trace")
    assert code == EXIT_UNKNOWN
    assert len(out.splitlines()) == 5
    assert err == "fuel exhausted\n"


@pytest.mark.parametrize("name, fuel, repeat", [
    ("infinite_loop.ll", 8, "step 8 repeats step 5"),
    ("infinite_loop.ll", 10_000, "step 8 repeats step 5"),
    ("cyclic_traverse.ll", 10_000, "step 22 repeats step 15"),
])
def test_run_names_the_repeat_of_a_diverging_run(capsys, name, fuel, repeat):
    code, out, err = cli(capsys, "run", CORPUS / name, "--fuel", fuel)
    assert code == EXIT_UNKNOWN
    assert out == ""
    assert err == f"diverges: {repeat}\n"


@pytest.mark.parametrize("args", [
    ["analyze", "build_traverse_field.ll", "--json"],
    ["run", "build_only.ll", "--seed", "3", "--trace"],
], ids=["analyze-json", "run-trace"])
def test_closed_stdout_exits_without_traceback(args):
    """The reader has closed the pipe before the first line is written."""
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "listterm.cli", args[0],
             str(CORPUS / args[1]), *args[2:]],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write)
    assert "Traceback" not in done.stderr
    assert done.stderr == ""
    assert done.returncode == EXIT_PARSE_ERROR


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


# --- flags ----------------------------------------------------------------------


# ``x != 0`` leaves ``x <= -1`` possible: an ``i32`` that wraps below zero,
# and a pointer moved below the start of its allocation.
NEGATIVE_BELOW_ZERO = {
    "i32": """\
define i32 @main() {
entry:
  n = call i32 @nondet_uint()
  x = add i32 n, -1
  c = icmp ne i32 x, 0
  br i1 c, label yes, label no
yes:
  d = icmp slt i32 x, 0
  br i1 d, label bad, label no
bad:
  v = load i32, i32* null
  ret i32 v
no:
  ret i32 0
}
""",
    "pointer": """\
define i32 @main() {
entry:
  p = call i8* @malloc(i64 8)
  q = getelementptr i8, i8* p, i64 -100
  c = icmp ne i8* q, null
  br i1 c, label yes, label no
yes:
  d = icmp slt i8* q, null
  br i1 d, label bad, label no
bad:
  v = load i32, i32* null
  ret i32 v
no:
  ret i32 0
}
""",
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_BELOW_ZERO))
def test_disequality_with_zero_keeps_negative_values(tmp_path, capsys, name):
    """Each program reaches its null load when ``x`` is negative (seed 2
    runs into it).  So the analysis reaches ERR, and every run it checks
    is represented by the graph."""
    f = tmp_path / f"{name}.ll"
    f.write_text(NEGATIVE_BELOW_ZERO[name])
    assert cli(capsys, "run", f, "--seed", 2)[0] == EXIT_ERR_STATE
    code, out, _ = cli(capsys, "analyze", f)
    assert code == EXIT_ERR_STATE
    assert "ERR-reached" in out
    code, out, _ = cli(capsys, "check", f, "--runs", 20)
    assert code == EXIT_PROVED
    assert "20 runs, 0 representation violations" in out


def test_explicit_zero_limits_are_kept(capsys):
    """An explicit 0 is a limit that stops the work; it is not replaced by
    the default."""
    for command, flags, code in [
            ("analyze", [], EXIT_PROVED),
            ("analyze", ["--max-nodes", "0"], EXIT_UNKNOWN),
            ("analyze", ["--max-merges", "0"], EXIT_UNKNOWN),
            ("run", [], EXIT_PROVED),
            ("run", ["--fuel", "0"], EXIT_UNKNOWN)]:
        got = cli(capsys, command, CORPUS / "count_up.ll", *flags)[0]
        assert got == code, (command, flags)


def expect_bad_input(capsys, args):
    code, out, err = cli(capsys, args[0], CORPUS / "count_up.ll", *args[1:])
    assert code == EXIT_PARSE_ERROR
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["analyze", "--max-nodes", "-3"],
    ["check", "--runs", "-2"],
    ["analyze", "--max-nodes", "abc"],
    ["analyze", "--bogus"],
    ["analyze", "--emit-graph", "/nonexistent/dir/g.dot"],
    ["analyze", "--emit-its", "/nonexistent/dir/its.smt2"],
    ["analyze", "--emit-graph", "{tmp}/g.dot",
     "--emit-its", "/nonexistent/dir/its.smt2"],
    ["analyze", "--emit-graph", "{tmp}"],
    ["analyze", "--smt", "x"],
    ["check", "--smt", "x"],
], ids=["negative-max-nodes", "negative-runs", "flag-not-int",
        "unknown-flag", "unwritable-graph", "unwritable-its",
        "writable-graph-unwritable-its", "graph-path-is-a-directory",
        "analyze-smt", "check-smt"])
def test_bad_input_exits_one_with_message(capsys, monkeypatch, tmp_path,
                                          args):
    """Rejected before any analysis, which would build the graph, and before
    any artifact is written."""
    def build_seg(*_, **__):
        raise AssertionError("analysis started")
    monkeypatch.setattr("listterm.cli.build_seg", build_seg)
    expect_bad_input(capsys, [a.format(tmp=tmp_path) for a in args])
    assert not (tmp_path / "g.dot").exists()


@pytest.mark.parametrize("args", [
    ["analyze", "--seed", "3"],
    ["analyze", "--fuel", "1"],
    ["run", "--max-nodes", "1"],
    ["run", "--smt", "x"],
], ids=["analyze-seed", "analyze-fuel", "run-max-nodes", "run-smt"])
def test_subcommand_rejects_flags_it_does_not_read(capsys, args):
    expect_bad_input(capsys, args)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: listterm analyze")
