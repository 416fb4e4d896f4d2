"""Golden outputs: every CLI output on the corpus, pinned under two hash
seeds.

Run as a script, this file calls ``cli.main`` in process on each corpus
program with each command of ``COMMANDS`` and prints one entry per program
and command: the entailment queries that the output reports (None when it
reports none), and the first 16 hex digits of a sha256 over the standard
output, the standard error, the exit code and the files written.  The
digest leaves out the ``entailment_queries`` field, the ``entailment
queries:`` line and the ``wall time:`` line, so a change that asks other
questions changes only the first column.

The test runs the script in two child processes at once, under
``PYTHONHASHSEED`` 0 and 777, and checks that the two agree and that each
entry equals its pin in ``GOLDEN``.  Output that follows hash order (a set
walked to print it, say) shows as the children disagreeing.

To re-pin an entry, run ``PYTHONPATH=src PYTHONHASHSEED=0 python
tests/test_golden.py`` and copy its line into ``GOLDEN``.  Re-pin only the
entries, and the column, that the change is meant to alter (ROADMAP,
"Rules for every item").
"""

from __future__ import annotations

import ast
import hashlib
import io
import os
import pathlib
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from listterm.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

# The program's path goes last; artifacts go to the working directory.
COMMANDS = {
    "analyze-json": ["analyze", "--json", "--emit-graph", "graph.json",
                     "--emit-its", "its.smt2"],
    "analyze-dot": ["analyze", "--emit-graph", "graph.dot"],
    "check": ["check", "--runs", "20"],
    "run": ["run", "--trace", "--seed", "3"],
}

# The lines a digest leaves out: the query count, in a JSON report or in
# the text one, is the first column; the wall time varies run to run.
QUERIES = re.compile(r' *"entailment_queries": (\d+),?|entailment queries: '
                     r'(\d+)')
WALL_TIME = "wall time: "

GOLDEN = {
    ("build_append", "analyze-json"): (2379, "b0594e40a12492d8"),
    ("build_append", "analyze-dot"): (2379, "84ca6cee593fc4c3"),
    ("build_append", "check"): (None, "65b10afe918306d5"),
    ("build_append", "run"): (None, "6a4154352f4ce60d"),
    ("build_only", "analyze-json"): (526, "18b749f492ba0694"),
    ("build_only", "analyze-dot"): (526, "0d4852a299815626"),
    ("build_only", "check"): (None, "65b10afe918306d5"),
    ("build_only", "run"): (None, "71b9cdc4a6e83957"),
    ("build_search_value", "analyze-json"): (1873, "254d5f9b75bbf19f"),
    ("build_search_value", "analyze-dot"): (1873, "cca791d8e8b52308"),
    ("build_search_value", "check"): (None, "65b10afe918306d5"),
    ("build_search_value", "run"): (None, "528224c10ed8de49"),
    ("build_traverse_field", "analyze-json"): (1356, "c2b512c962f134ce"),
    ("build_traverse_field", "analyze-dot"): (1356, "f357a677e3eeaeeb"),
    ("build_traverse_field", "check"): (None, "65b10afe918306d5"),
    ("build_traverse_field", "run"): (None, "54fc0bbb325a434b"),
    ("build_traverse_ptr", "analyze-json"): (1357, "6e41a7fabc35940a"),
    ("build_traverse_ptr", "analyze-dot"): (1357, "27eaa78414274946"),
    ("build_traverse_ptr", "check"): (None, "65b10afe918306d5"),
    ("build_traverse_ptr", "run"): (None, "242e61bb8e5f86e3"),
    ("count_up", "analyze-json"): (58, "59b279134a8a98f7"),
    ("count_up", "analyze-dot"): (58, "cca34b2c71e3e528"),
    ("count_up", "check"): (None, "65b10afe918306d5"),
    ("count_up", "run"): (None, "c43d08158682b6c8"),
    ("cyclic_traverse", "analyze-json"): (62, "f384748999222bf9"),
    ("cyclic_traverse", "analyze-dot"): (62, "3816df75d5984414"),
    ("cyclic_traverse", "check"): (None, "65b10afe918306d5"),
    ("cyclic_traverse", "run"): (None, "e5b39d2a942fb5ff"),
    ("infinite_loop", "analyze-json"): (13, "931b58957f9c0056"),
    ("infinite_loop", "analyze-dot"): (13, "4909244088cbba92"),
    ("infinite_loop", "check"): (None, "65b10afe918306d5"),
    ("infinite_loop", "run"): (None, "0c24024e73962ca1"),
    ("null_deref", "analyze-json"): (7, "ff94ca0ab8fcd3a5"),
    ("null_deref", "analyze-dot"): (7, "7e2ec30e1174718d"),
    ("null_deref", "check"): (None, "65b10afe918306d5"),
    ("null_deref", "run"): (None, "4d8ec985ab8270f8"),
    ("store_into_invariant", "analyze-json"): (476, "5f806f075bdee115"),
    ("store_into_invariant", "analyze-dot"): (476, "47957de0327b0a55"),
    ("store_into_invariant", "check"): (None, "65b10afe918306d5"),
    ("store_into_invariant", "run"): (None, "eac8aa1d4577bfd5"),
    ("straight_line", "analyze-json"): (13, "30dfe2d338f680a6"),
    ("straight_line", "analyze-dot"): (13, "1c047b0678bf33d6"),
    ("straight_line", "check"): (None, "65b10afe918306d5"),
    ("straight_line", "run"): (None, "ad3c4509c51a3c12"),
}


def outputs(path: pathlib.Path, argv):
    """(queries reported, digest) of ``listterm`` run on ``path`` with
    ``argv`` in a fresh working directory."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv + [str(path)])
            files = sorted((p.name, p.read_bytes())
                           for p in pathlib.Path(tmp).iterdir())
        finally:
            os.chdir(cwd)
    queries, kept = None, []
    for line in out.getvalue().splitlines(keepends=True):
        found = QUERIES.fullmatch(line.rstrip("\n"))
        if found:
            queries = int(found.group(1) or found.group(2))
        elif not line.startswith(WALL_TIME):
            kept.append(line)
    blob = repr(("".join(kept), err.getvalue(), code, files)).encode()
    return queries, hashlib.sha256(blob).hexdigest()[:16]


def table() -> str:
    """One line per program and command, in ``GOLDEN``'s layout."""
    lines = []
    for path in sorted(CORPUS.glob("*.ll")):
        for command, argv in COMMANDS.items():
            key = (path.stem, command)
            lines.append(f"    {key!r}: {outputs(path, argv)!r},\n"
                         .replace("'", '"'))
    return "".join(lines)


def test_every_output_matches_its_pin_under_two_hash_seeds():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    children = [
        subprocess.Popen([sys.executable, __file__],
                         env={**env, "PYTHONHASHSEED": seed},
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
        for seed in ("0", "777")]
    tables = []
    try:
        for child in children:
            out, err = child.communicate(timeout=120)
            assert child.returncode == 0, err
            tables.append(ast.literal_eval("{" + out + "}"))
    finally:
        for child in children:
            child.kill()
            child.wait()
    assert tables[0] == tables[1]
    assert tables[0] == GOLDEN


if __name__ == "__main__":
    sys.stdout.write(table())
