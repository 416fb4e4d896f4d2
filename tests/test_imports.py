"""Every name a module of the package imports is used in that module, every
parameter a function takes is read by it, every module-level definition is
read by the package or its benchmark (or listed), every import sits at module
level, no module keeps mutable state (whatever an analysis changes
belongs to that analysis's engine), no module starts a process (nothing
outside the package decides a query), a symbolic step goes to the error
state in one place, only ``ir.py`` says what the IR means, only
``logic.py`` makes variables, and no module imports ``dataclasses``."""

from __future__ import annotations

import ast
import pathlib
import subprocess
import sys

from listterm.ir import ICMP

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "listterm"


def unused_imports(tree: ast.Module):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports_in_the_package():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(SRC.glob("*.py"))
             for line, name in unused_imports(ast.parse(path.read_text()))]
    assert found == []


# Parameters a function takes because it shares a dispatch signature.
DISPATCH_PARAMETERS = {"cmd_": {"args", "prog"},
                       "rule_": {"s", "ins", "prog", "engine"}}


def unused_parameters(tree: ast.Module):
    """(line, function, parameter) for each parameter that its function's
    body never reads, apart from ``self``/``cls``, ``_``-prefixed names and
    the dispatch signatures above."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        exempt = {"self", "cls"}.union(*(
            params for prefix, params in DISPATCH_PARAMETERS.items()
            if name.startswith(prefix)))
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + \
            [p for p in (a.vararg, a.kwarg) if p is not None]
        used = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        found += [(node.lineno, name, p.arg) for p in params
                  if p.arg not in used and p.arg not in exempt
                  and not p.arg.startswith("_")]
    return sorted(found)


def test_no_unused_parameters():
    found = [f"{path.name}:{line}: {name}({param})"
             for path in sorted(SRC.glob("*.py"))
             for line, name, param in unused_parameters(
                 ast.parse(path.read_text()))]
    assert found == []


PERFBENCH = SRC.parent.parent / "perfbench"


def module_definitions(tree: ast.Module):
    """(line, name) for each function, class and assignment target at module
    level, the names of a tuple target included."""
    found = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found.append((stmt.lineno, stmt.name))
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else \
                [stmt.target]
            found += [(node.lineno, node.id) for t in targets
                      for node in ast.walk(t) if isinstance(node, ast.Name)
                      and isinstance(node.ctx, ast.Store)]
    return found


def read_names(tree: ast.Module):
    """Every name the module reads, bare or as an attribute."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            } | {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load)}


# Definitions that neither the package nor the benchmark reads, each with
# why it stays.
UNREAD_DEFINITIONS = {
    "ir.pretty_print": "tests print parsed programs with it, and the corpus "
                       "mutants of ROADMAP item 6 will",
    "its.parse_its_text": "criterion 7 reads exported systems back with it, "
                          "and the proof checker of ROADMAP item 2 will",
}


def test_no_unreferenced_definitions():
    """A name that only tests read counts as unread: code that neither the
    CLI nor the benchmark runs is deleted, or listed above while it is
    unread."""
    read = set().union(*(read_names(ast.parse(path.read_text()))
                         for path in [*SRC.glob("*.py"),
                                      *PERFBENCH.glob("*.py")]))
    unread = {f"{path.stem}.{name}": f"{path.name}:{line}: {name}"
              for path in sorted(SRC.glob("*.py"))
              for line, name in module_definitions(ast.parse(path.read_text()))
              if name not in read and name != "__version__"}
    assert [v for k, v in unread.items() if k not in UNREAD_DEFINITIONS] == []
    assert set(UNREAD_DEFINITIONS) <= set(unread)


def nested_imports(tree: ast.Module):
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and node not in tree.body)


def test_imports_only_at_module_level():
    found = [f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py"))
             for line in nested_imports(ast.parse(path.read_text()))]
    assert found == []


CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
              ast.SetComp)
CONTAINER_TYPES = {"dict", "list", "set", "defaultdict", "OrderedDict",
                   "Counter", "deque"}
MUTATORS = {"append", "extend", "insert", "pop", "popitem", "remove", "clear",
            "update", "setdefault", "add", "discard", "sort", "reverse"}


def _called(node: ast.AST) -> str:
    """The name a call expression calls (``count`` for ``itertools.count``),
    or ''."""
    if not isinstance(node, ast.Call):
        return ""
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", "")


def module_state(tree: ast.Module):
    """(line, what) for each ``global`` statement, each module-level
    ``itertools.count(...)`` binding, and each write into a module-level
    dict, list or set from a function or class body."""
    found = [(node.lineno, "global " + ", ".join(node.names))
             for node in ast.walk(tree) if isinstance(node, ast.Global)]
    containers = set()
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) or \
                stmt.value is None:
            continue
        targets = stmt.targets if isinstance(stmt, ast.Assign) else \
            [stmt.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if _called(stmt.value) == "count":
            found += [(stmt.lineno, f"{name} = count(...)") for name in names]
        elif isinstance(stmt.value, CONTAINERS) or \
                _called(stmt.value) in CONTAINER_TYPES:
            containers.update(names)

    def container(node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id in containers

    for stmt in tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Subscript) and container(node.value) \
                    and isinstance(node.ctx, (ast.Store, ast.Del)):
                found.append((node.lineno, f"{node.value.id}[...] written"))
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in MUTATORS and container(node.func.value):
                found.append((node.lineno,
                              f"{node.func.value.id}.{node.func.attr}()"))
    return sorted(found)


def test_no_module_level_mutable_state():
    found = [f"{path.name}:{line}: {what}"
             for path in sorted(SRC.glob("*.py"))
             for line, what in module_state(ast.parse(path.read_text()))]
    assert found == []


def _starts_process(name: str) -> bool:
    """Is ``name`` one of the ``os`` functions that run another program?"""
    return name in {"system", "popen"} or name.startswith(("exec", "spawn"))


def process_sites(tree: ast.Module):
    """(line, what) for each import of ``subprocess`` and each use of an
    ``os`` function that runs another program."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {alias.name}")
                      for alias in node.names
                      if alias.name.split(".")[0] == "subprocess"]
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            if node.module.split(".")[0] == "subprocess":
                found.append((node.lineno, f"from {node.module} import"))
            elif node.module == "os":
                found += [(node.lineno, f"from os import {alias.name}")
                          for alias in node.names
                          if _starts_process(alias.name)]
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id == "os" \
                and _starts_process(node.attr):
            found.append((node.lineno, f"os.{node.attr}"))
    return sorted(found)


def test_no_module_starts_a_process():
    found = [f"{path.name}:{line}: {what}"
             for path in sorted(SRC.glob("*.py"))
             for line, what in process_sites(ast.parse(path.read_text()))]
    assert found == []


def test_process_sites_are_found():
    """The lint above sees each way of starting a process, and nothing else
    that ``os`` offers."""
    source = """
import subprocess as sp
from subprocess import run
import os
from os import execvp, path
os.system("x"); os.popen("x"); os.spawnl(0, "x"); os.execv("x", [])
os.path.join("a"); os.getcwd(); os.access("a", 0)
"""
    assert [what for _, what in process_sites(ast.parse(source))] == [
        "import subprocess", "from subprocess import", "from os import execvp",
        "os.execv", "os.popen", "os.spawnl", "os.system"]


def err_sites(tree: ast.Module):
    """The module-level statements, other than imports, that name ``ERR``:
    a function or class by its name, anything else by its line."""
    return sorted(getattr(stmt, "name", str(stmt.lineno)) for stmt in tree.body
                  if not isinstance(stmt, (ast.Import, ast.ImportFrom))
                  and any(getattr(node, "id", getattr(node, "attr", None))
                          == "ERR" for node in ast.walk(stmt)))


def test_only_step_goes_to_err():
    """Only ``step`` names the error state: before any rule runs, when an
    operand of the instruction has no value, and once every rule has
    returned None, which a rule does only when its side conditions are not
    proven."""
    assert err_sites(ast.parse((SRC / "symexec.py").read_text())) == ["step"]


def ir_meaning_sites(tree: ast.Module):
    """(line, what) for each string constant that names an ``icmp``
    predicate and each call that builds a ``ProgramPosition``: what a
    predicate compares and which positions exist are ``ir.py``'s to say."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in ICMP:
            found.append((node.lineno, repr(node.value)))
        elif _called(node) == "ProgramPosition":
            found.append((node.lineno, "ProgramPosition(...)"))
    return sorted(found)


def test_only_ir_says_what_the_ir_means():
    found = [f"{path.name}:{line}: {what}"
             for path in sorted(SRC.glob("*.py")) if path.name != "ir.py"
             for line, what in ir_meaning_sites(ast.parse(path.read_text()))]
    assert found == []


def test_ir_meaning_sites_are_found():
    source = """
if pred in ("ult", "slt"): pos = ir.ProgramPosition(b, 0)
ProgramPosition("entry", 1); f"{pred}"; "equal"; 0
"""
    assert [what for _, what in ir_meaning_sites(ast.parse(source))] == [
        "'slt'", "'ult'", "ProgramPosition(...)", "ProgramPosition(...)"]


def symvar_sites(tree: ast.Module):
    """The line of each call that builds a ``SymVar``: an analysis's
    variables come from its engine, and the exports' names from
    ``logic.dense_renaming``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if _called(node) == "SymVar")


def test_only_logic_makes_variables():
    found = [f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py")) if path.name != "logic.py"
             for line in symvar_sites(ast.parse(path.read_text()))]
    assert found == []


def test_variable_sites_are_found():
    source = """
v = SymVar(1, "x")
w = logic.SymVar(2); engine.fresh("x"); isinstance(v, SymVar)
"""
    assert symvar_sites(ast.parse(source)) == [2, 3]


def dataclass_imports(tree: ast.Module):
    """The line of each import of ``dataclasses``.  The module loads
    ``inspect`` and its imports, about 1 MB of every process's memory:
    records are ``NamedTuple``s, ``ir.Record``s or ``ir.Fields``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Import) and any(
                      alias.name.split(".")[0] == "dataclasses"
                      for alias in node.names)
                  or isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[0] == "dataclasses")


def test_no_module_imports_dataclasses():
    found = [f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py"))
             for line in dataclass_imports(ast.parse(path.read_text()))]
    assert found == []


def test_dataclass_imports_are_found():
    source = """
import dataclasses
from dataclasses import dataclass, field
import os, dataclasses as dc
from typing import NamedTuple
@dataclass
class A: pass
"""
    assert dataclass_imports(ast.parse(source)) == [2, 3, 4]


def test_the_cli_loads_neither_dataclasses_nor_inspect():
    """In a fresh interpreter, importing the CLI loads neither module."""
    out = subprocess.run(
        [sys.executable, "-c", "import sys, listterm.cli; print(sorted("
         "{'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
