"""Command-line front end.

Subcommands: ``analyze`` (prove memory safety and termination), ``graph``
(DOT/JSON export of the execution graph), ``its`` (Horn-clause export of
the extracted transition system), ``run`` (concrete interpreter), and
``check`` (differential representation checking of random concrete runs
against the graph).

Exit codes for analyze: 0 proved, 1 bad input (an unreadable or malformed
program or config file, or a negative limit), 2 error state reachable,
3 unknown.  Option precedence: command-line flags, then the config file,
then environment variables.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from .absdom import ErrState
from .concrete import FuelExhausted, Trace, format_trace, represents, run_concrete
from .ir import GepByte, GepField, ParseError, Program, Store, parse_program
from .its import ITS, export_its, extract_its, prove_termination
from .logic import Entailment
from .seg import (
    COMPLETE,
    CONTAINS_ERR,
    EVALUATION,
    GENERALIZATION,
    MAX_MERGES,
    MAX_NODES,
    Edge,
    Seg,
    build_seg,
    to_dot,
    to_json,
)
from .symexec import is_return

EXIT_PROVED = 0
EXIT_PARSE_ERROR = 1
EXIT_ERR_STATE = 2
EXIT_UNKNOWN = 3

VERDICT_PROVED = "MemorySafeAndTerminating"
VERDICT_ERR = "ERR-reached"
VERDICT_UNKNOWN = "Unknown"

ENV_SMT = "LISTTERM_SMT_CMD"

_CONFIG_KEYS = ("smt", "max_nodes", "max_merges", "fuel", "seed")


def load_config(path: str) -> Dict[str, str]:
    """key=value lines, integers for every key but ``smt``; blank lines and
    # comments ignored."""
    out: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            key, value = key.strip(), value.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                if key != "smt":
                    int(value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key} must be an "
                                 f"integer, got {value!r}") from None
            out[key] = value
    return out


def resolve_option(flag_value, file_value, env_value, cast=str):
    for v in (flag_value, file_value, env_value):
        if v is not None:
            return cast(v)
    return None


class Settings:
    def __init__(self, args: argparse.Namespace):
        cfg = load_config(args.config) if getattr(args, "config", None) else {}
        self.smt = resolve_option(getattr(args, "smt", None),
                                  cfg.get("smt"), os.environ.get(ENV_SMT))

        def number(key: str, default: Optional[int]) -> Optional[int]:
            # An explicit 0 is kept; only an absent option takes the default.
            value = resolve_option(getattr(args, key, None), cfg.get(key),
                                   None, int)
            return default if value is None else value

        self.max_nodes = number("max_nodes", MAX_NODES)
        self.max_merges = number("max_merges", MAX_MERGES)
        self.fuel = number("fuel", 10_000)
        self.seed = number("seed", None)
        for key, value in (("max_nodes", self.max_nodes),
                           ("max_merges", self.max_merges),
                           ("fuel", self.fuel),
                           ("runs", getattr(args, "runs", 0))):
            if value < 0:
                raise ValueError(f"{key} must not be negative, got {value}")


def _load(args: argparse.Namespace) -> Tuple[Settings, Program]:
    """The settings and the parsed program of a command; raises ParseError,
    ValueError or OSError on bad input."""
    settings = Settings(args)
    with open(args.file, "r", encoding="utf-8") as fh:
        return settings, parse_program(fh.read())


def _build(prog: Program, settings: Settings) -> Tuple[Entailment, Seg]:
    """The engine of a new analysis and the graph it built."""
    engine = Entailment(smt_cmd=settings.smt)
    return engine, build_seg(prog, engine, max_nodes=settings.max_nodes,
                             max_merges=settings.max_merges)


def _merge_count(seg: Seg) -> int:
    per_dst: Dict[int, int] = {}
    for e in seg.edges:
        if e.kind == GENERALIZATION:
            per_dst[e.dst] = per_dst.get(e.dst, 0) + 1
    return sum(1 for n in per_dst.values() if n >= 2)


def _rank_str(rank) -> str:
    """Human-readable ranking function; variables are named by their hints,
    ordered by hint and then id."""
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


def analysis_report(prog: Program, settings: Settings
                    ) -> Tuple[dict, Seg, Optional[ITS], float]:
    """(report, graph, transition system if extracted, seconds taken)."""
    t0 = time.monotonic()
    engine, seg = _build(prog, settings)
    certificates = []
    if seg.outcome == CONTAINS_ERR:
        verdict, code = VERDICT_ERR, EXIT_ERR_STATE
        its = None
    elif seg.outcome != COMPLETE:
        verdict, code = VERDICT_UNKNOWN, EXIT_UNKNOWN
        its = None
    else:
        its = extract_its(seg, prog, engine)
        result = prove_termination(its, engine)
        if result.terminating:
            verdict, code = VERDICT_PROVED, EXIT_PROVED
            certificates = [
                {"scc": list(c.scc), "rank": _rank_str(c.rank)}
                for c in result.certificates]
        else:
            verdict, code = VERDICT_UNKNOWN, EXIT_UNKNOWN
    report = {
        "verdict": verdict,
        "exit_code": code,
        "seg_outcome": seg.outcome,
        "stats": {
            "nodes": len(seg.states),
            "edges": len(seg.edges),
            "merges": _merge_count(seg),
            "entailment_queries": engine.queries,
            "its_locations": len(its.locations) if its else 0,
            "its_transitions": len(its.transitions) if its else 0,
        },
        "certificates": certificates,
        "artifacts": {},
    }
    return report, seg, its, time.monotonic() - t0


def cmd_analyze(args: argparse.Namespace, settings: Settings,
                prog: Program) -> int:
    report, seg, its, elapsed = analysis_report(prog, settings)
    if args.emit_graph:
        text = to_json(seg) if args.emit_graph.endswith(".json") else to_dot(seg)
        with open(args.emit_graph, "w", encoding="utf-8") as fh:
            fh.write(text)
        report["artifacts"]["graph"] = args.emit_graph
    if args.emit_its and its is not None:
        with open(args.emit_its, "w", encoding="utf-8") as fh:
            fh.write(export_its(its))
        report["artifacts"]["its"] = args.emit_its
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"verdict: {report['verdict']}")
        st = report["stats"]
        print(f"graph: {st['nodes']} states, {st['edges']} edges, "
              f"{st['merges']} merge points")
        print(f"transition system: {st['its_locations']} locations, "
              f"{st['its_transitions']} transitions")
        for cert in report["certificates"]:
            print(f"rank for component {cert['scc']}: {cert['rank']}")
        print(f"entailment queries: {st['entailment_queries']}")
        print(f"wall time: {elapsed:.2f}s")
    return report["exit_code"]


def cmd_graph(args: argparse.Namespace, settings: Settings,
              prog: Program) -> int:
    _, seg = _build(prog, settings)
    sys.stdout.write(to_json(seg) if args.json else to_dot(seg))
    return EXIT_PROVED


def cmd_its(args: argparse.Namespace, settings: Settings,
            prog: Program) -> int:
    engine, seg = _build(prog, settings)
    if seg.outcome != COMPLETE:
        print(f"graph not complete: {seg.outcome}", file=sys.stderr)
        return EXIT_ERR_STATE if seg.outcome == CONTAINS_ERR else EXIT_UNKNOWN
    sys.stdout.write(export_its(extract_its(seg, prog, engine)))
    return EXIT_PROVED


def nondet_stream(seed: Optional[int], max_length: int = 5):
    """Deterministic input stream: the first two values are small (loop
    bounds and list lengths stay testable), the rest are small payloads so
    value comparisons hit occasionally."""
    rng = random.Random(0 if seed is None else seed)
    yield rng.randrange(0, max_length + 1)
    yield rng.randrange(0, max_length + 1)
    while True:
        yield rng.randrange(0, 10)


def cmd_run(args: argparse.Namespace, settings: Settings,
            prog: Program) -> int:
    try:
        trace = run_concrete(prog, nondet_stream(settings.seed),
                             fuel=settings.fuel)
    except FuelExhausted:
        print("fuel exhausted", file=sys.stderr)
        return EXIT_UNKNOWN
    if args.trace:
        sys.stdout.write(format_trace(trace, prog))
    final = trace.final
    print(f"halted={final.halted} error={final.error} "
          f"steps={len(trace.instructions)}")
    return EXIT_ERR_STATE if final.error else EXIT_PROVED


# --------------------------------------------------------------------------
# Differential representation checking
# --------------------------------------------------------------------------

# What a followed edge does; ``match_trace`` counts its checks per class.
GEN = "generalization"  # the more abstract target represents the same state
EXT = "extension"       # a store that grows a summarized list segment
TRAV = "traversal"      # an address computation moving a summary's root
OTHER = "other"         # any other evaluation edge


def classify_eval_edge(seg: Seg, prog: Program, src: int, dst: int) -> str:
    """EXT for a store and TRAV for an address computation that change a
    list summary's root or length, OTHER for any other evaluation edge."""
    a, b = seg.states[src], seg.states[dst]
    if isinstance(a, ErrState) or isinstance(b, ErrState):
        return OTHER
    if [(l.ad, l.length) for l in a.li] == [(l.ad, l.length) for l in b.li]:
        return OTHER
    ins = prog.instruction_at(a.pos)
    if isinstance(ins, Store):
        return EXT
    if isinstance(ins, (GepByte, GepField)):
        return TRAV
    return OTHER


def match_trace(trace: Trace, seg: Seg, prog: Program, engine: Entailment
                ) -> Tuple[Counter, List[Tuple[int, str, int, int]]]:
    """Follow a concrete run through the graph and check every followed edge.

    Candidate nodes advance in lockstep with the trace. Refinement and
    generalization edges are silent (no instruction runs): a refinement
    branch is followed only when its target represents the concrete state,
    since a run takes one branch of a case split, while a generalization
    edge out of a representing node must keep representing it. Each
    evaluation edge out of a candidate consumes one step, and its target
    must represent the next state. Nodes without one (returns and ERR) keep
    representing the final state. The walk stops at a node that graph
    construction never expanded (after an error state, or at a size cap).

    Returns (checks per edge class, violations). A violation is (index of
    the concrete state the edge's target does not represent, edge class,
    src, dst), or (index, OTHER, -1, -1) when no candidate is left.
    """
    silent: Dict[int, List[Edge]] = {}
    steps: Dict[int, List[Tuple[int, str]]] = {}
    for e in seg.edges:
        if e.kind == EVALUATION:
            steps.setdefault(e.src, []).append(
                (e.dst, classify_eval_edge(seg, prog, e.src, e.dst)))
        else:
            silent.setdefault(e.src, []).append(e)
    counts: Counter = Counter()
    violations: List[Tuple[int, str, int, int]] = []
    # Does node n represent trace.states[i]? Kept for one step at a time.
    memo: Dict[Tuple[int, int], bool] = {}

    def rep(n: int, i: int) -> bool:
        if (n, i) not in memo:
            st, c = seg.states[n], trace.states[i]
            memo[n, i] = isinstance(st, ErrState) or (
                st.pos == c.pos and represents(c, st, prog.layout, engine))
        return memo[n, i]

    def frontier(node: int) -> bool:
        if node in silent or node in steps:
            return False
        st = seg.states[node]
        return not isinstance(st, ErrState) and not is_return(st, prog)

    def closure(live: List[int], i: int) -> List[int]:
        """The representing nodes reached from ``live`` by silent edges."""
        seen = set(live)
        work = list(live)
        while work:
            for e in silent.get(work.pop(), ()):
                if e.dst in seen:
                    continue
                if e.kind == GENERALIZATION:
                    counts[GEN] += 1
                    if not rep(e.dst, i):
                        violations.append((i, GEN, e.src, e.dst))
                        continue
                elif not rep(e.dst, i):
                    continue
                seen.add(e.dst)
                work.append(e.dst)
        return sorted(seen)

    cands = closure([seg.root] if rep(seg.root, 0) else [], 0)
    for i in range(len(trace.states)):
        if not cands:
            violations.append((i, OTHER, -1, -1))
            break
        if i + 1 == len(trace.states) or any(frontier(n) for n in cands):
            break
        memo.clear()
        stepped: List[int] = []
        for n in cands:
            if n not in steps:
                if rep(n, i + 1):  # a halting node: the position stays put
                    stepped.append(n)
                continue
            for dst, cls in steps[n]:
                counts[cls] += 1
                if rep(dst, i + 1):
                    stepped.append(dst)
                else:
                    violations.append((i + 1, cls, n, dst))
        cands = closure(sorted(set(stepped)), i + 1)
    return counts, violations


def differential_check(prog: Program, seg: Seg, seeds: Sequence[int],
                       fuel: int, engine: Entailment):
    """(runs, [(seed, first unrepresented step)], fuel_exhausted) over the
    given seeds.  A run that does not halt within ``fuel`` steps is
    checked on its first 256 steps only."""
    violations = []
    exhausted = 0
    for seed in seeds:
        try:
            trace = run_concrete(prog, nondet_stream(seed),
                                 fuel=max(fuel, 256))
        except FuelExhausted as e:
            trace = e.trace
        if not trace.final.halted or len(trace.instructions) > fuel:
            exhausted += 1
            trace = Trace(trace.states[:257], trace.instructions[:256])
        bad = match_trace(trace, seg, prog, engine)[1]
        if bad:
            violations.append((seed, bad[0][0]))
    return len(seeds), violations, exhausted


def cmd_check(args: argparse.Namespace, settings: Settings,
              prog: Program) -> int:
    engine, seg = _build(prog, settings)
    base = settings.seed if settings.seed is not None else 0
    seeds = [base + i for i in range(args.runs)]
    runs, violations, exhausted = differential_check(
        prog, seg, seeds, settings.fuel, engine)
    print(f"{runs} runs, {len(violations)} representation violations, "
          f"{exhausted} fuel-exhausted")
    for seed, step in violations:
        print(f"  seed {seed}: unmatched at step {step}", file=sys.stderr)
    return EXIT_PROVED if not violations else EXIT_UNKNOWN


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="listterm",
        description="Termination and memory-safety prover for linked-list "
                    "programs in a mini LLVM-like IR.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="IR source file")
    common.add_argument("--config", help="key=value options file")
    common.add_argument("--smt", help="external SMT solver command")
    common.add_argument("--max-nodes", type=int, dest="max_nodes")
    common.add_argument("--max-merges", type=int, dest="max_merges")
    common.add_argument("--seed", type=int)
    common.add_argument("--fuel", type=int)

    p = sub.add_parser("analyze", parents=[common],
                       help="prove memory safety and termination")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.add_argument("--emit-graph", dest="emit_graph", metavar="PATH",
                   help="write the graph (DOT, or JSON for .json paths)")
    p.add_argument("--emit-its", dest="emit_its", metavar="PATH",
                   help="write the extracted transition system")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("graph", parents=[common], help="print the graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("its", parents=[common],
                       help="print the transition system export")
    p.set_defaults(func=cmd_its)

    p = sub.add_parser("run", parents=[common],
                       help="run the concrete interpreter")
    p.add_argument("--trace", action="store_true", help="print the trace")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("check", parents=[common],
                       help="differential representation check")
    p.add_argument("--runs", type=int, default=20)
    p.set_defaults(func=cmd_check)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings, prog = _load(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    return args.func(args, settings, prog)


if __name__ == "__main__":
    sys.exit(main())
