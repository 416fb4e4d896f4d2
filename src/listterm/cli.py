"""Command-line front end.

Subcommands: ``analyze`` (prove memory safety and termination, optionally
writing the execution graph as DOT or JSON and the extracted transition
system as Horn clauses), ``run`` (concrete interpreter), and ``check``
(differential representation checking of random concrete runs against the
graph). Flags are the only settings, and each subcommand takes only the
flags it reads.

Exit codes for analyze: 0 proved, 1 bad input (an unreadable or malformed
program, a bad or negative flag, or an unwritable artifact path) or a closed
standard output, 2 error state reachable, 3 unknown.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from collections import Counter
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .absdom import ErrState
from .concrete import FuelExhausted, Trace, format_trace, represents, run_concrete
from .ir import GepByte, GepField, ParseError, Program, Store, parse_program
from .its import ITS, export_its, extract_its, prove_termination
from .logic import Entailment, linear_text
from .seg import (
    COMPLETE,
    CONTAINS_ERR,
    EVALUATION,
    GENERALIZATION,
    MAX_MERGES,
    MAX_NODES,
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


def _build(prog: Program, args: argparse.Namespace) -> Tuple[Entailment, Seg]:
    """The engine of a new analysis and the graph it built."""
    engine = Entailment()
    return engine, build_seg(prog, engine, max_nodes=args.max_nodes,
                             max_merges=args.max_merges)


def _merge_count(seg: Seg) -> int:
    per_dst = Counter(e.dst for e in seg.edges if e.kind == GENERALIZATION)
    return sum(1 for n in per_dst.values() if n >= 2)


def _rank_str(rank) -> str:
    """Human-readable ranking function; variables are named by their hints,
    ordered by hint and then id."""
    coeffs = sorted(rank.coeffs, key=lambda vc: (vc[0].hint, vc[0].id))
    return linear_text(rank.const, coeffs, attrgetter("hint"))


def analysis_report(prog: Program, args: argparse.Namespace
                    ) -> Tuple[dict, Seg, Optional[ITS], float]:
    """(report, graph, transition system if extracted, seconds taken)."""
    t0 = time.monotonic()
    engine, seg = _build(prog, args)
    certificates = []
    if seg.outcome == CONTAINS_ERR:
        verdict, code = VERDICT_ERR, EXIT_ERR_STATE
        its = None
    elif seg.outcome != COMPLETE:
        verdict, code = VERDICT_UNKNOWN, EXIT_UNKNOWN
        its = None
    else:
        its = extract_its(seg, engine)
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


def cmd_analyze(args: argparse.Namespace, prog: Program) -> int:
    report, seg, its, elapsed = analysis_report(prog, args)
    exports = []
    if args.emit_graph:
        exports.append(("graph", args.emit_graph, to_json(seg)
                        if args.emit_graph.endswith(".json") else to_dot(seg)))
    if args.emit_its and its is not None:
        exports.append(("its", args.emit_its, export_its(its)))
    for key, path, text in exports:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE_ERROR
        report["artifacts"][key] = path
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


def nondet_stream(seed: int):
    """Deterministic input stream: the first two values are at most 5 (loop
    bounds and list lengths stay testable), the rest are small payloads so
    value comparisons hit occasionally."""
    rng = random.Random(seed)
    yield rng.randrange(0, 6)
    yield rng.randrange(0, 6)
    while True:
        yield rng.randrange(0, 10)


def cmd_run(args: argparse.Namespace, prog: Program) -> int:
    trace = run_concrete(prog, nondet_stream(args.seed), fuel=args.fuel,
                         partial=True)
    if args.trace:
        sys.stdout.write(format_trace(trace))
    if trace.loop is not None:
        print(f"diverges: step {len(trace.instructions)} repeats step "
              f"{trace.loop}", file=sys.stderr)
        return EXIT_UNKNOWN
    final = trace.final
    if not final.halted:  # cut where the fuel ran out
        print("fuel exhausted", file=sys.stderr)
        return EXIT_UNKNOWN
    print(f"halted={final.halted} error={final.error} "
          f"steps={len(trace.instructions)}")
    return EXIT_ERR_STATE if final.error else EXIT_PROVED


# --------------------------------------------------------------------------
# Differential representation checking
# --------------------------------------------------------------------------

# What a followed edge does; ``match_trace`` counts its checks per class.
GEN = GENERALIZATION    # the more abstract target represents the same state
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


def edge_index(seg: Seg, prog: Program) -> tuple:
    """Per node, its silent out-edges and its (target, class) steps."""
    silent, steps = {}, {}
    for e in seg.edges:
        if e.kind == EVALUATION:
            steps.setdefault(e.src, []).append(
                (e.dst, classify_eval_edge(seg, prog, e.src, e.dst)))
        else:
            silent.setdefault(e.src, []).append(e)
    return silent, steps


def match_trace(trace: Trace, seg: Seg, prog: Program, engine: Entailment,
                *, index: Optional[tuple] = None
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

    A lasso (``trace.loop`` set) is the infinite run that repeats its loop
    forever: step ``i`` past the loop's start reads the state
    ``loop + (i - loop) % lap``, where ``lap`` is the loop's length. The
    walk goes round the loop until it is back at a step of the loop with the
    same candidates; from there it would only repeat the checks it has done,
    so every step of the infinite run is checked.

    ``index`` is :func:`edge_index`; one heap memo serves the run's states.

    Returns (checks per edge class, violations). A violation is (step of
    the run whose state the edge's target does not represent, edge class,
    src, dst), or (step, OTHER, -1, -1) when no candidate is left.
    """
    silent, steps = index or edge_index(seg, prog)
    heaps: dict = {}
    counts: Counter = Counter()
    violations: List[Tuple[int, str, int, int]] = []
    loop = trace.loop
    lap = len(trace.states) - 1 - (loop or 0)  # the loop's length
    # Does node n represent the state the run reads at step i? Kept by
    # (node, index of that state) for the whole walk, so later laps of a
    # lasso reuse the answers of earlier ones.
    memo: Dict[Tuple[int, int], bool] = {}

    def rep(n: int, i: int) -> bool:
        k = i if loop is None or i < loop else loop + (i - loop) % lap
        if (n, k) not in memo:
            st, c = seg.states[n], trace.states[k]
            memo[n, k] = isinstance(st, ErrState) or (
                st.pos == c.pos and represents(c, st, prog.layout, engine,
                                                heaps=heaps))
        return memo[n, k]

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

    walked = set()  # (step of the loop, candidates) pairs seen
    cands = closure([seg.root] if rep(seg.root, 0) else [], 0)
    i = 0
    while True:
        if not cands:
            violations.append((i, OTHER, -1, -1))
            break
        if loop is None and i + 1 == len(trace.states) or \
                any(frontier(n) for n in cands):
            break
        if loop is not None and i >= loop:
            key = ((i - loop) % lap, tuple(cands))
            if key in walked:
                break
            walked.add(key)
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
        i += 1
        cands = closure(sorted(set(stepped)), i)
    return counts, violations


def differential_check(prog: Program, seg: Seg, seeds: Sequence[int],
                       fuel: int, engine: Entailment):
    """(runs, [(seed, first unrepresented step)], fuel_exhausted) over the
    given seeds.  A run that halts is checked to its end, and a run that
    diverges to the fixpoint of the walk round its lasso
    (:func:`match_trace`).  A run that neither halts nor repeats a state
    within ``fuel`` steps is counted as fuel-exhausted and checked on
    those steps."""
    violations, exhausted = [], 0
    index = edge_index(seg, prog)  # one per graph, shared by every run
    for seed in seeds:
        try:
            trace = run_concrete(prog, nondet_stream(seed), fuel=fuel)
        except FuelExhausted as e:
            trace = e.trace
            exhausted += 1
        bad = match_trace(trace, seg, prog, engine, index=index)[1]
        if bad:
            violations.append((seed, bad[0][0]))
    return len(seeds), violations, exhausted


def cmd_check(args: argparse.Namespace, prog: Program) -> int:
    engine, seg = _build(prog, args)
    seeds = [args.seed + i for i in range(args.runs)]
    runs, violations, exhausted = differential_check(
        prog, seg, seeds, args.fuel, engine)
    print(f"{runs} runs, {len(violations)} representation violations, "
          f"{exhausted} fuel-exhausted")
    for seed, step in violations:
        print(f"  seed {seed}: unmatched at step {step}", file=sys.stderr)
    return EXIT_PROVED if not violations else EXIT_UNKNOWN


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A bad flag raises ValueError, so that ``main`` reports it on one line
    with exit 1, like any other bad input."""

    def error(self, message: str):
        raise ValueError(message)


def count(text: str) -> int:
    """A limit or a number of runs: an integer that is not negative."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must not be negative, got {value}")
    return value


def artifact_path(text: str) -> str:
    """A file to write: not a directory, in a directory that is writable."""
    folder = os.path.dirname(text) or "."
    if os.path.isdir(text) or not os.path.isdir(folder) or \
            not os.access(folder, os.W_OK | os.X_OK):
        raise argparse.ArgumentTypeError(f"cannot write {text!r}")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="listterm",
        description="Termination and memory-safety prover for linked-list "
                    "programs in a mini LLVM-like IR.")
    sub = parser.add_subparsers(dest="command", required=True)

    analysis = argparse.ArgumentParser(add_help=False)
    analysis.add_argument("--max-nodes", type=count, default=MAX_NODES,
                          dest="max_nodes", help="graph size cap")
    analysis.add_argument("--max-merges", type=count, default=MAX_MERGES,
                          dest="max_merges", help="merges per program point")
    concrete = argparse.ArgumentParser(add_help=False)
    concrete.add_argument("--seed", type=int, default=0,
                          help="seed of the nondeterministic inputs")
    concrete.add_argument("--fuel", type=count, default=10_000,
                          help="steps a concrete run may take")

    p = sub.add_parser("analyze", parents=[analysis],
                       help="prove memory safety and termination")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.add_argument("--emit-graph", dest="emit_graph", metavar="PATH",
                   type=artifact_path,
                   help="write the graph (DOT, or JSON for .json paths)")
    p.add_argument("--emit-its", dest="emit_its", metavar="PATH",
                   type=artifact_path,
                   help="write the extracted transition system")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("run", parents=[concrete],
                       help="run the concrete interpreter")
    p.add_argument("--trace", action="store_true", help="print the trace")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("check", parents=[analysis, concrete],
                       help="differential representation check")
    p.add_argument("--runs", type=count, default=20)
    p.set_defaults(func=cmd_check)

    for p in sub.choices.values():
        p.add_argument("file", help="IR source file")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with open(args.file, "r", encoding="utf-8") as fh:
            prog = parse_program(fh.read())
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    try:
        code = args.func(args, prog)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed standard output
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PARSE_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
