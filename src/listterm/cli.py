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
import itertools
import json
import os
import random
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .absdom import ErrState
from .concrete import FuelExhausted, Trace, format_trace, represents, run_concrete
from .ir import ParseError, Program, parse_program
from .its import export_its, extract_its, prove_termination
from .logic import Entailment
from .seg import (
    COMPLETE,
    CONTAINS_ERR,
    EVALUATION,
    GENERALIZATION,
    REFINEMENT,
    BuildConfig,
    Seg,
    build_seg,
    to_dot,
    to_json,
)

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
    """key=value lines; blank lines and # comments ignored."""
    out: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = value.strip()
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

        self.max_nodes = number("max_nodes", 10_000)
        self.max_merges = number("max_merges", 8)
        self.fuel = number("fuel", 10_000)
        self.seed = number("seed", None)
        for key, value in (("max_nodes", self.max_nodes),
                           ("max_merges", self.max_merges),
                           ("fuel", self.fuel),
                           ("runs", getattr(args, "runs", 0))):
            if value < 0:
                raise ValueError(f"{key} must not be negative, got {value}")

    def engine(self) -> Entailment:
        return Entailment(smt_cmd=self.smt)

    def build_config(self) -> BuildConfig:
        return BuildConfig(max_nodes=self.max_nodes,
                           max_merges_per_position=self.max_merges)


def _load(args: argparse.Namespace) -> Tuple[Settings, Program]:
    """The settings and the parsed program of a command; raises ParseError,
    ValueError or OSError on bad input."""
    settings = Settings(args)
    with open(args.file, "r", encoding="utf-8") as fh:
        return settings, parse_program(fh.read())


def _merge_count(seg: Seg) -> int:
    per_dst: Dict[int, int] = {}
    for e in seg.edges:
        if e.kind == GENERALIZATION:
            per_dst[e.dst] = per_dst.get(e.dst, 0) + 1
    return sum(1 for n in per_dst.values() if n >= 2)


def _rank_str(rank) -> str:
    """Human-readable ranking function with run-independent variable names
    (symbolic variable ids depend on a process-global counter)."""
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


def analysis_report(prog: Program, settings: Settings) -> dict:
    engine = settings.engine()
    t0 = time.monotonic()
    seg = build_seg(prog, engine, settings.build_config())
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
    seg = build_seg(prog, settings.engine(), settings.build_config())
    sys.stdout.write(to_json(seg) if args.json else to_dot(seg))
    return EXIT_PROVED


def cmd_its(args: argparse.Namespace, settings: Settings,
            prog: Program) -> int:
    engine = settings.engine()
    seg = build_seg(prog, engine, settings.build_config())
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

def match_trace(trace: Trace, seg: Seg, prog: Program,
                engine: Optional[Entailment] = None) -> Optional[int]:
    """Index of the first concrete state along the trace not represented by
    any reachable graph state, or None when the whole prefix matches.

    Candidate graph nodes advance in lockstep with the trace: refinement
    and generalization edges are silent (no instruction runs), evaluation
    edges consume one concrete step."""
    silent: Dict[int, List[int]] = {}
    stepping: Dict[int, List[int]] = {}
    for e in seg.edges:
        kind = silent if e.kind in (REFINEMENT, GENERALIZATION) else stepping
        kind.setdefault(e.src, []).append(e.dst)

    def closure(nodes: Iterable[int]) -> List[int]:
        seen = set(nodes)
        work = list(seen)
        while work:
            n = work.pop()
            for m in silent.get(n, ()):
                if m not in seen:
                    seen.add(m)
                    work.append(m)
        return sorted(seen)

    from .symexec import is_return

    def frontier(n: int) -> bool:
        # Never stepped: graph construction stopped before expanding it
        # (after reaching an error state, or at a size cap).
        if n in silent or n in stepping:
            return False
        st = seg.states[n]
        return not isinstance(st, ErrState) and not is_return(st, prog)

    cands = closure([seg.root])
    for i, c in enumerate(trace.states):
        live = [n for n in cands
                if isinstance(seg.states[n], ErrState)
                or (seg.states[n].pos == c.pos
                    and represents(c, seg.states[n], prog.layout, engine))]
        if not live:
            return i
        if any(frontier(n) for n in live):
            return None  # matched up to the unexplored part of the graph
        if i + 1 < len(trace.states):
            nxt = [m for n in live for m in stepping.get(n, ())]
            # Halting instructions leave the concrete position in place, so
            # leaf nodes keep representing the final state.
            nxt += [n for n in live if n not in stepping]
            cands = closure(nxt)
    return None


def differential_check(prog: Program, seg: Seg, seeds: Sequence[int],
                       fuel: int, engine: Optional[Entailment] = None):
    """(runs, violations, fuel_exhausted) over the given seeds."""
    violations = []
    exhausted = 0
    for seed in seeds:
        try:
            trace = run_concrete(prog, nondet_stream(seed), fuel=fuel)
        except FuelExhausted:
            # Still check a short prefix of the diverging run.
            exhausted += 1
            trace = run_concrete(prog, nondet_stream(seed), fuel=256,
                                 partial=True)
        bad = match_trace(trace, seg, prog, engine)
        if bad is not None:
            violations.append((seed, bad))
    return len(seeds), violations, exhausted


def cmd_check(args: argparse.Namespace, settings: Settings,
              prog: Program) -> int:
    engine = settings.engine()
    seg = build_seg(prog, engine, settings.build_config())
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
