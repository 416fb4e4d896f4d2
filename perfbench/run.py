"""listterm benchmark: closed-loop workloads, one child process at a time.

    python3 perfbench/run.py --workload {prove,check,triage} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a listterm checkout. Each program runs in a fresh child
process (``child.py``), and one child works at a time, so no module-level
cache or counter of listterm carries over between programs, and each
child's peak RSS comes from its own rusage. Every verdict is compared with
``EXPECTED_EXIT`` and every replayed run must be represented by the graph;
a wrong answer, crash, timeout or count that differs between repetitions
is a failed operation.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run. The line
before it records the environment, the seeds and per-program detail.
``README.md`` beside this file says why the workloads and metrics are these.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(ROOT, "corpus")

# Exit code of ``listterm analyze`` for each corpus program: the answers the
# acceptance gate (criterion 3) requires, written out here by hand. 0 proved,
# 2 error state reachable, 3 unknown.
EXPECTED_EXIT = {
    "build_only": 0,
    "build_traverse_ptr": 0,
    "build_traverse_field": 0,
    "build_search_value": 0,
    "build_append": 0,
    "count_up": 0,
    "straight_line": 0,
    "cyclic_traverse": 3,
    "infinite_loop": 3,
    "store_into_invariant": 2,
    "null_deref": 2,
}

WORKLOADS = {
    # Long proofs: graph construction, entailment-bound.
    "prove": ["build_only", "build_traverse_ptr", "build_traverse_field"],
    # Oracle replay after the graphs are built (the builds are set-up).
    "check": ["build_search_value", "build_traverse_ptr", "cyclic_traverse"],
    # Short CLI requests, including every ERR and Unknown verdict.
    "triage": ["count_up", "straight_line", "cyclic_traverse",
               "infinite_loop", "null_deref", "store_into_invariant"],
}

FUEL = 10_000          # concrete steps per replayed run, as `listterm check`
PER_LENGTH = 1         # replayed runs per list length 0..5 in one batch
MIN_ROUNDS = 3         # replay rounds in check, however short the window
PERCENTILE = 75        # a program's time: this percentile of its samples
REQUEST_LIMIT_S = 60   # per analysis, graph build or replay batch
RUN_LIMIT_S = 170      # whole run; children still running then are killed


class Failures:
    """Operations attempted and failed; a failed one is never retried."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, attempted, failed, problems):
        self.attempted += attempted
        self.failed += failed
        self.notes += problems


class Child:
    """A child process spoken to in JSON lines. No read waits past the
    deadline it is given; a child still running at its deadline is killed.
    ``error`` says what went wrong, if anything."""

    def __init__(self, spec, commands=False):
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, CHILD, json.dumps(spec)], cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=SRC),
            stdin=subprocess.PIPE if commands else subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        self.error = ""
        self._out = {self.proc.stdout: b"", self.proc.stderr: b""}
        self._open = set(self._out)

    def _pump(self, deadline, want_line):
        """Read output until a whole line is on stdout (``want_line``) or
        both streams are closed; False if the deadline came first."""
        while self._open:
            if want_line and b"\n" in self._out[self.proc.stdout]:
                return True
            left = deadline - time.monotonic()
            if left <= 0:
                return False
            readable, _, _ = select.select(list(self._open), [], [], left)
            for fh in readable:
                data = os.read(fh.fileno(), 1 << 16)
                if data:
                    self._out[fh] += data
                else:
                    self._open.discard(fh)
        return True

    def read(self, deadline):
        """The next JSON line, or None."""
        in_time = self._pump(deadline, True)
        line, sep, rest = self._out[self.proc.stdout].partition(b"\n")
        if not sep:
            self.error = "timed out" if not in_time else "no result"
            return None
        self._out[self.proc.stdout] = rest
        try:
            return json.loads(line)
        except ValueError:
            self.error = f"unreadable output {line[-300:]!r}"
            return None

    def send(self, doc):
        try:
            self.proc.stdin.write((json.dumps(doc) + "\n").encode())
            self.proc.stdin.flush()
            return True
        except OSError as exc:
            self.error = f"cannot send: {exc}"
            return False

    def finish(self, deadline):
        """Close its input and reap it; returns its peak RSS in KiB."""
        if self.proc.stdin:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
        if not self._pump(deadline, False):
            self.proc.kill()
            self.error = self.error or "killed at its time limit"
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.wall = time.monotonic() - self.spawned
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.proc.stderr.close()
        if self.proc.returncode:
            err = self._out[self.proc.stderr].decode(errors="replace")
            self.error = "; ".join(filter(None, [
                self.error,
                f"exit {self.proc.returncode}: {err.strip()[-300:]}"]))
        return usage.ru_maxrss


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _typical(xs):
    """The upper quartile: steadier than the median on a shared host, whose
    fast spells come and go (README.md, Noise)."""
    return _percentile(xs, PERCENTILE)


def _geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else 0.0


# -- combining traced requests into one pass ---------------------------------

def _merge_repeats(summaries, what, problems):
    """One summary from repeated traced requests of the same work: mean
    times (means keep the self times adding up to the root), counters that
    must agree, pooled latency samples."""
    first = summaries[0]["counters"]
    if any(s["counters"] != first for s in summaries):
        problems.append(f"{what}: traced counts differ between repetitions")
    names = set().union(*(s["spans"] for s in summaries))
    spans = {n: [statistics.fmean([s["spans"].get(n, [0, 0.0, 0.0])[i]
                                   for s in summaries]) for i in range(3)]
             for n in names}
    samples = {}
    for s in summaries:
        for k, v in s["samples"].items():
            samples.setdefault(k, []).extend(v)
    return {"spans": spans, "counters": dict(first), "samples": samples,
            "root_s": statistics.fmean([s["root_s"] for s in summaries])}


def _sum_summaries(parts):
    total = {"spans": {}, "counters": {}, "samples": {}, "root_s": 0.0}
    for p in parts:
        for n, row in p["spans"].items():
            acc = total["spans"].setdefault(n, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
        for k, v in p["counters"].items():
            total["counters"][k] = total["counters"].get(k, 0) + v
        for k, v in p["samples"].items():
            total["samples"].setdefault(k, []).extend(v)
        total["root_s"] += p["root_s"]
    return total


def _percentile(values, q):
    """Nearest-rank percentile (q in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    return xs[max(0, math.ceil(q / 100 * len(xs)) - 1)]


def _percentile_ms(values, q):
    """Nearest-rank percentile (q in 0..100), in ms, of samples in s."""
    return 1000 * _percentile(values, q)


def layer_metrics(s, import_s, verdict_untraced, verdict_traced):
    """Per-layer metrics of one traced pass of a workload."""
    c = s["counters"].get

    def total(name):
        return s["spans"].get(name, [0, 0.0, 0.0])[1]

    def self_s(*names):
        return sum(s["spans"].get(n, [0, 0.0, 0.0])[2] for n in names)

    calls = c("logic.entails_calls", 0)
    misses = c("logic.entails_misses", 0)
    layers = {
        "cli.self_s": self_s("cli.main", "cli.differential_check",
                             "cli.match_trace"),
        "ir.parse_s": self_s("ir.parse_program"),
        "logic.entails_s": self_s("logic.entails"),
        "absdom.self_s": self_s("absdom.state_formula",
                                "absdom.is_satisfiable"),
        "symexec.step_self_s": self_s("symexec.step"),
        "seg.self_s": self_s("seg.build_seg", "seg.can_merge",
                             "seg.merge_states", "seg.find_instantiation"),
        "its.self_s": self_s("its.extract_its", "its.prove_termination"),
        "concrete.self_s": self_s("concrete.run_concrete",
                                  "concrete.represents"),
    }
    m = {
        "ir.instructions": (c("ir.instructions", 0), "count"),
        "cli.import_s": (import_s, "s"),
        "cli.match_trace_self_s": (self_s("cli.match_trace"), "s"),
        "logic.entails_calls": (calls, "count"),
        "logic.entails_misses": (misses, "count"),
        "logic.hit_ratio": (1 - misses / calls if calls else 0.0, "ratio"),
        "logic.miss_p50_ms": (
            _percentile_ms(s["samples"].get("logic.miss_s"), 50), "ms"),
        "logic.miss_p99_ms": (
            _percentile_ms(s["samples"].get("logic.miss_s"), 99), "ms"),
        "absdom.state_formula_calls": (c("absdom.state_formula_calls", 0),
                                       "count"),
        "absdom.state_formula_self_s": (self_s("absdom.state_formula"), "s"),
        "absdom.is_satisfiable_calls": (c("absdom.is_satisfiable_calls", 0),
                                        "count"),
        "absdom.unsat_states": (c("absdom.unsat_states", 0), "count"),
        "symexec.steps": (c("symexec.steps", 0), "count"),
        "symexec.refinements": (c("symexec.refinements", 0), "count"),
        "seg.build_s": (total("seg.build_seg"), "s"),
        "seg.nodes": (c("seg.nodes", 0), "count"),
        "seg.edges": (c("seg.edges", 0), "count"),
        "seg.merges": (c("seg.merges", 0), "count"),
        "seg.merge_self_s": (self_s("seg.can_merge", "seg.merge_states"), "s"),
        "seg.instantiation_calls": (c("seg.instantiation_calls", 0), "count"),
        "seg.instantiation_found": (c("seg.instantiation_found", 0), "count"),
        "seg.instantiation_self_s": (self_s("seg.find_instantiation"), "s"),
        "its.extract_s": (total("its.extract_its"), "s"),
        "its.transitions": (c("its.transitions", 0), "count"),
        "its.rank_s": (total("its.prove_termination"), "s"),
        "its.certificates": (c("its.certificates", 0), "count"),
        "concrete.runs": (c("concrete.runs", 0), "count"),
        "concrete.steps": (c("concrete.steps", 0), "count"),
        "concrete.run_s": (total("concrete.run_concrete"), "s"),
        "concrete.fuel_exhausted": (c("concrete.fuel_exhausted", 0), "count"),
        "concrete.represents_calls": (c("concrete.represents_calls", 0),
                                      "count"),
        "concrete.represents_true": (c("concrete.represents_true", 0),
                                     "count"),
        "concrete.represents_s": (total("concrete.represents"), "s"),
        "concrete.represents_p99_ms": (_percentile_ms(
            s["samples"].get("concrete.represents"), 99), "ms"),
        "trace.root_s": (s["root_s"], "s"),
        "trace.self_sum_s": (sum(layers.values()), "s"),
        "trace.verdict_untraced_s": (verdict_untraced, "s"),
        "trace.verdict_traced_s": (verdict_traced, "s"),
        "trace.overhead_s": (verdict_traced - verdict_untraced, "s"),
    }
    m.update({k: (v, "s") for k, v in layers.items()})
    return m


# -- workloads ---------------------------------------------------------------

def analyze_workload(programs, seed, seconds, trace, run_end, fails, detail):
    """Closed loop over the programs, one child at a time, in passes of
    seeded order. A child starts while ``seconds`` have not gone by, and
    the first pass always completes. With ``trace`` every program runs
    untraced and then traced."""
    rng = random.Random(seed)
    modes = (False, True) if trace else (False,)
    got = {(p, t): [] for p in programs for t in modes}
    rss, setups, imports = [], [], []
    end = time.monotonic() + seconds
    passes = 0
    while passes == 0 or time.monotonic() < end:
        order = list(programs)
        rng.shuffle(order)
        for p in order:
            if passes and time.monotonic() >= end:
                break
            for traced in modes:
                problems = []
                spec = {"mode": "analyze", "trace": traced,
                        "file": os.path.join(CORPUS, p + ".ll")}
                child = Child(spec)
                deadline = min(child.spawned + REQUEST_LIMIT_S, run_end)
                res = child.read(deadline)
                rss.append(child.finish(deadline))
                if child.error:
                    problems.append(f"{p}: {child.error}")
                elif res["exit_code"] != EXPECTED_EXIT[p]:
                    problems.append(f"{p}: exit {res['exit_code']} "
                                    f"({res['verdict']}), expected "
                                    f"{EXPECTED_EXIT[p]}")
                else:
                    seen = [r for t in modes for r in got[(p, t)]]
                    if seen and res["counts"] != seen[0]["counts"]:
                        problems.append(f"{p}: counts {res['counts']} "
                                        f"differ from {seen[0]['counts']}")
                fails.add(1, bool(problems), problems)
                if problems:
                    continue
                res["wall"] = child.wall
                if not traced:
                    setups.append(res["ready"] - child.spawned)
                imports.append(res["import_s"])
                got[(p, traced)].append(res)
        passes += 1
    done = [p for p in programs if all(got[(p, t)] for t in modes)]
    per_prog = {(p, t): _typical([r["verdict_s"] for r in got[(p, t)]])
                for p in done for t in modes}
    detail["passes"] = passes
    detail["verdict_s"] = {p: per_prog[(p, False)] for p in done}
    detail["counts"] = {p: got[(p, False)][0]["counts"] for p in done}
    detail["samples"] = {p: [[round(r["verdict_s"], 4), round(r["wall"], 4)]
                             for r in got[(p, False)]] for p in done}
    verdict = sum(per_prog[(p, False)] for p in done)
    if not trace:
        wall = sum(_typical([r["wall"] for r in got[(p, False)]])
                   for p in done)
        return {
            "setup_s": (_typical(setups), "s"),
            "verdict_s": (verdict, "s"),
            "verdict_geomean_s": (
                _geomean([per_prog[(p, False)] for p in done]), "s"),
            "ops_per_s": (len(done) / wall if wall else 0.0, "1/s"),
            "peak_rss_mb": (max(rss) / 1024, "MB"),
        }
    problems = []
    parts = [_merge_repeats([r["trace"] for r in got[(p, True)]], p, problems)
             for p in done]
    fails.add(0, len(problems), problems)
    return layer_metrics(_sum_summaries(parts), _median(imports), verdict,
                         sum(per_prog[(p, True)] for p in done))


def check_workload(programs, seed, seconds, trace, run_end, fails, detail):
    """Per program one child, which parses and builds the graph (set-up);
    the children are started one after another. After one untimed warm-up
    round come the timed rounds: each child in turn replays one batch of
    seeded runs through ``cli.differential_check`` while the others wait,
    until ``seconds`` have gone by and for at least ``MIN_ROUNDS``, so each
    program's batches spread over the whole window.
    Operations are the graph builds and the replayed runs."""
    rng = random.Random(seed)
    setup = 0.0
    rss, imports, parts = [], [], []
    live, ready, batches = {}, {}, {}
    detail["replay_seed"] = {}
    for p in programs:
        spec = {"mode": "check", "trace": trace,
                "seed": rng.randrange(2 ** 31),
                "per_length": PER_LENGTH, "fuel": FUEL,
                "file": os.path.join(CORPUS, p + ".ll")}
        detail["replay_seed"][p] = spec["seed"]
        child = Child(spec, commands=True)
        res = child.read(min(child.spawned + REQUEST_LIMIT_S, run_end))
        if res is None:
            rss.append(child.finish(time.monotonic()))
            fails.add(1, 1, [f"{p}: graph build: {child.error}"])
            continue
        fails.add(1, 0, [])
        setup += res["ready"] - child.spawned
        imports.append(res["import_s"])
        live[p], ready[p], batches[p] = child, res, []

    def replay_round(modes, warm_up=False):
        for p, child in list(live.items()):
            for traced in modes:
                b = None
                if child.send({"traced": traced}):
                    b = child.read(min(time.monotonic() + REQUEST_LIMIT_S,
                                       run_end))
                if b is None:
                    rss.append(child.finish(time.monotonic()))
                    n = len(ready[p]["seeds"])
                    fails.add(n, n, [f"{p}: replay batch: {child.error}"])
                    del live[p]
                    break
                b["warm_up"] = warm_up
                batches[p].append(b)

    # The first batch fills concrete._state_cache and is slower than the
    # rest; it is checked like the others but not timed.
    replay_round((False,), warm_up=True)
    modes = (False, True) if trace else (False,)
    end = time.monotonic() + seconds
    rounds = 0
    while live and (rounds < MIN_ROUNDS or time.monotonic() < end):
        replay_round(modes)
        rounds += 1
    for p, child in live.items():
        rss.append(child.finish(min(time.monotonic() + 10, run_end)))
        if child.error:
            fails.add(0, 1, [f"{p}: {child.error}"])

    batch_s = {False: {}, True: {}}
    runs = {}
    detail["batches"] = {}
    detail["batch_s"] = {}
    detail["counts"] = {}
    for p, bs in batches.items():
        if not bs:
            continue
        first = bs[0]["counts"]
        for b in bs:
            problems = []
            failed = len(b["violations"])
            if b["violations"]:
                problems.append(f"{p}: (seed, step) not represented: "
                                f"{b['violations']}")
            if EXPECTED_EXIT[p] == 0 and b["exhausted"]:
                failed += b["exhausted"]
                problems.append(f"{p}: {b['exhausted']} runs out of fuel "
                                "on a terminating program")
            if b["counts"] != first:
                failed = b["runs"]
                problems.append(f"{p}: batch counts {b['counts']} differ "
                                f"from {first}")
            fails.add(b["runs"], min(failed, b["runs"]), problems)
        timed = [b for b in bs if not b["warm_up"]]
        for t in modes:
            xs = [b["s"] for b in timed if b["traced"] == t]
            if xs:
                batch_s[t][p] = _typical(xs)
        if p in batch_s[False]:
            runs[p] = bs[0]["runs"]
        detail["batches"][p] = len(timed)
        detail["batch_s"][p] = [round(b["s"], 4) for b in bs]
        detail["counts"][p] = dict(ready[p]["counts"], **first)
        if trace:
            problems = []
            parts.append(_sum_summaries([ready[p]["trace"], _merge_repeats(
                [b["trace"] for b in bs if b["traced"]], p, problems)]))
            fails.add(0, len(problems), problems)
    detail["setup_s"] = setup
    detail["verdict_s"] = batch_s[False]
    verdict = sum(batch_s[False].values())
    if not trace:
        return {
            "setup_s": (setup, "s"),
            "verdict_s": (verdict, "s"),
            "verdict_geomean_s": (
                _geomean(list(batch_s[False].values())), "s"),
            "ops_per_s": (sum(runs.values()) / verdict if verdict else 0.0,
                          "1/s"),
            "peak_rss_mb": (max(rss) / 1024, "MB"),
        }
    return layer_metrics(_sum_summaries(parts), _median(imports), verdict,
                         sum(batch_s[True].values()))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    run_end = started + RUN_LIMIT_S

    missing = [p for p in (os.path.join(SRC, "listterm", "cli.py"), CORPUS)
               if not os.path.exists(p)]
    if missing:
        print(f"run.py: not a listterm checkout, missing {missing}",
              file=sys.stderr)
        return 2
    # Build step: byte-compile once, so no child pays for it. A file that
    # does not compile shows up as failed children.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(SRC, "listterm"),
                    os.path.join(ROOT, "perfbench")])

    load_before = os.getloadavg()
    fails = Failures()
    detail = {}
    run = check_workload if args.workload == "check" else analyze_workload
    metrics = run(WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace), run_end, fails, detail)
    env = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "elapsed_s": time.monotonic() - started,
        "failed_frac": fails.failed / max(1, fails.attempted),
        "failures": fails.notes[:20], "detail": detail,
    }
    print(json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not fails.notes,
        "attempted": max(1, fails.attempted),
        "failed": fails.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
