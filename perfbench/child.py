"""One benchmark child process: a single program, analysed or replayed.

Run by ``run.py`` as ``python3 perfbench/child.py '<json spec>'`` with
listterm's ``src`` directory on ``PYTHONPATH``. Each child handles one
program, so no state of listterm's module-level caches and counters carries
from one program's samples to another's. It writes JSON lines.

Spec keys: ``mode`` (``analyze`` or ``check``), ``file`` and ``trace``;
for ``check`` also ``seed``, ``per_length`` and ``fuel``.

``analyze`` runs ``listterm analyze FILE --json`` in process, the way the
console script does, prints one line and exits. ``ready`` is the moment
parsing finished; the verdict time runs from there to the end of
``cli.main``.

``check`` parses and builds the graph (its set-up) and prints a line. Then,
for each line ``{"traced": bool}`` read from standard input, it replays one
batch of seeded concrete runs through ``cli.differential_check`` and prints
a line; it exits at the end of its input. Every batch replays the same
seeds, so batch times differ only by noise. With ``trace`` the build is
traced.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time

from spans import Tracer, install_all, install_oracle

CANDIDATES = 8
# Counts a replay batch must repeat exactly. Others may not: the first batch
# fills concrete._state_cache, so later ones call state_formula less.
BATCH_COUNTS = ("concrete.runs", "concrete.steps", "concrete.fuel_exhausted",
                "concrete.represents_calls", "concrete.represents_true")


def replay_seeds(cli, prog, seed, per_length, fuel):
    """Replay inputs drawn from ``seed``: for each first input value (the
    list length, 0..5, in the corpus's build loops) ``per_length`` seeds,
    each the one with the longest concrete run among ``CANDIDATES`` drawn
    for that length. A search that stops early is cheap to replay, so
    without this a batch's cost would depend on how often a target value
    happened to be drawn; with it, a batch's cost depends on the list
    lengths, which are the same in every batch and every run."""
    rng = random.Random(seed)
    pools = {n: [] for n in range(6)}
    while any(len(pool) < CANDIDATES * per_length for pool in pools.values()):
        s = rng.randrange(2 ** 31)
        pool = pools[next(cli.nondet_stream(s))]
        if len(pool) < CANDIDATES * per_length:
            pool.append(s)
    seeds = []
    for pool in pools.values():
        for i in range(per_length):
            group = pool[i * CANDIDATES:(i + 1) * CANDIDATES]
            steps = [len(cli.run_concrete(prog, cli.nondet_stream(s),
                                          fuel=fuel, partial=True
                                          ).instructions)
                     for s in group]
            seeds.append(group[steps.index(max(steps))])
    return seeds


def analyze(cli, spec, out):
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        install_all(tracer)
    parsed = []
    parse = cli.parse_program

    def parse_and_stamp(text):
        prog = parse(text)
        parsed.append(time.monotonic())
        return prog

    cli.parse_program = parse_and_stamp
    argv = ["analyze", spec["file"], "--json"]
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        if tracer:
            code, _ = tracer.call("cli.main", cli.main, argv)
        else:
            code = cli.main(argv)
    done = time.monotonic()
    doc = json.loads(report.getvalue())
    out.update(
        exit_code=code, verdict=doc["verdict"], ready=parsed[0],
        verdict_s=done - parsed[0],
        counts={"nodes": doc["stats"]["nodes"],
                "edges": doc["stats"]["edges"],
                "entails_misses": doc["stats"]["entailment_queries"]})
    if tracer:
        out["trace"] = tracer.summary()


def check(cli, spec, out):
    tracer = Tracer(spans=spec["trace"])
    (install_all if spec["trace"] else install_oracle)(tracer)
    with open(spec["file"], encoding="utf-8") as fh:
        text = fh.read()
    prog = cli.parse_program(text)
    engine = cli.Entailment()
    seg = cli.build_seg(prog, engine)
    out["ready"] = time.monotonic()
    out["counts"] = {"nodes": len(seg.states), "edges": len(seg.edges),
                     "entails_misses": engine.queries}
    if spec["trace"]:
        out["trace"] = tracer.summary()
    tracer.record_spans = False
    seeds = out["seeds"] = replay_seeds(cli, prog, spec["seed"],
                                        spec["per_length"], spec["fuel"])
    _emit(out)
    for line in sys.stdin:
        traced = json.loads(line)["traced"]
        tracer.begin_request()
        tracer.record_spans = traced
        misses = engine.queries
        args = (prog, seg, seeds, spec["fuel"], engine)
        t0 = time.perf_counter()
        if traced:
            (runs, bad, exhausted), _ = tracer.call(
                "cli.differential_check", cli.differential_check, *args)
        else:
            runs, bad, exhausted = cli.differential_check(*args)
        batch = {"s": time.perf_counter() - t0, "traced": traced,
                 "runs": runs, "violations": bad, "exhausted": exhausted,
                 "counts": dict({k: tracer.counters[k] for k in BATCH_COUNTS},
                                entails_misses=engine.queries - misses)}
        if traced:
            batch["trace"] = tracer.summary()
        _emit(batch)


def _emit(doc):
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def main():
    spec = json.loads(sys.argv[1])
    out = {}
    t0 = time.perf_counter()
    from listterm import cli
    out["import_s"] = time.perf_counter() - t0
    if spec["mode"] == "analyze":
        analyze(cli, spec, out)
        _emit(out)
    else:
        check(cli, spec, out)


if __name__ == "__main__":
    main()
