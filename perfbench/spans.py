"""Spans recorded around calls into listterm's modules, from outside them.

Nothing inside ``src/`` is instrumented. Tracing rebinds module attributes
(the names each module looks up at call time) to wrappers that open and
close a span, and hands the CLI an ``Entailment`` subclass whose
``entails`` does the same. With ``Tracer.record_spans`` off the wrappers
only count, so one process can alternate traced and untraced work.

A span is ``(span_id, parent_id, name, start, end, request)``. All spans of
one program analysis, one graph build or one replay batch share a request
id. A span's self time is its duration minus the durations of its direct
children; since spans nest strictly, the self times of a request's spans
add up to the duration of its root span.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict


class Tracer:
    """Holds the spans, counters and latency samples of the current request.

    With ``spans=False`` the wrappers only count calls and outcomes; the
    untraced replay batches use that for the determinism check.
    """

    def __init__(self, spans=True):
        self.record_spans = spans
        self._stack = []
        self._next_id = 0
        self._request = 0
        self.begin_request()

    def begin_request(self):
        self._request += 1
        self.spans = []
        self.counters = defaultdict(int)
        self.samples = defaultdict(list)

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` in a span called ``name``; returns (result, seconds)."""
        self._next_id += 1
        sid = self._next_id
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, self._request))
        return result, end - start

    def summary(self):
        """The current request: per span name [calls, total s, self s], the
        summed duration of its root spans, its counters and samples."""
        covered = defaultdict(float)
        for _sid, parent, _name, start, end, _req in self.spans:
            if parent is not None:
                covered[parent] += end - start
        by_name = {}
        root_s = 0.0
        for sid, parent, name, start, end, _req in self.spans:
            row = by_name.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered[sid]
            if parent is None:
                root_s += end - start
        return {"spans": by_name, "root_s": root_s,
                "counters": dict(self.counters),
                "samples": {k: list(v) for k, v in self.samples.items()}}

    def wrap(self, name, fn, on_result=None, on_error=None, sample=False):
        """A stand-in for ``fn``: a span called ``name`` around the call,
        ``on_result(counters, result, kwargs)`` after it returns,
        ``on_error(counters, exc, kwargs)`` if it raises, and with ``sample``
        the call's duration kept as a latency sample."""
        def wrapper(*args, **kwargs):
            try:
                if self.record_spans:
                    result, dur = self.call(name, fn, *args, **kwargs)
                    if sample:
                        self.samples[name].append(dur)
                else:
                    result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self.counters, exc, kwargs)
                raise
            if on_result is not None:
                on_result(self.counters, result, kwargs)
            return result
        return wrapper


def rebind(module_name, attr, make):
    """Replace ``module.attr`` by ``make(original)``."""
    mod = importlib.import_module(module_name)
    setattr(mod, attr, make(getattr(mod, attr)))


# -- what is counted at each module boundary ----------------------------------

def _represents_done(counters, result, kwargs):
    counters["concrete.represents_calls"] += 1
    counters["concrete.represents_true"] += bool(result)


def _run_done(counters, trace, kwargs):
    counters["concrete.runs"] += 1
    counters["concrete.steps"] += len(trace.instructions)


def _run_failed(counters, exc, kwargs):
    from listterm.concrete import FuelExhausted
    if isinstance(exc, FuelExhausted):
        counters["concrete.runs"] += 1
        counters["concrete.fuel_exhausted"] += 1
        counters["concrete.steps"] += kwargs["fuel"]


def _parsed(counters, prog, kwargs):
    counters["ir.instructions"] += sum(len(body) for _, body in prog.blocks)


def _built(counters, seg, kwargs):
    counters["seg.nodes"] += len(seg.states)
    counters["seg.edges"] += len(seg.edges)


def _stepped(counters, result, kwargs):
    from listterm.symexec import REFINEMENT
    counters["symexec.steps"] += 1
    counters["symexec.refinements"] += result.edge_kind == REFINEMENT


def _sat_checked(counters, sat, kwargs):
    counters["absdom.is_satisfiable_calls"] += 1
    counters["absdom.unsat_states"] += not sat


def _instantiated(counters, mu, kwargs):
    counters["seg.instantiation_calls"] += 1
    counters["seg.instantiation_found"] += mu is not None


def _merged(counters, result, kwargs):
    counters["seg.merges"] += 1


def _formula_built(counters, formula, kwargs):
    counters["absdom.state_formula_calls"] += 1


def _its_extracted(counters, its, kwargs):
    counters["its.transitions"] += len(its.transitions)


def _ranked(counters, result, kwargs):
    counters["its.certificates"] += len(result.certificates)


def install_oracle(tr):
    """Wrap the oracle's two calls as ``cli.differential_check`` sees them."""
    rebind("listterm.cli", "represents", lambda fn: tr.wrap(
        "concrete.represents", fn, _represents_done, sample=True))
    rebind("listterm.cli", "run_concrete", lambda fn: tr.wrap(
        "concrete.run_concrete", fn, _run_done, _run_failed))


def _traced_engine_class(tr, base):
    class TracedEntailment(base):
        """Times every query; a query is a miss when ``queries`` grows."""

        def entails(self, premise, conclusion):
            if not tr.record_spans:
                return super().entails(premise, conclusion)
            before = self.queries
            verdict, dur = tr.call("logic.entails", super().entails,
                                   premise, conclusion)
            tr.counters["logic.entails_calls"] += 1
            if self.queries > before:
                tr.counters["logic.entails_misses"] += 1
                tr.samples["logic.miss_s"].append(dur)
            return verdict

    return TracedEntailment


def install_all(tr):
    """Spans and counters at every module boundary the analysis crosses.

    ``state_formula`` is rebound in absdom and in every module that imported
    it by name; the other functions in the module that calls them.
    """
    rebind("listterm.cli", "Entailment",
              lambda cls: _traced_engine_class(tr, cls))
    rebind("listterm.cli", "parse_program", lambda fn: tr.wrap(
        "ir.parse_program", fn, _parsed))
    rebind("listterm.cli", "build_seg", lambda fn: tr.wrap(
        "seg.build_seg", fn, _built))
    rebind("listterm.seg", "step", lambda fn: tr.wrap(
        "symexec.step", fn, _stepped))
    rebind("listterm.seg", "is_satisfiable", lambda fn: tr.wrap(
        "absdom.is_satisfiable", fn, _sat_checked))
    rebind("listterm.seg", "find_instantiation", lambda fn: tr.wrap(
        "seg.find_instantiation", fn, _instantiated))
    rebind("listterm.seg", "can_merge", lambda fn: tr.wrap(
        "seg.can_merge", fn))
    rebind("listterm.seg", "merge_states", lambda fn: tr.wrap(
        "seg.merge_states", fn, _merged))
    from listterm import absdom
    state_formula = tr.wrap("absdom.state_formula", absdom.state_formula,
                            _formula_built)
    for mod in ("absdom", "seg", "its", "symexec"):
        rebind("listterm." + mod, "state_formula",
                  lambda fn: state_formula)
    rebind("listterm.cli", "extract_its", lambda fn: tr.wrap(
        "its.extract_its", fn, _its_extracted))
    rebind("listterm.cli", "prove_termination", lambda fn: tr.wrap(
        "its.prove_termination", fn, _ranked))
    rebind("listterm.cli", "match_trace", lambda fn: tr.wrap(
        "cli.match_trace", fn))
    install_oracle(tr)
