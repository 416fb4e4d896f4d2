"""Interpreter, chain-predicate, and representation-checker tests."""

from __future__ import annotations

import itertools
import pathlib
import random

import pytest

from listterm.absdom import (
    ERR,
    AbstractState,
    Allocation,
    LIField,
    ListInvariant,
    PointsTo,
)
from listterm.cli import TRAV, match_trace
from listterm.concrete import (
    ConcreteState,
    FuelExhausted,
    Trace,
    concrete_step,
    decode_le,
    encode_le,
    eval_li_predicate,
    format_trace,
    read_le,
    represents,
    run_concrete,
)
from listterm.ir import (
    AggType,
    I32,
    ProgramPosition,
    PtrType,
    parse_program,
)
from listterm.logic import Atom, Entailment, Formula, SymVar
from listterm.seg import build_seg

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
LIST = AggType("list")
LISTP = PtrType(LIST)


def load(name):
    return parse_program((CORPUS / name).read_text())


def stream(*head, filler=0):
    return itertools.chain(head, itertools.repeat(filler))


# --- byte codec --------------------------------------------------------------

def test_codec_round_trip_randomized():
    rng = random.Random(7)
    for width in (1, 4, 8):
        for _ in range(1000):
            v = rng.randrange(0, 2 ** (8 * width))
            bs = encode_le(v, width)
            assert len(bs) == width
            assert all(0 <= b <= 255 for b in bs)
            assert decode_le(bs) == v


def test_store_is_little_endian():
    prog = parse_program("""
define i32 @main() {
e:
  raw = call i8* @malloc(i64 4)
  p = bitcast i8* raw to i32*
  store i32 5, i32* p
  ret i32 0
}
""")
    t = run_concrete(prog, stream())
    final = t.final
    base = final.asgn["p"]
    assert [final.mem[base + i] for i in range(4)] == [5, 0, 0, 0]


# --- interpreter basics ------------------------------------------------------

def test_malloc_policy_gap():
    prog = parse_program("""
define i32 @main() {
e:
  a = call i8* @malloc(i64 4)
  b = call i8* @malloc(i64 4)
  ret i32 0
}
""")
    t = run_concrete(prog, stream())
    assert t.final.allocations == [(1, 4), (6, 9)]


def test_out_of_allocation_store_errors():
    prog = parse_program("""
define i32 @main() {
e:
  a = call i8* @malloc(i64 2)
  p = bitcast i8* a to i32*
  store i32 1, i32* p
  ret i32 0
}
""")
    t = run_concrete(prog, stream())
    assert t.final.error


def test_free_then_load_errors():
    prog = parse_program("""
define i32 @main() {
e:
  a = call i8* @malloc(i64 4)
  p = bitcast i8* a to i32*
  call void @free(i8* a)
  v = load i32, i32* p
  ret i32 0
}
""")
    t = run_concrete(prog, stream())
    assert t.final.error


def test_leading_example_terminates_with_three_iterations():
    prog = load("build_traverse_ptr.ll")
    t = run_concrete(prog, stream(3, 10, 20, 30))
    assert t.final.halted and not t.final.error
    body_f = sum(1 for st in t.states if st.pos == ProgramPosition("bodyF", 0))
    body_w = sum(1 for st in t.states if st.pos == ProgramPosition("bodyW", 0))
    assert body_f == 3
    assert body_w == 3


def test_leading_example_zero_length():
    prog = load("build_traverse_ptr.ll")
    t = run_concrete(prog, stream(0))
    assert t.final.halted and not t.final.error
    assert all(st.pos.block != "bodyF" for st in t.states)
    assert all(st.pos.block != "bodyW" for st in t.states)


def test_cyclic_list_exhausts_fuel():
    prog = load("cyclic_traverse.ll")
    with pytest.raises(FuelExhausted):
        run_concrete(prog, stream(), fuel=10_000)


def test_null_deref_errors():
    prog = load("null_deref.ll")
    t = run_concrete(prog, stream())
    assert t.final.error


def test_format_trace_lines():
    prog = load("straight_line.ll")
    t = run_concrete(prog, stream())
    text = format_trace(t, prog)
    lines = text.strip().splitlines()
    assert len(lines) == len(t.instructions)
    assert all(line.count("|") == 2 for line in lines)


# --- chain predicate ---------------------------------------------------------

NODES = [(1408, 1423), (1216, 1231)]  # the nodes of two_node_memory


def two_node_memory():
    """Two 16-byte nodes: 1408 -> 1216 -> null, values 5 then 0."""
    mem = {}
    for a in range(1408, 1424):
        mem[a] = 0
    for a in range(1216, 1232):
        mem[a] = 0
    for i, b in enumerate(encode_le(5, 4)):
        mem[1408 + i] = b
    for i, b in enumerate(encode_le(1216, 8)):
        mem[1416 + i] = b
    # Second node already zero: value 0, next 0.
    return mem


def test_li_predicate_worked_example():
    mem = two_node_memory()
    assert eval_li_predicate(mem, 16, 2, 2,
                             1408, [(0, 4, 5, 0), (8, 8, 1216, 0)], NODES)


def test_li_predicate_wrong_length():
    mem = two_node_memory()
    assert not eval_li_predicate(mem, 16, 2, 1,
                                 1408, [(0, 4, 5, 0), (8, 8, 1216, 0)], NODES)
    assert not eval_li_predicate(mem, 16, 2, 3,
                                 1408, [(0, 4, 5, 0), (8, 8, 1216, 0)], NODES)


def test_li_predicate_base_case_requires_equal_ends():
    mem = {}
    for a in range(100, 116):
        mem[a] = 0
    for i, b in enumerate(encode_le(9, 4)):
        mem[100 + i] = b
    assert eval_li_predicate(mem, 16, 2, 1, 100, [(0, 4, 9, 9), (8, 8, 0, 0)],
                             [(100, 115)])
    assert not eval_li_predicate(mem, 16, 2, 1, 100,
                                 [(0, 4, 9, 8), (8, 8, 0, 0)], [(100, 115)])


def test_li_predicate_rejects_overlap():
    # A node whose next pointer targets itself cannot form a 2-chain.
    mem = {}
    for a in range(100, 116):
        mem[a] = 0
    for i, b in enumerate(encode_le(100, 8)):
        mem[108 + i] = b
    assert not eval_li_predicate(mem, 16, 2, 2, 100,
                                 [(0, 4, 0, 0), (8, 8, 100, 0)], [(100, 115)])


def test_li_predicate_undefined_byte():
    mem = two_node_memory()
    del mem[1220]
    assert not eval_li_predicate(mem, 16, 2, 2,
                                 1408, [(0, 4, 5, 0), (8, 8, 1216, 0)], NODES)


def long_chain(n, start=1000):
    """Memory and allocations of an n-node list at start, start + 24, ...;
    node k holds payload k and points at node k + 1, the last at null."""
    addrs = [start + 24 * k for k in range(n)]
    mem, allocations = {}, []
    for k, ad in enumerate(addrs):
        nxt = addrs[k + 1] if k + 1 < n else 0
        node = encode_le(k, 4) + encode_le(0, 4) + encode_le(nxt, 8)
        mem.update((ad + i, b) for i, b in enumerate(node))
        allocations.append((ad, ad + 15))
    return addrs, mem, allocations


def test_li_predicate_walks_a_long_chain():
    """Far deeper than Python's recursion limit; every node must be
    allocated."""
    addrs, mem, allocations = long_chain(3000)
    fields = [(0, 4, 0, 2999), (8, 8, addrs[1], 0)]
    nodes = set(allocations)
    assert eval_li_predicate(mem, 16, 2, 3000, addrs[0], fields, nodes)
    assert not eval_li_predicate(mem, 16, 2, 2999, addrs[0], fields, nodes)
    nodes.remove(allocations[-1])
    assert not eval_li_predicate(mem, 16, 2, 3000, addrs[0], fields, nodes)


# --- representation ----------------------------------------------------------

def sv(i, hint="v"):
    return SymVar(i, hint)


def is_instance(c, s):
    """Does ``s`` represent ``c``, asked of a new engine?"""
    return represents(c, s, load("straight_line.ll").layout, Entailment())


def test_err_represents_everything():
    prog = load("straight_line.ll")
    c = ConcreteState(prog.entry_position)
    assert is_instance(c, ERR)


def test_represents_simple_allocation_and_pt():
    lo, hi, val = sv(1, "lo"), sv(2, "hi"), sv(3, "x")
    c = ConcreteState(ProgramPosition("entry", 0),
                      asgn={"p": 1},
                      allocations=[(1, 4)],
                      mem={1: 7, 2: 0, 3: 0, 4: 0})
    from listterm.logic import Term
    s = AbstractState.make(
        ProgramPosition("entry", 0),
        lv={"p": lo},
        al=[Allocation(lo, hi)],
        pt=[PointsTo(lo, I32, val)],
        kb=Formula.conj([Atom.eq(hi, Term.of(lo) + 3), Atom.eq(val, 7)]))
    assert is_instance(c, s)
    # Mismatched stored value is rejected.
    bad = s.replace_components(kb=Formula.conj(
        [Atom.eq(hi, Term.of(lo) + 3), Atom.eq(val, 8)]))
    assert not is_instance(c, bad)
    # LV domain mismatch is rejected.
    c2 = ConcreteState(c.pos, asgn={"p": 1, "q": 2},
                       allocations=c.allocations, mem=c.mem)
    assert not is_instance(c2, s)


def concrete_two_node_list():
    """Concrete state: root slot at 40..47 points to the 1408-chain."""
    mem = two_node_memory()
    allocations = [(1408, 1423), (1216, 1231), (40, 47)]
    for i, b in enumerate(encode_le(1408, 8)):
        mem[40 + i] = b
    return ConcreteState(ProgramPosition("b", 0),
                         asgn={"root": 40},
                         allocations=allocations, mem=mem)


def list_state(extra_kb=()):
    root, lo, hi = sv(1, "root"), sv(1, "root"), sv(2, "root_end")
    x_mem, x_len = sv(3, "x_mem"), sv(4, "x_len")
    x_nd, x_nd_hat, x_next = sv(5, "x_nd"), sv(6, "x_nd_hat"), sv(7, "x_next")
    from listterm.logic import Term
    kb = [Atom.eq(hi, Term.of(root) + 7)] + list(extra_kb)
    inv = ListInvariant(
        ad=x_mem, length=x_len, ty=LIST,
        fields=(LIField(0, I32, x_nd, x_nd_hat),
                LIField(8, LISTP, x_next, 0)),
        rec_index=2)
    return AbstractState.make(
        ProgramPosition("b", 0),
        lv={"root": root},
        al=[Allocation(root, hi)],
        pt=[PointsTo(root, LISTP, x_mem)],
        li=[inv],
        kb=Formula.conj(kb))


def test_represents_list_invariant_walks_chain():
    c = concrete_two_node_list()
    s = list_state()
    assert is_instance(c, s)


def test_represents_rejects_contradicted_length():
    x_len = sv(4, "x_len")
    c = concrete_two_node_list()
    s = list_state(extra_kb=[Atom.eq(x_len, 3)])
    assert not is_instance(c, s)
    s2 = list_state(extra_kb=[Atom.eq(x_len, 2)])
    assert is_instance(c, s2)


def test_represents_requires_node_allocations():
    c = concrete_two_node_list()
    c.allocations.remove((1216, 1231))
    s = list_state()
    assert not is_instance(c, s)


def test_represents_a_long_list():
    addrs, mem, allocations = long_chain(3000)
    mem.update((40 + i, b) for i, b in enumerate(encode_le(addrs[0], 8)))
    c = ConcreteState(ProgramPosition("b", 0), asgn={"root": 40},
                      allocations=allocations + [(40, 47)], mem=mem)
    assert is_instance(c, list_state())


def overlapping_summaries(extra_kb=()):
    """Three summaries over one chain, in the shape the search loop of
    build_search_value reaches: the second starts at the first's last node
    (its first values are the first's last values), and the third is the
    second without its head, whose address ``q`` holds."""
    r1, a, v1, n1, x1, x2 = (sv(i, h) for i, h in enumerate(
        ("r1", "a", "v1", "n1", "x1", "x2"), start=1))
    r2, b, y1, h, b3, w1, w2, old = (sv(i, h) for i, h in enumerate(
        ("r2", "b", "y1", "h", "b3", "w1", "w2", "old"), start=7))
    from listterm.logic import Term
    kb = [Atom.eq(b, Term.of(b3) + 1), Atom.eq(h, x2),
          # A stale length, as the search loop leaves one behind.
          Atom.eq(old, Term.of(a) - 1), Atom.ge(old, 1)] + list(extra_kb)
    return AbstractState.make(
        ProgramPosition("b", 0), lv={"p": r1, "q": h},
        li=[ListInvariant(r1, a, LIST, (LIField(0, I32, v1, x1),
                                        LIField(8, LISTP, n1, x2)), 2),
            ListInvariant(r2, b, LIST, (LIField(0, I32, x1, y1),
                                        LIField(8, LISTP, x2, 0)), 2),
            ListInvariant(h, b3, LIST, (LIField(0, I32, w1, y1),
                                        LIField(8, LISTP, w2, 0)), 2)],
        kb=Formula.conj(kb))


def nine_node_chain():
    """The chain split 2 / 8 / 7 over nodes 0-1, 1-8 and 2-8."""
    addrs, mem, allocations = long_chain(9)
    return ConcreteState(ProgramPosition("b", 0),
                         asgn={"p": addrs[0], "q": addrs[2]},
                         allocations=allocations, mem=mem)


def test_represents_overlapping_summaries_with_a_long_middle():
    assert is_instance(nine_node_chain(), overlapping_summaries())


@pytest.mark.parametrize("contradiction", [
    lambda a, b, b3: Atom.eq(b, 7),
    lambda a, b, b3: Atom.eq(a, b3),
    lambda a, b, b3: Atom.ge(b, 9),
], ids=["middle-length", "equal-lengths", "middle-at-least-9"])
def test_represents_overlapping_summaries_rejects_contradicted_lengths(
        contradiction):
    a, b, b3 = sv(2, "a"), sv(8, "b"), sv(11, "b3")
    s = overlapping_summaries([contradiction(a, b, b3)])
    assert not is_instance(nine_node_chain(), s)


def test_represents_tries_every_end_of_an_open_summary():
    """With neither its length nor its last values bound, the first summary
    could end before the second one's root; its length bound rules that
    end out, and a later one on the same chain fits."""
    r1, a, v1, n1, x1, x2 = (sv(i, h) for i, h in enumerate(
        ("r1", "a", "v1", "n1", "x1", "x2"), start=1))
    r2, b, w1, w2, y1 = (sv(i, h) for i, h in enumerate(
        ("r2", "b", "w1", "w2", "y1"), start=7))
    s = AbstractState.make(
        ProgramPosition("b", 0), lv={"p": r1, "q": r2},
        li=[ListInvariant(r1, a, LIST, (LIField(0, I32, v1, x1),
                                        LIField(8, LISTP, n1, x2)), 2),
            ListInvariant(r2, b, LIST, (LIField(0, I32, w1, y1),
                                        LIField(8, LISTP, w2, 0)), 2)],
        kb=Formula.conj([Atom.ge(a, 3)]))
    addrs, mem, allocations = long_chain(5)
    c = ConcreteState(ProgramPosition("b", 0),
                      asgn={"p": addrs[0], "q": addrs[1]},
                      allocations=allocations, mem=mem)
    assert is_instance(c, s)
    assert not is_instance(c, s.replace_components(
        kb=Formula.conj([Atom.ge(a, 6)])))


def sum_state(*kb, lv=("w",)):
    """A state binding ``w`` (and optionally ``x`` to ``a``), whose stale
    ``a`` and ``b`` only an equality ``w = a + b`` ties to it, as an
    ``add`` of two reloaded variables leaves them."""
    from listterm.logic import Term
    w, a, b = sv(1, "w"), sv(2, "a"), sv(3, "b")
    return AbstractState.make(
        ProgramPosition("b", 0), lv=dict(zip(lv, (w, a))),
        kb=Formula.conj([Atom.eq(w, Term.of(a) + b), Atom.ge(a, 1),
                         Atom.ge(b, 5)] + [k(w, a, b) for k in kb]))


def at(**asgn):
    return ConcreteState(ProgramPosition("b", 0), asgn=asgn)


def test_represents_solves_an_equality_over_stale_variables():
    """``a`` takes its least value and the equality then solves ``b``;
    giving ``b`` its own least value instead breaks ``w = a + b``."""
    assert is_instance(at(w=10), sum_state())
    assert not is_instance(at(w=5), sum_state())  # b = 4 < 5


def test_represents_solves_an_equality_once_its_other_classes_are_bound():
    s = sum_state(lv=("w", "x"))
    assert is_instance(at(w=10, x=4), s)
    assert not is_instance(at(w=10, x=6), s)  # b = 4 < 5


def test_represents_solves_an_equality_with_a_non_unit_coefficient():
    from listterm.logic import Term
    s = sum_state(lambda w, a, b: Atom.eq(Term.of(b).scale(2), w))
    assert is_instance(at(w=14), s)  # b = 7, then a = 7
    assert not is_instance(at(w=15), s)  # no integer b
    assert not is_instance(at(w=8), s)  # b = 4 < 5


def test_represents_solves_equalities_before_the_next_witness():
    """Once ``a`` takes its witness the equality fixes ``b``; only then does
    ``c``, whose variable comes between them, take its least value."""
    from listterm.logic import Term
    w, a, c, b = (sv(i, h) for i, h in enumerate("wacb", start=1))
    s = AbstractState.make(
        ProgramPosition("b", 0), lv={"w": w},
        kb=Formula.conj([Atom.eq(w, Term.of(a) + b), Atom.ge(a, 1),
                         Atom.ge(c, b)]))
    assert is_instance(at(w=10), s)  # a = 1, b = 9, c = 9


@pytest.fixture(scope="module")
def search_graph():
    prog = load("build_search_value.ll")
    engine = Entailment()
    return prog, build_seg(prog, engine), engine


@pytest.mark.parametrize("n", [7, 8])
def test_search_scans_a_long_list_without_violations(search_graph, n):
    """An n-node list whose values 0..n-1 never hit the target 9, so the
    search walks all of it; one summary then spans n - 1 nodes."""
    prog, seg, engine = search_graph
    trace = run_concrete(prog, itertools.chain([n, 9],
                                               itertools.cycle(range(9))))
    assert trace.final.halted and not trace.final.error
    counts, violations = match_trace(trace, seg, prog, engine)
    assert violations == []
    assert counts[TRAV] == 2 * n - 2


def checked_lengths(monkeypatch, name, fuel):
    """Run differential_check on seed 0 of a corpus program; return its
    result and the length of each trace it checked."""
    from listterm import cli
    prog, engine, checked = load(name), Entailment(), []
    match = cli.match_trace
    monkeypatch.setattr(cli, "match_trace", lambda trace, *rest: (
        checked.append(len(trace.instructions)), match(trace, *rest))[1])
    result = cli.differential_check(prog, build_seg(prog, engine), [0], fuel,
                                    engine)
    return result, checked


@pytest.mark.parametrize("fuel", [10, 300, 10_000])
def test_differential_check_checks_256_steps_of_a_diverging_run(
        monkeypatch, fuel):
    assert checked_lengths(monkeypatch, "cyclic_traverse.ll", fuel) == (
        (1, [], 1), [256])


def test_differential_check_counts_a_halt_past_the_fuel_as_exhausted(
        monkeypatch):
    steps = len(run_concrete(load("straight_line.ll"), stream()).instructions)
    assert checked_lengths(monkeypatch, "straight_line.ll", 1) == (
        (1, [], 1), [steps])
    assert checked_lengths(monkeypatch, "straight_line.ll", steps) == (
        (1, [], 0), [steps])


def test_concrete_step_does_not_mutate_input():
    prog = load("straight_line.ll")
    c = ConcreteState(prog.entry_position)
    before = (dict(c.asgn), dict(c.mem), list(c.allocations))
    concrete_step(c, prog, stream())
    assert (dict(c.asgn), dict(c.mem), list(c.allocations)) == before
