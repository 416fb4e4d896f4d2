"""Interpreter, chain-predicate, and representation-checker tests."""

from __future__ import annotations

import itertools
import pathlib
import random
from collections import Counter

import pytest

from listterm.absdom import (
    ERR,
    AbstractState,
    Allocation,
    LIField,
    ListInvariant,
    PointsTo,
)
from listterm.cli import (EXT, GEN, OTHER, TRAV, differential_check,
                          match_trace)
from listterm.concrete import (
    ConcreteState,
    FuelExhausted,
    Trace,
    _Solve,
    _Walk,
    _step,
    decode_le,
    encode_le,
    format_trace,
    read_le,
    represents,
    run_concrete,
    walk_chain,
)
from listterm.ir import (
    AggType,
    IntType,
    ProgramPosition,
    PtrType,
    parse_program,
)
from listterm.logic import Atom, Entailment, Formula, SymVar
from listterm.seg import EVALUATION, Seg, build_seg

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
I32 = IntType(32)
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
    """The walk round the one-node cycle repeats its step-15 state at step
    22: below that much fuel the run is cut, from there on it is a lasso."""
    prog = load("cyclic_traverse.ll")
    with pytest.raises(FuelExhausted):
        run_concrete(prog, stream(), fuel=21)
    for fuel in (22, 10_000):
        t = run_concrete(prog, stream(), fuel=fuel)
        assert (len(t.instructions), t.loop) == (22, 15)
        assert t.states[22] == t.states[15] and not t.final.halted


READ_UNTIL_SEVEN = """\
define i32 @main() {
entry:
  br label head
head:
  x = call i32 @nondet_uint()
  seven = icmp eq i32 x, 7
  br i1 seven, label done, label head
done:
  ret i32 0
}
"""


def test_a_state_repeated_across_an_input_read_is_not_divergence(
        monkeypatch):
    """Fed 1, 1, 1, 7 the loop head sees the same state on its second and
    third visit, but an input is read in between, and the run halts."""
    from listterm import cli
    prog = parse_program(READ_UNTIL_SEVEN)
    t = run_concrete(prog, stream(1, 1, 1, 7))
    assert t.final.halted and not t.final.error and t.loop is None
    heads = [st for st in t.states if st.pos == prog.position("head", 0)]
    assert len(heads) == 4 and heads[1] == heads[2]
    monkeypatch.setattr(cli, "nondet_stream", lambda seed: stream(1, 1, 1, 7))
    engine = Entailment()
    assert cli.differential_check(prog, build_seg(prog, engine), [0], 10_000,
                                  engine) == (1, [], 0)


def test_null_deref_errors():
    prog = load("null_deref.ll")
    t = run_concrete(prog, stream())
    assert t.final.error


def test_format_trace_lines():
    prog = load("straight_line.ll")
    t = run_concrete(prog, stream())
    text = format_trace(t)
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


FIELDS = [(0, 4), (8, 8)]  # the (offset, size) pairs of a list node


def test_li_predicate_worked_example():
    mem = two_node_memory()
    assert list(walk_chain(mem, 16, 1, 1408, FIELDS, NODES)) == [
        (1408, [5, 1216]), (1216, [0, 0])]


def test_li_predicate_wrong_length():
    """The chain is two nodes long: it neither stops at the first node,
    whose values are not the last ones, nor goes on past the second."""
    nodes = list(walk_chain(two_node_memory(), 16, 1, 1408, FIELDS, NODES))
    assert len(nodes) == 2
    assert nodes[0][1] != [0, 0]


def test_li_predicate_base_case_requires_equal_ends():
    """A one-node chain's first and last values are the node's."""
    mem = {}
    for a in range(100, 116):
        mem[a] = 0
    for i, b in enumerate(encode_le(9, 4)):
        mem[100 + i] = b
    assert list(walk_chain(mem, 16, 1, 100, FIELDS, [(100, 115)])) == [
        (100, [9, 0])]


def test_li_predicate_rejects_overlap():
    # A node whose next pointer targets itself cannot form a 2-chain.
    mem = {}
    for a in range(100, 116):
        mem[a] = 0
    for i, b in enumerate(encode_le(100, 8)):
        mem[108 + i] = b
    assert list(walk_chain(mem, 16, 1, 100, FIELDS, [(100, 115)])) == [
        (100, [0, 100])]


def test_li_predicate_undefined_byte():
    mem = two_node_memory()
    del mem[1220]
    assert list(walk_chain(mem, 16, 1, 1408, FIELDS, NODES)) == [
        (1408, [5, 1216])]


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
    nodes = set(allocations)
    chain = list(walk_chain(mem, 16, 1, addrs[0], FIELDS, nodes))
    assert [ad for ad, _ in chain] == addrs
    assert chain[0][1] == [0, addrs[1]] and chain[-1][1] == [2999, 0]
    nodes.remove(allocations[-1])
    assert [ad for ad, _ in walk_chain(mem, 16, 1, addrs[0], FIELDS,
                                       nodes)] == addrs[:-1]


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


def test_a_heap_memo_keeps_every_answer():
    """Two states of one run share their allocation list, and a store
    relinks the first node's recursive field as ``_step`` does: a copied
    memory dict.  Under one memo each answer is the memo-free one, so the
    second state's one-node chain is not read from the first's entry."""
    c = concrete_two_node_list()
    mem = dict(c.mem)
    mem.update(zip(range(1416, 1424), encode_le(0, 8)))
    relinked = ConcreteState(c.pos, c.asgn, c.allocations, mem)
    s = list_state(extra_kb=[Atom.eq(sv(4, "x_len"), 2)])
    layout, engine, heaps = load("straight_line.ll").layout, Entailment(), {}
    got = [represents(x, s, layout, engine, heaps=heaps)
           for x in (c, relinked, c)]
    assert got == [True, False, True]
    assert got == [represents(x, s, layout, engine)
                   for x in (c, relinked, c)]
    assert len(heaps) == 2


@pytest.mark.parametrize("length", [1, 2, 5, 6])
def test_a_heap_memo_keeps_the_answer_for_an_unbound_root(length):
    """A summary that nothing roots is tried at every node-sized
    allocation; only node 5 - length starts a chain of that length."""
    r, a, v1, n1, x1 = (sv(i, h) for i, h in enumerate(
        ("r", "a", "v1", "n1", "x1"), start=1))
    s = AbstractState.make(
        ProgramPosition("b", 0), lv={},
        li=[ListInvariant(r, a, LIST, (LIField(0, I32, v1, x1),
                                       LIField(8, LISTP, n1, 0)), 2)],
        kb=Formula.conj([Atom.eq(a, length)]))
    _, mem, allocations = long_chain(5)
    c = ConcreteState(ProgramPosition("b", 0), allocations=allocations
                      + [(200, 207)], mem=mem)
    layout, engine, heaps = load("straight_line.ll").layout, Entailment(), {}
    with_memo = [represents(c, s, layout, engine, heaps=heaps)
                 for _ in range(2)]
    assert with_memo == [represents(c, s, layout, engine)] * 2 == \
        [length <= 5] * 2


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


def test_the_plans_of_one_engine_share_each_compiled_clause(search_graph):
    """Equal clauses in two states' plans are one object, the engine's
    copy, and a new engine starts with none."""
    prog, seg, engine = search_graph
    for n in (3, 5):
        match_trace(run_concrete(prog, itertools.chain(
            [n, 9], itertools.cycle(range(9)))), seg, prog, engine)
    clauses = [c for plan in engine.state_plans.values()
               for checks in plan.checks for c in checks]
    assert len(engine.state_plans) > 1 and len(clauses) > len(set(clauses))
    assert len({id(c) for c in clauses}) == len(set(clauses))
    assert all(engine.shared[c] is c for c in clauses)
    assert Entailment().shared == {}


def _plan_refs(plan):
    """Every reference a plan holds: its program variables', its steps',
    and its allocations' and unread points-to entries'."""
    refs = [r for _, r in plan.lv]
    for step in plan.steps:
        if isinstance(step, _Walk):
            refs += [step.root, step.length, *(a for a, _ in step.anchors)]
            refs += [r for f in step.fields for r in f[2:]]
        elif not isinstance(step, _Solve):
            refs += [step[0], step[2]]
    refs += [r for pair in plan.al for r in pair]
    return refs + [r for addr, _, value in plan.pt for r in (addr, value)]


def test_one_analysis_keeps_one_copy_of_each_tuple(search_graph):
    """After a build and a replayed batch, the clauses the state formulas
    appended, the cached conclusions and the plans' references,
    program-variable entries and checked clauses are each the engine's one
    copy."""
    prog, seg, engine = search_graph
    differential_check(prog, seg, range(5), 5000, engine)
    shared = engine.shared
    kinds = {
        "clauses": [c for memory, f in engine.state_formulas.items()
                    for c in f.clauses[len(memory.kb.clauses):]],
        "conclusions": [k for answers in engine._cache.values()
                        for k in answers],
        "refs": [r for plan in engine.state_plans.values()
                 for r in _plan_refs(plan)],
        "lv": [e for plan in engine.state_plans.values() for e in plan.lv],
        "checks": [c for plan in engine.state_plans.values()
                   for checks in plan.checks for c in checks],
    }
    for kind, items in kinds.items():
        assert len(items) > len(set(items)), kind  # repeats to share
        assert all(shared.get(x) is x for x in items), kind
    assert Entailment().shared == {}


def checked_lengths(monkeypatch, name, fuel):
    """Run differential_check on seed 0 of a corpus program; return its
    result and the length of each trace it checked."""
    from listterm import cli
    prog, engine, checked = load(name), Entailment(), []
    match = cli.match_trace
    monkeypatch.setattr(cli, "match_trace", lambda trace, *rest, **kw: (
        checked.append(len(trace.instructions)), match(trace, *rest, **kw))[1])
    result = cli.differential_check(prog, build_seg(prog, engine), [0], fuel,
                                    engine)
    return result, checked


@pytest.mark.parametrize("fuel", [10, 300, 10_000])
def test_differential_check_checks_a_diverging_run_to_its_lasso(
        monkeypatch, fuel):
    """Below its first repeat, at step 22, the run is fuel-exhausted and
    checked on the steps it took; from there on it is a lasso."""
    expected = ((1, [], 1), [10]) if fuel < 22 else ((1, [], 0), [22])
    assert checked_lengths(monkeypatch, "cyclic_traverse.ll", fuel) == \
        expected


# Per program, seeds 0..11 replayed at the default fuel: the checks per
# edge class that match_trace counts, then represents calls and True answers.
REPLAY = {
    "build_search_value.ll": ({EXT: 16, GEN: 35, OTHER: 1033, TRAV: 16},
                              1325, 1227),
    "build_traverse_ptr.ll": ({EXT: 16, GEN: 43, OTHER: 1072, TRAV: 22},
                              1350, 1266),
    "cyclic_traverse.ll": ({GEN: 12, OTHER: 300}, 300, 300),
}


@pytest.mark.parametrize("name", REPLAY)
def test_replay_asks_the_same_checks_with_the_same_answers(monkeypatch,
                                                           name):
    """The replay's checks and answers are pinned, so a memo that skipped a
    check, or changed an answer, would show here."""
    from listterm import cli
    prog, engine = load(name), Entailment()
    seg, counts, answers = build_seg(prog, engine), Counter(), []
    match, rep = cli.match_trace, cli.represents

    def counted_match(*args, **kw):
        result = match(*args, **kw)
        counts.update(result[0])
        return result

    def counted_rep(*args, **kw):
        answers.append(rep(*args, **kw))
        return answers[-1]

    monkeypatch.setattr(cli, "match_trace", counted_match)
    monkeypatch.setattr(cli, "represents", counted_rep)
    assert cli.differential_check(prog, seg, range(12), 10_000, engine) \
        == (12, [], 0)
    assert (counts, len(answers), sum(answers)) == REPLAY[name]


def test_differential_check_counts_a_halt_past_the_fuel_as_exhausted(
        monkeypatch):
    steps = len(run_concrete(load("straight_line.ll"), stream()).instructions)
    assert checked_lengths(monkeypatch, "straight_line.ll", 1) == (
        (1, [], 1), [1])
    assert checked_lengths(monkeypatch, "straight_line.ll", steps) == (
        (1, [], 0), [steps])


def test_a_bad_edge_on_a_later_lap_of_a_lasso_is_reported():
    """The graph unrolls cyclic_traverse's loop twice before it generalizes
    back, so the walk follows the last edges of the second copy only after
    the lasso's 22 steps.  Retarget one of them: the walk round the lasso
    reports it, a walk that stops at the lasso's end does not."""
    prog, engine = load("cyclic_traverse.ll"), Entailment()
    seg = build_seg(prog, engine)
    t = run_concrete(prog, stream())
    body_end = prog.position("bodyW", 3)
    late = max((k for k, e in enumerate(seg.edges) if e.kind == EVALUATION
                and seg.states[e.src].pos == body_end),
               key=lambda k: seg.edges[k].src)
    edges = list(seg.edges)
    edges[late] = edges[late]._replace(dst=seg.root)
    bad = Seg(seg.states, edges, seg.root, seg.outcome)
    assert match_trace(t, seg, prog, engine)[1] == []
    step, *edge = match_trace(t, bad, prog, engine)[1][0]
    assert step > len(t.instructions)
    assert edge == [OTHER, edges[late].src, seg.root]
    one_lap = Trace(t.states, t.instructions)
    assert match_trace(one_lap, bad, prog, engine)[1] == []


def test_concrete_step_does_not_mutate_input():
    prog = load("straight_line.ll")
    c = ConcreteState(prog.entry_position)
    before = (dict(c.asgn), dict(c.mem), list(c.allocations))
    _step(c, prog.instruction_at(c.pos), prog, stream())
    assert (dict(c.asgn), dict(c.mem), list(c.allocations)) == before


FAULT_PROGRAM = """\
list = type {{ i32, list* }}
define i32 @main() {{
entry:
  {}
yes:
  ret i32 0
no:
  ret i32 0
}}
"""

# Instruction, variables, allocations and memory of a state whose step
# fails: one case per way an instruction can fail.
FAULTS = {
    "undefined-operand": ("x = add i32 y, 1", {}, [], {}),
    "undefined-address": ("v = load i32, i32* p", {}, [(1, 4)],
                          dict.fromkeys(range(1, 5), 0)),
    "undefined-condition": ("br i1 c, label yes, label no", {}, [], {}),
    "load-outside-allocations": ("v = load i32, i32* p", {"p": 5}, [(1, 4)],
                                 dict.fromkeys(range(1, 5), 0)),
    "store-past-allocation-end": ("store i32 1, i32* p", {"p": 3}, [(1, 4)],
                                  dict.fromkeys(range(1, 5), 0)),
    "undefined-byte": ("v = load i32, i32* p", {"p": 1}, [(1, 4)],
                       dict.fromkeys(range(1, 4), 0)),
    "field-index-out-of-range": (
        "q = getelementptr list, list* p, i32 0, i32 2", {"p": 1}, [], {}),
    "condition-not-boolean": ("br i1 c, label yes, label no", {"c": 2}, [],
                              {}),
    "malloc-size-zero": ("m = call i8* @malloc(i64 0)", {}, [], {}),
    "free-inside-allocation": ("call void @free(i8* p)", {"p": 2}, [(1, 4)],
                               dict.fromkeys(range(1, 5), 0)),
}


@pytest.mark.parametrize("ins, asgn, allocations, mem", FAULTS.values(),
                         ids=FAULTS)
def test_failing_step_halts_with_error_in_place(ins, asgn, allocations, mem):
    body = ins if ins.startswith("br ") else ins + "\n  br label yes"
    prog = parse_program(FAULT_PROGRAM.format(body))
    c = ConcreteState(prog.entry_position, asgn, allocations, mem)
    before = (dict(asgn), list(allocations), dict(mem))
    n = _step(c, prog.instruction_at(c.pos), prog, stream())
    assert n.error and n.halted
    assert n.pos == c.pos
    assert (n.asgn, n.allocations, n.mem) == before
    assert (c.asgn, c.allocations, c.mem) == before
    assert not c.error and not c.halted
