"""Tests for abstract states and the derived state formula."""

from __future__ import annotations

import pathlib
from unittest import mock

import pytest

from listterm.absdom import (
    AbstractState,
    Allocation,
    LIField,
    ListInvariant,
    Memory,
    PointsTo,
    alpha_rename,
    is_satisfiable,
    state_formula,
)
from listterm.ir import (AggType, IntType, ProgramPosition, PtrType, Record,
                         parse_program)
from listterm.logic import Atom, Entailment, Formula, SymVar, Verdict
from listterm.seg import build_seg

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
I8, I32 = IntType(8), IntType(32)

POS = ProgramPosition("b", 0)
LIST = AggType("list")
LISTP = PtrType(LIST)


def sv(i, hint="v"):
    return SymVar(i, hint)


def make_list_inv(ad, length, first_val, last_val, first_next, last_next):
    return ListInvariant(
        ad=ad, length=length, ty=LIST,
        fields=(LIField(0, I32, first_val, last_val),
                LIField(8, LISTP, first_next, last_next)),
        rec_index=2)


def test_allocation_clauses():
    lo, hi = sv(1), sv(2)
    s = AbstractState.make(POS, al=[Allocation(lo, hi)])
    f = state_formula(s, Entailment())
    assert (Atom.ge(lo, 1),) in f.clauses
    assert (Atom.le(lo, hi),) in f.clauses


def test_allocation_disjointness_disjunction():
    a, b, c, d = sv(1), sv(2), sv(3), sv(4)
    s = AbstractState.make(POS, al=[Allocation(a, b), Allocation(c, d)])
    f = state_formula(s, Entailment())
    assert (Atom.lt(b, c), Atom.lt(d, a)) in f.clauses


def test_pt_positivity_and_functionality():
    p, q, x, y = sv(1), sv(2), sv(3), sv(4)
    kb = Formula.conj([Atom.eq(p, q)])
    s = AbstractState.make(POS, pt=[PointsTo(p, I32, x), PointsTo(q, I32, y)],
                           kb=kb)
    f = state_formula(s, Entailment())
    assert (Atom.ge(p, 1),) in f.clauses
    assert (Atom.eq(x, y),) in f.clauses


def test_pt_injectivity():
    p, q = sv(1), sv(2)
    kb = Formula.conj([])
    s = AbstractState.make(POS, pt=[PointsTo(p, I32, 3), PointsTo(q, I32, 7)],
                           kb=kb)
    f = state_formula(s, Entailment())
    assert (Atom.ne(p, q),) in f.clauses


def test_pt_functionality_requires_same_type():
    p, q, x, y = sv(1), sv(2), sv(3), sv(4)
    kb = Formula.conj([Atom.eq(p, q)])
    s = AbstractState.make(POS, pt=[PointsTo(p, I32, x), PointsTo(q, I8, y)],
                           kb=kb)
    f = state_formula(s, Entailment())
    assert (Atom.eq(x, y),) not in f.clauses


def test_li_basic_clauses():
    ad, ln, fv, lv_, fn = sv(1), sv(2), sv(3), sv(4), sv(5)
    s = AbstractState.make(POS, li=[make_list_inv(ad, ln, fv, lv_, fn, 0)])
    f = state_formula(s, Entailment())
    assert (Atom.ge(ln, 1),) in f.clauses
    assert (Atom.ge(ad, 1),) in f.clauses


def test_li_singleton_forces_field_equalities():
    ad, ln, fv, lv_, fn = sv(1), sv(2), sv(3), sv(4), sv(5)
    kb = Formula.conj([Atom.eq(ln, 1)])
    s = AbstractState.make(POS, li=[make_list_inv(ad, ln, fv, lv_, fn, 0)],
                           kb=kb)
    f = state_formula(s, Entailment())
    assert (Atom.eq(fv, lv_),) in f.clauses
    assert (Atom.eq(fn, 0),) in f.clauses


def test_li_field_disagreement_forces_length_two_and_next_positive():
    # First next value is provably >= 1 while the last is 0, so the list
    # must have at least two elements, and then the first next pointer is
    # itself a valid address.
    ad, ln, fv, lv_, fn = sv(1), sv(2), sv(3), sv(4), sv(5)
    kb = Formula.conj([Atom.ge(fn, 1)])
    s = AbstractState.make(POS, li=[make_list_inv(ad, ln, fv, lv_, fn, 0)],
                           kb=kb)
    eng = Entailment()
    f = state_formula(s, eng)
    assert (Atom.ge(ln, 2),) in f.clauses
    assert eng.entails(f, Formula.of(Atom.ge(ln, 2))) is Verdict.VALID


def test_state_formula_deterministic_and_idempotent():
    ad, ln, fv, lv_, fn = sv(1), sv(2), sv(3), sv(4), sv(5)
    eng = Entailment()
    s = AbstractState.make(POS, li=[make_list_inv(ad, ln, fv, lv_, fn, 0)],
                           kb=Formula.conj([Atom.eq(ln, 1)]))
    f1 = state_formula(s, eng)
    f2 = state_formula(s, eng)
    assert f1 == f2
    # A fresh engine must produce the same formula.
    assert state_formula(s, Entailment()) == f1


def test_state_formula_commutes_with_renaming():
    ad, ln, fv = sv(1), sv(2), sv(3)
    s = AbstractState.make(
        POS, al=[Allocation(ad, ln)], pt=[PointsTo(ad, I32, fv)],
        kb=Formula.conj([Atom.ge(fv, 5)]))
    ren = {ad: sv(11), ln: sv(12), fv: sv(13)}
    from listterm.logic import rename_formula
    f_then_rename = rename_formula(state_formula(s, Entailment()), ren)
    rename_then_f = state_formula(alpha_rename(s, ren), Entailment())
    assert set(f_then_rename.clauses) == set(rename_then_f.clauses)


def test_alpha_rename_roundtrip_and_injectivity():
    a, b = sv(1), sv(2)
    s = AbstractState.make(POS, lv={"x": a, "y": b}, al=[Allocation(a, b)])
    ren = {a: sv(5), b: sv(6)}
    inv = {sv(5): a, sv(6): b}
    assert alpha_rename(alpha_rename(s, ren), inv) == s
    with pytest.raises(ValueError):
        alpha_rename(s, {a: sv(9), b: sv(9)})


def test_satisfiability_pruning():
    a = sv(1)
    dead = AbstractState.make(POS, kb=Formula.conj([Atom.le(a, 0),
                                                    Atom.ge(a, 1)]))
    live = AbstractState.make(POS, kb=Formula.conj([Atom.ge(a, 1)]))
    eng = Entailment()
    assert not is_satisfiable(dead, eng)
    assert is_satisfiable(live, eng)


def test_states_with_one_memory_share_one_saturation():
    p, q, x, y = sv(1), sv(2), sv(3), sv(4)
    pt = [PointsTo(p, I32, x), PointsTo(q, I32, y)]
    kb = Formula.conj([Atom.eq(p, q)])
    eng = Entailment()
    first = AbstractState.make(POS, lv={"a": p}, pt=pt, kb=kb)
    f = state_formula(first, eng)
    queries = eng.queries
    # Another position and other locals over the same memory.
    second = AbstractState.make(ProgramPosition("c", 2),
                                lv={"a": q, "n": 3}, pt=pt, kb=kb)
    assert second != first
    assert state_formula(second, eng) is f
    assert eng.queries == queries
    # Another knowledge base is another memory, saturated on its own.
    third = first.replace_components(kb=Formula.conj([Atom.ne(x, y)]))
    f3 = state_formula(third, eng)
    assert f3 != f and (Atom.ne(p, q),) in f3.clauses
    assert eng.queries > queries
    assert len(eng.state_formulas) == 2


def test_replace_components_keeps_what_is_not_given():
    """Components not given are the state's own objects; given ones are
    sorted as ``make`` sorts them, so the result is ``make``'s state."""
    p, q, x, y, n = sv(1), sv(2), sv(3), sv(4), sv(5)
    s = AbstractState.make(
        POS, lv={"b": q, "a": p}, al=[Allocation(q, y), Allocation(p, x)],
        pt=[PointsTo(p, I32, 0)], li=[make_list_inv(q, n, 1, 2, x, 0)],
        kb=Formula.conj([Atom.ge(n, 1)]))
    pt = [PointsTo(q, I32, y), PointsTo(p, I32, x)]  # not in make's order
    cases = [
        ({"pt": pt}, ("pos", "lv", "al", "li", "kb")),
        ({"pos": ProgramPosition("c", 1), "lv": {"z": x, "a": p},
          "kb": Formula.conj([Atom.ge(x, 2)])}, ("al", "pt", "li")),
        ({"pos": ProgramPosition("c", 1), "lv": {"z": x}},
         ("memory", "al", "pt", "li", "kb")),
    ]
    for given, kept in cases:
        r = s.replace_components(**given)
        assert all(getattr(r, name) is getattr(s, name) for name in kept)
        made = AbstractState.make(**{
            name: given.get(name, getattr(s, name))
            for name in ("pos", "lv", "al", "pt", "li", "kb")})
        assert r == made and hash(r) == hash(made)
    assert list(s.replace_components(pt=pt).pt) == pt[::-1]


@pytest.mark.parametrize("name, states, formulas", [
    ("build_traverse_ptr.ll", 142, 82),
    ("build_traverse_field.ll", 132, 82),
    ("build_only.ll", 67, 46),
])
def test_graph_states_are_saturated_once_per_memory(name, states, formulas):
    """The graph's states share their memories, and each memory's formula
    is saturated once."""
    prog = parse_program((CORPUS / name).read_text())
    eng = Entailment()
    seg = build_seg(prog, eng)
    assert (len(seg.states), len(eng.state_formulas)) == (states, formulas)


@pytest.mark.parametrize("name, memories", [
    ("build_traverse_ptr.ll", 84),
    ("build_only.ll", 47),
    ("build_search_value.ll", 105),
])
def test_graph_states_share_their_parents_memory(name, memories):
    """A step that changes only the position or the locals keeps its
    state's memory object: the graph build makes a memory per change of
    allocations, points-to entries, summaries or knowledge base."""
    prog = parse_program((CORPUS / name).read_text())
    with mock.patch.object(Memory, "__init__", autospec=True,
                           side_effect=Record.__init__) as init:
        build_seg(prog, Entailment())
    assert init.call_count == memories


def test_kb_clauses_come_first_and_are_kept():
    a, b = sv(1), sv(2)
    kb = Formula.conj([Atom.ge(a, 7), Atom.ge(a, 1), Atom.ge(a, 7)])
    s = AbstractState.make(POS, al=[Allocation(a, b)], kb=kb)
    f = state_formula(s, Entailment())
    # Duplicates in the knowledge base stay; a derived clause it already
    # has is not added again.
    assert f.clauses == kb.clauses + ((Atom.le(a, b),),)


def _rules(s):
    """The saturation rules of ``s`` as ``(question, facts)``, derived here
    from the state's components."""
    for i, p in enumerate(s.pt):
        for q in s.pt[i + 1:]:
            if p.ty == q.ty:
                yield Atom.eq(p.addr, q.addr), [Atom.eq(p.value, q.value)]
                yield Atom.ne(p.value, q.value), [Atom.ne(p.addr, q.addr)]
    for l in s.li:
        yield Atom.eq(l.length, 1), [Atom.eq(f.first, f.last)
                                     for f in l.fields]
        rec = l.fields[l.rec_index - 1]
        yield Atom.ge(l.length, 2), [Atom.ge(rec.first, 1)]
        for f in l.fields:
            yield Atom.ne(f.first, f.last), [Atom.ge(l.length, 2)]


@pytest.mark.parametrize("name", ["build_traverse_ptr.ll", "build_append.ll"])
def test_state_formula_is_saturated(name):
    """No rule's question holds against a final state formula while one of
    its facts is missing from it."""
    prog = parse_program((CORPUS / name).read_text())
    eng = Entailment()
    seg = build_seg(prog, eng)
    asked = 0
    for s in seg.states:
        if not isinstance(s, AbstractState):
            continue
        f = state_formula(s, eng)
        present = set(f.clauses)
        for question, facts in _rules(s):
            if any((a,) not in present for a in facts):
                asked += 1
                assert not eng.holds(f, question), (str(s), str(question))
    assert asked > 0


def test_lv_helpers():
    a = sv(1)
    s = AbstractState.make(POS, lv={"x": a, "n": 5})
    assert s.lv_of("x") == a
    assert s.lv_of(7) == 7
    assert s.lv_of("missing") is None
    assert s.bind("y", 3)["y"] == 3
    assert ("y", 3) not in s.lv  # bind does not mutate
