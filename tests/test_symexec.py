"""Symbolic step rules and end-to-end graph landmarks.

The first half exercises individual step rules on tiny inline programs.
The second half replays the loop-with-traversal flagship program through
the full graph builder and checks the states and edges it must produce:
refinement case splits, chain discovery, summary inference at merge
points, summary extension and traversal, and closing generalization
edges. Assertions are entailment-based so they hold up to renaming of
symbolic variables. A final group runs randomized concrete executions
against the graph with the classified walker.
"""

from __future__ import annotations

import operator
import pathlib
import textwrap
from collections import Counter

import pytest

from listterm.absdom import (ERR, AbstractState, Allocation, ErrState,
                             LIField, ListInvariant, state_formula)
from listterm.cli import (EXT, GEN, TRAV, differential_check, match_trace,
                          nondet_stream)
from listterm.concrete import run_concrete
from listterm.ir import (AggType, IntType, ProgramPosition, PtrType, Ret,
                         parse_program)
from listterm.logic import Atom, Entailment, Formula, SymVar, Term, Verdict
from listterm.seg import (GENERALIZATION, build_seg, check_generalization,
                          find_list)
from listterm import ir, symexec
from listterm.symexec import (EVALUATION, REFINEMENT, StepResult, _icmp_atoms,
                              is_return, step)

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
I32 = IntType(32)


def parse(src):
    return parse_program(textwrap.dedent(src))


def entails(engine, s, atom):
    return engine.entails(state_formula(s, engine),
                          Formula.of(atom)) is Verdict.VALID


def advance(s, prog, engine, n):
    """Take n deterministic evaluation steps."""
    for _ in range(n):
        r = step(s, prog, engine)
        assert r.edge_kind == EVALUATION and len(r.successors) == 1
        s = r.successors[0]
        assert not isinstance(s, ErrState)
    return s


def drive(s, prog, engine, pick, until):
    """Step until ``until(state)`` holds, resolving refinements via pick."""
    for _ in range(200):
        if until(s):
            return s
        r = step(s, prog, engine)
        succs = [c for c in r.successors]
        s = pick(succs) if r.edge_kind == REFINEMENT else succs[0]
        assert not isinstance(s, ErrState)
    raise AssertionError("drive did not reach the target position")


# --- individual step rules ------------------------------------------------------


def start(src):
    prog = parse(src)
    return prog, Entailment(), AbstractState.make(prog.entry_position)


def test_malloc_adds_allocation_with_exact_extent():
    prog, eng, s = start("""\
        define i32 @main() {
        entry:
          mem = call i8* @malloc(i64 16)
          ret i32 0
        }
        """)
    s = advance(s, prog, eng, 1)
    assert len(s.al) == 1
    a = s.al[0]
    assert entails(eng, s, Atom.eq(a.hi, Term.of(a.lo) + 15))
    assert dict(s.lv)["mem"] == a.lo


def test_store_then_load_recovers_value():
    prog, eng, s = start("""\
        list = type { i32, list* }
        define i32 @main() {
        entry:
          mem = call i8* @malloc(i64 16)
          node = bitcast i8* mem to list*
          val_ad = getelementptr list, list* node, i32 0, i32 0
          store i32 41, i32* val_ad
          v = load i32, i32* val_ad
          ret i32 0
        }
        """)
    s = advance(s, prog, eng, 5)
    assert entails(eng, s, Atom.eq(Term.of(dict(s.lv)["v"]), Term.of(41)))


def test_store_overwrites_existing_points_to_entry():
    prog, eng, s = start("""\
        list = type { i32, list* }
        define i32 @main() {
        entry:
          mem = call i8* @malloc(i64 16)
          node = bitcast i8* mem to list*
          val_ad = getelementptr list, list* node, i32 0, i32 0
          store i32 1, i32* val_ad
          store i32 2, i32* val_ad
          ret i32 0
        }
        """)
    s = advance(s, prog, eng, 5)
    entries = [p for p in s.pt if p.addr == dict(s.lv)["val_ad"]]
    assert len(entries) == 1
    assert entries[0].value == 2


def test_load_outside_any_allocation_is_error():
    prog, eng, s = start("""\
        define i32 @main() {
        entry:
          v = load i32, i32* null
          ret i32 0
        }
        """)
    r = step(s, prog, eng)
    assert r.edge_kind == EVALUATION
    assert isinstance(r.successors[0], ErrState)


def test_add_constrains_destination_to_sum():
    prog, eng, s = start("""\
        define i32 @main() {
        entry:
          n = call i32 @nondet_uint()
          m = add i32 n, 5
          ret i32 0
        }
        """)
    s = advance(s, prog, eng, 2)
    lv = dict(s.lv)
    assert entails(eng, s, Atom.eq(Term.of(lv["m"]),
                                   Term.of(lv["n"]) + 5))


def test_nondet_result_is_nonnegative():
    prog, eng, s = start("""\
        define i32 @main() {
        entry:
          n = call i32 @nondet_uint()
          ret i32 0
        }
        """)
    s = advance(s, prog, eng, 1)
    assert entails(eng, s, Atom.ge(Term.of(dict(s.lv)["n"]), 0))


def test_byte_offset_address_is_base_plus_offset():
    prog, eng, s = start("""\
        define i32 @main() {
        entry:
          mem = call i8* @malloc(i64 16)
          p = getelementptr i8, i8* mem, i64 8
          ret i32 0
        }
        """)
    s = advance(s, prog, eng, 2)
    lv = dict(s.lv)
    assert entails(eng, s, Atom.eq(Term.of(lv["p"]),
                                   Term.of(lv["mem"]) + 8))


def test_comparison_with_known_outcome_binds_constant():
    prog, eng, s = start("""\
        define i32 @main() {
        entry:
          c = icmp ult i32 0, 1
          ret i32 0
        }
        """)
    s = advance(s, prog, eng, 1)
    assert dict(s.lv)["c"] == 1


def test_undecided_comparison_splits_into_complementary_branches():
    prog, eng, s = start("""\
        define i32 @main() {
        entry:
          n = call i32 @nondet_uint()
          c = icmp ult i32 n, 5
          ret i32 0
        }
        """)
    s = advance(s, prog, eng, 1)
    r = step(s, prog, eng)
    assert r.edge_kind == REFINEMENT
    assert len(r.successors) == 2
    a, b = r.successors
    # Same position, strictly refined knowledge, jointly exhaustive split.
    assert a.pos == s.pos == b.pos
    extra_a = set(a.kb.atoms()) - set(s.kb.atoms())
    extra_b = set(b.kb.atoms()) - set(s.kb.atoms())
    assert len(extra_a) == 1 and len(extra_b) == 1
    joint = Formula.conj(sorted(extra_a | extra_b, key=str))
    assert eng.entails(joint, Formula.of(Atom.false())) is Verdict.VALID


def test_branch_on_constant_condition_jumps_directly():
    prog, eng, s = start("""\
        define i32 @main() {
        entry:
          br i1 1, label then, label else
        then:
          ret i32 0
        else:
          ret i32 1
        }
        """)
    r = step(s, prog, eng)
    assert r.edge_kind == EVALUATION
    assert r.successors[0].pos == ProgramPosition("then", 0)


def test_free_removes_allocation_and_its_contents():
    prog, eng, s = start("""\
        define i32 @main() {
        entry:
          mem = call i8* @malloc(i64 8)
          call void @free(i8* mem)
          ret i32 0
        }
        """)
    s = advance(s, prog, eng, 2)
    assert s.al == ()
    assert s.pt == ()


def test_free_with_active_summary_is_error():
    """Freeing is unsupported while a summary is active, even at the start
    of an allocation, which frees without one."""
    prog, eng, _ = start("""\
        list = type { i32, list* }
        define i32 @main() {
        entry:
          call void @free(i8* p)
          ret i32 0
        }
        """)
    a, e, b, n, v, nx = (eng.fresh(h) for h in ("a", "e", "b", "n", "v",
                                                "nx"))
    s = AbstractState.make(prog.entry_position, lv={"p": a},
                           al=[Allocation(a, e)],
                           kb=Formula.of(Atom.eq(e, Term.of(a) + 15)))
    freed = step(s, prog, eng).successors[0]
    assert not isinstance(freed, ErrState) and freed.al == ()
    summary = ListInvariant(b, n, AggType("list"), (
        LIField(0, I32, v, v), LIField(8, PtrType(AggType("list")), nx, nx)),
        2)
    r = step(s.replace_components(li=[summary]), prog, eng)
    assert r.edge_kind == EVALUATION
    assert isinstance(r.successors[0], ErrState)


UNBOUND_PROGRAM = """\
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

# An instruction of each type for each operand it reads: ``x`` is unbound,
# ``p`` is bound to a variable.
UNBOUND_OPERAND = {
    "load": "v = load i32, i32* x",
    "store-address": "store i32 1, i32* x",
    "store-value": "store i32 x, i32* p",
    "gep-byte-base": "q = getelementptr i8, i8* x, i64 8",
    "gep-byte-offset": "q = getelementptr i8, i8* p, i64 x",
    "gep-field-base": "q = getelementptr list, list* x, i32 0, i32 1",
    "gep-field-index": "q = getelementptr list, list* p, i32 0, i32 x",
    "icmp-lhs": "b = icmp eq i32 x, 0",
    "icmp-rhs": "b = icmp eq i32 p, x",
    "br-cond": "br i1 x, label yes, label no",
    "add-lhs": "y = add i32 x, p",
    "add-rhs": "y = add i32 p, x",
    "bitcast": "q = bitcast i8* x to list*",
    "malloc": "m = call i8* @malloc(i64 x)",
    "free": "call void @free(i8* x)",
}


def unbound_operand_state(ins, bound):
    """The program, engine and entry state of an ``UNBOUND_OPERAND`` case,
    with ``x`` bound to a variable too when ``bound``."""
    body = ins if ins.startswith("br ") else ins + "\n  br label yes"
    prog, eng = parse_program(UNBOUND_PROGRAM.format(body)), Entailment()
    lv = {"p": eng.fresh("p")}
    if bound:
        lv["x"] = eng.fresh("x")
    return prog, eng, AbstractState.make(prog.entry_position, lv=lv)


@pytest.mark.parametrize("ins", UNBOUND_OPERAND.values(), ids=UNBOUND_OPERAND)
def test_unbound_operand_steps_to_error(ins):
    prog, eng, s = unbound_operand_state(ins, bound=False)
    r = step(s, prog, eng)
    assert r.edge_kind == EVALUATION
    assert isinstance(r.successors[0], ErrState)


class RuleRan(Exception):
    pass


@pytest.fixture
def raising_rules(monkeypatch):
    """Every rule of every instruction type raises ``RuleRan``."""
    def rule(*_args):
        raise RuleRan

    monkeypatch.setattr(symexec, "RULES", {
        t: (rule,) * len(rules) for t, rules in symexec.RULES.items()})


@pytest.mark.parametrize("ins", UNBOUND_OPERAND.values(), ids=UNBOUND_OPERAND)
def test_unbound_operand_is_refused_before_any_rule(raising_rules, ins):
    """``step`` alone decides an unbound operand, so a rule reads every
    operand bound."""
    prog, eng, s = unbound_operand_state(ins, bound=False)
    assert step(s, prog, eng) == StepResult(EVALUATION, (ERR,))


@pytest.mark.parametrize("ins", UNBOUND_OPERAND.values(), ids=UNBOUND_OPERAND)
def test_bound_operands_reach_the_rules(raising_rules, ins):
    prog, eng, s = unbound_operand_state(ins, bound=True)
    with pytest.raises(RuleRan):
        step(s, prog, eng)


def test_return_position_is_recognized_and_not_stepped():
    prog, eng, s = start("""\
        define i32 @main() {
        entry:
          ret i32 0
        }
        """)
    assert is_return(s, prog)
    with pytest.raises(ValueError):
        step(s, prog, eng)


ICMP = {"eq": operator.eq, "ne": operator.ne,
        "ult": operator.lt, "slt": operator.lt,
        "ule": operator.le, "sle": operator.le,
        "ugt": operator.gt, "sgt": operator.gt,
        "uge": operator.ge, "sge": operator.ge}


def test_ir_compares_on_unbounded_integers():
    """The table that the parser, the interpreter and the symbolic rules
    read: signed and unsigned forms make the same comparison."""
    assert ir.ICMP == ICMP


@pytest.mark.parametrize("pred", sorted(ICMP))
def test_icmp_atom_holds_exactly_when_the_comparison_does(pred):
    """The atom of each predicate holds exactly when the comparison does,
    negative values included, and its complement is its negation; this
    includes a comparison against 0 on either side."""
    x, y = SymVar(1, "x"), SymVar(2, "y")
    for lhs, rhs in [(Term.of(x), Term.of(y)), (Term.of(x), Term(0)),
                     (Term(0), Term.of(y))]:
        atom, comp = _icmp_atoms(pred, lhs, rhs)
        for vx in range(-3, 4):
            for vy in range(-3, 4):
                at = {x: vx, y: vy}
                expected = ICMP[pred](lhs.evaluate(at), rhs.evaluate(at))
                assert atom.evaluate(at) is expected, (lhs, rhs, at)
                assert comp.evaluate(at) is not expected, (lhs, rhs, at)


def test_unknown_icmp_predicate_is_rejected():
    with pytest.raises(ValueError, match="unknown predicate"):
        _icmp_atoms("ueq", Term.of(SymVar(1, "x")), Term(0))


# --- list traversal: the four (partner, length) shapes --------------------------

TRAVERSE = """\
    list = type { i32, list* }
    define i32 @main() {
    entry:
      p = getelementptr list, list* cur, i32 0, i32 1
      ret i32 0
    }
    """


def traversal_input(long, partner):
    """``cur`` holds the chain value of the summary's head node, so the
    field address lands in its second node.  The summary's length is >= 2
    with ``long``, 1 without, and undecided with ``long=None``.  With
    ``partner`` a prefix summary ends at the traversed summary's root."""
    prog = parse(TRAVERSE)
    eng = Entailment()
    ptr = PtrType(AggType("list"))
    a, n, v, v_last, nx, nx_last = (eng.fresh(h) for h in
                                    ("a", "n", "v", "vl", "nx", "nxl"))
    li = [ListInvariant(a, n, AggType("list"),
                        (LIField(0, I32, v, v_last),
                         LIField(8, ptr, nx, nx_last)), 2)]
    kb = [] if long is None else [Atom.ge(n, 2) if long else Atom.eq(n, 1)]
    pre = None
    if partner:
        b, m, u, u_last, ub = (eng.fresh(h) for h in
                               ("b", "m", "u", "ul", "ub"))
        pre = ListInvariant(b, m, AggType("list"),
                            (LIField(0, I32, u, u_last),
                             LIField(8, ptr, ub, a)), 2)
        li.append(pre)
        kb.append(Atom.ge(m, 1))
    s = AbstractState.make(prog.entry_position, lv={"cur": nx}, li=li,
                           kb=Formula.conj(kb))
    return prog, eng, s, li[0], pre


def traversal_state(long, partner):
    prog, eng, s, l, pre = traversal_input(long, partner)
    r = step(s, prog, eng)
    assert r.edge_kind == EVALUATION and len(r.successors) == 1
    t = r.successors[0]
    assert not isinstance(t, ErrState)
    assert t.pos == ProgramPosition("entry", 1)
    return eng, s, t, l, pre


def holds(eng, s, *atoms):
    return eng.holds(state_formula(s, eng), *atoms)


def assert_head_became_memory(eng, s, t, l):
    """The head node is a 16-byte allocation at the old root holding the
    head's field values."""
    assert len(t.al) == len(s.al) + 1
    new = t.al[-1]
    assert holds(eng, t, Atom.eq(new.lo, l.ad),
                 Atom.eq(new.hi, Term.of(l.ad) + 15))
    assert len(t.pt) == 2
    for fld in l.fields:
        entry = next(p for p in t.pt if p.value == fld.first)
        assert entry.ty == fld.fty
        assert holds(eng, t, Atom.eq(entry.addr, Term.of(l.ad) + fld.off))


def assert_dissolved(eng, t, l):
    for fld in l.fields:
        assert holds(eng, t, Atom.eq(fld.first, fld.last))


def assert_absorbed(eng, t, l, pre):
    """The prefix summary grew by the head node and ends at its values."""
    grown = next(x for x in t.li if x.ad == pre.ad)
    assert holds(eng, t, Atom.eq(grown.length, Term.of(pre.length) + 1))
    assert [f.last for f in grown.fields] == [f.first for f in l.fields]
    assert [f.first for f in grown.fields] == [f.first for f in pre.fields]
    assert t.al == () and t.pt == ()


def assert_advanced(eng, t, l, pre):
    """The summary now starts at the second node, one node shorter."""
    rest = next(x for x in t.li if pre is None or x.ad != pre.ad)
    assert holds(eng, t, Atom.eq(rest.ad, l.rec_field.first),
                 Atom.eq(rest.length, Term.of(l.length) - 1),
                 Atom.ge(rest.length, 1))
    assert [f.last for f in rest.fields] == [f.last for f in l.fields]


def assert_destination(eng, t, l):
    assert holds(eng, t, Atom.eq(dict(t.lv)["p"],
                                 Term.of(l.rec_field.first) + 8))


def test_traversal_of_long_summary_advances_it():
    eng, s, t, l, _ = traversal_state(long=True, partner=False)
    assert len(t.li) == 1
    assert_advanced(eng, t, l, None)
    assert_head_became_memory(eng, s, t, l)
    assert_destination(eng, t, l)


def test_traversal_of_length_one_summary_dissolves_it():
    eng, s, t, l, _ = traversal_state(long=False, partner=False)
    assert t.li == ()
    assert_head_became_memory(eng, s, t, l)
    assert_dissolved(eng, t, l)
    assert_destination(eng, t, l)


def test_split_traversal_of_long_summary_moves_head_into_prefix():
    eng, s, t, l, pre = traversal_state(long=True, partner=True)
    assert len(t.li) == 2
    assert_absorbed(eng, t, l, pre)
    assert_advanced(eng, t, l, pre)
    assert_destination(eng, t, l)


def test_split_traversal_of_length_one_summary_is_absorbed_by_prefix():
    eng, s, t, l, pre = traversal_state(long=False, partner=True)
    assert len(t.li) == 1
    assert_absorbed(eng, t, l, pre)
    assert_dissolved(eng, t, l)
    assert_destination(eng, t, l)


def test_traversal_of_undecided_length_splits_first():
    """With the length neither >= 2 nor 1, traversal first refines on it;
    each refined state then traverses, as its twin with that length
    decided from the start does."""
    prog, eng, s, l, _ = traversal_input(long=None, partner=False)
    r = step(s, prog, eng)
    assert r.edge_kind == REFINEMENT
    for refined, atom in zip(r.successors, (Atom.ge(l.length, 2),
                                            Atom.eq(l.length, 1))):
        assert refined.pos == s.pos and refined.kb == Formula.of(s.kb, atom)
        t = step(refined, prog, eng).successors[0]
        assert not isinstance(t, ErrState) and t.pos == ProgramPosition(
            "entry", 1)
        assert_destination(eng, t, l)
    assert len(step(r.successors[0], prog, eng).successors[0].li) == 1
    assert step(r.successors[1], prog, eng).successors[0].li == ()


BRANCH = """\
    define i32 @main() {
    entry:
      br i1 c, label yes, label no
    yes:
      ret i32 0
    no:
      ret i32 0
    }
    """


def test_branch_on_symbolic_condition_follows_the_knowledge_base():
    """A symbolic condition that the facts decide jumps as its constant
    twin does; an undecided one refines into condition 1 and condition 0."""
    prog, eng = parse(BRANCH), Entailment()
    c = eng.fresh("c")

    def target(cond, *facts):
        s = AbstractState.make(prog.entry_position, lv={"c": cond},
                               kb=Formula.conj(facts))
        r = step(s, prog, eng)
        assert r.edge_kind == EVALUATION
        return r.successors[0].pos.block

    assert target(c, Atom.eq(c, 1)) == target(1) == "yes"
    assert target(c, Atom.eq(c, 0)) == target(0) == "no"
    s = AbstractState.make(prog.entry_position, lv={"c": c})
    r = step(s, prog, eng)
    assert r.edge_kind == REFINEMENT
    assert [t.kb for t in r.successors] == [Formula.of(Atom.eq(c, 1)),
                                            Formula.of(Atom.eq(c, 0))]
    assert [step(t, prog, eng).successors[0].pos.block
            for t in r.successors] == ["yes", "no"]


FIELD = """\
    list = type { i32, list* }
    define i32 @main() {
    entry:
      q = getelementptr list, list* p, i32 0, i32 k
      ret i32 0
    }
    """


def test_symbolic_field_index_needs_a_provable_constant():
    """A symbolic field index that the facts fix at 1 addresses the second
    field, as the constant index 1 does; without that fact the step goes
    to the error state."""
    prog, eng = parse(FIELD), Entailment()
    a, k = eng.fresh("a"), eng.fresh("k")

    def address(index, *facts):
        s = AbstractState.make(prog.entry_position, lv={"p": a, "k": index},
                               kb=Formula.conj(facts))
        r = step(s, prog, eng)
        assert r.edge_kind == EVALUATION
        return r.successors[0]

    for t in (address(k, Atom.eq(k, 1)), address(1)):
        assert holds(eng, t, Atom.eq(dict(t.lv)["q"], Term.of(a) + 8))
    assert isinstance(address(k, Atom.ge(k, 0)), ErrState)


@pytest.mark.parametrize("index,err", [(1, False), (2, True), (-1, True)])
def test_constant_field_index_must_name_a_field(index, err):
    """A constant field index past either end of a two-field struct steps
    to the error state; its twin with index 1 addresses the second field."""
    prog, eng = parse(FIELD.replace("i32 k", f"i32 {index}")), Entailment()
    a = eng.fresh("a")
    s = AbstractState.make(prog.entry_position, lv={"p": a})
    r = step(s, prog, eng)
    assert r.edge_kind == EVALUATION
    assert isinstance(r.successors[0], ErrState) is err
    if not err:
        t = r.successors[0]
        assert holds(eng, t, Atom.eq(dict(t.lv)["q"], Term.of(a) + 8))


STORE = """\
    define i32 @main() {{
    entry:
      store i32 7, i32* {}
      ret i32 0
    }}
    """


@pytest.mark.parametrize("addr", [4096, "p"])
def test_store_to_constant_address_names_it(addr):
    """A store to the constant address of an allocation gets a fresh
    variable equal to that address for its points-to entry; its twin
    through a variable holding the address uses that variable."""
    prog, eng = parse(STORE.format(addr)), Entailment()
    lo, hi = eng.fresh("lo"), eng.fresh("hi")
    s = AbstractState.make(
        prog.entry_position, lv={"p": lo}, al=[Allocation(lo, hi)],
        kb=Formula.conj([Atom.eq(lo, 4096), Atom.eq(hi, Term.of(lo) + 15)]))
    r = step(s, prog, eng)
    assert r.edge_kind == EVALUATION
    t = r.successors[0]
    assert not isinstance(t, ErrState) and len(t.pt) == 1
    entry = t.pt[0]
    assert (entry.ty, entry.value) == (I32, 7)
    assert isinstance(entry.addr, SymVar) and (entry.addr == lo) is (
        addr == "p")
    assert holds(eng, t, Atom.eq(entry.addr, 4096))


# --- flagship program landmarks -------------------------------------------------


@pytest.fixture(scope="module")
def flagship():
    prog = parse_program((CORPUS / "build_traverse_ptr.ll").read_text())
    eng = Entailment()
    seg = build_seg(prog, eng)
    return prog, eng, seg


def nodes_at(seg, block, index):
    return [n for n, st in enumerate(seg.states)
            if not isinstance(st, ErrState)
            and st.pos == ProgramPosition(block, index)]


def merged_nodes(seg):
    indeg = Counter(e.dst for e in seg.edges if e.kind == GENERALIZATION)
    return sorted(n for n, k in indeg.items() if k >= 2)


def head_of(st):
    return next(p.value for p in st.pt if str(p.addr).startswith("tp_raw"))


def test_graph_is_complete_with_generalization_cycles(flagship):
    _, _, seg = flagship
    assert seg.outcome == "complete"
    assert sum(1 for e in seg.edges if e.kind == GENERALIZATION) >= 2
    assert len(merged_nodes(seg)) == 2


def test_loop_counter_starts_at_zero(flagship):
    prog, eng, seg = flagship
    first = min(nodes_at(seg, "cmpF", 1))
    st = seg.states[first]
    k = dict(st.lv)["k"]
    assert entails(eng, st, Atom.eq(Term.of(k), Term.of(0)))


def test_undecided_loop_test_refines_into_complementary_states(flagship):
    prog, eng, seg = flagship
    first = min(nodes_at(seg, "cmpF", 1))
    kids = [e.dst for e in seg.edges
            if e.src == first and e.kind == REFINEMENT]
    assert len(kids) == 2
    base = set(seg.states[first].kb.atoms())
    extras = [next(iter(set(seg.states[d].kb.atoms()) - base)) for d in kids]
    # One branch continues the loop, the other leaves it.
    st = seg.states[first]
    k, n = dict(st.lv)["k"], dict(st.lv)["n"]
    goal_lt = Atom.le(Term.of(k) - Term.of(n) + 1, Term.of(0))
    goal_ge = Atom.le(Term.of(n) - Term.of(k), Term.of(0))
    texts = {str(a) for a in extras}
    assert texts == {str(goal_lt), str(goal_ge)}


def test_allocation_in_loop_body_has_node_sized_extent(flagship):
    prog, eng, seg = flagship
    first = min(nodes_at(seg, "bodyF", 1))
    st = seg.states[first]
    new = st.al[-1]
    assert entails(eng, st, Atom.eq(new.hi, Term.of(new.lo) + 15))
    assert dict(st.lv)["mem"] == new.lo


def test_payload_store_lands_in_points_to(flagship):
    prog, eng, seg = flagship
    first = min(nodes_at(seg, "bodyF", 5))
    st = seg.states[first]
    lv = dict(st.lv)
    entry = next(p for p in st.pt if p.addr == lv["curr_val"])
    assert entry.value == lv["nondet"]


def test_head_pointer_store_links_new_node(flagship):
    prog, eng, seg = flagship
    first = min(nodes_at(seg, "bodyF", 9))
    st = seg.states[first]
    assert head_of(st) == dict(st.lv)["curr"]


def test_one_node_chain_found_after_first_iteration(flagship):
    prog, eng, seg = flagship
    loop_heads = nodes_at(seg, "cmpF", 0)
    second = sorted(loop_heads)[1]  # first arrival back from the body
    st = seg.states[second]
    assert not st.li  # still fully concrete
    m = find_list(st, head_of(st), AggType("list"), prog, eng)
    assert m is not None and m.length == 1


def test_two_node_chain_after_second_concrete_iteration(flagship):
    """The builder summarizes before a two-node concrete chain exists, so
    replay the second iteration by hand, always taking the stay-in-loop
    refinement branch, and re-run chain discovery."""
    prog, eng, seg = flagship
    second = sorted(nodes_at(seg, "cmpF", 0))[1]

    def stay_in_loop(succs):
        for c in succs:
            lv = dict(c.lv)
            goal = Atom.le(Term.of(lv["k"]) - Term.of(lv["n"]) + 1,
                           Term.of(0))
            if entails(eng, c, goal):
                return c
        raise AssertionError("no continuing branch")

    s = advance(seg.states[second], prog, eng, 1)
    s = drive(s, prog, eng, stay_in_loop,
              lambda st: st.pos == ProgramPosition("cmpF", 0))
    m = find_list(s, head_of(s), AggType("list"), prog, eng)
    assert m is not None and m.length == 2


def test_merged_build_state_summarizes_chain_with_counter_link(flagship):
    prog, eng, seg = flagship
    build_merge = [n for n in merged_nodes(seg)
                   if seg.states[n].pos.block == "cmpF"]
    assert len(build_merge) == 1
    st = seg.states[build_merge[0]]
    assert len(st.li) == 1
    length = st.li[0].length
    assert entails(eng, st, Atom.ge(Term.of(length), 1))
    kinc = dict(st.lv)["kinc"]
    assert entails(eng, st, Atom.eq(Term.of(length) - Term.of(kinc),
                                    Term.of(0)))
    assert st.li[0].ad == dict(st.lv)["curr"]


def extension_edges(seg):
    return [e for e in seg.edges
            if e.kind == EVALUATION
            and not isinstance(seg.states[e.src], ErrState)
            and not isinstance(seg.states[e.dst], ErrState)
            and seg.states[e.src].pos == ProgramPosition("bodyF", 7)
            and seg.states[e.src].li]


def test_extension_edge_grows_summary_by_one(flagship):
    prog, eng, seg = flagship
    edges = extension_edges(seg)
    assert edges
    for e in edges:
        src, dst = seg.states[e.src], seg.states[e.dst]
        old = src.li[0].length
        new = dst.li[0].length
        assert entails(eng, dst, Atom.eq(
            Term.of(new) - Term.of(old) - 1, Term.of(0)))
        # The extended summary is rooted at the freshly linked node.
        assert dst.li[0].ad == dict(src.lv)["curr"]


def traversal_edges(seg):
    out = []
    for e in seg.edges:
        if e.kind != EVALUATION:
            continue
        src, dst = seg.states[e.src], seg.states[e.dst]
        if isinstance(src, ErrState) or isinstance(dst, ErrState):
            continue
        if src.pos == ProgramPosition("bodyW", 1) and src.li:
            out.append(e)
    return out


def test_traversal_edge_shrinks_summary_by_one(flagship):
    prog, eng, seg = flagship
    checked = 0
    for e in traversal_edges(seg):
        src, dst = seg.states[e.src], seg.states[e.dst]
        old_roots = {l.ad for l in src.li}
        moved = [l for l in dst.li if l.ad not in old_roots]
        if not moved:
            continue
        old = src.li[-1].length if len(src.li) == len(dst.li) else None
        # Pair the advanced summary with the one it came from: same count
        # of summaries means an in-place advance of the last one.
        if old is None:
            continue
        new = moved[0].length
        assert entails(eng, dst, Atom.eq(
            Term.of(new) - Term.of(old) + 1, Term.of(0)))
        assert entails(eng, dst, Atom.ge(Term.of(new), 1))
        checked += 1
    assert checked >= 2


def test_merged_traverse_state_splits_list_at_cursor(flagship):
    prog, eng, seg = flagship
    trav_merge = [n for n in merged_nodes(seg)
                  if seg.states[n].pos.block == "cmpW"]
    assert len(trav_merge) == 1
    st = seg.states[trav_merge[0]]
    assert len(st.li) == 2
    prefix, suffix = st.li
    rec = next(f for f in prefix.fields if f.off == 8)
    assert entails(eng, st, Atom.eq(
        Term.of(rec.last) - Term.of(suffix.ad), Term.of(0)))
    # The register holding the currently visited node is the suffix root.
    assert dict(st.lv)["str"] == suffix.ad


def test_every_generalization_edge_passes_the_validity_check(flagship):
    prog, eng, seg = flagship
    gens = [e for e in seg.edges if e.kind == GENERALIZATION]
    assert len(gens) >= 2
    for e in gens:
        assert check_generalization(seg.states[e.src], seg.states[e.dst],
                                    e.inst_map(), prog, eng)


def test_closing_generalization_maps_lengths_to_older_lengths(flagship):
    prog, eng, seg = flagship
    trav_merge = [n for n in merged_nodes(seg)
                  if seg.states[n].pos.block == "cmpW"][0]
    closing = [e for e in seg.edges if e.kind == GENERALIZATION
               and e.dst == trav_merge and e.src > trav_merge]
    assert closing
    for e in closing:
        mu = e.inst_map()
        src = seg.states[e.src]
        for l in seg.states[e.dst].li:
            assert l.length in mu
            # The merged length variable is re-instantiated, not copied.
            assert mu[l.length] != l.length or any(
                ls.length == l.length for ls in src.li)


# --- randomized preservation (sampled; the full budget runs in acceptance) ------


def test_walker_preserves_representation_on_sampled_runs():
    counts = Counter()
    for name in ("build_traverse_ptr.ll", "build_only.ll"):
        prog = parse_program((CORPUS / name).read_text())
        eng = Entailment()
        seg = build_seg(prog, eng)
        for seed in (5, 6, 17):
            trace = run_concrete(prog, nondet_stream(seed), fuel=10000)
            got, violations = match_trace(trace, seg, prog, eng)
            assert violations == []
            counts += got
    assert counts[GEN] > 0 and counts[EXT] > 0
    assert counts[TRAV] > 0


def test_walker_flags_a_corrupted_graph():
    """Sanity-check the oracle itself: retargeting an evaluation edge to a
    state from elsewhere in the graph must surface a violation."""
    prog = parse_program((CORPUS / "count_up.ll").read_text())
    eng = Entailment()
    seg = build_seg(prog, eng)
    from listterm.seg import Edge
    evals = [i for i, e in enumerate(seg.edges) if e.kind == EVALUATION]
    e = seg.edges[evals[1]]
    seg.edges[evals[1]] = Edge(e.src, seg.root, e.kind, e.instantiation)
    trace = run_concrete(prog, nondet_stream(3), fuel=10000)
    _, violations = match_trace(trace, seg, prog, eng)
    assert violations


def test_check_flags_a_retargeted_generalization_edge():
    """A generalization edge retargeted to the root stops representing the
    runs that follow it; ``listterm check`` must report them."""
    prog = parse_program((CORPUS / "count_up.ll").read_text())
    eng = Entailment()
    seg = build_seg(prog, eng)
    from listterm.seg import Edge
    i = next(i for i, e in enumerate(seg.edges) if e.kind == GENERALIZATION)
    e = seg.edges[i]
    seg.edges[i] = Edge(e.src, seg.root, e.kind, e.instantiation)
    _, violations, _ = differential_check(prog, seg, range(6), 10000, eng)
    assert violations
