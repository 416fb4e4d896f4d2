"""Graph construction, merging, and generalization tests."""

from __future__ import annotations

import pathlib

import pytest

from listterm.absdom import (
    AbstractState,
    Allocation,
    ErrState,
    LIField,
    ListInvariant,
    PointsTo,
    state_formula,
)
from listterm.ir import (AggType, IntType, ProgramPosition, PtrType,
                         parse_program)
from listterm.logic import (Atom, Entailment, Formula, OffsetClosure, SymVar,
                            Term)
from listterm.symexec import StepResult
from listterm.seg import (
    COMPLETE,
    CONTAINS_ERR,
    GENERALIZATION,
    INCOMPLETE,
    REFINEMENT,
    build_seg,
    can_merge,
    check_generalization,
    find_instantiation,
    find_list,
    merge_states,
    to_dot,
    to_json,
)

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
I32 = IntType(32)
LIST = AggType("list")
LISTP = PtrType(LIST)
POS = ProgramPosition("cmpF", 0)


def load(name):
    return parse_program((CORPUS / name).read_text())


def sv(i, hint="v"):
    return SymVar(i, hint)


@pytest.fixture(scope="module")
def build_only_seg():
    prog = load("build_only.ll")
    eng = Entailment()
    return prog, eng, build_seg(prog, eng)


# --- offset closure ----------------------------------------------------------

def test_offset_closure_chains_and_constants():
    a, b, c = sv(1), sv(2), sv(3)
    f = Formula.conj([
        Atom.eq(Term.of(a), Term.of(b) + 3),
        Atom.eq(b, 4),
        Atom.eq(Term.of(c), Term.of(a) - 2),
    ])
    cl = OffsetClosure(f)
    assert cl.diff(a, b) == 3
    assert cl.const(a) == 7
    assert cl.const(c) == 5
    assert cl.diff(c, b) == 1
    assert cl.diff(a, 7) == 0


def test_offset_closure_unknown_returns_none():
    a, b = sv(1), sv(2)
    cl = OffsetClosure(Formula.conj([Atom.ge(a, 1)]))
    assert cl.diff(a, b) is None
    assert cl.const(a) is None


def test_offset_closure_int_queries():
    cl = OffsetClosure(Formula.conj([]))
    assert cl.diff(3, 1) == 2
    assert cl.const(9) == 9


# --- concrete chain detection -------------------------------------------------

def two_node_state(prog):
    """p -> node1 -> node2 -> null, plus a root slot."""
    n1, n1e = sv(1, "n1"), sv(2, "n1e")
    n2, n2e = sv(3, "n2"), sv(4, "n2e")
    a11, a12 = sv(5, "a11"), sv(6, "a12")
    a21, a22 = sv(7, "a21"), sv(8, "a22")
    v1, v2 = sv(9, "v1"), sv(10, "v2")
    kb = [
        Atom.eq(Term.of(n1e), Term.of(n1) + 15),
        Atom.eq(Term.of(n2e), Term.of(n2) + 15),
        Atom.eq(Term.of(a11), Term.of(n1)),
        Atom.eq(Term.of(a12), Term.of(n1) + 8),
        Atom.eq(Term.of(a21), Term.of(n2)),
        Atom.eq(Term.of(a22), Term.of(n2) + 8),
    ]
    s = AbstractState.make(
        POS,
        lv={"p": n1},
        al=[Allocation(n1, n1e), Allocation(n2, n2e)],
        pt=[PointsTo(a11, I32, v1), PointsTo(a12, LISTP, n2),
            PointsTo(a21, I32, v2), PointsTo(a22, LISTP, 0)],
        kb=Formula.conj(kb))
    return s, (n1, n2, v1, v2)


def test_find_list_two_nodes(build_only_seg):
    prog, eng, _ = build_only_seg
    s, (n1, n2, v1, v2) = two_node_state(prog)
    m = find_list(s, n1, LIST, prog, eng)
    assert m is not None
    assert m.length == 2
    assert m.starts == (n1, n2)
    assert m.firsts == (v1, n2)
    assert m.lasts == (v2, 0)


def test_find_list_inner_suffix(build_only_seg):
    prog, eng, _ = build_only_seg
    s, (n1, n2, v1, v2) = two_node_state(prog)
    m = find_list(s, n2, LIST, prog, eng)
    assert m is not None and m.length == 1


def test_find_list_requires_full_coverage(build_only_seg):
    prog, eng, _ = build_only_seg
    s, (n1, _, _, _) = two_node_state(prog)
    # Remove one field entry: the node is no longer a complete element.
    s2 = s.replace_components(pt=[p for p in s.pt if p.ty != I32])
    assert find_list(s2, n1, LIST, prog, Entailment()) is None


def test_find_list_rejects_unknown_root(build_only_seg):
    prog, eng, _ = build_only_seg
    s, _ = two_node_state(prog)
    assert find_list(s, sv(99, "other"), LIST, prog, Entailment()) is None


# --- merging ------------------------------------------------------------------

def merged_node(seg):
    """The node with two incoming generalization edges plus its two inputs."""
    for i, st in enumerate(seg.states):
        if isinstance(st, ErrState):
            continue
        gens = [e for e in seg.edges
                if e.dst == i and e.kind == GENERALIZATION and e.src != i]
        if len(gens) >= 2 and st.li:
            return i, gens
    raise AssertionError("no merged node found")


def test_merge_creates_summary_with_length_bounds(build_only_seg):
    prog, eng, seg = build_only_seg
    midx, gens = merged_node(seg)
    merged = seg.states[midx]
    assert len(merged.li) == 1
    l = merged.li[0]
    f = state_formula(merged, eng)
    from listterm.logic import Verdict
    assert eng.entails(f, Formula.of(Atom.ge(l.length, 1))) is Verdict.VALID
    # The loop counter tracks the built length.
    kinc = dict(merged.lv)["kinc"]
    assert eng.entails(f, Formula.of(Atom.eq(
        Term.of(l.length), Term.of(kinc)))) is Verdict.VALID


def test_merge_edges_are_checked_generalizations(build_only_seg):
    prog, eng, seg = build_only_seg
    midx, gens = merged_node(seg)
    merged = seg.states[midx]
    for e in gens:
        src = seg.states[e.src]
        assert check_generalization(src, merged, e.inst_map(), prog, eng)


def test_merge_instantiations_map_lengths_to_inputs(build_only_seg):
    prog, eng, seg = build_only_seg
    midx, gens = merged_node(seg)
    l = seg.states[midx].li[0]
    lengths = sorted(e.inst_map()[l.length] for e in gens
                     if isinstance(e.inst_map()[l.length], int))
    assert lengths == [1, 2]


def test_merge_excludes_chain_footprint(build_only_seg):
    prog, eng, seg = build_only_seg
    midx, gens = merged_node(seg)
    merged = seg.states[midx]
    src = seg.states[gens[0].src]
    # The inputs carry the node allocations; the merged state does not.
    assert len(merged.al) < len(src.al) + 1
    assert all(p.ty != I32 or "k" in p.addr.hint for p in merged.pt)


def test_merge_self_yields_generalization(build_only_seg):
    prog, eng, seg = build_only_seg
    midx, gens = merged_node(seg)
    s = seg.states[gens[0].src]
    merged, mu1, mu2 = merge_states(s, s, prog, eng)
    assert check_generalization(s, merged, mu1, prog, eng)
    assert check_generalization(s, merged, mu2, prog, eng)


def test_merge_widening_drops_large_constants(build_only_seg):
    prog, eng, seg = build_only_seg
    midx, gens = merged_node(seg)
    s = seg.states[gens[0].src]
    m0, _, _ = merge_states(s, s, prog, eng, widen_stage=0)
    m1, _, _ = merge_states(s, s, prog, eng, widen_stage=1)
    m2, _, _ = merge_states(s, s, prog, eng, widen_stage=2)

    def large_consts(st):
        al_pairs = {(a.lo, a.hi) for a in st.al} | \
                   {(a.hi, a.lo) for a in st.al}
        out = []
        for a in st.kb.atoms():
            coeffs = a.term.coeffs
            if len(coeffs) == 2 and tuple(v for v, _ in coeffs) in al_pairs:
                continue  # allocation extents are exempt
            if abs(a.term.const) > 1:
                out.append(a)
        return out

    assert large_consts(m1) == []
    # Shape-only stage keeps no inequalities beyond structural bounds.
    assert len(m2.kb.atoms()) <= len(m1.kb.atoms()) <= len(m0.kb.atoms())


def with_padding_entry(s):
    """``s`` plus a program variable ``q`` at the first node's padding
    (start + 4) and an ``i32`` points-to entry there: an entry that lies
    inside the chain's first node but is none of its fields."""
    n1 = dict(s.lv)["p"]
    x, w = sv(11, "x"), sv(12, "w")
    return s.replace_components(
        lv={"p": n1, "q": x},
        pt=s.pt + (PointsTo(x, I32, w),),
        kb=Formula.conj(list(s.kb.atoms()) +
                        [Atom.eq(Term.of(x), Term.of(n1) + 4)])), x, w


def test_merge_drops_entry_inside_summarized_node(build_only_seg):
    prog, eng, _ = build_only_seg
    s, _ = two_node_state(prog)
    s, _, _ = with_padding_entry(s)
    merged, mu1, _ = merge_states(s, s, prog, eng)
    assert len(merged.li) == 1 and merged.al == ()
    q = dict(merged.lv)["q"]
    assert mu1[q] == dict(s.lv)["q"]
    # The padding entry is not a field of the chain, so it is not consumed
    # with it; it is dropped because it is not provably outside the node.
    assert not any(p.addr == q for p in merged.pt)


def test_check_generalization_rejects_entry_inside_materialized_chain(
        build_only_seg):
    prog, eng, _ = build_only_seg
    s, (n1, n2, v1, v2) = two_node_state(prog)
    r, length = sv(21, "r"), sv(22, "len")
    f1, l1, f2, l2 = sv(23, "f1"), sv(24, "l1"), sv(25, "f2"), sv(26, "l2")
    inv = ListInvariant(ad=r, length=length, ty=LIST,
                        fields=(LIField(0, I32, f1, l1),
                                LIField(8, LISTP, f2, l2)),
                        rec_index=2)
    sbar = AbstractState.make(POS, lv={"p": r}, li=[inv],
                              kb=Formula.conj([Atom.ge(length, 1)]))
    mu = {r: n1, length: 2, f1: v1, l1: v2, f2: n2, l2: 0}
    # Without the padding entry the concrete chain is an instance of the
    # summary.
    assert check_generalization(s, sbar, mu, prog, eng)
    s_pad, x, w = with_padding_entry(s)
    y, z = sv(27, "y"), sv(28, "z")
    sbar_pad = sbar.replace_components(lv={"p": r, "q": y},
                                       pt=[PointsTo(y, I32, z)])
    mu_pad = {**mu, y: x, z: w}
    # The older state keeps an entry whose image lies inside the chain the
    # summary stands for, so the summary would overlap it.
    assert not check_generalization(s_pad, sbar_pad, mu_pad, prog, eng)


def summary_generalizes(prog, engine, s, **changes):
    """Does a one-summary state over the chain from ``p`` generalize ``s``
    (:func:`two_node_state`, or a twin of it), under the map that sends the
    summary to that chain, with ``changes`` to its images?"""
    n1, n2 = dict(s.lv)["p"], sv(3, "n2")
    r, length = sv(21, "r"), sv(22, "len")
    f1, l1, f2, l2 = sv(23, "f1"), sv(24, "l1"), sv(25, "f2"), sv(26, "l2")
    sbar = AbstractState.make(
        POS, lv={"p": r},
        li=[ListInvariant(ad=r, length=length, ty=LIST,
                          fields=(LIField(0, I32, f1, l1),
                                  LIField(8, LISTP, f2, l2)),
                          rec_index=2)],
        kb=Formula.conj([Atom.ge(length, 1)]))
    images = {"r": n1, "len": 2, "f1": sv(9, "v1"), "l1": sv(10, "v2"),
              "f2": n2, "l2": 0, **changes}
    mu = {v: images[v.hint] for v in (r, length, f1, l1, f2, l2)}
    return check_generalization(s, sbar, mu, prog, engine)


def test_check_generalization_needs_a_chain_to_materialize(build_only_seg):
    """The summary stands for the chain from p; a twin whose first node
    lacks its value entry holds no such chain."""
    prog, eng, _ = build_only_seg
    s, (n1, _, v1, _) = two_node_state(prog)
    assert summary_generalizes(prog, eng, s)
    broken = s.replace_components(pt=[p for p in s.pt if p.value != v1])
    assert not summary_generalizes(prog, eng, broken)


@pytest.mark.parametrize("length,accepted", [(2, True), (1, False),
                                             (3, False)])
def test_check_generalization_needs_the_chain_length(build_only_seg, length,
                                                     accepted):
    prog, eng, _ = build_only_seg
    s, _ = two_node_state(prog)
    assert summary_generalizes(prog, eng, s, len=length) is accepted


@pytest.mark.parametrize("changes", [
    {"f1": sv(10, "v2")}, {"l1": sv(9, "v1")}, {"f2": 0}, {"l2": sv(3, "n2")},
], ids=["first-value", "last-value", "first-next", "last-next"])
def test_check_generalization_needs_the_chain_ends(build_only_seg, changes):
    """The chain's first values are (v1, n2) and its last (v2, null); a map
    that sends one of them elsewhere is rejected."""
    prog, eng, _ = build_only_seg
    s, _ = two_node_state(prog)
    assert summary_generalizes(prog, eng, s)
    assert not summary_generalizes(prog, eng, s, **changes)


TWO_TYPES = """\
list = type { i32, list* }
other = type { i32, other* }
define i32 @main() {
entry:
  ret i32 0
}
"""


@pytest.mark.parametrize("ty,accepted", [(LIST, True),
                                         (AggType("other"), False)],
                         ids=["same", "other"])
def test_check_generalization_needs_a_summary_of_the_same_type(ty,
                                                               accepted):
    """The older summary of ``list`` nodes needs one of its type at its
    image; a twin whose summary has the same values but summarizes
    ``other`` nodes, of the same layout, is rejected."""
    plain = [sv(i, h) for i, h in enumerate(("r", "n", "f1", "l1", "f2",
                                             "l2"), start=1)]
    barred = [sv(i + 10, v.hint) for i, v in enumerate(plain, start=1)]

    def state(ty, r, n, f1, l1, f2, l2):
        return AbstractState.make(
            POS, lv={"p": r},
            li=[ListInvariant(r, n, ty, (LIField(0, I32, f1, l1),
                                         LIField(8, PtrType(ty), f2, l2)),
                              2)],
            kb=Formula.conj([Atom.ge(n, 1)]))

    assert check_generalization(
        state(ty, *plain), state(LIST, *barred), dict(zip(barred, plain)),
        parse_program(TWO_TYPES), Entailment()) is accepted


def test_can_merge_requires_equal_domains(build_only_seg):
    prog, eng, _ = build_only_seg
    s, _ = two_node_state(prog)
    s2 = s.replace_components(lv={"p": sv(1, "n1"), "q": 5})
    assert not can_merge(s, s2, prog, eng)


def test_can_merge_summary_structure(build_only_seg):
    prog, eng, seg = build_only_seg
    midx, gens = merged_node(seg)
    merged = seg.states[midx]       # has a summary, no concrete head node
    src = seg.states[gens[0].src]   # concrete nodes only, same domain
    assert set(dict(merged.lv)) == set(dict(src.lv))
    assert can_merge(src, src, prog, eng)
    assert can_merge(merged, merged, prog, eng)


# --- instantiation search -------------------------------------------------------

def test_find_instantiation_identity(build_only_seg):
    prog, eng, seg = build_only_seg
    midx, _ = merged_node(seg)
    merged = seg.states[midx]
    mu = find_instantiation(merged, merged, prog, eng)
    assert mu is not None
    assert all(mu[v] == v for v in merged.sym_vars)


def test_find_instantiation_rejects_position_mismatch(build_only_seg):
    prog, eng, seg = build_only_seg
    midx, _ = merged_node(seg)
    merged = seg.states[midx]
    moved = merged.replace_components(pos=ProgramPosition("done", 0))
    assert find_instantiation(moved, merged, prog, eng) is None


A, B, C = sv(1, "a"), sv(2, "b"), sv(3, "c")
ABAR, BBAR, CBAR = sv(11, "a"), sv(12, "b"), sv(13, "c")


@pytest.mark.parametrize("lv,lv_bar,mu", [
    ({"p": 5, "q": A}, {"p": 5, "q": ABAR}, {ABAR: A}),
    ({"p": 6, "q": A}, {"p": 5, "q": ABAR}, None),
    ({"p": A, "q": A}, {"p": ABAR, "q": ABAR}, {ABAR: A}),
    ({"p": A, "q": B}, {"p": ABAR, "q": ABAR}, None),
], ids=["same-constant", "other-constant", "one-binding", "two-bindings"])
def test_find_instantiation_needs_the_program_variables_to_match(lv, lv_bar,
                                                                 mu):
    """Each older program variable's value must map onto the newer one's: a
    constant onto the same constant, and a variable onto one value only.  A
    mismatch is rejected before the engine is asked anything, whereas the
    newer state's two cells cost its formula a query."""
    cells = [PointsTo(C, I32, 0), PointsTo(sv(4, "d"), I32, 1)]
    s = AbstractState.make(POS, lv=lv, pt=cells)
    sbar = AbstractState.make(POS, lv=lv_bar)
    engine = Entailment()
    assert find_instantiation(s, sbar, load("straight_line.ll"), engine) == mu
    assert (engine.queries == 0) is (mu is None)


def test_find_instantiation_closes_loop(build_only_seg):
    prog, eng, seg = build_only_seg
    loop_edges = [e for e in seg.edges
                  if e.kind == GENERALIZATION and e.dst < e.src
                  and seg.states[e.dst].li]
    assert loop_edges
    e = loop_edges[0]
    mu = find_instantiation(seg.states[e.src], seg.states[e.dst], prog, eng)
    assert mu is not None
    assert mu == e.inst_map()


def test_find_instantiation_binds_entry_value_from_points_to(build_only_seg):
    # The older state's entry value vb appears nowhere else, so only the
    # match of its points-to entry against the newer state's binds it.
    prog, eng, _ = build_only_seg
    a, a_end, b, b_end = sv(1, "a"), sv(2, "a_end"), sv(3, "b"), sv(4, "b_end")
    vb = sv(5, "vb")

    def state(lo, hi, value):
        return AbstractState.make(
            POS, lv={"p": lo}, al=[Allocation(lo, hi)],
            pt=[PointsTo(lo, I32, value)],
            kb=Formula.conj([Atom.eq(Term.of(hi), Term.of(lo) + 3)]))

    mu = find_instantiation(state(a, a_end, 5), state(b, b_end, vb), prog, eng)
    assert mu == {b: a, b_end: a_end, vb: 5}


def test_check_generalization_rejects_bogus_map(build_only_seg):
    prog, eng, seg = build_only_seg
    midx, gens = merged_node(seg)
    merged = seg.states[midx]
    src = seg.states[gens[0].src]
    good = gens[0].inst_map()
    bad = dict(good)
    some = next(iter(bad))
    bad[some] = 424242
    assert not check_generalization(src, merged, bad, prog, eng)


def generalizes(al=(), pt=(), al_bar=(), pt_bar=(), pos_bar=POS,
                names_bar="pqr", mu=()):
    """Does the state over ``ABAR, BBAR, CBAR`` with ``al_bar``/``pt_bar``
    generalize the one over ``A, B, C`` with ``al``/``pt``, under the map
    that sends each barred variable to its plain twin, and ``mu`` more?"""
    s = AbstractState.make(POS, lv={"p": A, "q": B, "r": C}, al=al, pt=pt)
    sbar = AbstractState.make(pos_bar, lv=dict(zip(names_bar,
                                                   (ABAR, BBAR, CBAR))),
                              al=al_bar, pt=pt_bar)
    return check_generalization(s, sbar, {ABAR: A, BBAR: B, CBAR: C,
                                          **dict(mu)},
                                load("straight_line.ll"), Entailment())


@pytest.mark.parametrize("pos,accepted",
                         [(POS, True), (ProgramPosition("cmpF", 1), False)],
                         ids=["same", "other"])
def test_check_generalization_needs_the_same_position(pos, accepted):
    assert generalizes(pos_bar=pos) is accepted


@pytest.mark.parametrize("names,accepted", [("pqr", True), ("pqx", False)],
                         ids=["same", "other"])
def test_check_generalization_needs_the_same_variable_names(names,
                                                            accepted):
    """The older state's program variables must be the newer one's."""
    assert generalizes(names_bar=names) is accepted


DBAR = sv(14, "d")


@pytest.mark.parametrize("mu,accepted", [({DBAR: B}, True), ({}, False)],
                         ids=["mapped", "unmapped"])
def test_check_generalization_needs_every_older_variable_mapped(mu,
                                                                accepted):
    """The older allocation [abar, dbar] images [a, b] only once the map
    sends dbar, a variable no program variable holds, to b."""
    assert generalizes(al=[Allocation(A, B)],
                       al_bar=[Allocation(ABAR, DBAR)], mu=mu) is accepted


@pytest.mark.parametrize("lo,hi,accepted",
                         [(A, B, True), (A, C, False), (C, B, False)],
                         ids=["image", "other-hi", "other-lo"])
def test_check_generalization_needs_the_allocation_image(lo, hi, accepted):
    """The older allocation [abar, bbar] needs one at its image [a, b]; a
    twin whose only allocation has another end is rejected."""
    assert generalizes(al=[Allocation(lo, hi)],
                       al_bar=[Allocation(ABAR, BBAR)]) is accepted


@pytest.mark.parametrize("addr,ty,value,accepted",
                         [(A, I32, B, True), (C, I32, B, False),
                          (A, LISTP, B, False), (A, I32, C, False)],
                         ids=["image", "other-addr", "other-type",
                              "other-value"])
def test_check_generalization_needs_the_points_to_image(addr, ty, value,
                                                        accepted):
    """The older entry abar -> bbar (an ``i32``) needs an entry a -> b of
    the same type; a twin whose only entry differs in its address, its type
    or its value is rejected."""
    assert generalizes(pt=[PointsTo(addr, ty, value)],
                       pt_bar=[PointsTo(ABAR, I32, BBAR)]) is accepted


# --- driver -------------------------------------------------------------------

def test_build_seg_outcomes():
    for name, expect in [("straight_line.ll", COMPLETE),
                         ("count_up.ll", COMPLETE),
                         ("null_deref.ll", CONTAINS_ERR)]:
        seg = build_seg(load(name), Entailment())
        assert seg.outcome == expect, name


BRANCH = """\
define i32 @main() {
entry:
  n = call i32 @nondet_uint()
  c = icmp slt i32 n, 3
  br i1 c, label yes, label no
yes:
  ret i32 0
no:
  ret i32 0
}
"""


def test_build_seg_prunes_an_unsatisfiable_successor(monkeypatch):
    """The ``icmp`` splits on ``n <= 2`` or ``n >= 3``.  A step that also
    gives the first case ``n >= 3`` leaves it a contradictory knowledge
    base, so it is a leaf and ``yes`` is never reached, while its
    satisfiable twin steps on to ``no``."""
    from listterm import seg as seg_module
    real = seg_module.step

    def step(s, prog, engine):
        result = real(s, prog, engine)
        if result.edge_kind != REFINEMENT:
            return result
        dead, live = result.successors
        n = dict(dead.lv)["n"]
        dead = dead.replace_components(
            kb=dead.kb.and_(Formula.conj([Atom.ge(n, 3)])))
        return StepResult(REFINEMENT, (dead, live))

    monkeypatch.setattr(seg_module, "step", step)
    seg = build_seg(parse_program(BRANCH), Entailment())
    dead, live = (e.dst for e in seg.edges if e.kind == REFINEMENT)
    assert not [e for e in seg.edges if e.src == dead]
    assert [e.dst for e in seg.edges if e.src == live]
    assert sorted({st.pos.block for st in seg.states}) == ["entry", "no"]
    assert seg.outcome == COMPLETE


def test_build_seg_has_loop_closing_edge():
    seg = build_seg(load("count_up.ll"), Entailment())
    assert any(e.kind == GENERALIZATION and e.dst < e.src for e in seg.edges)


def test_build_seg_node_cap_gives_incomplete():
    seg = build_seg(load("count_up.ll"), Entailment(), max_nodes=5)
    assert seg.outcome == INCOMPLETE


def test_build_seg_merge_cap_gives_incomplete():
    seg = build_seg(load("count_up.ll"), Entailment(), max_merges=0)
    assert seg.outcome == INCOMPLETE


def test_analyses_in_one_process_are_isolated():
    """Variable ids belong to one analysis: after an unrelated analysis,
    two engines build the flagship's graph with the same states, ids
    included, each starting from id 1."""
    build_seg(load("count_up.ll"), Entailment())
    prog = load("build_traverse_ptr.ll")
    graphs = []
    for _ in range(2):
        seg = build_seg(prog, Entailment())
        assert min(v.id for st in seg.states if not isinstance(st, ErrState)
                   for v in st.sym_vars) == 1
        graphs.append(seg.states)
    assert graphs[0] == graphs[1]


def test_build_seg_root_is_entry():
    prog = load("straight_line.ll")
    seg = build_seg(prog, Entailment())
    assert seg.root == 0
    assert seg.states[0].pos == prog.entry_position


def test_gen_edges_only_from_grounded_states(build_only_seg):
    """Sources of loop-closing generalization edges must have been reached
    by an evaluation step (merged states are never themselves generalized
    away before being executed)."""
    prog, eng, seg = build_only_seg
    eval_targets = {e.dst for e in seg.edges if e.kind == "evaluation"}
    for e in seg.edges:
        if e.kind == GENERALIZATION and not any(
                g.dst == e.dst and g.kind == GENERALIZATION and g.src != e.src
                for g in seg.edges):
            assert e.src in eval_targets or e.src == seg.root


# --- serialization --------------------------------------------------------------

def test_dot_and_json_deterministic():
    a = build_seg(load("count_up.ll"), Entailment())
    b = build_seg(load("count_up.ll"), Entailment())
    assert to_dot(a) == to_dot(b)
    assert to_json(a) == to_json(b)


def test_dot_has_three_edge_styles():
    dot = to_dot(build_seg(load("count_up.ll"), Entailment()))
    assert "style=solid" in dot
    assert "style=dashed" in dot
    assert "style=bold" in dot


def test_json_shape():
    import json
    seg = build_seg(load("null_deref.ll"), Entailment())
    doc = json.loads(to_json(seg))
    assert doc["outcome"] == CONTAINS_ERR
    assert any(n["err"] for n in doc["nodes"])
    kinds = {e["kind"] for e in doc["edges"]}
    assert kinds <= {"evaluation", "refinement", "generalization"}
