"""Transition extraction, ranking search, and Horn export tests."""

from __future__ import annotations

import pathlib

import pytest

from listterm.ir import parse_program
from listterm.its import (
    ITS,
    Location,
    Transition,
    export_its,
    extract_its,
    parse_its_text,
    prove_termination,
)
from listterm.logic import Atom, Entailment, Formula, SymVar, Term, Verdict
from listterm.seg import GENERALIZATION, build_seg

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def load(name):
    return parse_program((CORPUS / name).read_text())


def pipeline(name):
    prog = load(name)
    eng = Entailment()
    seg = build_seg(prog, eng)
    its = extract_its(seg, eng)
    return prog, eng, seg, its


@pytest.fixture(scope="module")
def count_up():
    return pipeline("count_up.ll")


def sv(i, hint="v"):
    return SymVar(i, hint)


def make_loop(guard_atoms, update):
    """Single-location ITS with one identity chain and one closing edge."""
    vars_ = tuple(sorted(update))
    its = ITS()
    its.locations[0] = Location(0, vars_)
    its.transitions.append(Transition(
        0, 0, Formula.conj(guard_atoms),
        tuple((v, Term.of(w)) for v, w in update.items()), closing=True))
    return its


# --- extraction ---------------------------------------------------------------

def test_acyclic_graph_gives_empty_its():
    prog = load("straight_line.ll")
    eng = Entailment()
    its = extract_its(build_seg(prog, eng), eng)
    assert its.locations == {}
    assert its.transitions == []


def test_extract_requires_complete_graph():
    prog = load("null_deref.ll")
    eng = Entailment()
    seg = build_seg(prog, eng)
    with pytest.raises(ValueError):
        extract_its(seg, eng)


def test_count_up_has_two_transitions(count_up):
    _, _, _, its = count_up
    assert len(its.locations) == 2
    assert len(its.transitions) == 2
    kinds = sorted(t.closing for t in its.transitions)
    assert kinds == [False, True]


def test_closing_transition_carries_instantiation(count_up):
    prog, eng, seg, its = count_up
    t = next(t for t in its.transitions if t.closing)
    dst_vars = its.locations[t.dst].vars
    upd = t.update_map()
    assert set(upd) == set(dst_vars)
    # The loop counter is rebound, not copied.
    k = dict(seg.states[t.dst].lv)["k"]
    assert upd[k] != Term.of(k)


def test_chain_transition_is_identity(count_up):
    _, _, _, its = count_up
    t = next(t for t in its.transitions if not t.closing)
    assert all(term == Term.of(v) for v, term in t.update)


def test_guards_entailed_by_source_chain_end(count_up):
    """Every guard atom must hold in the state the transition fires from."""
    prog, eng, seg, its = count_up
    from listterm.absdom import state_formula
    for t in its.transitions:
        anchor = seg.states[t.src if t.closing else t.dst]
        f = state_formula(anchor, eng)
        assert eng.entails(f, t.guard) is Verdict.VALID


def test_location_vars_cover_loop_counter(count_up):
    _, _, seg, its = count_up
    for n, loc in its.locations.items():
        lv = dict(seg.states[n].lv)
        assert lv["k"] in loc.vars
        assert lv["n"] in loc.vars


# --- termination --------------------------------------------------------------

def test_count_up_terminates_with_difference_rank(count_up):
    _, eng, seg, its = count_up
    res = prove_termination(its, eng)
    assert res.terminating
    assert len(res.certificates) == 1
    cert = res.certificates[0]
    coeffs = dict(cert.rank.coeffs)
    assert sorted(coeffs.values()) == [-1, 1]


def test_bounded_loop_synthetic():
    x, n = sv(1, "x"), sv(2, "n")
    xp = sv(3, "xp")
    its = make_loop(
        [Atom.lt(x, n), Atom.eq(Term.of(xp), Term.of(x) + 1)],
        {x: xp, n: n})
    res = prove_termination(its, Entailment())
    assert res.terminating


def test_unbounded_increment_is_unknown():
    x, xp = sv(1, "x"), sv(2, "xp")
    its = make_loop([Atom.eq(Term.of(xp), Term.of(x) + 1)], {x: xp})
    res = prove_termination(its, Entailment())
    assert not res.terminating


def test_identity_loop_is_unknown():
    x = sv(1, "x")
    its = make_loop([Atom.ge(x, 0)], {x: x})
    res = prove_termination(its, Entailment())
    assert not res.terminating


def test_decrease_without_bound_is_unknown():
    x, xp = sv(1, "x"), sv(2, "xp")
    its = make_loop([Atom.eq(Term.of(xp), Term.of(x) - 1)], {x: xp})
    res = prove_termination(its, Entailment())
    assert not res.terminating


def test_countdown_to_zero_terminates():
    x, xp = sv(1, "x"), sv(2, "xp")
    its = make_loop([Atom.ge(x, 1), Atom.eq(Term.of(xp), Term.of(x) - 1)],
                    {x: xp})
    res = prove_termination(its, Entailment())
    assert res.terminating
    assert str(res.certificates[0].rank) == str(Term.of(x))


@pytest.mark.parametrize("closing", [False, True])
def test_cycle_needs_a_closing_transition(closing):
    """A two-location cycle whose back transition counts down: proved when
    that transition is closing, and rejected without a rank search when
    the cycle has no closing transition."""
    x, xp = sv(1, "x"), sv(2, "xp")
    its = ITS()
    its.locations[0] = Location(0, (x,))
    its.locations[1] = Location(1, (x,))
    its.transitions.append(Transition(
        0, 1, Formula.conj([Atom.ge(x, 1)]), ((x, Term.of(x)),),
        closing=False))
    its.transitions.append(Transition(
        1, 0, Formula.conj([Atom.ge(x, 1), Atom.eq(Term.of(xp),
                                                   Term.of(x) - 1)]),
        ((x, Term.of(xp)),), closing=closing))
    engine = Entailment()
    res = prove_termination(its, engine)
    assert res.terminating is closing
    if not closing:
        assert res.reason == "cycle without a decreasing update"
        assert engine.queries == 0


@pytest.mark.parametrize("updated", [True, False])
def test_a_rank_needs_its_variables_in_every_closing_update(updated):
    """Two locations close the cycle on each other, and both transitions
    count ``x`` down.  The rank ``x`` is accepted when both updates give
    ``x`` an image, and rejected when the second lacks it."""
    x, xp = sv(1, "x"), sv(2, "xp")
    guard = Formula.conj([Atom.ge(x, 1), Atom.eq(Term.of(xp), Term.of(x) - 1)])
    its = ITS()
    its.locations[0] = Location(0, (x,))
    its.locations[1] = Location(1, (x,))
    its.transitions.append(Transition(0, 1, guard, ((x, Term.of(xp)),),
                                      closing=True))
    its.transitions.append(Transition(
        1, 0, guard, ((x, Term.of(xp)),) if updated else (), closing=True))
    res = prove_termination(its, Entailment())
    assert res.terminating is updated
    if not updated:
        assert res.reason == "no affine rank found"


@pytest.mark.parametrize("drop", [-1, 0, 1, 2])
def test_exact_drop_below_one_rejects_the_rank(drop):
    """The guard fixes ``x - x'`` to ``drop``: below 1 the engine rejects
    the only candidate's decrease, and from 1 the candidate is accepted
    once bounded."""
    x, xp = sv(1, "x"), sv(2, "xp")
    its = make_loop([Atom.ge(x, 1), Atom.eq(Term.of(xp), Term.of(x) - drop)],
                    {x: xp})
    res = prove_termination(its, Entailment())
    assert res.terminating is (drop >= 1)
    if drop < 1:
        assert res.reason == "no affine rank found"


def test_empty_its_terminates():
    res = prove_termination(ITS(), Entailment())
    assert res.terminating
    assert res.certificates == ()


def test_certificates_are_independently_checkable(count_up):
    _, eng, _, its = count_up
    res = prove_termination(its, eng)
    for cert, t in zip(res.certificates,
                       [t for t in its.transitions if t.closing]):
        for atom in cert.decrease + cert.bound:
            assert eng.entails(t.guard, Formula.of(atom)) is Verdict.VALID


# --- export -------------------------------------------------------------------

def test_export_empty_its_is_header_only():
    text = export_its(ITS())
    assert text.splitlines() == ["(set-logic HORN)"]


def test_export_deterministic():
    a = pipeline("count_up.ll")[3]
    b = pipeline("count_up.ll")[3]
    assert export_its(a) == export_its(b)


def test_export_roundtrip(count_up):
    _, _, _, its = count_up
    text = export_its(its)
    doc = parse_its_text(text)
    assert len(doc["rules"]) == len(its.transitions)
    assert set(doc["relations"]) == {f"L{n}" for n in its.locations}
    for rule, t in zip(doc["rules"], its.transitions):
        assert rule["src"] == f"L{t.src}"
        assert rule["dst"] == f"L{t.dst}"
        assert rule["updates"] == len(t.update)
        assert rule["head_arity"] == len(its.locations[t.dst].vars)


def test_export_rule_count_synthetic():
    x, xp = sv(1, "x"), sv(2, "xp")
    its = make_loop([Atom.ge(x, 1), Atom.eq(Term.of(xp), Term.of(x) - 1)],
                    {x: xp})
    text = export_its(its)
    assert text.count("(rule ") == 1
    assert "(declare-rel L0 (Int))" in text


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.ll")))
def test_every_cycle_passes_a_generalization_edge(name):
    """``extract_its`` relies on this shape of ``build_seg``'s graphs: each
    evaluation or refinement edge leads to a later node that has no other
    incoming such edge, so every cycle (and every back edge) is closed by a
    generalization edge, and no node loops to itself."""
    seg = build_seg(load(name), Entailment())
    entered = set()
    for e in seg.edges:
        assert e.src != e.dst
        if e.kind != GENERALIZATION:
            assert e.dst > e.src
            assert e.dst not in entered
            entered.add(e.dst)
