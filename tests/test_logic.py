"""Soundness and normalization tests for the linear arithmetic layer.

The key property: whenever the engine answers VALID, an exhaustive check of
the implication on a small integer grid must agree.  The converse need not
hold (the engine is incomplete by design).
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from listterm import logic
from listterm.logic import (
    Atom,
    Entailment,
    Formula,
    OffsetClosure,
    SymVar,
    Term,
    Verdict,
    brute_force_valid,
    eval_formula,
    rename_formula,
    smtlib_script,
)

V = [SymVar(i, "t") for i in range(1, 5)]


def lin(consts, const=0):
    t = Term(const)
    for v, c in zip(V, consts):
        t = t + Term.of(v).scale(c)
    return t


# --- construction and normalization ---------------------------------------

def test_term_arithmetic():
    a, b = V[0], V[1]
    t = Term.of(a) + Term.of(b).scale(3) - 2
    assert t.evaluate({a: 5, b: 1}) == 6
    assert (t - t).coeffs == () and (t - t).const == 0


def test_atom_gcd_tightening():
    a = V[0]
    # 2a <= 5  ~  a <= 2 over the integers
    assert Atom.le(Term.of(a).scale(2), 5) == Atom.le(a, 2)
    # 3a = 6  ~  a = 2
    assert Atom.eq(Term.of(a).scale(3), 6) == Atom.eq(a, 2)


def test_atom_normalization_idempotent():
    a, b = V[0], V[1]
    for atom in (Atom.le(lin([2, -4], 6), 0), Atom.eq(lin([-3, 9]), 3),
                 Atom.ne(a, b), Atom.lt(b, a)):
        again = Atom.make(atom.rel, atom.term)
        assert again == atom


def test_ground_atoms_collapse():
    assert Atom.eq(3, 3).is_trivially_true()
    assert Atom.le(4, 2).is_trivially_false()
    assert Atom.ne(1, 1).is_trivially_false()
    assert Atom.ne(0, 7).is_trivially_true()


def test_strict_inequality_encoding():
    a, b = V[0], V[1]
    assert Atom.lt(a, b) == Atom.le(Term.of(a) + 1, b)
    assert Atom.gt(a, b) == Atom.lt(b, a)


# --- evaluation -------------------------------------------------------------

def test_eval_formula_clauses():
    a, b = V[0], V[1]
    f = Formula.of(Atom.ge(a, 0), (Atom.eq(b, 1), Atom.eq(b, 2)))
    assert eval_formula({a: 0, b: 2}, f)
    assert not eval_formula({a: 0, b: 3}, f)
    assert not eval_formula({a: -1, b: 1}, f)


def test_eval_requires_assignment():
    with pytest.raises(KeyError):
        eval_formula({}, Formula.of(Atom.ge(V[0], 0)))


# --- entailment: directed cases ---------------------------------------------

def test_entails_transitive_chain():
    a, b, c = V[:3]
    p = Formula.conj([Atom.le(a, b), Atom.le(b, c)])
    assert Entailment().entails(p, Formula.of(Atom.le(a, c))) is Verdict.VALID


def test_entails_equality_substitution():
    a, b, c = V[:3]
    p = Formula.conj([Atom.eq(b, Term.of(a) + 1), Atom.eq(c, Term.of(b) + 1),
                      Atom.ge(a, 0)])
    assert Entailment().entails(p, Formula.of(Atom.ge(c, 2))) is Verdict.VALID
    assert Entailment().entails(p, Formula.of(Atom.ge(c, 3))) is Verdict.NOT_PROVEN


def test_entails_disequality_split():
    a, b = V[:2]
    p = Formula.conj([Atom.ne(a, b), Atom.le(a, b)])
    assert Entailment().entails(p, Formula.of(Atom.lt(a, b))) is Verdict.VALID


def test_entails_contradictory_premise():
    a = V[0]
    p = Formula.conj([Atom.le(a, 0), Atom.ge(a, 1)])
    assert Entailment().entails(p, Formula.of(Atom.false())) is Verdict.VALID
    assert Entailment().entails(p, Formula.of(Atom.eq(a, 42))) is Verdict.VALID


def test_entails_premise_disjunction():
    a, b = V[:2]
    p = Formula.of((Atom.eq(a, 1), Atom.eq(a, 2))).and_(Atom.eq(b, a))
    assert Entailment().entails(p, Formula.of(Atom.ge(b, 1))) is Verdict.VALID
    assert Entailment().entails(p, Formula.of(Atom.le(b, 2))) is Verdict.VALID
    assert Entailment().entails(p, Formula.of(Atom.eq(b, 1))) is Verdict.NOT_PROVEN


def test_entails_disjunctive_conclusion():
    a = V[0]
    p = Formula.conj([Atom.ge(a, 0)])
    goal = Formula.of((Atom.eq(a, 0), Atom.ge(a, 1)))
    assert Entailment().entails(p, goal) is Verdict.VALID


def test_entails_integer_tightening_needed():
    a = V[0]
    # 2a <= 7 and 2a >= 7 has no integer solution.
    p = Formula.conj([Atom.le(Term.of(a).scale(2), 7),
                      Atom.ge(Term.of(a).scale(2), 7)])
    assert Entailment().entails(p, Formula.of(Atom.false())) is Verdict.VALID


def test_entails_never_claims_false_positive_basics():
    a, b = V[:2]
    p = Formula.conj([Atom.le(a, b)])
    assert Entailment().entails(p, Formula.of(Atom.lt(a, b))) is Verdict.NOT_PROVEN
    assert Entailment().entails(p, Formula.of(Atom.eq(a, b))) is Verdict.NOT_PROVEN


def test_entails_cache_and_counters():
    eng = Entailment()
    a = V[0]
    p = Formula.conj([Atom.ge(a, 3)])
    g = Formula.of(Atom.ge(a, 1))
    assert eng.entails(p, g) is Verdict.VALID
    n = eng.queries
    assert eng.entails(p, g) is Verdict.VALID
    assert eng.queries == n


def test_effort_bound_degrades_gracefully():
    eng = Entailment(effort=1)
    vs = [eng.fresh() for _ in range(8)]
    atoms = [Atom.le(vs[i], vs[i + 1]) for i in range(7)]
    p = Formula.conj(atoms)
    # Tiny budget: must answer (possibly NOT_PROVEN) without error.
    assert eng.entails(p, Formula.of(Atom.le(vs[0], vs[7]))) in (
        Verdict.VALID, Verdict.NOT_PROVEN)


def test_effort_exhaustion_is_counted():
    eng = Entailment(effort=1)
    vs = [eng.fresh() for _ in range(8)]
    p = Formula.conj([Atom.le(vs[i], vs[i + 1]) for i in range(7)])
    assert eng.exhausted == 0
    assert eng.entails(p, Formula.of(Atom.le(vs[0], vs[7]))) is Verdict.NOT_PROVEN
    assert eng.exhausted == 1
    # The default budget decides the same query without running out.
    full = Entailment()
    assert full.entails(p, Formula.of(Atom.le(vs[0], vs[7]))) is Verdict.VALID
    assert full.exhausted == 0


def test_rename_formula_alpha_invariance():
    a, b = V[:2]
    eng = Entailment()
    x, y = eng.fresh("x"), eng.fresh("y")
    p = Formula.conj([Atom.lt(a, b)])
    g = Formula.of(Atom.le(a, b))
    ren = {a: x, b: y}
    assert eng.entails(rename_formula(p, ren),
                       rename_formula(g, ren)) is Verdict.VALID


def test_smtlib_script_well_formed():
    a = V[0]
    s = smtlib_script(Formula.conj([Atom.ge(a, 0)]), Formula.of(Atom.ge(a, -1)))
    assert s.startswith("(set-logic QF_LIA)")
    assert "(check-sat)" in s
    assert s.count("(") == s.count(")")


def test_external_solver_failure_is_not_fatal():
    eng = Entailment(smt_cmd="/nonexistent-solver")
    a, b = V[:2]
    p = Formula.conj([Atom.le(a, b)])
    # Internally unprovable goal falls through to the broken solver; the
    # channel failure must degrade to NOT_PROVEN, not raise.
    assert eng.entails(p, Formula.of(Atom.eq(a, b))) is Verdict.NOT_PROVEN


def test_external_solver_accepts_unsat_answer(tmp_path):
    fake = tmp_path / "solver.sh"
    fake.write_text("#!/bin/sh\ncat > /dev/null\necho unsat\n")
    fake.chmod(0o755)
    eng = Entailment(smt_cmd=str(fake))
    a, b = V[:2]
    p = Formula.conj([Atom.le(a, b)])
    assert eng.entails(p, Formula.of(Atom.eq(a, b))) is Verdict.VALID


# --- randomized soundness against the brute-force oracle --------------------

def _random_formula(rng: random.Random, vs, n_atoms: int) -> Formula:
    clauses = []
    for _ in range(n_atoms):
        k = rng.choice([1, 1, 1, 2])
        atoms = []
        for _ in range(k):
            t = Term(rng.randint(-4, 4))
            for v in rng.sample(vs, rng.randint(1, 2)):
                t = t + Term.of(v).scale(rng.choice([-2, -1, 1, 2]))
            atoms.append(Atom.make(rng.choice(["=", "!=", "<=", "<="]), t))
        clauses.append(tuple(atoms))
    return Formula(tuple(clauses))


def test_randomized_soundness_vs_brute_force():
    rng = random.Random(20260823)
    vs = [SymVar(i, "r") for i in range(1, 4)]
    eng = Entailment()
    checked_valid = 0
    for _ in range(400):
        p = _random_formula(rng, vs, rng.randint(1, 3))
        g = _random_formula(rng, vs, 1)
        if eng.entails(p, g) is Verdict.VALID:
            checked_valid += 1
            assert brute_force_valid(p, g, 8), f"unsound: {p} => {g}"
    assert checked_valid > 20  # the engine proves a healthy fraction


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_hypothesis_soundness(data):
    vs = [SymVar(i, "h") for i in range(1, 4)]
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    p = _random_formula(rng, vs, rng.randint(1, 3))
    g = _random_formula(rng, vs, 1)
    if Entailment().entails(p, g) is Verdict.VALID:
        assert brute_force_valid(p, g, 6)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_hypothesis_premise_monotonicity(data):
    # Strengthening the premise never turns VALID into NOT_PROVEN being
    # required; here we check the weaker sound direction: if P proves G,
    # evaluation agrees on every model of P (restricted grid).
    vs = [SymVar(i, "m") for i in range(1, 3)]
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    p = _random_formula(rng, vs, 2)
    g = _random_formula(rng, vs, 1)
    if Entailment().entails(p, g) is Verdict.VALID:
        import itertools
        for pt in itertools.product(range(0, 7), repeat=2):
            asg = dict(zip(vs, pt))
            if eval_formula(asg, p):
                assert eval_formula(asg, g)


# --- difference-constraint graph against Fourier-Motzkin --------------------

UNBOUNDED = 10**9


def _difference_atom(draw, vs) -> Atom:
    rel = draw(st.sampled_from(["=", "!=", "<="]))
    x = draw(st.sampled_from(vs))
    others = [v for v in vs if v != x]
    if others and draw(st.booleans()):
        t = Term.of(x) - Term.of(draw(st.sampled_from(others)))
    else:
        t = Term.of(x).scale(draw(st.sampled_from([-1, 1])))
    return Atom.make(rel, t + draw(st.integers(-4, 4)))


def _difference_formula(draw, vs, n_clauses) -> Formula:
    return Formula(tuple(
        tuple(_difference_atom(draw, vs) for _ in range(draw(st.integers(1, 2))))
        for _ in range(n_clauses)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_difference_graph_agrees_with_fourier_motzkin(data):
    draw = data.draw
    vs = [SymVar(i, "d") for i in range(1, draw(st.integers(1, 5)) + 1)]
    p = _difference_formula(draw, vs, draw(st.integers(1, 4)))
    g = _difference_formula(draw, vs, 1)
    refutations = []
    real_refute = logic._refute

    def spy(conjuncts, clauses, budget):
        refutations.append(logic._difference_problem(conjuncts, clauses))
        return real_refute(conjuncts, clauses, budget)

    with mock.patch.object(logic, "_refute", spy):
        graph = Entailment(effort=UNBOUNDED).entails(p, g)
    assert all(r is not None for r in refutations)  # the graph decided it
    with mock.patch.object(logic, "_refute", logic._refute_fm):
        fm = Entailment(effort=UNBOUNDED).entails(p, g)
    assert graph is fm, f"{p} => {g}: graph {graph}, FM {fm}"
    if graph is Verdict.VALID:
        assert brute_force_valid(p, g, 8), f"unsound: {p} => {g}"


def test_non_difference_atom_is_decided_by_fourier_motzkin():
    x, y = V[:2]
    p = Formula.conj([Atom.le(Term.of(x).scale(2), y), Atom.le(y, 3)])
    g = Formula.of(Atom.le(x, 1))
    assert logic._difference_problem(list(p.atoms()), []) is None
    with mock.patch.object(logic, "_refute_fm",
                           wraps=logic._refute_fm) as fm:
        assert Entailment().entails(p, g) is Verdict.VALID
    assert fm.call_count == 1
    assert brute_force_valid(p, g, 8)


# --- equalities without the engine ------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.data())
def test_offset_closure_differences_are_entailed(data):
    draw = data.draw
    vs = [SymVar(i, "o") for i in range(1, draw(st.integers(1, 5)) + 1)]
    atoms = []
    for _ in range(draw(st.integers(1, 5))):
        x = draw(st.sampled_from(vs))
        y = draw(st.sampled_from(vs))
        if x == y or draw(st.booleans()):
            atoms.append(Atom.eq(x, draw(st.integers(0, 8))))
        else:
            d = draw(st.integers(-4, 4))
            atoms.append(Atom.eq(Term.of(x) - Term.of(y), d))
    for _ in range(draw(st.integers(0, 2))):
        x = draw(st.sampled_from(vs))
        atoms.append(Atom.le(x, draw(st.integers(0, 8))))
    f = Formula.conj(draw(st.permutations(atoms)))
    closure = OffsetClosure(f)
    derived = []
    for a in vs + [0]:
        for b in vs:
            d = closure.diff(a, b)
            if d is not None:
                derived.append(Atom.eq(Term.of(a) - Term.of(b), d))
    assert brute_force_valid(f, Formula.of(*derived), 8), f"{f}: {derived}"


def test_fresh_vars_count_up_per_engine():
    a, b = Entailment(), Entailment()
    assert [a.fresh(), a.fresh("x"), b.fresh("x")] == [
        SymVar(1, "v"), SymVar(2, "x"), SymVar(1, "x")]
