"""Soundness and normalization tests for the linear arithmetic layer.

The key property: whenever the engine answers VALID, an exhaustive check of
the implication on a small integer grid must agree.  The converse need not
hold (the engine is incomplete by design).
"""

from __future__ import annotations

import hashlib
import itertools
import math
import pathlib
import random
from typing import Mapping
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from listterm import logic
from listterm.cli import main
from listterm.logic import (
    Atom,
    Entailment,
    Formula,
    OffsetClosure,
    SymVar,
    Term,
    Verdict,
    rename_formula,
)

# The test oracles: integer semantics, and validity decided on a grid.
def eval_formula(assignment: Mapping[SymVar, int], f: Formula) -> bool:
    """Standard integer semantics; raises on unassigned variables."""
    return all(any(a.evaluate(assignment) for a in clause) for clause in f.clauses)


def _compiled_clause(index: Mapping[SymVar, int], atoms):
    """A clause as (last, rows): the position in ``index`` of its last
    variable (-1 when it has none), and per atom ``(rel, const, pairs, c)``
    with one ``(position, coefficient)`` pair per other variable and ``c``
    the last variable's coefficient, 0 when the atom does not have it."""
    positions = [[(index[v], c) for v, c in a.term.coeffs] for a in atoms]
    last = max((i for pairs in positions for i, _ in pairs), default=-1)
    return last, [(a.rel, a.term.const, [(i, c) for i, c in pairs if i != last],
                   sum(c for i, c in pairs if i == last))
                  for a, pairs in zip(atoms, positions)]


def _negation(a: Atom) -> Atom:
    """The atom that holds exactly where ``a`` does not, built here rather
    than by the engine's own negation."""
    if a.rel == logic.LE:  # not t <= 0 is -t + 1 <= 0 over the integers
        return Atom(logic.LE, Term(1 - a.term.const,
                                   tuple((v, -c) for v, c in a.term.coeffs)))
    return Atom(logic.NE if a.rel == logic.EQ else logic.EQ, a.term)


def _grid_point(checks, point: list, bound: int, level: int = 0) -> bool:
    """Is there a point of [0, bound]^k, the first ``level`` values being
    ``point``'s, where every clause holds?  ``checks[i]`` holds the clauses
    whose last variable is the i-th; only the values of it that satisfy
    them all are tried."""
    if level == len(point):
        return True
    grid = range(bound + 1)
    allowed = set(grid)
    for rows in checks[level]:
        satisfying = set()
        for rel, const, pairs, c in rows:
            rest = const + sum(ci * point[i] for i, ci in pairs)
            satisfying |= {x for x in grid
                           if logic.relation_holds(rel, rest + c * x)}
        allowed &= satisfying
    for value in allowed:
        point[level] = value
        if _grid_point(checks, point, bound, level + 1):
            return True
    return False


def brute_force_valid(premise: Formula, conclusion: Formula, bound: int) -> bool:
    """Exhaustively check ``premise => conclusion`` on the grid [0, bound]^k:
    for each clause of the conclusion, search the grid for a point where
    the premise holds and every atom of the clause fails."""
    vs = tuple(sorted(set(premise.vars()) | set(conclusion.vars())))
    if len(vs) > 6:
        raise ValueError(f"too many variables for brute force: {len(vs)}")
    index = {v: i for i, v in enumerate(vs)}
    premise_clauses = [_compiled_clause(index, c) for c in premise.clauses]
    for clause in conclusion.clauses:
        checks = [[] for _ in vs]
        ground = True  # every clause without variables holds
        for last, rows in premise_clauses + [
                _compiled_clause(index, (_negation(a),)) for a in clause]:
            if last < 0:
                ground = ground and any(logic.relation_holds(rel, const)
                                        for rel, const, _, _ in rows)
            else:
                checks[last].append(rows)
        if ground and _grid_point(checks, [0] * len(vs), bound):
            return False
    return True


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


def _general(rel, a, b, k=0) -> Atom:
    """The normal form of ``a - b + k rel 0`` built through ``Atom.make``."""
    t = Term.of(a) - Term.of(b)
    return Atom.make(rel, t + k if k else t)


VALUES = st.one_of(
    st.builds(SymVar, st.integers(0, 4), st.sampled_from(["v", "w"])),
    st.integers(-4, 4))


@settings(max_examples=300, deadline=None)
@given(VALUES, VALUES)
@example(SymVar(1), SymVar(1))                # one variable twice
@example(SymVar(2, "v"), SymVar(2, "w"))      # equal ids, different hints
@example(SymVar(2, "w"), SymVar(2, "v"))
@example(SymVar(3), SymVar(0))                # id 0
@example(SymVar(0), -3)                       # negative constants
@example(-2, SymVar(4))
@example(-1, 3)
def test_two_value_atoms_match_the_general_normal_form(a, b):
    """The atoms built directly from two values equal, by ``==`` and by
    hash, the ones ``Atom.make`` gives for the same difference."""
    pairs = [(Atom.eq(a, b), _general(logic.EQ, a, b)),
             (Atom.ne(a, b), _general(logic.NE, a, b)),
             (Atom.le(a, b), _general(logic.LE, a, b)),
             (Atom.lt(a, b), _general(logic.LE, a, b, 1)),
             (Atom.ge(a, b), _general(logic.LE, b, a)),
             (Atom.gt(a, b), _general(logic.LE, b, a, 1))]
    for built, general in pairs:
        assert built == general, (a, b, built, general)
        assert hash(built) == hash(general)


# The arithmetic as it was before terms and atoms were tuples, kept as the
# reference for the paths that now build the tuples directly.
def _reference_build(const, coeffs):
    items = tuple(sorted(((v, c) for v, c in coeffs.items() if c != 0),
                         key=lambda vc: vc[0].id))
    return Term(const, items)


def _reference_add(t, other):
    other = Term.of(other)
    if not other.coeffs:
        return Term(t.const + other.const, t.coeffs)
    m = t.coeff_map()
    for v, c in other.coeffs:
        m[v] = m.get(v, 0) + c
    return _reference_build(t.const + other.const, m)


def _reference_scale(t, k):
    if k == 0:
        return Term(0)
    return Term(t.const * k, tuple((v, c * k) for v, c in t.coeffs))


def _reference_sub(t, other):
    return _reference_add(t, _reference_scale(Term.of(other), -1))


def _reference_substitute(t, subst):
    if not any(v in subst for v, _ in t.coeffs):
        return t
    const, m = t.const, {}
    for v, c in t.coeffs:
        s = Term.of(subst[v]) if v in subst else Term(0, ((v, 1),))
        const += c * s.const
        for w, cw in s.coeffs:
            m[w] = m.get(w, 0) + c * cw
    return _reference_build(const, m)


def _reference_make(rel, t):
    if not t.coeffs:
        return Atom(logic.LE, Term(0 if logic.relation_holds(rel, t.const)
                                   else 1))
    g = math.gcd(*[c for _, c in t.coeffs])
    if rel in (logic.EQ, logic.NE):
        coeffs = t.coeff_map()
        if t.const % g == 0:
            const = t.const // g
            coeffs = {v: c // g for v, c in coeffs.items()}
        else:
            g2 = math.gcd(g, abs(t.const))
            const = t.const // g2
            coeffs = {v: c // g2 for v, c in coeffs.items()}
        first = min(coeffs)
        if coeffs[first] < 0:
            const = -const
            coeffs = {v: -c for v, c in coeffs.items()}
        return Atom(rel, _reference_build(const, coeffs))
    bound = (-t.const) // g
    return Atom(logic.LE, Term(-bound, tuple((v, c // g) for v, c in t.coeffs)))


def _reference_difference(rel, a, b, k=0):
    if isinstance(a, SymVar):
        if isinstance(b, SymVar):
            if a.id < b.id:
                return Atom(rel, Term(k, ((a, 1), (b, -1))))
            if b.id < a.id:
                return Atom(rel, Term(k, ((b, -1), (a, 1)) if rel == logic.LE
                                      else ((b, 1), (a, -1))))
        elif isinstance(b, int):
            return Atom(rel, Term(k - b, ((a, 1),)))
    elif isinstance(a, int) and isinstance(b, SymVar):
        if rel == logic.LE:
            return Atom(logic.LE, Term(a + k, ((b, -1),)))
        return Atom(rel, Term(-a, ((b, 1),)))
    t = _reference_sub(Term.of(a), Term.of(b))
    return _reference_make(rel, _reference_add(t, k) if k else t)


# Few variables, so one variable often appears twice; equal ids with
# different hints too.
SMALL_VARS = st.builds(SymVar, st.integers(0, 3), st.sampled_from(["v", "w"]))
TERMS = st.builds(_reference_build, st.integers(-6, 6),
                  st.dictionaries(SMALL_VARS, st.integers(-4, 4), max_size=4))
OPERANDS = st.one_of(SMALL_VARS, st.integers(-6, 6), TERMS)


def _same(built, reference):
    """Equal, of the same types down to the coefficient tuple, and hashed
    as the field tuple."""
    assert built == reference, (built, reference)
    assert type(built) is type(reference)
    term = built.term if isinstance(built, Atom) else built
    assert type(term) is Term and type(term.coeffs) is tuple
    assert hash(built) == hash(tuple(built))


@settings(max_examples=400, deadline=None)
@given(OPERANDS, OPERANDS, st.integers(-3, 3),
       st.dictionaries(SMALL_VARS, OPERANDS.map(Term.of), max_size=3))
@example(SymVar(1), SymVar(1), 0, {})                  # one variable twice
@example(SymVar(2, "v"), SymVar(2, "w"), 1, {})        # equal ids
@example(SymVar(1), SymVar(3), 1, {})                  # lower id first
@example(SymVar(3), SymVar(1), -1, {})                 # higher id first
@example(SymVar(1), 4, 2, {})                          # a variable and an int
@example(-2, SymVar(1), 1, {})                         # an int and a variable
@example(Term(2, ((SymVar(1), 3),)), Term(2, ((SymVar(1), 3),)), 0,
         {SymVar(1): Term(0, ((SymVar(1), -1),))})     # zero sums
def test_term_and_atom_arithmetic_matches_the_reference(a, b, k, subst):
    t = Term.of(a)
    # Each of b, t and -t: t - t and t + (-t) are zero sums.
    for other in (b, t, _reference_scale(t, -1)):
        _same(t + other, _reference_add(t, other))
        _same(t - other, _reference_sub(t, other))
    _same(t.scale(k), _reference_scale(t, k))
    assert t.vars() == tuple(v for v, _ in t.coeffs)
    _same(t.substitute(subst), _reference_substitute(t, subst))
    for rel in (logic.EQ, logic.NE, logic.LE):
        _same(Atom.make(rel, t - b), _reference_make(rel, _reference_sub(t, b)))
        shift = k if rel == logic.LE else 0
        _same(Atom._difference(rel, a, b, shift),
              _reference_difference(rel, a, b, shift))


def test_tuple_terms_and_atoms_keep_their_hashes_and_clauses():
    """A term and an atom hash as their field tuples, as the dataclasses
    did, so every set and dict over them iterates in the same order; a
    formula takes an atom as one unit clause, not as a clause of its
    fields, and a tuple of atoms as one clause."""
    x, y = SymVar(1, "x"), SymVar(2, "y")
    coeffs = ((x, 1), (y, -2))
    t = Term(3, coeffs)
    a, b = Atom(logic.LE, t), Atom.eq(x, y)
    assert hash(t) == hash((3, coeffs))
    assert hash(a) == hash((logic.LE, t)) == hash((logic.LE, (3, coeffs)))
    assert Formula.of(a).clauses == ((a,),)
    assert Formula.of((a, b)).clauses == ((a, b),)
    assert Formula.of(a, (a, b)).atoms() == (a,)


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


def test_the_cache_is_keyed_by_value():
    """An equal but distinct premise and conclusion are a hit; the same
    conclusion under another premise is a miss."""
    a, b, c = V[:3]

    def premise(*extra):
        return Formula.conj([Atom.le(a, b), Atom.le(b, c), *extra])

    def conclusion():
        return Formula.of(Atom.le(a, c))

    eng = Entailment()
    p1, g1 = premise(), conclusion()
    assert eng.entails(p1, g1) is Verdict.VALID and eng.queries == 1
    p2, g2 = premise(), conclusion()  # built while p1 and g1 are alive
    assert p2 is not p1 and p2.clauses is not p1.clauses
    assert g2 is not g1 and g2.clauses is not g1.clauses
    assert eng.entails(p2, g2) is Verdict.VALID and eng.queries == 1
    assert eng.entails(premise(Atom.ge(a, 0)), g2) is Verdict.VALID
    assert eng.queries == 2


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
        for pt in itertools.product(range(0, 7), repeat=2):
            asg = dict(zip(vs, pt))
            if eval_formula(asg, p):
                assert eval_formula(asg, g)


# --- difference-constraint graph against Fourier-Motzkin --------------------

UNBOUNDED = 10**9


def _difference_atom(draw, vs) -> Atom:
    rel = draw(st.sampled_from(["=", "!=", "<="]))
    if draw(st.integers(0, 5)) == 0:
        # A ground atom, true or false, for the trivial-atom rules.
        return Atom(rel, Term(draw(st.integers(-2, 2))))
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


def _reachable_clauses(clauses, seed_vars, conjunct_atoms):
    """Reference relevance filter: the disjunctions that share a variable
    with the closure of the goal's variables under the conjuncts' shared
    variables (every disjunction for a ground goal), by fixpoint."""
    if not seed_vars:
        return list(clauses)
    reach = set(seed_vars)
    atom_sets = [set(a.vars()) for a in conjunct_atoms]
    changed = True
    while changed:
        changed = False
        for s in atom_sets:
            if s & reach and not s <= reach:
                reach |= s
                changed = True
    return [c for c in clauses if any(v in reach for a in c for v in a.vars())]


def _reference_refutes(p, clause):
    """The premise and the negated goal clause refuted by Fourier-Motzkin,
    with the disjunctions the reference filter selects."""
    conjuncts = list(p.atoms()) + [logic._negate_atom(a) for a in clause]
    goal_vars = {v for a in clause for v in a.vars()}
    disj = _reachable_clauses(p.disjunctions(), goal_vars, conjuncts)
    return logic._refute_fm(conjuncts, disj, logic._Budget(UNBOUNDED))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_difference_graph_agrees_with_fourier_motzkin(data):
    # Goals on one premise reuse its compiled form; two other premises in
    # between evict it from the engine's two held ones, and the first is
    # then compiled again.
    draw = data.draw
    vs = [SymVar(i, "d") for i in range(1, draw(st.integers(1, 5)) + 1)]
    p = _difference_formula(draw, vs, draw(st.integers(1, 4)))
    others = [_difference_formula(draw, vs, draw(st.integers(1, 4)))
              for _ in range(2)]
    goals = [_difference_formula(draw, vs, 1)
             for _ in range(draw(st.integers(2, 4)))]
    queries = [(p, g) for g in goals[:2]]
    queries += [(other, _difference_formula(draw, vs, 1)) for other in others]
    queries += [(p, g) for g in goals[2:]]
    queries += [(p, Formula(tuple(g.clauses[0] for g in goals)))]
    engine = Entailment(effort=UNBOUNDED)
    for premise, goal in queries:
        with mock.patch.object(logic, "_refute_from") as fm:
            graph = engine.entails(premise, goal)
        assert not fm.called  # the graph decided it
        valid = all(_reference_refutes(premise, c) for c in goal.clauses)
        assert graph is (Verdict.VALID if valid else Verdict.NOT_PROVEN), (
            f"{premise} => {goal}: graph {graph}, FM {valid}")
        if graph is Verdict.VALID:
            assert brute_force_valid(premise, goal, 8), (
                f"unsound: {premise} => {goal}")
    # With little effort some refutations are cut off, possibly inside a
    # branch; each verdict must still be the one a fresh engine gives.
    effort = draw(st.integers(1, 30))
    small = Entailment(effort=effort)
    for premise, goal in queries:
        assert small.entails(premise, goal) is Entailment(
            effort=effort).entails(premise, goal), f"{premise} => {goal}"


def _linear_atom(draw, vs, rels) -> Atom:
    """An atom over one or two of ``vs``, coefficients +-1 or +-2."""
    t = Term(draw(st.integers(-3, 3)))
    for v in draw(st.lists(st.sampled_from(vs), min_size=1, max_size=2,
                           unique=True)):
        t = t + Term.of(v).scale(draw(st.sampled_from([-2, -1, 1, 2])))
    return Atom.make(draw(st.sampled_from(rels)), t)


def _assert_compiled_as_fresh(held, premise, vs, effort):
    """``held``, reused or extended, compiles ``premise`` as a new
    ``_Premise`` does: the same normal form, the same disjunctions selected
    for each variable, the same graph cost and closing, and the same model,
    which satisfies the premise."""
    fresh = logic._Premise(premise)
    assert held.formula == premise and held.normal == fresh.normal
    assert (held.graph is None) is (fresh.graph is None)
    if fresh.graph is not None:
        assert (held.cost, held.closed) == (fresh.cost, fresh.closed)
    if held.searched:  # by the goal just asked, unless the premise is false
        assert held.model == fresh._search_model(effort), premise
    if held.model is not None:
        assert eval_formula(held.model, premise), (premise, held.model)
    for v in vs:
        assert [d.splits for d in held.relevant({v})] == [
            d.splits for d in fresh.relevant({v})], (premise, v)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_held_and_extended_premises_answer_as_a_fresh_engine(data):
    # One engine asks goals over three interleaved premises, so its two held
    # premises are reused and evicted, then over one of them extended in
    # place by unit facts: a != fact, a difference x - y <= c, and then
    # y - x <= -c - 1, which closes a negative cycle with it.  Premises are
    # difference logic or not (decided on the graph or by Fourier-Motzkin).
    draw = data.draw
    vs = [SymVar(i, "e") for i in range(1, 4)]
    effort = draw(st.one_of(st.integers(1, 30), st.just(UNBOUNDED)))

    def atom(rels=("=", "!=", "<="), over=vs) -> Atom:
        if draw(st.booleans()):
            return _difference_atom(draw, over)
        return _linear_atom(draw, over, rels)

    def premise() -> Formula:
        if draw(st.booleans()):
            return _difference_formula(draw, vs, draw(st.integers(1, 3)))
        return Formula(tuple(tuple(atom() for _ in range(draw(st.integers(1, 2))))
                             for _ in range(draw(st.integers(1, 3)))))

    def goal(over=vs) -> Formula:
        # A goal without = (or !=, whose negation is one) asks <= alone.
        rels = ("=", "!=", "<=") if draw(st.booleans()) else ("<=",)
        return Formula.of(tuple(atom(rels, over)
                                for _ in range(draw(st.integers(1, 2)))))

    premises = [premise() for _ in range(3)]
    queries = [(premises[i], goal()) for i in draw(
        st.lists(st.integers(0, 2), min_size=3, max_size=8))]
    base = draw(st.sampled_from(premises))
    x, y = draw(st.permutations(vs))[:2]
    c = draw(st.integers(-2, 2))
    extended = Formula.of(base, Atom.ne(x, draw(st.integers(0, 3))),
                          Atom.le(Term.of(x) - Term.of(y), c),
                          *[atom() for _ in range(draw(st.integers(0, 1)))])
    closed = Formula.of(extended, Atom.le(Term.of(y) - Term.of(x), -c - 1))
    assume(extended not in premises)
    # No earlier query asks ``x <= 100``: this one is not a cache hit, so
    # ``base`` is the latest held premise when ``extended`` is asked.
    base_query = len(queries)
    queries.append((base, Formula.of(Atom.le(x, 100))))
    # Goals on the extension's variables select the disjunctions that its
    # difference connects to them.
    queries += [(extended, goal([x, y])) for _ in range(3)]
    queries += [(closed, goal([x, y])) for _ in range(2)]
    engine = Entailment(effort=effort)
    for i, (p, g) in enumerate(queries):
        asked, exhausted = engine.queries, engine.exhausted
        verdict = engine.entails(p, g)
        fresh = Entailment(effort=effort)
        assert verdict is fresh.entails(p, g), f"{p} => {g}"
        if engine.queries > asked:  # not answered from the cache
            assert engine.exhausted - exhausted == fresh.exhausted, f"{p} => {g}"
            _assert_compiled_as_fresh(engine._premises[0], p, vs, effort)
        if verdict is Verdict.VALID:
            assert brute_force_valid(p, g, 5), f"unsound: {p} => {g}"
        if i == base_query:
            held = engine._premises[0]
    # ``extended`` and ``closed`` were compiled by extending ``base``'s.
    assert engine._premises[0] is held and held.formula == closed


def test_non_difference_atom_is_decided_by_fourier_motzkin():
    x, y = V[:2]
    p = Formula.conj([Atom.le(Term.of(x).scale(2), y), Atom.le(y, 3)])
    g = Formula.of(Atom.le(x, 1))
    assert logic._Premise(p).graph is None  # not difference logic
    engine = Entailment()
    with mock.patch.object(logic, "_refute_from",
                           wraps=logic._refute_from) as fm:
        assert engine.entails(p, g) is Verdict.VALID
    # The premise's Fourier-Motzkin part, its equalities solved, decided it.
    assert fm.call_count == 1
    assert fm.call_args.args[0] is engine._premises[0].fm is not None
    assert brute_force_valid(p, g, 8)


def test_goal_edges_do_not_leak_into_the_premise():
    # Each first goal's negation, left in the graph, would refute the
    # second goal; the second must stay NOT_PROVEN, as brute force says.
    x, y, z = V[:3]
    p = Formula.conj([Atom.le(x, 5), Atom.le(Term.of(x) - Term.of(y), 2)])
    cases = [(Atom.le(x, 3), Atom.ge(x, 4)),    # x >= 4 would leak
             (Atom.le(z, y), Atom.lt(y, z)),    # a goal-only variable
             (Atom.ne(y, 0), Atom.le(y, 0))]    # y = 0: two edges
    for first, second in cases:
        leaked = Formula.of(p, logic._negate_atom(first))
        assert brute_force_valid(leaked, Formula.of(second), 8)
        assert not brute_force_valid(p, Formula.of(second), 8)
        engine = Entailment()
        assert engine.entails(p, Formula.of(first)) is Verdict.NOT_PROVEN
        assert engine.entails(p, Formula.of(second)) is Verdict.NOT_PROVEN


def test_effort_cut_off_in_a_branch_leaves_the_premise_intact():
    # The first goal runs out of effort in the second disjunction's first
    # branch, with the first disjunction's branch x <= 0 in the graph; left
    # there, it would prove x <= 5 from the premise, which x = 10 refutes.
    x, y = V[:2]
    p = Formula.conj([Atom.le(Term.of(x) - Term.of(y), 100)]).and_(
        Formula.of((Atom.le(x, 0), Atom.ge(x, 10)),
                   (Atom.le(y, 0), Atom.ge(y, 10))))
    first, second = Formula.of(Atom.le(y, 5)), Formula.of(Atom.le(x, 5))
    engine = Entailment(effort=4)
    assert engine.entails(p, first) is Verdict.NOT_PROVEN
    assert engine.exhausted == 1
    fresh = logic._Premise(p).graph
    held = engine._premises[0].graph
    assert (held.succ, held.pi) == (fresh.succ, fresh.pi)
    assert not brute_force_valid(p, second, 12)
    assert engine.entails(p, second) is Entailment(effort=4).entails(
        p, second) is Verdict.NOT_PROVEN


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_relevant_disjunctions_match_the_reachability_fixpoint(data):
    draw = data.draw
    vs = [SymVar(i, "r") for i in range(1, draw(st.integers(1, 6)) + 1)]
    p = _difference_formula(draw, vs, draw(st.integers(0, 8)))
    goal = draw(st.lists(st.sampled_from(vs), max_size=3))  # [] is ground
    conjuncts = list(p.atoms())
    expected = _reachable_clauses(p.disjunctions(), set(goal), conjuncts)
    got = [d.splits for d in logic._Premise(p).relevant(set(goal))]
    assert got == [logic._normalize((), (c,))[1] for c in expected]


# --- backjumping and the premise model --------------------------------------

def _plain_refute_branches(graph, alternatives, i):
    """The case split without backjumping: every branch of every clause,
    depth first, until a consistent leaf (None); an empty level set when
    every choice is refuted."""
    if i == len(alternatives):
        return None
    for branch in alternatives[i]:
        graph._spend()
        mark = len(graph.trail)
        try:
            refuted = (graph._extend(branch, i + 1) is not None
                       or _plain_refute_branches(graph, alternatives, i + 1)
                       is not None)
        finally:
            graph._restore(mark)
        if not refuted:
            return None
    return set()


def _reference_entails(premise, goal, effort):
    """A fresh engine's verdict and exhausted count with the plain case
    split and no premise model."""
    with mock.patch.object(logic._DifferenceGraph, "_refute_branches",
                           _plain_refute_branches), \
            mock.patch.object(logic._Premise, "_search_model",
                              return_value=None):
        engine = Entailment(effort=effort)
        return engine.entails(premise, goal), engine.exhausted


def _difference_queries(draw, prefix):
    """Goals over two or three premises of up to 6 clauses with
    disjunctions and ``!=``, interleaved; goals may name a variable that
    the premise lacks."""
    vs = [SymVar(i, prefix) for i in range(1, draw(st.integers(2, 4)) + 1)]
    premises = [_difference_formula(draw, vs, draw(st.integers(1, 6)))
                for _ in range(draw(st.integers(2, 3)))]
    return [(draw(st.sampled_from(premises)),
             _difference_formula(draw, vs, draw(st.integers(1, 2))))
            for _ in range(draw(st.integers(2, 6)))]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_backjumping_and_the_model_answer_as_the_plain_case_split(data):
    # With less effort spent, a query the plain split ran out on may now be
    # decided; it must then be VALID for the plain split given no bound.
    draw = data.draw
    effort = draw(st.one_of(st.integers(1, 30), st.just(UNBOUNDED)))
    engine = Entailment(effort=effort)
    for premise, goal in _difference_queries(draw, "b"):
        exhausted = engine.exhausted
        verdict = engine.entails(premise, goal)
        reference, cut_off = _reference_entails(premise, goal, effort)
        assert engine.exhausted - exhausted <= cut_off, f"{premise} => {goal}"
        if not cut_off or verdict is Verdict.NOT_PROVEN:
            assert verdict is reference, f"{premise} => {goal}"
        else:
            assert _reference_entails(premise, goal, UNBOUNDED)[0] is (
                Verdict.VALID), f"{premise} => {goal}"
        if verdict is Verdict.VALID:
            assert brute_force_valid(premise, goal, 6), (
                f"unsound: {premise} => {goal}")


def _has_negative_cycle(edges, nodes: int) -> bool:
    """Bellman-Ford from a source with a 0 edge to every node: do the
    ``(u, v, w)`` edges hold a cycle whose weights sum below 0?"""
    dist = [0] * nodes
    for _ in range(nodes):
        lowered = False
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v], lowered = dist[u] + w, True
        if not lowered:
            return False
    return True


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_conflict_levels_name_a_negative_cycle(data):
    # The levels ``add`` returns include the new edge's, and the edges of
    # those levels alone close a negative cycle: so does every branch that
    # shares them, which is what a backjump skips.
    conflicts = []
    add = logic._DifferenceGraph.add

    def checked(graph, u, v, w, level=0):
        levels = add(graph, u, v, w, level)
        if levels is not None:
            edges = [(x, y, wy) for x, out in enumerate(graph.succ)
                     for y, wy, ly in out if ly in levels]
            assert level in levels and _has_negative_cycle(
                edges, len(graph.pi)), (levels, graph.succ)
            conflicts.append(levels)
        return levels

    engine = Entailment(effort=UNBOUNDED)
    with mock.patch.object(logic._DifferenceGraph, "add", checked):
        for premise, goal in _difference_queries(data.draw, "c"):
            engine.entails(premise, goal)
    assume(conflicts)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_premise_model_satisfies_every_clause_of_its_premise(data):
    # The model is searched on the first goal, and drawn from every
    # disjunction, not only those the goal selects.
    draw = data.draw
    vs = [SymVar(i, "m") for i in range(1, draw(st.integers(1, 4)) + 1)]
    premise = _difference_formula(draw, vs, draw(st.integers(1, 6)))
    engine = Entailment(effort=UNBOUNDED)
    engine.entails(premise, Formula.of(Atom.le(draw(st.sampled_from(vs)), 0)))
    model = engine._premises[0].model
    if model is None:  # only an unsat premise has none, given no bound
        assert brute_force_valid(premise, Formula.of(Atom.false()), 6)
    else:
        assert set(model) == set(premise.vars())
        assert all(any(a.evaluate(model) for a in clause)
                   for clause in premise.clauses), (premise, model)


# --- premise reuse in whole analyses ----------------------------------------

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


@pytest.mark.parametrize("name, compiles, extensions", [
    ("build_only", 38, 21),
    ("build_traverse_ptr", 75, 38),
    ("build_search_value", 96, 50),
])
def test_premise_compiles_and_extensions_are_pinned(name, compiles, extensions):
    """A query with one of the engine's two held premises reuses it, and
    one that appends unit clauses to the latest extends it.  An engine that
    held one premise and never extended it compiled 88, 218 and 256
    premises on these programs."""
    with mock.patch.object(logic._Premise, "__init__", autospec=True,
                           side_effect=logic._Premise.__init__) as init, \
            mock.patch.object(logic._Premise, "extend", autospec=True,
                              side_effect=logic._Premise.extend) as extend:
        assert main(["analyze", str(CORPUS / f"{name}.ll")]) == 0
    # A compile extends its new, empty premise once.
    assert (init.call_count, extend.call_count - init.call_count) == (
        compiles, extensions)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# build_only's analysis: its uncached questions, the digest of each one's
# ``premise|conclusion|verdict`` in order, and the digest of the effort
# every budget spent, in the order the budgets were made (premise model
# searches included).  Backjumping and the premise model changed only the
# effort column, from "0a76314871ff68a8".  Asking the engine what the offset
# closure used to answer took it from (516, "a23f34a3e631687f",
# "4ef9850d0a65af83").
QUESTION_STREAM = (526, "1b2b0da1bf5607e8", "eec7e57e17546831")


def test_question_stream_is_pinned(monkeypatch):
    """Every question an analysis asks the engine, its answer and the effort
    spent on it, in order: a change that asks another question, answers
    one otherwise or spends other effort on it shows here.  Re-pinning
    follows ROADMAP's rules for criterion 3's query column."""
    asked, budgets = [], []
    uncached = Entailment._entails_uncached

    class Budget(logic._Budget):
        def __init__(self, limit: int):
            super().__init__(limit)
            self.limit = limit
            budgets.append(self)

    def recorded(self, premise, conclusion):
        verdict = uncached(self, premise, conclusion)
        asked.append(f"{premise}|{conclusion}|{verdict.name}")
        return verdict

    monkeypatch.setattr(logic, "_Budget", Budget)
    monkeypatch.setattr(Entailment, "_entails_uncached", recorded)
    assert main(["analyze", str(CORPUS / "build_only.ll")]) == 0
    assert (len(asked), _digest(asked), _digest(
        str(b.limit - b.left) for b in budgets)) == QUESTION_STREAM


# Per corpus program: its uncached questions and the digest of each one's
# ``premise|conclusion|verdict``, in order.  A change to the engine that
# keeps every answer keeps these; they were measured before backjumping and
# the premise model, which kept them.  Asking the engine what the offset
# closure used to answer added 0 to 46 questions per program.
CORPUS_QUESTIONS = {
    "build_append": (2379, "b4e53caa6cb6517d"),
    "build_only": (526, "1b2b0da1bf5607e8"),
    "build_search_value": (1873, "6a59b75840026430"),
    "build_traverse_field": (1356, "1aae887bd6c1a21d"),
    "build_traverse_ptr": (1357, "9007c688ebf1dd87"),
    "count_up": (58, "fb30be7fe2f46bce"),
    "cyclic_traverse": (62, "ac19d65eae457c27"),
    "infinite_loop": (13, "3a1a134ac0ac90ec"),
    "null_deref": (7, "46b18ca120c70f9a"),
    "store_into_invariant": (476, "1eb02bf7bc0f2620"),
    "straight_line": (13, "3379b59ec29b1a2b"),
}


def test_every_corpus_question_keeps_its_answer(monkeypatch):
    asked = []
    uncached = Entailment._entails_uncached

    def recorded(self, premise, conclusion):
        verdict = uncached(self, premise, conclusion)
        asked.append(f"{premise}|{conclusion}|{verdict.name}")
        return verdict

    monkeypatch.setattr(Entailment, "_entails_uncached", recorded)
    got = {}
    for path in sorted(CORPUS.glob("*.ll")):
        asked.clear()
        main(["analyze", str(path)])
        got[path.stem] = (len(asked), _digest(asked))
    assert got == CORPUS_QUESTIONS


# build_only's analysis: the calls of the graph's case split and of its edge
# insertion, model searches included.  Without backjumping and the premise
# model they were 2,271 and 4,258; with the offset shortcuts, 713 and 2,201.
CASE_SPLITS = (723, 2215)


def test_case_splits_are_pinned():
    graph = logic._DifferenceGraph
    with mock.patch.object(graph, "_refute_branches", autospec=True,
                           side_effect=graph._refute_branches) as split, \
            mock.patch.object(graph, "add", autospec=True,
                              side_effect=graph.add) as add:
        assert main(["analyze", str(CORPUS / "build_only.ll")]) == 0
    assert (split.call_count, add.call_count) == CASE_SPLITS


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


def test_dense_renaming_numbers_by_first_appearance():
    a, b, c = SymVar(7, "x"), SymVar(3, "len"), SymVar(12, "x")
    assert logic.dense_renaming([a, b, a, c, b]) == {
        a: SymVar(1, "x"), b: SymVar(2, "len"), c: SymVar(3, "x")}
    assert logic.dense_renaming([]) == {}
