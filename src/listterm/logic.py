"""Symbolic variables, linear integer arithmetic, and entailment checking.

All reasoning in the analyzer goes through an :class:`Entailment` engine
(:meth:`Entailment.holds` for one implied fact).  One engine serves one
analysis: it issues the analysis's fresh variables, with ids unique only
within it, and owns its caches.  The other modules share
this module's equality reasoning: :class:`OffsetClosure` answers constant
offsets between variables without the engine, and its classes are the ones
the representation oracle binds; :func:`clause_sexpr` prints SMT-LIB.

A query ``premise => goal`` is decided by refuting ``premise and not goal``,
clause by clause of the goal.  When every atom of the refutation is a
difference atom (``x - y <= c``, ``x <= c``, their equalities and
disequalities), the refutation runs on a difference-constraint graph: each
branch of the case split over the disjunctive clauses adds edges, and a
negative cycle refutes the branch (Cotton & Maler, SAT 2006).  For
difference constraints, rational and integer feasibility coincide, so this
is exact.  Any other query falls back to equality substitution plus
Fourier-Motzkin elimination with integer tightening, re-run on every branch;
that path is sound but incomplete.  Both paths run under an effort bound and
answer ``NOT_PROVEN`` when it is exhausted.  An external SMT-LIB2 solver can
be configured as a fallback; its failures degrade to ``NOT_PROVEN``.
"""

from __future__ import annotations

import enum
import itertools
import logging
import math
import subprocess
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

log = logging.getLogger(__name__)


@dataclass(frozen=True, order=True)
class SymVar:
    """A symbolic variable: an id, unique within one analysis, and a
    cosmetic hint.  Equal id and hint make the same variable."""

    id: int
    hint: str = "v"

    @property
    def name(self) -> str:
        return f"{self.hint}_{self.id}"

    def __repr__(self) -> str:
        return self.name


Value = Union[SymVar, int]


@dataclass(frozen=True, order=True, slots=True)
class Term:
    """Linear combination ``const + sum(coeff * var)``; no zero coefficients."""

    const: int = 0
    coeffs: Tuple[Tuple[SymVar, int], ...] = ()
    # Terms, atoms and formulas are hashed on every engine cache lookup; each
    # computes the dataclass's field-tuple hash once and keeps it here.
    _hash: Optional[int] = field(default=None, init=False, repr=False,
                                 compare=False)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.const, self.coeffs)))
        return self._hash

    @staticmethod
    def of(x: Union["Term", SymVar, int]) -> "Term":
        if isinstance(x, Term):
            return x
        if isinstance(x, SymVar):
            return Term(0, ((x, 1),))
        return Term(int(x), ())

    @staticmethod
    def _make(const: int, coeffs: Dict[SymVar, int]) -> "Term":
        items = tuple(sorted(((v, c) for v, c in coeffs.items() if c != 0),
                             key=lambda vc: vc[0].id))
        return Term(const, items)

    def coeff_map(self) -> Dict[SymVar, int]:
        return dict(self.coeffs)

    def vars(self) -> Tuple[SymVar, ...]:
        return tuple(v for v, _ in self.coeffs)

    def __add__(self, other) -> "Term":
        other = Term.of(other)
        m = self.coeff_map()
        for v, c in other.coeffs:
            m[v] = m.get(v, 0) + c
        return Term._make(self.const + other.const, m)

    def __sub__(self, other) -> "Term":
        return self + Term.of(other).scale(-1)

    def scale(self, k: int) -> "Term":
        return Term._make(self.const * k, {v: c * k for v, c in self.coeffs})

    def substitute(self, subst: Mapping[SymVar, "Term"]) -> "Term":
        out = Term(self.const, ())
        for v, c in self.coeffs:
            out = out + (Term.of(subst[v]).scale(c) if v in subst else Term(0, ((v, c),)))
        return out

    def evaluate(self, assignment: Mapping[SymVar, int]) -> int:
        total = self.const
        for v, c in self.coeffs:
            if v not in assignment:
                raise KeyError(f"unassigned variable {v}")
            total += c * assignment[v]
        return total

    def __str__(self) -> str:
        parts = []
        for v, c in self.coeffs:
            if c == 1:
                parts.append(f"{v.name}")
            elif c == -1:
                parts.append(f"-{v.name}")
            else:
                parts.append(f"{c}*{v.name}")
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts).replace("+ -", "- ")


EQ, NE, LE = "=", "!=", "<="


@dataclass(frozen=True, order=True, slots=True)
class Atom:
    """Normalized relation ``term REL 0`` with REL in {=, !=, <=}."""

    rel: str
    term: Term
    _hash: Optional[int] = field(default=None, init=False, repr=False,
                                 compare=False)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.rel, self.term)))
        return self._hash

    @staticmethod
    def _normalize(rel: str, t: Term) -> "Atom":
        coeffs = t.coeff_map()
        if not coeffs:
            # Ground atom: canonical representatives 0 <= 0 (true), 1 <= 0 (false).
            if rel == EQ:
                holds = t.const == 0
            elif rel == NE:
                holds = t.const != 0
            else:
                holds = t.const <= 0
            return Atom(LE, Term(0 if holds else 1))
        g = math.gcd(*[abs(c) for c in coeffs.values()])
        if rel in (EQ, NE):
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
            return Atom(rel, Term._make(const, coeffs))
        # rel == LE: integer tightening, sum(c/g * v) <= floor(-const/g)
        bound = (-t.const) // g
        return Atom(LE, Term._make(-bound, {v: c // g for v, c in coeffs.items()}))

    @staticmethod
    def make(rel: str, t: Term) -> "Atom":
        return Atom._normalize(rel, t)

    @staticmethod
    def eq(a, b) -> "Atom":
        return Atom._normalize(EQ, Term.of(a) - Term.of(b))

    @staticmethod
    def ne(a, b) -> "Atom":
        return Atom._normalize(NE, Term.of(a) - Term.of(b))

    @staticmethod
    def le(a, b) -> "Atom":
        return Atom._normalize(LE, Term.of(a) - Term.of(b))

    @staticmethod
    def lt(a, b) -> "Atom":
        return Atom._normalize(LE, Term.of(a) - Term.of(b) + 1)

    @staticmethod
    def ge(a, b) -> "Atom":
        return Atom.le(b, a)

    @staticmethod
    def gt(a, b) -> "Atom":
        return Atom.lt(b, a)

    @staticmethod
    def true() -> "Atom":
        return Atom(LE, Term(0))

    @staticmethod
    def false() -> "Atom":
        return Atom(LE, Term(1))

    def vars(self) -> Tuple[SymVar, ...]:
        return self.term.vars()

    def substitute(self, subst: Mapping[SymVar, Term]) -> "Atom":
        return Atom._normalize(self.rel, self.term.substitute(subst))

    def evaluate(self, assignment: Mapping[SymVar, int]) -> bool:
        val = self.term.evaluate(assignment)
        if self.rel == EQ:
            return val == 0
        if self.rel == NE:
            return val != 0
        return val <= 0

    def is_trivially_true(self) -> bool:
        if self.term.coeffs:
            return False
        return self.evaluate({})

    def is_trivially_false(self) -> bool:
        if self.term.coeffs:
            return False
        return not self.evaluate({})

    def __str__(self) -> str:
        return f"{self.term} {self.rel} 0"


Clause = Tuple[Atom, ...]


@dataclass(frozen=True, order=True, slots=True)
class Formula:
    """Conjunction of clauses; each clause is a disjunction of atoms."""

    clauses: Tuple[Clause, ...] = ()
    _hash: Optional[int] = field(default=None, init=False, repr=False,
                                 compare=False)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.clauses,)))
        return self._hash

    @staticmethod
    def conj(atoms: Iterable[Atom]) -> "Formula":
        return Formula(tuple((a,) for a in atoms))

    @staticmethod
    def of(*parts: Union[Atom, Clause, "Formula"]) -> "Formula":
        clauses: list = []
        for p in parts:
            if isinstance(p, Atom):
                clauses.append((p,))
            elif isinstance(p, Formula):
                clauses.extend(p.clauses)
            else:
                clauses.append(tuple(p))
        return Formula(tuple(clauses))

    def and_(self, other: Union[Atom, Clause, "Formula"]) -> "Formula":
        return Formula.of(self, other)

    def atoms(self) -> Tuple[Atom, ...]:
        """Singleton-clause atoms (the pure-conjunction part)."""
        return tuple(c[0] for c in self.clauses if len(c) == 1)

    def disjunctions(self) -> Tuple[Clause, ...]:
        return tuple(c for c in self.clauses if len(c) != 1)

    def vars(self) -> Tuple[SymVar, ...]:
        seen: Dict[SymVar, None] = {}
        for c in self.clauses:
            for a in c:
                for v in a.vars():
                    seen[v] = None
        return tuple(sorted(seen))

    def substitute(self, subst: Mapping[SymVar, Term]) -> "Formula":
        return Formula(tuple(tuple(a.substitute(subst) for a in c) for c in self.clauses))

    def __str__(self) -> str:
        parts = []
        for c in self.clauses:
            if len(c) == 1:
                parts.append(str(c[0]))
            else:
                parts.append("(" + " or ".join(str(a) for a in c) + ")")
        return " and ".join(parts) if parts else "true"


TRUE = Formula()


def eval_formula(assignment: Mapping[SymVar, int], f: Formula) -> bool:
    """Standard integer semantics; raises on unassigned variables."""
    return all(any(a.evaluate(assignment) for a in clause) for clause in f.clauses)


def brute_force_valid(premise: Formula, conclusion: Formula, bound: int) -> bool:
    """Exhaustively check ``premise => conclusion`` on the grid [0, bound]^k."""
    vs = tuple(sorted(set(premise.vars()) | set(conclusion.vars())))
    if len(vs) > 6:
        raise ValueError(f"too many variables for brute force: {len(vs)}")
    for point in itertools.product(range(bound + 1), repeat=len(vs)):
        asg = dict(zip(vs, point))
        if eval_formula(asg, premise) and not eval_formula(asg, conclusion):
            return False
    return True


def rename_formula(f: Formula, ren: Mapping[SymVar, SymVar]) -> Formula:
    return f.substitute({v: Term.of(w) for v, w in ren.items()})


# --------------------------------------------------------------------------
# Equalities without the engine
# --------------------------------------------------------------------------

class OffsetClosure:
    """Union-find over the conjunctive equalities of a formula, tracking a
    constant offset to each representative.  Supports 'x - y = ?' and
    'x = const?' queries without full entailment calls."""

    _CONST = SymVar(0, "const0")  # sentinel root representing the value 0

    def __init__(self, f: Formula):
        self.parent: Dict[SymVar, SymVar] = {}
        self.offset: Dict[SymVar, int] = {}
        for a in f.atoms():
            if a.rel != EQ:
                continue
            coeffs = a.term.coeffs
            if len(coeffs) == 1 and abs(coeffs[0][1]) == 1:
                v, c = coeffs[0]
                self._union(v, self._CONST, -a.term.const * c)
            elif len(coeffs) == 2:
                (x, cx), (y, cy) = coeffs
                if cx == 1 and cy == -1:
                    # x - y + const = 0, so x = y - const.
                    self._union(x, y, -a.term.const)

    def _find(self, v: SymVar) -> Tuple[SymVar, int]:
        path = []
        off = 0
        while v in self.parent:
            path.append((v, off))
            off += self.offset[v]
            v = self.parent[v]
        for node, seen in path:
            self.parent[node] = v
            self.offset[node] = off - seen
        return v, off

    def _union(self, x: SymVar, y: SymVar, d: int) -> None:
        # x = y + d
        rx, ox = self._find(x)
        ry, oy = self._find(y)
        if rx == ry:
            return  # consistency is the entailment engine's business
        # x = rx + ox and y = ry + oy, so rx = ry + (oy + d - ox).
        self.parent[rx] = ry
        self.offset[rx] = oy + d - ox

    def find(self, v: Value) -> Tuple[SymVar, int]:
        """(representative, offset) with ``v = representative + offset``;
        integers are offsets from the representative of 0."""
        if isinstance(v, int):
            root, off = self._find(self._CONST)
            return root, off + v
        return self._find(v)

    def diff(self, a: Value, b: Value) -> Optional[int]:
        ra, oa = self.find(a)
        rb, ob = self.find(b)
        if ra != rb:
            return None
        return oa - ob

    def const(self, a: Value) -> Optional[int]:
        return self.diff(a, 0)


class Verdict(enum.Enum):
    VALID = "valid"
    NOT_PROVEN = "not_proven"


# --------------------------------------------------------------------------
# Internal decision procedure
# --------------------------------------------------------------------------

# Working representation during solving: (coeffs dict, const).
Lin = Tuple[Dict[SymVar, int], int]


def _lin(t: Term) -> Lin:
    return (t.coeff_map(), t.const)


def _lin_subst(lin: Lin, subst: Mapping[SymVar, Lin]) -> Lin:
    coeffs, const = lin
    out: Dict[SymVar, int] = {}
    total = const
    for v, c in coeffs.items():
        if v in subst:
            scoe, scon = subst[v]
            total += c * scon
            for w, cw in scoe.items():
                out[w] = out.get(w, 0) + c * cw
        else:
            out[v] = out.get(v, 0) + c
    return ({v: c for v, c in out.items() if c != 0}, total)


class _Budget:
    def __init__(self, limit: int):
        self.left = limit

    def spend(self, n: int = 1) -> bool:
        self.left -= n
        return self.left >= 0


def _solve_equalities(eqs: list, budget: _Budget):
    """Eliminate equalities; returns (subst, residual_ineqs, unsat_flag)."""
    subst: Dict[SymVar, Lin] = {}
    residual: list = []
    pending = list(eqs)
    while pending:
        if not budget.spend():
            break
        coeffs, const = _lin_subst(pending.pop(0), subst)
        if not coeffs:
            if const != 0:
                return subst, residual, True
            continue
        g = math.gcd(*[abs(c) for c in coeffs.values()])
        if const % g != 0:
            return subst, residual, True
        unit = next((v for v, c in coeffs.items() if abs(c) == 1), None)
        if unit is None:
            # Keep as a pair of inequalities (sound weakening of completeness).
            residual.append((dict(coeffs), const))
            residual.append(({v: -c for v, c in coeffs.items()}, -const))
            continue
        cu = coeffs[unit]
        expr = ({v: -c * cu for v, c in coeffs.items() if v is not unit}, -const * cu)
        # Re-resolve existing entries against the new binding.
        one = {unit: expr}
        for v in list(subst):
            subst[v] = _lin_subst(subst[v], one)
        subst[unit] = expr
    return subst, residual, False


def _fm_unsat(ineqs: Sequence[Lin], budget: _Budget) -> bool:
    """True iff the conjunction of ``lin <= 0`` atoms is provably unsat."""
    work: Dict[Tuple[Tuple[SymVar, int], ...], int] = {}

    def push(coeffs: Dict[SymVar, int], const: int) -> Optional[bool]:
        if not coeffs:
            return const > 0
        g = math.gcd(*[abs(c) for c in coeffs.values()])
        if g > 1:
            # const <= -coeffs·v scaled by 1/g, tightened to the integer floor.
            const = -((-const) // g)
            coeffs = {v: c // g for v, c in coeffs.items()}
        key = tuple(sorted(coeffs.items(), key=lambda vc: vc[0].id))
        prev = work.get(key)
        if prev is None or const > prev:
            work[key] = const
        return None

    for coeffs, const in ineqs:
        r = push(dict(coeffs), const)
        if r:
            return True

    while work:
        if not budget.spend():
            return False
        ups: Dict[SymVar, int] = {}
        downs: Dict[SymVar, int] = {}
        for key in work:
            for v, c in key:
                if c > 0:
                    ups[v] = ups.get(v, 0) + 1
                else:
                    downs[v] = downs.get(v, 0) + 1
        if not ups and not downs:
            return False
        var = min(set(ups) | set(downs),
                  key=lambda v: (ups.get(v, 0) * downs.get(v, 0), v.id))
        uppers, lowers, rest = [], [], []
        for key, const in work.items():
            c = next((c for v, c in key if v == var), 0)
            if c > 0:
                uppers.append((dict(key), const))
            elif c < 0:
                lowers.append((dict(key), const))
            else:
                rest.append((dict(key), const))
        work = {}
        for coeffs, const in rest:
            if push(coeffs, const):
                return True
        for (uc, ub), (lc, lb) in itertools.product(uppers, lowers):
            if not budget.spend():
                return False
            a, b = uc[var], -lc[var]
            merged: Dict[SymVar, int] = {}
            for v, c in uc.items():
                merged[v] = merged.get(v, 0) + b * c
            for v, c in lc.items():
                merged[v] = merged.get(v, 0) + a * c
            merged.pop(var, None)
            merged = {v: c for v, c in merged.items() if c != 0}
            if push(merged, b * ub + a * lb):
                return True
    return False


def _refute(conjuncts: list, clauses: list, budget: _Budget) -> bool:
    """True iff the conjunction of conjunct-atoms and disjunctive clauses is
    provably unsat.  Conjuncts are Atom objects; clauses are atom tuples.

    Difference-logic queries are decided on a constraint graph; any query
    with another atom goes whole to Fourier-Motzkin."""
    problem = _difference_problem(conjuncts, clauses)
    if problem is None:
        return _refute_fm(conjuncts, clauses, budget)
    n, edges, alternatives = problem
    try:
        return _DifferenceGraph(n, budget).refute(edges, alternatives)
    except _OutOfEffort:
        return False


def _refute_fm(conjuncts: list, clauses: list, budget: _Budget) -> bool:
    """:func:`_refute` by equality substitution and Fourier-Motzkin on every
    branch of the case split over ``clauses``."""
    eqs, ineqs = [], []
    ne_clauses: list = []
    for a in conjuncts:
        if a.is_trivially_false():
            return True
        if a.is_trivially_true():
            continue
        if a.rel == EQ:
            eqs.append(_lin(a.term))
        elif a.rel == LE:
            ineqs.append(_lin(a.term))
        else:
            # t != 0 becomes the binary clause (t + 1 <= 0) or (-t + 1 <= 0).
            ne_clauses.append((Atom.make(LE, a.term + 1),
                               Atom.make(LE, a.term.scale(-1) + 1)))
    subst, residual, unsat = _solve_equalities(eqs, budget)
    if unsat:
        return True
    lins = [_lin_subst(l, subst) for l in ineqs] + residual
    clauses = ne_clauses + clauses
    return _refute_branches(lins, clauses, subst, budget)


def _refute_branches(lins: list, clauses: list, subst, budget: _Budget) -> bool:
    """Case-split refutation once all equalities have been eliminated.
    Branch atoms are rewritten through the equality solution and added as
    inequalities (an equality contributes both directions)."""
    if _fm_unsat(lins, budget):
        return True
    if not clauses:
        return False
    clause, rest = clauses[0], clauses[1:]
    for alt in clause:
        if not budget.spend():
            return False
        if alt.is_trivially_false():
            continue
        if alt.is_trivially_true():
            return _refute_branches(lins, rest, subst, budget)
        if alt.rel == NE:
            sub = ((Atom.make(LE, alt.term + 1),
                    Atom.make(LE, alt.term.scale(-1) + 1)),)
            if not _refute_branches(lins, list(sub) + rest, subst, budget):
                return False
            continue
        lin = _lin_subst(_lin(alt.term), subst)
        extra = [lin]
        if alt.rel == EQ:
            extra.append(({v: -c for v, c in lin[0].items()}, -lin[1]))
        if not _refute_branches(lins + extra, rest, subst, budget):
            return False
    return True


# A difference edge ``(u, v, w)`` stands for ``x_v - x_u <= w``; node 0 is
# the constant 0 and nodes 1.. are the query's variables.
Edge = Tuple[int, int, int]


class _OutOfEffort(Exception):
    """The effort budget ran out during a graph refutation."""


def _difference_problem(conjuncts: list, clauses: list):
    """``(nodes, edges, alternatives)`` for a query made only of difference
    atoms, or None.  ``edges`` encode the conjuncts (a ground atom is a loop
    on node 0); ``alternatives`` holds, per clause that is not trivially
    true and in the order :func:`_refute_fm` splits them, the edge tuple of
    each branch: a ``!=`` atom becomes its two ``<=`` alternatives, an ``=``
    atom two edges."""
    index: Dict[SymVar, int] = {}

    def edges_of(rel: str, t: Term) -> Optional[Tuple[Edge, ...]]:
        pos = neg = 0
        for v, c in t.coeffs:
            if c == 1 and not pos:
                pos = index.setdefault(v, len(index) + 1)
            elif c == -1 and not neg:
                neg = index.setdefault(v, len(index) + 1)
            else:
                return None
        w = -t.const
        if rel == LE:
            return ((neg, pos, w),)
        return ((neg, pos, w), (pos, neg, -w))

    def branches(a: Atom) -> Optional[list]:
        if a.rel != NE:
            e = edges_of(a.rel, a.term)
            return None if e is None else [e]
        # t != 0 splits into (t + 1 <= 0) or (-t + 1 <= 0).
        e = edges_of(EQ, a.term)
        return None if e is None else [((u, v, w - 1),) for u, v, w in e]

    edges: list = []
    alternatives: list = []
    for a in conjuncts:
        b = branches(a)
        if b is None:
            return None
        if a.rel == NE:
            alternatives.append(b)
        else:
            edges.extend(b[0])
    for clause in clauses:
        alts: list = []
        for a in clause:
            if a.is_trivially_true():
                alts = None
                break
            if a.is_trivially_false():
                continue
            b = branches(a)
            if b is None:
                return None
            alts.extend(b)
        if alts is not None:
            alternatives.append(alts)
    return len(index) + 1, edges, alternatives


class _DifferenceGraph:
    """Difference constraints with a potential ``pi`` that satisfies every
    edge, ``pi[v] <= pi[u] + w``; adding an edge restores it by relaxing
    from the edge's target only, so a conjunction stays consistent until an
    edge closes a negative cycle (Cotton & Maler, SAT 2006).  Every edge and
    every branch costs one unit of effort; the first-in first-out relaxation
    after one edge is bounded by nodes times edges, as in Bellman-Ford."""

    def __init__(self, n: int, budget: _Budget):
        self.succ: list = [[] for _ in range(n)]
        self.pi = [0] * n
        self.budget = budget

    def _spend(self) -> None:
        if not self.budget.spend():
            raise _OutOfEffort

    def add(self, u: int, v: int, w: int) -> bool:
        """Add ``x_v - x_u <= w``; False when it closes a negative cycle."""
        self._spend()
        if u == v:
            return w >= 0
        self.succ[u].append((v, w))
        pi = self.pi
        if pi[u] + w >= pi[v]:
            return True
        # Any negative cycle runs through the new edge, so it shows as a
        # path back to u that would lower pi[u].
        pi[v] = pi[u] + w
        queue = [v]
        for x in queue:
            px = pi[x]
            for y, wy in self.succ[x]:
                if px + wy < pi[y]:
                    if y == u:
                        return False
                    pi[y] = px + wy
                    queue.append(y)
        return True

    def refute(self, edges: list, alternatives: list) -> bool:
        """True iff the edges plus one branch of every alternative list are
        inconsistent, for every choice of branches."""
        for e in edges:
            if not self.add(*e):
                return True
        return self._refute_branches(alternatives, 0)

    def _refute_branches(self, alternatives: list, i: int) -> bool:
        if i == len(alternatives):
            return False
        for branch in alternatives[i]:
            self._spend()
            marks = [len(self.succ[u]) for u, _, _ in branch]
            saved = self.pi[:]
            refuted = (not all(self.add(*e) for e in branch)
                       or self._refute_branches(alternatives, i + 1))
            for (u, _, _), m in zip(branch, marks):
                del self.succ[u][m:]
            self.pi = saved
            if not refuted:
                return False
        return True


def _negate_atom(a: Atom):
    """Negation of an atom: returns (conjunct_atoms, clauses)."""
    if a.rel == LE:
        return [Atom.make(LE, a.term.scale(-1) + 1)], []
    if a.rel == NE:
        return [Atom(EQ, a.term)], []
    low = Atom.make(LE, a.term + 1)
    high = Atom.make(LE, a.term.scale(-1) + 1)
    return [], [(low, high)]


def _relevant_clauses(clauses: Sequence[Clause], seed_vars: set,
                      conjunct_atoms: Sequence[Atom]) -> list:
    """Disjunctive premise clauses connected to the goal by shared variables.

    Dropping a premise clause only weakens the premise, so this filter is
    sound; it just avoids exponential case splits on unrelated disjunctions.
    """
    if not seed_vars:
        # Ground goal (e.g. unsatisfiability checks): everything is relevant.
        return list(clauses)
    reach = set(seed_vars)
    changed = True
    atom_sets = [set(a.vars()) for a in conjunct_atoms]
    while changed:
        changed = False
        for s in atom_sets:
            if s & reach and not s <= reach:
                reach |= s
                changed = True
    selected = []
    for c in clauses:
        cv = set().union(*(a.vars() for a in c)) if c else set()
        if cv & reach:
            selected.append(c)
    return selected


class Entailment:
    """Entailment engine with memoization and optional external SMT fallback;
    the context of one analysis, whose fresh variables it issues."""

    def __init__(self, smt_cmd: Optional[str] = None, effort: int = 10_000):
        self.smt_cmd = smt_cmd
        self.effort = effort
        self._ids = itertools.count(1)
        self._cache: Dict[Tuple[Formula, Formula], Verdict] = {}
        # absdom.state_formula's results, per abstract state.
        self.state_formulas: Dict[object, Formula] = {}
        # concrete.represents's compiled states.
        self.state_plans: Dict[object, object] = {}
        self.queries = 0
        self.exhausted = 0  # refutations cut off by the effort bound

    def fresh(self, hint: str = "v") -> SymVar:
        """A new variable; ids count up from 1 within this engine."""
        return SymVar(next(self._ids), hint)

    def holds(self, premise: Formula, *parts: Union[Atom, Clause, Formula]
              ) -> bool:
        """Is the conjunction of ``parts`` provably implied by ``premise``?"""
        return self.entails(premise, Formula.of(*parts)) is Verdict.VALID

    def entails(self, premise: Formula, conclusion: Formula) -> Verdict:
        key = (premise, conclusion)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        self.queries += 1
        verdict = self._entails_uncached(premise, conclusion)
        self._cache[key] = verdict
        return verdict

    def _entails_uncached(self, premise: Formula, conclusion: Formula) -> Verdict:
        for clause in conclusion.clauses:
            if not self._entails_clause(premise, clause):
                if self.smt_cmd and self._smt_valid(premise, conclusion):
                    return Verdict.VALID
                return Verdict.NOT_PROVEN
        return Verdict.VALID

    def _entails_clause(self, premise: Formula, clause: Clause) -> bool:
        if any(a.is_trivially_true() for a in clause):
            return True
        conjuncts = list(premise.atoms())
        extra_clauses: list = []
        goal_vars: set = set()
        for a in clause:
            neg_conj, neg_clauses = _negate_atom(a)
            conjuncts.extend(neg_conj)
            extra_clauses.extend(neg_clauses)
            goal_vars |= set(a.vars())
        disj = _relevant_clauses(premise.disjunctions(), goal_vars, conjuncts)
        budget = _Budget(self.effort)
        if _refute(conjuncts, extra_clauses + disj, budget):
            return True
        if budget.left < 0:
            self.exhausted += 1
            log.warning("entailment effort %d exhausted; answering not proven",
                        self.effort)
        return False

    # -- external solver channel -------------------------------------------

    def _smt_valid(self, premise: Formula, conclusion: Formula) -> bool:
        try:
            script = smtlib_script(premise, conclusion)
            proc = subprocess.run(
                self.smt_cmd, shell=True, input=script.encode(),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=20)
            return proc.stdout.decode().strip().splitlines()[-1:] == ["unsat"]
        except Exception as exc:  # noqa: BLE001 - degrade, never abort analysis
            log.warning("external solver failed: %s", exc)
            return False


def term_sexpr(t: Term, names: Mapping[SymVar, str]) -> str:
    parts = [str(t.const)] if t.const or not t.coeffs else []
    for v, c in t.coeffs:
        parts.append(names[v] if c == 1 else f"(* {c} {names[v]})")
    if len(parts) == 1:
        return parts[0]
    return "(+ " + " ".join(parts) + ")"


def atom_sexpr(a: Atom, names: Mapping[SymVar, str]) -> str:
    s = term_sexpr(a.term, names)
    if a.rel == EQ:
        return f"(= {s} 0)"
    if a.rel == NE:
        return f"(not (= {s} 0))"
    return f"(<= {s} 0)"


def clause_sexpr(clause: Clause, names: Mapping[SymVar, str]) -> str:
    """SMT-LIB text of a clause; ``names`` gives each variable's symbol."""
    if len(clause) == 1:
        return atom_sexpr(clause[0], names)
    return "(or " + " ".join(atom_sexpr(a, names) for a in clause) + ")"


def smtlib_script(premise: Formula, conclusion: Formula) -> str:
    """SMT-LIB2 validity query: premise and not(conclusion), expecting unsat."""
    vs = sorted(set(premise.vars()) | set(conclusion.vars()))
    names = {v: v.name for v in vs}

    def formula_sexpr(f: Formula) -> str:
        cs = [clause_sexpr(clause, names) for clause in f.clauses]
        if not cs:
            return "true"
        if len(cs) == 1:
            return cs[0]
        return "(and " + " ".join(cs) + ")"

    lines = ["(set-logic QF_LIA)"]
    for v in vs:
        lines.append(f"(declare-const {v.name} Int)")
    lines.append(f"(assert {formula_sexpr(premise)})")
    lines.append(f"(assert (not {formula_sexpr(conclusion)}))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"
