"""Symbolic variables, linear integer arithmetic, and entailment checking.

All reasoning in the analyzer goes through an :class:`Entailment` engine
(:meth:`Entailment.holds` for one implied fact).  One engine serves one
analysis: it issues the analysis's fresh variables, with ids unique only
within it, and owns its caches.  The other modules share this module's
equality reasoning: :class:`OffsetClosure` gives the constant offsets
between variables by which ``seg`` matches exact sizes and field offsets,
and its classes are the ones the representation oracle binds.  Variables,
terms and atoms are tuples, so they are built, hashed and compared in C;
as tuples they also equal plain ones, so no code compares one with a plain
tuple, iterates or sizes one.

A query ``premise => goal`` is decided by refuting ``premise and not goal``,
clause by clause of the goal, with only the premise's disjunctions that
share a connected component with the goal.  Each refutation query is in one
normal form: a trivially false conjunct refutes it, trivially true
conjuncts and clauses and trivially false alternatives are dropped, and each
``t != 0`` becomes the two alternatives ``t + 1 <= 0`` or ``-t + 1 <= 0``
(for a ``!=`` conjunct, a clause split ahead of the premise's disjunctions).
Only ``=`` and ``<=`` atoms remain.  When each is a difference atom
(``x - y <= c`` or ``x <= c``, or the equality of one), the refutation runs
on a difference-constraint graph: each branch of the case split over the
clauses adds edges, and a negative cycle refutes the branch (Cotton &
Maler, SAT 2006), or the whole clause if it runs through none of the
branch's edges.  For difference constraints, rational and integer
feasibility coincide, so this is exact.  Any other query falls back to
equality substitution plus Fourier-Motzkin elimination on :class:`Term`
rows, each tightened to integers by :meth:`Atom.make`, re-run on every
branch; that path is sound but incomplete.  Both paths run under an effort
bound and answer ``NOT_PROVEN`` when it is exhausted.

Consecutive queries mostly share a premise, alternate between two, or
extend the last by unit clauses, so an engine keeps its two latest premises
compiled and extends the latest in place: its normal form, components, a
graph holding its edges with a feasible potential (or the cycle they
close), and, once a goal needs them, its equalities solved and a model of
it.  A goal the model falsifies is not entailed.  Any other normalizes only
its own negation and pushes its edges onto the graph, to pop them when it
is decided or out of effort, or goes on from a copy of the solved
equalities; it is charged the premise's work as if it had done it.  No
other procedure decides a query.  The trusted arithmetic is the engine,
plus :class:`OffsetClosure` for ``seg``'s exact size and offset matching
and the oracle's classes.
"""

from __future__ import annotations

import enum
import itertools
import logging
import math
from operator import attrgetter
from typing import (Callable, Dict, Iterable, Mapping, NamedTuple, Optional,
                    Sequence, Tuple, Union)

from .ir import Record

log = logging.getLogger(__name__)


class SymVar(NamedTuple):
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


def dense_renaming(vs: Iterable[SymVar]) -> Dict[SymVar, SymVar]:
    """Each variable of ``vs`` renamed, in order of first appearance, to
    ``SymVar(k, hint)`` with k counting from 1: the exports' names, dense
    where the engine's ids have gaps.  Repeats are ignored."""
    return {v: SymVar(k, v.hint) for k, v in enumerate(dict.fromkeys(vs), 1)}


def linear_text(const: int, coeffs: Iterable[Tuple[SymVar, int]],
                name: Callable[[SymVar], str]) -> str:
    """``const + sum(c * v)`` as text, in the order of ``coeffs``, each
    variable written ``name(v)``: a coefficient of 1 or -1 is a sign alone,
    and the constant comes last, unless it is 0 and something precedes it."""
    text = ""
    for v, c in coeffs:
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        text += f"{' - ' if c < 0 else ' + '}{mag}{name(v)}"
    if const or not text:
        text += f"{' - ' if const < 0 else ' + '}{abs(const)}"
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


def _by_id(vc: Tuple[SymVar, int]) -> int:
    return vc[0].id


class Term(NamedTuple):
    """Linear combination ``const + sum(coeff * var)``; no zero coefficients."""

    const: int = 0
    coeffs: Tuple[Tuple[SymVar, int], ...] = ()

    @staticmethod
    def of(x: Union["Term", SymVar, int]) -> "Term":
        if isinstance(x, Term):
            return x
        if isinstance(x, SymVar):
            return Term(0, ((x, 1),))
        return Term(int(x), ())

    @staticmethod
    def _build(const: int, coeffs: Dict[SymVar, int]) -> "Term":
        return Term(const, tuple(sorted(
            [(v, c) for v, c in coeffs.items() if c != 0], key=_by_id)))

    def coeff_map(self) -> Dict[SymVar, int]:
        return dict(self.coeffs)

    def vars(self) -> Tuple[SymVar, ...]:
        return tuple([v for v, _ in self.coeffs])

    def __add__(self, other, sign: int = 1) -> "Term":
        """``self + sign * other``."""
        other = Term.of(other)
        const = self.const + sign * other.const
        if not other.coeffs:
            return Term(const, self.coeffs)
        m = self.coeff_map()
        for v, c in other.coeffs:
            m[v] = m.get(v, 0) + sign * c
        return Term._build(const, m)

    def __sub__(self, other) -> "Term":
        return self.__add__(other, -1)

    def scale(self, k: int) -> "Term":
        if k == 0:
            return Term(0)
        return Term(self.const * k, tuple([(v, c * k) for v, c in self.coeffs]))

    def substitute(self, subst: Mapping[SymVar, "Term"]) -> "Term":
        if not any(v in subst for v, _ in self.coeffs):
            return self
        const, m = self.const, {}
        for v, c in self.coeffs:
            t = Term.of(subst[v]) if v in subst else Term(0, ((v, 1),))
            const += c * t.const
            for w, cw in t.coeffs:
                m[w] = m.get(w, 0) + c * cw
        return Term._build(const, m)

    def evaluate(self, assignment: Mapping[SymVar, int]) -> int:
        total = self.const
        for v, c in self.coeffs:
            if v not in assignment:
                raise KeyError(f"unassigned variable {v}")
            total += c * assignment[v]
        return total

    def __str__(self) -> str:
        return linear_text(self.const, self.coeffs, attrgetter("name"))


EQ, NE, LE = "=", "!=", "<="


def relation_holds(rel: str, value: int) -> bool:
    """Does ``value rel 0`` hold?"""
    if rel == LE:
        return value <= 0
    return value == 0 if rel == EQ else value != 0


class Atom(NamedTuple):
    """Normalized relation ``term REL 0`` with REL in {=, !=, <=}."""

    rel: str
    term: Term

    @staticmethod
    def make(rel: str, t: Term) -> "Atom":
        """The normal form of ``t rel 0``."""
        if not t.coeffs:
            # Ground atom: canonical representatives 0 <= 0 (true), 1 <= 0 (false).
            return Atom(LE, Term(0 if relation_holds(rel, t.const) else 1))
        g = math.gcd(*[c for _, c in t.coeffs])
        if rel in (EQ, NE):
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
            return Atom(rel, Term._build(const, coeffs))
        # rel == LE: integer tightening, sum(c/g * v) <= floor(-const/g);
        # dividing by g > 0 keeps the coefficients' order.
        bound = (-t.const) // g
        return Atom(LE, Term(-bound, tuple([(v, c // g) for v, c in t.coeffs])))

    @staticmethod
    def _difference(rel: str, a, b, k: int = 0) -> "Atom":
        """The normal form of ``a - b + k rel 0``; ``k`` is 0 for ``=`` and
        ``!=``.  See :meth:`eq` for the operands built directly."""
        if isinstance(a, SymVar):
            if isinstance(b, SymVar):
                if a.id < b.id:
                    return Atom(rel, Term(k, ((a, 1), (b, -1))))
                if b.id < a.id:
                    # The lower id comes first; = and != give it +1.
                    return Atom(rel, Term(k, ((b, -1), (a, 1)) if rel == LE
                                          else ((b, 1), (a, -1))))
            elif isinstance(b, int):
                return Atom(rel, Term(k - b, ((a, 1),)))
        elif isinstance(a, int) and isinstance(b, SymVar):
            if rel == LE:
                return Atom(LE, Term(a + k, ((b, -1),)))
            return Atom(rel, Term(-a, ((b, 1),)))
        t = Term.of(a) - Term.of(b)
        return Atom.make(rel, t + k if k else t)

    @staticmethod
    def eq(a, b) -> "Atom":
        """``a = b`` in normal form, as :meth:`make` gives it.  Two variables
        of different ids, or a variable and an int, are built directly; any
        other pair (a :class:`Term`, two ints, one variable twice, or two
        variables sharing an id) goes through :meth:`make`.  So do
        :meth:`ne`, :meth:`le`, :meth:`lt`, :meth:`ge` and :meth:`gt`."""
        return Atom._difference(EQ, a, b)

    @staticmethod
    def ne(a, b) -> "Atom":
        return Atom._difference(NE, a, b)

    @staticmethod
    def le(a, b) -> "Atom":
        return Atom._difference(LE, a, b)

    @staticmethod
    def lt(a, b) -> "Atom":
        return Atom._difference(LE, a, b, 1)

    @staticmethod
    def ge(a, b) -> "Atom":
        return Atom.le(b, a)

    @staticmethod
    def gt(a, b) -> "Atom":
        return Atom.lt(b, a)

    @staticmethod
    def false() -> "Atom":
        return Atom(LE, Term(1))

    def vars(self) -> Tuple[SymVar, ...]:
        return self.term.vars()

    def substitute(self, subst: Mapping[SymVar, Term]) -> "Atom":
        return Atom.make(self.rel, self.term.substitute(subst))

    def evaluate(self, assignment: Mapping[SymVar, int]) -> bool:
        return relation_holds(self.rel, self.term.evaluate(assignment))

    def is_trivially_true(self) -> bool:
        return not self.term.coeffs and self.evaluate({})

    def is_trivially_false(self) -> bool:
        return not self.term.coeffs and not self.evaluate({})

    def __str__(self) -> str:
        return f"{self.term} {self.rel} 0"


Clause = Tuple[Atom, ...]


class Formula(Record):
    """Conjunction of clauses; each clause is a disjunction of atoms."""

    __slots__ = ("clauses", "_hash")
    clauses: Tuple[Clause, ...]

    def __init__(self, clauses: Tuple[Clause, ...] = ()) -> None:
        object.__setattr__(self, "clauses", clauses)
        object.__setattr__(self, "_hash", None)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.clauses == other.clauses

    def __hash__(self) -> int:
        # A premise is hashed on every engine cache lookup: the field
        # tuple's hash is computed once and kept.
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


def rename_formula(f: Formula, ren: Mapping[SymVar, Value]) -> Formula:
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

class _Budget:
    def __init__(self, limit: int):
        self.left = limit

    def spend(self, n: int = 1) -> bool:
        """Spend ``n`` units one at a time, stopping at the first that is
        not left; True if all ``n`` were."""
        if n <= self.left:
            self.left -= n
            return True
        self.left = min(self.left, 0) - 1
        return False


def _solve_equalities(eqs: Sequence[Term], budget: _Budget,
                      subst: Dict[SymVar, Term], residual: list) -> bool:
    """Eliminate the equalities ``t = 0`` into ``subst`` and ``residual``
    (rows ``t <= 0``), which hold any earlier ones; True when unsat."""
    for t in eqs:
        if not budget.spend():
            break
        t = t.substitute(subst)
        if not t.coeffs:
            if t.const != 0:
                return True
            continue
        if t.const % math.gcd(*[c for _, c in t.coeffs]) != 0:
            return True
        unit, cu = next(((v, c) for v, c in t.coeffs if abs(c) == 1),
                        (None, 0))
        if unit is None:
            # Keep as a pair of inequalities (sound weakening of completeness).
            residual += [t, t.scale(-1)]
            continue
        # cu * unit + rest = 0 with cu = +-1, so unit = -cu * rest.
        expr = (t - Term(0, ((unit, cu),))).scale(-cu)
        # Re-resolve existing entries against the new binding.
        one = {unit: expr}
        for v in subst:
            subst[v] = subst[v].substitute(one)
        subst[unit] = expr
    return False


class _Solved(NamedTuple):
    """A conjunction's equalities solved, and its ``<=`` rows through them."""
    subst: Dict[SymVar, Term]
    residual: list
    unsat: bool
    spent: int  # the effort solving took
    rows: list


def _solve(conjuncts: Sequence[Atom]) -> _Solved:
    eqs = [a.term for a in conjuncts if a.rel == EQ]
    subst, residual, budget = {}, [], _Budget(len(eqs))
    unsat = _solve_equalities(eqs, budget, subst, residual)
    return _Solved(subst, residual, unsat, len(eqs) - budget.left,
                   [a.term.substitute(subst) for a in conjuncts if a.rel == LE])


def _fm_unsat(rows: Sequence[Term], budget: _Budget) -> bool:
    """True iff the conjunction of ``t <= 0`` rows is provably unsat."""
    # The tightest row per coefficient tuple: the one with the largest const.
    work: Dict[Tuple[Tuple[SymVar, int], ...], Term] = {}

    def push(t: Term) -> bool:
        """Add ``t <= 0`` tightened to integers; True if it is ground and
        false."""
        t = Atom.make(LE, t).term
        if not t.coeffs:
            return t.const > 0
        prev = work.get(t.coeffs)
        if prev is None or t.const > prev.const:
            work[t.coeffs] = t
        return False

    if any(push(t) for t in rows):
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
        var = min(set(ups) | set(downs),
                  key=lambda v: (ups.get(v, 0) * downs.get(v, 0), v.id))
        uppers, lowers, rest = [], [], []
        for t in work.values():
            c = dict(t.coeffs).get(var, 0)
            if c > 0:
                uppers.append((t, c))
            elif c < 0:
                lowers.append((t, c))
            else:
                rest.append(t)
        work = {t.coeffs: t for t in rest}
        for (up, a), (low, b) in itertools.product(uppers, lowers):
            if not budget.spend():
                return False
            if push(up.scale(-b) + low.scale(a)):
                return True
    return False


def _normalize(conjuncts: Sequence[Atom], clauses: Sequence[Clause]):
    """The normal form ``(conjuncts, clauses)`` of a refutation query, or None
    when a conjunct is trivially false.  Trivially true conjuncts and
    clauses and trivially false alternatives are dropped, and ``t != 0``
    becomes the alternatives ``t + 1 <= 0`` or ``-t + 1 <= 0``; a ``!=``
    conjunct becomes such a clause, ahead of the given clauses.  What is
    left are ``=`` and ``<=`` atoms with variables."""

    def split(a: Atom) -> Clause:
        if a.rel != NE:
            return (a,)
        return (Atom.make(LE, a.term + 1), Atom.make(LE, a.term.scale(-1) + 1))

    kept: list = []
    splits: list = []
    for a in conjuncts:
        if a.is_trivially_false():
            return None
        if a.is_trivially_true():
            continue
        if a.rel == NE:
            splits.append(split(a))
        else:
            kept.append(a)
    for clause in clauses:
        alts: list = []
        for a in clause:
            if a.is_trivially_true():
                break
            if not a.is_trivially_false():
                alts.extend(split(a))
        else:
            splits.append(tuple(alts))
    return kept, splits


def _refute_fm(conjuncts: list, clauses: list, budget: _Budget) -> bool:
    """True iff the conjunction of conjunct-atoms and disjunctive clauses is
    provably unsat, by equality substitution and Fourier-Motzkin on every
    branch of the case split over ``clauses``.  It takes any query and
    normalizes it itself; the normal form is a fixed point of
    :func:`_normalize`."""
    query = _normalize(conjuncts, clauses)
    if query is None:
        return True
    return _refute_from(_solve(()), *query, budget)


def _refute_from(start: _Solved, conjuncts: list, clauses: list,
                 budget: _Budget) -> bool:
    """:func:`_refute_fm`, with its answer and effort, on the normal-form
    query ``start``'s conjunction plus ``conjuncts`` and ``clauses``; the
    equalities of ``start`` (not changed) are solved first, within effort."""
    budget.spend(start.spent)
    if start.unsat:
        return True
    subst, residual = dict(start.subst), list(start.residual)
    if _solve_equalities([a.term for a in conjuncts if a.rel == EQ], budget,
                         subst, residual):
        return True
    rows = [t.substitute(subst) for t in start.rows]
    rows += [a.term.substitute(subst) for a in conjuncts if a.rel == LE]
    return _refute_branches(rows + residual, clauses, subst, budget)


def _refute_branches(rows: list, clauses: list, subst, budget: _Budget) -> bool:
    """Case-split refutation once all equalities have been eliminated.
    Branch atoms are rewritten through the equality solution and added as
    rows (an equality contributes both directions)."""
    if _fm_unsat(rows, budget):
        return True
    if not clauses:
        return False
    clause, rest = clauses[0], clauses[1:]
    for alt in clause:
        if not budget.spend():
            return False
        t = alt.term.substitute(subst)
        extra = [t, t.scale(-1)] if alt.rel == EQ else [t]
        if not _refute_branches(rows + extra, rest, subst, budget):
            return False
    return True


# A difference edge ``(u, v, w)`` stands for ``x_v - x_u <= w``; node 0 is
# the constant 0 and nodes 1.. are variables.
Edge = Tuple[int, int, int]


class _OutOfEffort(Exception):
    """The effort budget ran out during a graph refutation."""


class _DifferenceGraph:
    """Difference constraints with a potential ``pi`` that satisfies every
    edge, ``pi[v] <= pi[u] + w``; adding an edge restores it by relaxing
    from the edge's target only, so a conjunction stays consistent until an
    edge closes a negative cycle (Cotton & Maler, SAT 2006).  A variable
    gets its node when an atom on it is encoded.  An edge's level is 0 for
    the premise and the goal, i + 1 for a branch of the i-th alternative
    list; a branch refuted by a negative cycle without its own level
    refutes its whole clause (backjumping, as in DPLL(T)).  ``trail`` logs
    the edges added and potentials lowered, to undo a branch.  During a
    refutation every edge and every branch costs one unit of ``budget``;
    the first-in first-out relaxation after one edge is bounded by nodes
    times edges, as in Bellman-Ford."""

    def __init__(self):
        self.index: Dict[SymVar, int] = {}
        self.succ: list = [[]]
        self.pi = [0]
        self.trail: list = []  # (node, old potential), or (u, None) per edge
        self.budget: Optional[_Budget] = None  # the running refutation's
        self.leaf: Optional[list] = None  # its consistent leaf's potential

    def _node(self, v: SymVar) -> int:
        node = self.index.get(v)
        if node is None:
            node = self.index[v] = len(self.pi)
            self.succ.append([])
            self.pi.append(0)
        return node

    def edges_of(self, a: Atom) -> Optional[Tuple[Edge, ...]]:
        """One edge for a ``<=`` difference atom, two for an ``=``; None
        for any other atom."""
        pos = neg = 0
        for v, c in a.term.coeffs:
            if c == 1 and not pos:
                pos = self._node(v)
            elif c == -1 and not neg:
                neg = self._node(v)
            else:
                return None
        w = -a.term.const
        if a.rel == LE:
            return ((neg, pos, w),)
        return ((neg, pos, w), (pos, neg, -w))

    def encode(self, atoms: Sequence[Atom]) -> Optional[list]:
        """The edges of a conjunction of difference atoms, or None."""
        edges = [self.edges_of(a) for a in atoms]
        return None if None in edges else [e for es in edges for e in es]

    def alternatives(self, clauses: Sequence[Clause]) -> Optional[list]:
        """Per clause, the edge tuple of each branch, or None unless every
        branch is a difference atom."""
        alts = [[self.edges_of(a) for a in clause] for clause in clauses]
        return None if any(None in branches for branches in alts) else alts

    def add(self, u: int, v: int, w: int, level: int = 0) -> Optional[set]:
        """Add ``x_v - x_u <= w`` at ``level``; the levels of the negative
        cycle it closes, or None."""
        self.succ[u].append((v, w, level))
        trail, pi = self.trail, self.pi
        trail.append((u, None))
        if pi[u] + w >= pi[v]:
            return None
        # Any negative cycle runs through the new edge: a path back to u,
        # along the edges in ``via`` that last lowered each node.
        via = {v: (u, level)}
        trail.append((v, pi[v]))
        pi[v] = pi[u] + w
        queue = [v]
        for x in queue:
            px = pi[x]
            for y, wy, ly in self.succ[x]:
                if px + wy < pi[y]:
                    if y == u:
                        levels = {ly}
                        while x != u:
                            x, ly = via[x]
                            levels.add(ly)
                        return levels
                    via[y] = (x, ly)
                    trail.append((y, pi[y]))
                    pi[y] = px + wy
                    queue.append(y)
        return None

    def _spend(self) -> None:
        if not self.budget.spend():
            raise _OutOfEffort

    def _extend(self, edges, level: int) -> Optional[set]:
        """Add ``edges`` for one unit each, up to a negative cycle's."""
        for u, v, w in edges:
            self._spend()
            levels = self.add(u, v, w, level)
            if levels is not None:
                return levels
        return None

    def _restore(self, mark: int) -> None:
        """Undo every edge and potential logged since ``mark``."""
        trail, pi, succ = self.trail, self.pi, self.succ
        for node, old in reversed(trail[mark:]):
            if old is None:
                succ[node].pop()
            else:
                pi[node] = old
        del trail[mark:]

    def refute(self, edges: list, alternatives: list, budget: _Budget
               ) -> bool:
        """True iff the graph plus ``edges`` plus one branch of every
        alternative list is provably inconsistent, for every choice of
        branches; else ``leaf`` is the first consistent choice's potential,
        if one was reached.  The graph is left as it was: a node added for
        the query keeps no edge and potential 0, as if it were new."""
        self.budget, self.leaf = budget, None
        mark = len(self.trail)
        try:
            return (self._extend(edges, 0) is not None
                    or self._refute_branches(alternatives, 0) is not None)
        except _OutOfEffort:
            return False
        finally:
            # Also when the effort runs out: the graph outlives the query.
            self._restore(mark)

    def _refute_branches(self, alternatives: list, i: int) -> Optional[set]:
        """None when some choice of branches from the i-th list on is
        consistent; otherwise the levels its refutations used, but i + 1."""
        if i == len(alternatives):
            self.leaf = self.pi[:]
            return None
        level, used = i + 1, set()
        for branch in alternatives[i]:
            self._spend()
            mark = len(self.trail)
            # A cycle's levels are never empty; ``refute`` undoes a cut-off.
            levels = (self._extend(branch, level)
                      or self._refute_branches(alternatives, level))
            self._restore(mark)
            if levels is None or level not in levels:
                return levels  # consistent, or every other branch refuted
            used |= levels
        used.discard(level)
        return used


def _negate_atom(a: Atom) -> Atom:
    """The atom that holds exactly where ``a`` does not."""
    if a.rel == LE:
        return Atom.make(LE, a.term.scale(-1) + 1)
    return Atom(NE if a.rel == EQ else EQ, a.term)


def _join(group_of: Dict[SymVar, list], atoms: Sequence[Atom]) -> None:
    """Merge into ``group_of``, which maps each variable to the list of its
    connected component, the variables of each atom."""
    for a in atoms:
        vs = a.vars()
        if not vs:
            continue
        group = group_of.setdefault(vs[0], [vs[0]])
        for v in vs[1:]:
            other = group_of.get(v)
            if other is None:
                group.append(v)
                group_of[v] = group
            elif other is not group:
                if len(other) > len(group):
                    group, other = other, group
                group += other
                for w in other:
                    group_of[w] = group


class _Disjunction(NamedTuple):
    vars: frozenset
    keys: frozenset        # the components of its variables
    splits: list           # its normal form: no clause, or one
    alternatives: Optional[list]  # their edges, or None


class _Premise:
    """A premise compiled once for all the goals asked of it.

    It keeps the normal form of the premise's conjuncts, each disjunction's
    normal form and edges, the connected components of the conjuncts'
    variables, and a difference graph holding the conjuncts' edges: a
    feasible potential, or the number of edges after which they closed a
    negative cycle.  A goal's edges are added on top and taken off again,
    so the graph is back at the premise for the next goal.  ``graph`` is
    None when the premise is not difference logic.  ``fm``, the conjuncts'
    equalities solved, is built for the first goal that needs it, and so is
    ``model``, values that satisfy a premise of difference logic throughout
    (a goal it falsifies needs no search); both are dropped on extension."""

    def __init__(self, premise: Formula):
        self.graph: Optional[_DifferenceGraph] = _DifferenceGraph()
        self.disjunctions = []
        for clause in premise.disjunctions():
            splits = _normalize((), (clause,))[1]
            self.disjunctions.append(_Disjunction(
                frozenset(v for a in clause for v in a.vars()), frozenset(),
                splits, self.graph.alternatives(splits)))
        self.normal = ([], [])
        self.alternatives: list = []  # the premise's ``!=`` splits' edges
        self.groups: Dict[SymVar, list] = {}
        # Effort the conjuncts' edges cost: up to and including the edge
        # that closed a negative cycle, if one did.
        self.cost = 0
        self.closed = False
        self.formula = Formula()
        self.extend(premise)

    def extend(self, premise: Formula) -> None:
        """Compile ``premise`` in place: the compiled formula followed by
        unit clauses, or any formula when this one is new."""
        atoms = [c[0] for c in premise.clauses[len(self.formula.clauses):]
                 if len(c) == 1]
        self.formula = premise
        self.fm: Optional[_Solved] = None
        self.model: Optional[Dict[SymVar, int]] = None
        self.searched = False
        _join(self.groups, atoms)
        self.disjunctions = [d._replace(keys=frozenset(map(self._key, d.vars)))
                             for d in self.disjunctions]
        added = None if self.normal is None else _normalize(atoms, ())
        if added is None:
            self.normal = self.graph = None
            return
        self.normal = (self.normal[0] + added[0], self.normal[1] + added[1])
        edges = self.graph and self.graph.encode(added[0])
        alternatives = self.graph and self.graph.alternatives(added[1])
        if edges is None or alternatives is None:
            self.graph = None
            return
        self.alternatives += alternatives
        for e in edges:
            if self.closed:
                break
            self.cost += 1
            self.closed = self.graph.add(*e) is not None
        self.graph.trail.clear()  # the conjuncts' edges stay

    def _key(self, v: SymVar) -> SymVar:
        """One variable of ``v``'s connected component."""
        group = self.groups.get(v)
        return v if group is None else group[0]

    def relevant(self, goal_vars: set) -> list:
        """The disjunctions connected to the goal by shared variables, in
        order; every disjunction for a ground goal (e.g. unsatisfiability
        checks).  Dropping a premise clause only weakens the premise, so
        this filter is sound; it avoids case splits on unrelated
        disjunctions."""
        if not goal_vars:
            return self.disjunctions
        keys = set(map(self._key, goal_vars))
        return [d for d in self.disjunctions if not keys.isdisjoint(d.keys)]

    def _search_model(self, effort: int) -> Optional[Dict[SymVar, int]]:
        """The first consistent leaf of the split over the ``!=`` splits and
        every disjunction, as a value per variable; a node that no premise
        atom touches, or none, reads as potential 0, as in a fresh graph."""
        graph = self.graph
        if graph is None or self.closed or any(
                d.alternatives is None for d in self.disjunctions):
            return None
        branches = [a for d in self.disjunctions for a in d.alternatives]
        graph.refute([], self.alternatives + branches, _Budget(effort))
        pi, index = graph.leaf, graph.index
        return pi and {v: (pi[index[v]] if v in index else 0) - pi[0]
                       for v in itertools.chain(self.groups, *(
                           d.vars for d in self.disjunctions))}

    def refutes(self, goal: Clause, budget: _Budget) -> bool:
        """True iff the premise, the negation of ``goal`` and the relevant
        disjunctions are provably unsat.  A difference-logic query is
        decided on the graph; any other goes whole to Fourier-Motzkin."""
        if self.normal is None:
            return True
        if not self.searched:  # with a budget of its own, of this one's size
            self.searched, self.model = True, self._search_model(budget.left)
        model = self.model
        if model is not None and all(
                v in model for a in goal for v in a.vars()) and not any(
                a.evaluate(model) for a in goal):
            return False
        negated = _normalize([_negate_atom(a) for a in goal], ())
        if negated is None:
            return True
        kept, splits = self.normal
        goal_kept, goal_splits = negated
        selected = self.relevant({v for a in goal for v in a.vars()})
        graph = self.graph
        if graph is not None and all(d.alternatives is not None
                                     for d in selected):
            edges = graph.encode(goal_kept)
            alternatives = graph.alternatives(goal_splits)
            if edges is not None and alternatives is not None:
                if not budget.spend(self.cost):
                    return False
                return self.closed or graph.refute(
                    edges, self.alternatives + alternatives
                    + [a for d in selected for a in d.alternatives], budget)
        clauses = splits + goal_splits + [c for d in selected for c in d.splits]
        fm = self.fm = self.fm or _solve(kept)
        if fm.spent > budget.left:
            # The premise's equalities alone run out of effort.
            return _refute_fm(kept + goal_kept, clauses, budget)
        return _refute_from(fm, goal_kept, clauses, budget)


class Entailment:
    """Entailment engine with memoization; the context of one analysis,
    whose fresh variables it issues."""

    def __init__(self, effort: int = 10_000):
        self.effort = effort
        self._ids = itertools.count(1)
        # One copy of each immutable tuple the analysis keeps, filed by
        # ``setdefault``: the state formulas' clauses, the cached
        # conclusions and the replay plans' parts.  Tuples of two kinds
        # never compare equal: somewhere in them, their items differ in type.
        self.shared: Dict[tuple, tuple] = {}
        # The verdicts per premise, then per conclusion's clauses.
        self._cache: Dict[Formula, Dict[Tuple[Clause, ...], Verdict]] = {}
        # absdom.state_formula's results, per memory (absdom.Memory).
        self.state_formulas: Dict[object, Formula] = {}
        # concrete.represents's compiled states.
        self.state_plans: Dict[object, object] = {}
        self.queries = 0
        self.exhausted = 0  # refutations cut off by the effort bound
        # The premises of the last refutations, compiled, the latest first:
        # consecutive queries mostly share a premise or extend the latest.
        self._premises: list = []

    def fresh(self, hint: str = "v") -> SymVar:
        """A new variable; ids count up from 1 within this engine."""
        return SymVar(next(self._ids), hint)

    def holds(self, premise: Formula, *parts: Union[Atom, Clause, Formula]
              ) -> bool:
        """Is the conjunction of ``parts`` provably implied by ``premise``?"""
        return self.entails(premise, Formula.of(*parts)) is Verdict.VALID

    def entails(self, premise: Formula, conclusion: Formula) -> Verdict:
        answers = self._cache.get(premise)
        if answers is None:
            answers = self._cache[premise] = {}
        key = conclusion.clauses
        hit = answers.get(key)
        if hit is not None:
            return hit
        self.queries += 1
        verdict = self._entails_uncached(premise, conclusion)
        answers[self.shared.setdefault(key, key)] = verdict
        return verdict

    def _entails_uncached(self, premise: Formula, conclusion: Formula) -> Verdict:
        for clause in conclusion.clauses:
            budget = _Budget(self.effort)
            if not self._compiled(premise).refutes(clause, budget):
                if budget.left < 0:
                    self.exhausted += 1
                    log.warning("entailment effort %d exhausted; answering "
                                "not proven", self.effort)
                return Verdict.NOT_PROVEN
        return Verdict.VALID

    def _compiled(self, premise: Formula) -> _Premise:
        """``premise`` compiled: one of the two held, the latest extended by
        the unit clauses ``premise`` appends to it, or a new one."""
        held = self._premises
        for compiled in held:
            if compiled.formula == premise:
                if compiled is not held[0]:
                    held.reverse()
                return compiled
        if held:
            n = len(held[0].formula.clauses)
            if (premise.clauses[:n] == held[0].formula.clauses
                    and all(len(c) == 1 for c in premise.clauses[n:])):
                held[0].extend(premise)
                return held[0]
        self._premises = [_Premise(premise)] + held[:1]
        return self._premises[0]
