"""Integer transition systems extracted from graph cycles.

Every cycle of a complete symbolic execution graph is turned into integer
transitions: chains of non-branching evaluation/refinement edges compose
into one transition whose guard collects the accumulated arithmetic
knowledge, and each generalization edge becomes a transition whose update
renames variables through the recorded instantiation.  Termination of the
whole program follows when every strongly connected component admits a
verified affine ranking function.  The system is exported as SMT-LIB Horn
clauses and read back from them; no other module prints or parses SMT-LIB.
"""

from __future__ import annotations

from typing import (Dict, Iterator, List, Mapping, Optional, Sequence, Set,
                    Tuple)

from .absdom import AbstractState, state_formula
from .ir import Fields, Record
from .logic import (EQ, NE, Atom, Clause, Entailment, Formula, SymVar, Term,
                    dense_renaming)
from .seg import COMPLETE, GENERALIZATION, Seg


class Location(Record):
    node: int
    vars: Tuple[SymVar, ...]


class Transition(Record):
    src: int
    dst: int
    guard: Formula
    # dst-location variable -> term over src-scope variables; identity
    # entries are included explicitly.
    update: Tuple[Tuple[SymVar, Term], ...]
    closing: bool  # realizes a generalization (back) edge

    def update_map(self) -> Dict[SymVar, Term]:
        return dict(self.update)


class ITS(Fields):
    """An integer transition system: locations by graph node, and
    transitions between them."""

    locations: Dict[int, Location]
    transitions: List[Transition]

    def __init__(self, locations: Optional[Dict[int, Location]] = None,
                 transitions: Optional[List[Transition]] = None) -> None:
        self.locations = {} if locations is None else locations
        self.transitions = [] if transitions is None else transitions


class RankCertificate(Record):
    scc: Tuple[int, ...]
    rank: Term
    decrease: Tuple[Atom, ...]  # proved per closing transition
    bound: Tuple[Atom, ...]


class TerminationResult(Record):
    terminating: bool
    certificates: Tuple[RankCertificate, ...]
    reason: str = ""


def _location_vars(s: AbstractState) -> Tuple[SymVar, ...]:
    """Variables carried into the transition system: program-variable
    images plus list-summary parameters."""
    out: Dict[SymVar, None] = {}
    for _, v in s.lv:
        if isinstance(v, SymVar):
            out[v] = None
    for l in s.li:
        for v in [l.ad, l.length] + [x for fl in l.fields
                                     for x in (fl.first, fl.last)]:
            if isinstance(v, SymVar):
                out[v] = None
    return tuple(sorted(out))


def _sccs(nodes: Sequence[int], succ: Dict[int, List[int]]) -> List[List[int]]:
    """Tarjan's algorithm, iterative, deterministic order."""
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    out: List[List[int]] = []

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succ.get(root, ())))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ.get(w, ()))))
                    advanced = True
                    break
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(sorted(comp))
    return out


def _cycle_nodes(seg: Seg) -> Set[int]:
    succ: Dict[int, List[int]] = {}
    for e in seg.edges:
        succ.setdefault(e.src, []).append(e.dst)
    for v in succ:
        succ[v].sort()
    return {n for comp in _sccs(range(len(seg.states)), succ)
            if len(comp) > 1 for n in comp}


def extract_its(seg: Seg, engine: Entailment) -> ITS:
    """Translate the cycles of a complete graph into integer transitions.

    The graph is one that ``build_seg`` made: each evaluation or refinement
    edge leads to a node created for it, so every cycle passes a
    generalization edge, whose ends are locations, and no node loops to
    itself.
    """
    if seg.outcome != COMPLETE:
        raise ValueError("transition extraction needs a complete graph")
    cyc = _cycle_nodes(seg)
    its = ITS()
    if not cyc:
        return its

    cyc_edges = [e for e in seg.edges if e.src in cyc and e.dst in cyc]
    out_deg: Dict[int, int] = {}
    in_deg: Dict[int, int] = {}
    for e in cyc_edges:
        out_deg[e.src] = out_deg.get(e.src, 0) + 1
        in_deg[e.dst] = in_deg.get(e.dst, 0) + 1

    locations: Set[int] = set()
    for e in cyc_edges:
        if e.kind == GENERALIZATION:
            locations.add(e.src)
            locations.add(e.dst)
    for n in cyc:
        if out_deg.get(n, 0) > 1 or in_deg.get(n, 0) > 1:
            locations.add(n)

    for n in sorted(locations):
        its.locations[n] = Location(n, _location_vars(seg.states[n]))

    edges_from: Dict[int, List] = {}
    for e in cyc_edges:
        edges_from.setdefault(e.src, []).append(e)

    for start in sorted(locations):
        for first in edges_from.get(start, []):
            if first.kind == GENERALIZATION:
                mu = first.inst_map()
                guard = Formula.conj(
                    state_formula(seg.states[start], engine).atoms())
                update = tuple(
                    (x, Term.of(mu[x]))
                    for x in its.locations[first.dst].vars if x in mu)
                its.transitions.append(Transition(
                    start, first.dst, guard, update, closing=True))
                continue
            # Compose the chain of evaluation/refinement edges up to the next
            # location: a node that is not a location has exactly one cycle
            # edge out, and it is not a generalization edge.
            cur = first.dst
            while cur not in locations:
                cur = edges_from[cur][0].dst
            guard = Formula.conj(state_formula(seg.states[cur], engine).atoms())
            # Symbolic variables persist along evaluation chains, so the
            # update is the identity; the guard relates old and new values.
            update = tuple((x, Term.of(x)) for x in its.locations[cur].vars)
            its.transitions.append(Transition(
                start, cur, guard, update, closing=False))
    return its


# --------------------------------------------------------------------------
# Termination proving
# --------------------------------------------------------------------------

def _candidate_ranks(vars_: Sequence[SymVar]) -> Iterator[Term]:
    """Each variable, then each ordered difference of two, built as the
    search reaches it."""
    for v in vars_:
        yield Term.of(v)
    for i, x in enumerate(vars_):
        for y in vars_[i + 1:]:
            yield Term.of(x) - Term.of(y)
            yield Term.of(y) - Term.of(x)


def prove_termination(its: ITS, engine: Entailment) -> TerminationResult:
    """Affine ranking per strongly connected component: the rank must be
    bounded below and decrease by at least one across every closing
    transition of the component.  Non-closing transitions keep variables
    fixed by construction, so the closing checks carry the proof."""
    if not its.transitions:
        return TerminationResult(True, ())

    succ: Dict[int, List[int]] = {}
    for t in its.transitions:
        succ.setdefault(t.src, []).append(t.dst)
    nodes = sorted(its.locations)
    certs: List[RankCertificate] = []
    for comp in _sccs(nodes, succ):
        comp_set = set(comp)
        closing = [t for t in its.transitions
                   if t.closing and t.src in comp_set and t.dst in comp_set]
        internal = [t for t in its.transitions
                    if t.src in comp_set and t.dst in comp_set]
        if not internal:
            continue
        if not closing:
            # A cycle made only of non-branching identity chains never
            # changes its variables: no rank can decrease.
            return TerminationResult(False, tuple(certs),
                                     "cycle without a decreasing update")
        header_vars: List[SymVar] = []
        for t in closing:
            for v in its.locations[t.dst].vars:
                if v not in header_vars:
                    header_vars.append(v)
        checks = [(t, t.update_map()) for t in closing]
        found = None
        for cand in _candidate_ranks(header_vars):
            decrease: List[Atom] = []
            bound: List[Atom] = []
            ok = True
            for t, upd in checks:
                if any(v not in upd for v in cand.vars()):
                    ok = False
                    break
                post = cand.substitute(upd)
                dec = Atom.ge(cand - post, 1)
                bnd = Atom.ge(cand, 0)
                if not (engine.holds(t.guard, dec)
                        and engine.holds(t.guard, bnd)):
                    ok = False
                    break
                decrease.append(dec)
                bound.append(bnd)
            if ok:
                found = RankCertificate(tuple(comp), cand,
                                        tuple(decrease), tuple(bound))
                break
        if found is None:
            return TerminationResult(False, tuple(certs),
                                     "no affine rank found")
        certs.append(found)
    return TerminationResult(True, tuple(certs))


# --------------------------------------------------------------------------
# SMT-LIB export / import
# --------------------------------------------------------------------------

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


def _canonical_names(its: ITS) -> Dict[SymVar, str]:
    """The export's names: the locations' variables, then per transition
    its guard's and its update's, numbered by :func:`dense_renaming`."""
    def order():
        for n in sorted(its.locations):
            yield from its.locations[n].vars
        for t in its.transitions:
            yield from t.guard.vars()
            for x, term in t.update:
                yield x
                yield from term.vars()

    return {v: w.name for v, w in dense_renaming(order()).items()}


def export_its(its: ITS) -> str:
    """Deterministic Horn-clause text; one rule per transition."""
    names = _canonical_names(its)
    lines = ["(set-logic HORN)"]
    for n in sorted(its.locations):
        loc = its.locations[n]
        args = " ".join("Int" for _ in loc.vars) or ""
        lines.append(f"(declare-rel L{n} ({args}))")
    for v in sorted(names, key=lambda v: names[v]):
        lines.append(f"(declare-var {names[v]} Int)")
    primed: Dict[SymVar, str] = {}
    for t in its.transitions:
        for x, _ in t.update:
            if x not in primed:
                primed[x] = f"{names[x]}p"
    for v, nm in sorted(primed.items(), key=lambda kv: kv[1]):
        lines.append(f"(declare-var {nm} Int)")
    for t in its.transitions:
        src_loc = its.locations[t.src]
        dst_loc = its.locations[t.dst]
        body = [clause_sexpr(clause, names) for clause in t.guard.clauses]
        upd = t.update_map()
        for x in dst_loc.vars:
            if x in upd:
                body.append(f"(= {primed[x]} {term_sexpr(upd[x], names)})")
        body.append(f"(L{t.src} " + " ".join(
            names[v] for v in src_loc.vars) + ")")
        head_args = " ".join(primed[x] if x in upd else names[x]
                             for x in dst_loc.vars)
        lines.append("(rule (=> (and " + " ".join(body) + ") "
                     f"(L{t.dst} {head_args})))")
    return "\n".join(lines) + "\n"


def _tokenize(text: str) -> List[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_sexprs(tokens: List[str]):
    out = []
    stack = [out]
    for tok in tokens:
        if tok == "(":
            new: list = []
            stack[-1].append(new)
            stack.append(new)
        elif tok == ")":
            stack.pop()
        else:
            stack[-1].append(tok)
    return out


def parse_its_text(text: str) -> dict:
    """Read the exported Horn text back into a comparable structure:
    relation arities plus one entry per rule with source/target relation,
    guard atom count, and update equation count."""
    forms = _parse_sexprs(_tokenize(text))
    rels: Dict[str, int] = {}
    rules = []
    for form in forms:
        if not isinstance(form, list) or not form:
            continue
        if form[0] == "declare-rel":
            rels[form[1]] = len(form[2])
        elif form[0] == "rule":
            impl = form[1]
            assert impl[0] == "=>"
            body, head = impl[1], impl[2]
            assert body[0] == "and"
            parts = body[1:]
            src = next(p[0] for p in parts
                       if isinstance(p, list) and p[0].startswith("L"))
            updates = sum(1 for p in parts
                          if isinstance(p, list) and p[0] == "="
                          and isinstance(p[1], str) and p[1].endswith("p"))
            guards = sum(1 for p in parts
                         if isinstance(p, list) and not p[0].startswith("L")
                         ) - updates
            rules.append({"src": src, "dst": head[0],
                          "guards": guards, "updates": updates,
                          "head_arity": len(head) - 1})
    return {"relations": rels, "rules": rules}
