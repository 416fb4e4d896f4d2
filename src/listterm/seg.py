"""Symbolic execution graph construction.

The driver explores abstract states from the program entry.  At block-entry
positions it first tries to close a loop with a generalization edge to an
already-seen state (witnessed by an instantiation of the older state's
variables), then to merge with a previous arrival, inferring list summaries
from corresponding concrete chains.  A staged widening schedule plus node
and merge caps guarantee the construction finishes with one of three
outcomes: a complete graph, a graph containing the error state, or an
incomplete graph (resource bound hit).
"""

from __future__ import annotations

import itertools
import json
from collections import Counter, deque
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from . import ir
from .absdom import (
    AbstractState,
    Allocation,
    ErrState,
    LIField,
    ListInvariant,
    PointsTo,
    StateOrErr,
    Value,
    alpha_rename,
    is_satisfiable,
    rename_value,
    state_formula,
    value_key,
)
from .ir import AggType, Fields, Program, Record, type_size
from .logic import (Atom, Entailment, Formula, SymVar, Term, dense_renaming,
                    rename_formula)
from .symexec import EVALUATION, REFINEMENT, is_return, step

GENERALIZATION = "generalization"

COMPLETE = "complete"
CONTAINS_ERR = "err"
INCOMPLETE = "incomplete"


class Edge(NamedTuple):
    src: int
    dst: int
    kind: str
    instantiation: Optional[Tuple[Tuple[SymVar, Value], ...]] = None

    def inst_map(self) -> Dict[SymVar, Value]:
        return dict(self.instantiation or ())


class Seg(Fields):
    """A symbolic execution graph: its states, edges, root and outcome."""

    states: List[StateOrErr]
    edges: List[Edge]
    root: int
    outcome: str

    def __init__(self, states: Optional[List[StateOrErr]] = None,
                 edges: Optional[List[Edge]] = None, root: int = 0,
                 outcome: str = INCOMPLETE) -> None:
        self.states = [] if states is None else states
        self.edges = [] if edges is None else edges
        self.root = root
        self.outcome = outcome

    def add_state(self, s: StateOrErr) -> int:
        self.states.append(s)
        return len(self.states) - 1

    def add_edge(self, src: int, dst: int, kind: str,
                 inst: Optional[Dict[SymVar, Value]] = None) -> None:
        packed = tuple(sorted(inst.items())) if inst is not None else None
        self.edges.append(Edge(src, dst, kind, packed))


# --------------------------------------------------------------------------
# Concrete list detection
# --------------------------------------------------------------------------

class ListMatch(Record):
    ty: AggType
    length: int
    starts: Tuple[SymVar, ...]          # allocation start per element
    ends: Tuple[SymVar, ...]
    values: Tuple[Tuple[Value, ...], ...]  # per element, per field
    entries: Tuple[Tuple[PointsTo, ...], ...]  # matched PT entries

    @property
    def firsts(self) -> Tuple[Value, ...]:
        return self.values[0]

    @property
    def lasts(self) -> Tuple[Value, ...]:
        return self.values[-1]


def find_list(s: AbstractState, start: Value, ty: AggType, prog: Program,
              engine: Entailment) -> Optional[ListMatch]:
    """Maximal concrete chain of ``ty`` nodes beginning at ``start``:
    per node a full-size allocation with a points-to entry per field, linked
    through the recursive field."""
    agg = prog.layout[ty.name]
    if agg.rec_index is None:
        return None
    f = state_formula(s, engine)
    closure = engine.offsets(f)
    starts: List[SymVar] = []
    ends: List[SymVar] = []
    values: List[Tuple[Value, ...]] = []
    entries: List[Tuple[PointsTo, ...]] = []
    used = set()
    current: Value = start
    while True:
        alloc = next(
            (a for a in s.al if a not in used
             and closure.diff(a.hi, a.lo) == agg.size - 1
             and engine.holds(f, Atom.eq(current, a.lo))),
            None)
        if alloc is None:
            break
        node_vals: List[Value] = []
        node_entries: List[PointsTo] = []
        ok = True
        for fty, off in zip(agg.fields, agg.offsets):
            entry = next(
                (p for p in s.pt if p.ty == fty
                 and closure.diff(p.addr, alloc.lo) == off), None)
            if entry is None:
                ok = False
                break
            node_vals.append(entry.value)
            node_entries.append(entry)
        if not ok:
            break
        used.add(alloc)
        starts.append(alloc.lo)
        ends.append(alloc.hi)
        values.append(tuple(node_vals))
        entries.append(tuple(node_entries))
        current = node_vals[agg.rec_index - 1]
        if isinstance(current, int) and current == 0:
            break
    if not starts:
        return None
    return ListMatch(ty, len(starts), tuple(starts), tuple(ends),
                     tuple(values), tuple(entries))


def _describe_list(s: AbstractState, root: Value, ty: AggType, prog: Program,
                   engine: Entailment
                   ) -> Optional[Union[ListInvariant, ListMatch]]:
    """The ``ty`` list at ``root``: its summary, else its maximal concrete
    chain, else None."""
    f = state_formula(s, engine)
    for l in s.li:
        if l.ty == ty and engine.holds(f, Atom.eq(root, l.ad)):
            return l
    return find_list(s, root, ty, prog, engine)


def _has_concrete_head_pointer(s: AbstractState, l: ListInvariant,
                               prog: Program, engine: Entailment) -> bool:
    """Does a concrete node's chain field point at the summary's root?"""
    size = type_size(l.ty, prog.layout)
    off_j = l.rec_field.off
    f = state_formula(s, engine)
    closure = engine.offsets(f)
    for alloc in s.al:
        if closure.diff(alloc.hi, alloc.lo) != size - 1:
            continue
        for p in s.pt:
            if closure.diff(p.addr, alloc.lo) == off_j and \
                    engine.holds(f, Atom.eq(p.value, l.ad)):
                return True
    return False


# --------------------------------------------------------------------------
# Merging
# --------------------------------------------------------------------------

def can_merge(s: AbstractState, s2: AbstractState, prog: Program,
              engine: Entailment) -> bool:
    """Merging needs equal variable domains and structurally compatible
    summaries: a summary with a concrete node feeding its head cannot merge
    with one whose matching summary has no such node."""
    if set(dict(s.lv)) != set(dict(s2.lv)):
        return False
    by_ty = {}
    for st, idx in ((s, 0), (s2, 1)):
        for l in st.li:
            by_ty.setdefault(l.ty.name, ([], []))[idx].append(l)
    for tyname, (ls, ls2) in by_ty.items():
        if len(ls) != len(ls2):
            return False
        flags = sorted(_has_concrete_head_pointer(s, l, prog, engine)
                       for l in ls)
        flags2 = sorted(_has_concrete_head_pointer(s2, l, prog, engine)
                        for l in ls2)
        if flags != flags2:
            return False
    return True


class _Merger:
    """State shared while merging two same-position states."""

    def __init__(self, s: AbstractState, s2: AbstractState,
                 engine: Entailment):
        self.engine = engine
        self.f1 = state_formula(s, engine)
        self.f2 = state_formula(s2, engine)
        self.cl1 = engine.offsets(self.f1)
        self.cl2 = engine.offsets(self.f2)
        self.pairs: List[Tuple[Value, Value, Value]] = []  # (img1, img2, merged)
        self.pair_index: Dict[Tuple, Value] = {}
        self.mu1: Dict[SymVar, Value] = {}
        self.mu2: Dict[SymVar, Value] = {}

    def pair(self, v1: Value, v2: Value, hint: str,
             force_var: bool = False) -> Value:
        key = (value_key(v1), value_key(v2))
        hit = self.pair_index.get(key)
        if hit is not None:
            return hit
        if isinstance(v1, int) and isinstance(v2, int) and v1 == v2 \
                and not force_var:
            merged: Value = v1
        else:
            merged = self.engine.fresh(hint)
            self.mu1[merged] = v1
            self.mu2[merged] = v2
        self.pair_index[key] = merged
        self.pairs.append((v1, v2, merged))
        return merged

    def counterpart(self, a1: Value, candidates: List[Tuple[Value, object]]
                    ) -> Optional[Tuple[SymVar, object]]:
        """``(m, item)`` for the first ``(a2, item)`` of ``candidates`` for
        which an existing merged variable ``m`` has images provably equal
        to ``a1`` and ``a2``."""
        for a2, item in candidates:
            for v1, v2, m in self.pairs:
                if isinstance(m, SymVar) and \
                        self.engine.holds(self.f1, Atom.eq(a1, v1)) and \
                        self.engine.holds(self.f2, Atom.eq(a2, v2)):
                    return m, item
        return None


def merge_states(s: AbstractState, s2: AbstractState, prog: Program,
                 engine: Entailment, widen_stage: int = 0
                 ) -> Tuple[AbstractState, Dict[SymVar, Value],
                            Dict[SymVar, Value]]:
    """Merge two states at the same position into a common generalization.

    Returns the merged state plus the two instantiations mapping merged
    variables back to each input.  ``widen_stage`` 0 keeps all inferable
    knowledge-base atoms; 1 restricts to small-offset difference atoms
    (allocation extents exempt); 2 keeps only structural atoms.
    """
    assert s.pos == s2.pos
    M = _Merger(s, s2, engine)

    # 1. Program variables anchor the correspondence.
    lv = {x: M.pair(s.lv_of(x), s2.lv_of(x), x) for x in sorted(dict(s.lv))}

    # 2. Close over memory components until no new pairs appear.  Each maps
    # a component of ``s`` to its counterpart in ``s2`` and the merged one.
    # A round that adds a pair has merged a new component, so this ends.
    merged_al: Dict[Allocation, Tuple[Allocation, Allocation]] = {}
    merged_pt: Dict[PointsTo, Tuple[PointsTo, PointsTo]] = {}
    before = None
    while len(M.pairs) != before:
        before = len(M.pairs)
        for a1 in s.al:
            hit = None if a1 in merged_al else M.counterpart(
                a1.lo, [(a2.lo, a2) for a2 in s2.al])
            if hit is not None:
                m_lo, a2 = hit
                m_hi = M.pair(a1.hi, a2.hi, m_lo.hint + "_end")
                merged_al[a1] = (a2, Allocation(m_lo, m_hi))
        for p1 in s.pt:
            hit = None if p1 in merged_pt else M.counterpart(
                p1.addr, [(p2.addr, p2) for p2 in s2.pt if p2.ty == p1.ty])
            if hit is not None:
                m_addr, p2 = hit
                m_val = M.pair(p1.value, p2.value, "val")
                merged_pt[p1] = (p2, PointsTo(m_addr, p1.ty, m_val))

    # 3. Lists: summarize corresponding summaries or concrete chains.  Each
    # side collects the concrete chains it gives up to a summary.
    merged_li: List[ListInvariant] = []
    kb_atoms: List[Atom] = []
    chains: Tuple[List[ListMatch], List[ListMatch]] = ([], [])
    list_types = [(AggType(name), agg) for name, agg in prog.layout.items()
                  if agg.rec_index is not None]
    for v1, v2, m in list(M.pairs):
        if not isinstance(m, SymVar):
            continue
        for ty, agg in list_types:
            d1 = _describe_list(s, v1, ty, prog, engine)
            if d1 is None:
                continue
            d2 = _describe_list(s2, v2, ty, prog, engine)
            if d2 is None:
                continue
            # Avoid re-summarizing a suffix of an already summarized chain.
            if any(isinstance(d, ListMatch) and
                   any(x in c.starts for c in cs for x in d.starts)
                   for d, cs in zip((d1, d2), chains)):
                continue
            x_len = M.pair(d1.length, d2.length, "len", force_var=True)
            li_fields = []
            for fty, off, a, b, c, d in zip(agg.fields, agg.offsets, d1.firsts,
                                            d2.firsts, d1.lasts, d2.lasts):
                li_fields.append(LIField(off, fty, M.pair(a, b, "fst"),
                                         M.pair(c, d, "lst")))
            merged_li.append(ListInvariant(
                ad=m, length=x_len, ty=ty, fields=tuple(li_fields),
                rec_index=agg.rec_index))
            # A summary has at least one node, a chain exactly its length.
            lower = min(d.length if isinstance(d, ListMatch) else 1
                        for d in (d1, d2))
            kb_atoms.append(Atom.ge(x_len, lower))
            for d, cs in zip((d1, d2), chains):
                if isinstance(d, ListMatch):
                    cs.append(d)
            break

    # The summarized nodes leave AL and PT, and so does every other entry
    # that is not provably outside them.
    def outside_nodes(f: Formula, p: PointsTo, cs: List[ListMatch]) -> bool:
        return all(_outside(f, engine, p.addr, lo, hi)
                   for c in cs for lo, hi in zip(c.starts, c.ends))

    starts = [{x for c in cs for x in c.starts} for cs in chains]
    entries = [{p for c in cs for node in c.entries for p in node}
               for cs in chains]
    kept_al = [mm for a1, (a2, mm) in merged_al.items()
               if a1.lo not in starts[0] and a2.lo not in starts[1]]
    kept_pt = [mm for p1, (p2, mm) in merged_pt.items()
               if p1 not in entries[0] and p2 not in entries[1]
               and outside_nodes(M.f1, p1, chains[0])
               and outside_nodes(M.f2, p2, chains[1])]

    # 4. Knowledge base: atoms provable in both inputs under the images.
    # Only variables that occur in a component of the merged state matter;
    # anything else could never be bound by a later instantiation search.
    shape = AbstractState.make(s.pos, lv=lv, al=kept_al, pt=kept_pt,
                               li=merged_li)
    merged_vars = shape.sym_vars
    al_end_pairs = {(a.lo, a.hi) for a in shape.al}

    def keep_diff(x, y, d) -> bool:
        if widen_stage >= 2:
            return (x, y) in al_end_pairs or (y, x) in al_end_pairs
        if widen_stage == 1:
            return abs(d) <= 1 or (x, y) in al_end_pairs \
                or (y, x) in al_end_pairs
        return True

    for i, x in enumerate(merged_vars):
        cx1 = M.cl1.const(M.mu1[x])
        cx2 = M.cl2.const(M.mu2[x])
        if cx1 is not None and cx1 == cx2 and \
                (widen_stage == 0 or (widen_stage == 1 and cx1 in (0, 1))):
            kb_atoms.append(Atom.eq(x, cx1))
        for y in merged_vars[i + 1:]:
            d1 = M.cl1.diff(M.mu1[x], M.mu1[y])
            if d1 is None:
                continue
            d2 = M.cl2.diff(M.mu2[x], M.mu2[y])
            if d1 == d2 and keep_diff(x, y, d1):
                kb_atoms.append(Atom.eq(Term.of(x), Term.of(y) + d1))

    if widen_stage < 2:
        for x in merged_vars:
            c1 = M.cl1.const(M.mu1[x])
            if c1 is not None:
                continue  # equalities already capture constants
            if engine.holds(M.f1, Atom.ge(M.mu1[x], 1)) and \
                    engine.holds(M.f2, Atom.ge(M.mu2[x], 1)):
                kb_atoms.append(Atom.ge(x, 1))
            elif engine.holds(M.f1, Atom.ge(M.mu1[x], 0)) and \
                    engine.holds(M.f2, Atom.ge(M.mu2[x], 0)):
                kb_atoms.append(Atom.ge(x, 0))

    merged = shape.replace_components(kb=Formula.conj(dict.fromkeys(kb_atoms)))
    return merged, M.mu1, M.mu2


def _outside(f: Formula, engine: Entailment, addr: Value, lo: Value,
             hi: Value) -> bool:
    """``addr`` provably lies outside ``[lo, hi]`` under ``f``."""
    return engine.holds(f, (Atom.lt(addr, lo), Atom.gt(addr, hi)))


# --------------------------------------------------------------------------
# Generalization checking and instantiation search
# --------------------------------------------------------------------------

def check_generalization(s: AbstractState, sbar: AbstractState,
                         mu: Dict[SymVar, Value], prog: Program,
                         engine: Entailment) -> bool:
    """Conditions (beyond edge provenance, which the driver tracks): the
    variable maps correspond under ``mu``, the older state's knowledge base
    follows from the newer state's formula, and every memory component of
    the older state has a provable image in the newer one."""
    if s.pos != sbar.pos:
        return False
    if set(dict(s.lv)) != set(dict(sbar.lv)):
        return False

    def img(v: Value) -> Optional[Value]:
        if isinstance(v, int):
            return v
        return mu.get(v)

    for x, vbar in sbar.lv:
        if img(vbar) is None or img(vbar) != dict(s.lv)[x]:
            return False

    if any(v not in mu for v in sbar.sym_vars):
        return False

    f = state_formula(s, engine)
    if not engine.holds(f, rename_formula(sbar.kb, mu)):
        return False

    for abar in sbar.al:
        if not any(engine.holds(f, Atom.eq(a.lo, img(abar.lo)))
                   and engine.holds(f, Atom.eq(a.hi, img(abar.hi)))
                   for a in s.al):
            return False

    for pbar in sbar.pt:
        if not any(p.ty == pbar.ty
                   and engine.holds(f, Atom.eq(p.addr, img(pbar.addr)))
                   and engine.holds(f, Atom.eq(p.value, img(pbar.value)))
                   for p in s.pt):
            return False

    for lbar in sbar.li:
        hit = False
        for l in s.li:
            if l.ty != lbar.ty:
                continue
            if engine.holds(f, Atom.eq(l.ad, img(lbar.ad))) and \
                    engine.holds(f, Atom.eq(l.length, img(lbar.length))) and \
                    all(engine.holds(f, Atom.eq(fl.first, img(fb.first)))
                        and engine.holds(f, Atom.eq(fl.last, img(fb.last)))
                        for fl, fb in zip(l.fields, lbar.fields)):
                hit = True
                break
        if hit:
            continue
        match = find_list(s, img(lbar.ad), lbar.ty, prog, engine)
        if match is None:
            return False
        if not engine.holds(f, Atom.eq(match.length, img(lbar.length))):
            return False
        if not all(engine.holds(f, Atom.eq(v, img(vbar)))
                   for v, vbar in zip(match.firsts + match.lasts,
                                      lbar.firsts + lbar.lasts)):
            return False
        # Every points-to entry surviving in the older state must be
        # provably outside the materialized chain's footprint.
        if not all(_outside(f, engine, img(pbar.addr), lo, hi)
                   for pbar in sbar.pt
                   for lo, hi in zip(match.starts, match.ends)):
            return False
    return True


def find_instantiation(s: AbstractState, sbar: AbstractState, prog: Program,
                       engine: Entailment) -> Optional[Dict[SymVar, Value]]:
    """Construct and validate an instantiation showing ``sbar`` generalizes
    ``s``; deterministic structural search, None when it fails."""
    if s.pos != sbar.pos or set(dict(s.lv)) != set(dict(sbar.lv)):
        return None
    mu: Dict[SymVar, Value] = {}
    for x, vbar in sorted(sbar.lv):
        v = dict(s.lv)[x]
        if isinstance(vbar, int):
            if v != vbar:
                return None
            continue
        if vbar in mu:
            if mu[vbar] != v:
                return None
        else:
            mu[vbar] = v

    f = state_formula(s, engine)

    def img(v: Value) -> Optional[Value]:
        return v if isinstance(v, int) else mu.get(v)

    # A round that makes progress binds a new variable of ``sbar``, so the
    # search ends.
    progress = True
    while progress:
        progress = False
        for abar in sbar.al:
            lo_i = img(abar.lo)
            if lo_i is None or img(abar.hi) is not None:
                continue
            for a in s.al:
                if engine.holds(f, Atom.eq(a.lo, lo_i)):
                    mu[abar.hi] = a.hi
                    progress = True
                    break
        for pbar in sbar.pt:
            addr_i = img(pbar.addr)
            if addr_i is None:
                continue
            if isinstance(pbar.value, SymVar) and pbar.value not in mu:
                for p in s.pt:
                    if p.ty == pbar.ty and \
                            engine.holds(f, Atom.eq(p.addr, addr_i)):
                        mu[pbar.value] = p.value
                        progress = True
                        break
        for lbar in sbar.li:
            root_i = img(lbar.ad)
            if root_i is None:
                continue
            bars = (lbar.length, *lbar.firsts, *lbar.lasts)
            if all(v in mu for v in bars if isinstance(v, SymVar)):
                continue
            desc = _describe_list(s, root_i, lbar.ty, prog, engine)
            if desc is None:
                continue
            for vbar, v in zip(bars, (desc.length, *desc.firsts, *desc.lasts)):
                if isinstance(vbar, SymVar) and vbar not in mu:
                    mu[vbar] = v
                    progress = True
        # Constant bindings from the older state's own equalities.
        for a in sbar.kb.atoms():
            if a.rel != "=" or len(a.term.coeffs) != 1:
                continue
            v, c = a.term.coeffs[0]
            if abs(c) == 1 and v not in mu:
                mu[v] = -a.term.const * c
                progress = True

    return mu if check_generalization(s, sbar, mu, prog, engine) else None


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

# Merges at one position before merging widens (stage 1) and before it
# keeps only the shape (stage 2).
WIDEN_AFTER = 3
SHAPE_ONLY_AFTER = 6

# Default caps: graph states, and merges at one position.
MAX_NODES = 10_000
MAX_MERGES = 8


def build_seg(prog: Program, engine: Entailment, *, max_nodes: int = MAX_NODES,
              max_merges: int = MAX_MERGES) -> Seg:
    seg = Seg()
    root_state = AbstractState.make(prog.entry_position)
    seg.add_state(root_state)

    # Merge and loop-closure points: block entries with several control-flow
    # predecessors (loop headers and other joins).  Merging at single-entry
    # blocks would fragment cycles across several generalization steps.
    preds = Counter(tgt for _name, body in prog.blocks
                    for tgt in ir.branch_targets(body[-1]))
    join_blocks = {b for b, n in preds.items() if n >= 2}

    has_eval_in: Dict[int, bool] = {0: True}  # the root counts as grounded
    fresh_merge: Dict[int, bool] = {}
    arrivals: Dict[ir.ProgramPosition, List[int]] = {}
    merge_count: Dict[ir.ProgramPosition, int] = {}
    work = deque([0])
    hit_err = False
    incomplete = False

    def add_succ(src: int, st: StateOrErr, kind: str,
                 inst: Optional[Dict[SymVar, Value]] = None) -> int:
        idx = seg.add_state(st)
        seg.add_edge(src, idx, kind, inst)
        if kind == EVALUATION:
            has_eval_in[idx] = True
        return idx

    while work:
        if len(seg.states) > max_nodes:
            incomplete = True
            break
        node = work.popleft()
        s = seg.states[node]
        if isinstance(s, ErrState):
            hit_err = True
            break
        if not is_satisfiable(s, engine):
            continue  # unreachable branch; a legitimate leaf
        if is_return(s, prog):
            continue

        at_header = s.pos.index == 0 and s.pos.block in join_blocks
        if at_header and not fresh_merge.get(node):
            prior = arrivals.setdefault(s.pos, [])
            if has_eval_in.get(node):
                closed = False
                for old in prior:
                    old_state = seg.states[old]
                    mu = find_instantiation(s, old_state, prog, engine)
                    if mu is not None:
                        seg.add_edge(node, old, GENERALIZATION, mu)
                        closed = True
                        break
                if closed:
                    continue
            partner = None
            for old in reversed(prior):
                old_state = seg.states[old]
                if can_merge(old_state, s, prog, engine):
                    partner = old
                    break
            if partner is not None:
                if merge_count.get(s.pos, 0) >= max_merges:
                    incomplete = True
                    break
                n_merges = merge_count.get(s.pos, 0)
                stage = (2 if n_merges >= SHAPE_ONLY_AFTER
                         else 1 if n_merges >= WIDEN_AFTER else 0)
                merged, mu_old, mu_new = merge_states(
                    seg.states[partner], s, prog, engine, widen_stage=stage)
                merge_count[s.pos] = n_merges + 1
                midx = seg.add_state(merged)
                seg.add_edge(partner, midx, GENERALIZATION, mu_old)
                seg.add_edge(node, midx, GENERALIZATION, mu_new)
                fresh_merge[midx] = True
                prior.append(node)
                arrivals[s.pos].append(midx)
                work.append(midx)
                continue
            prior.append(node)

        result = step(s, prog, engine)
        for succ in result.successors:
            idx = add_succ(node, succ, result.edge_kind)
            work.append(idx)

    if hit_err:
        seg.outcome = CONTAINS_ERR
    elif incomplete:
        seg.outcome = INCOMPLETE
    else:
        seg.outcome = COMPLETE
    return seg


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

def _canonical_renaming(seg: Seg) -> Dict[SymVar, SymVar]:
    """The export's names: the states' variables, then the instantiations',
    numbered by :func:`dense_renaming`."""
    return dense_renaming(itertools.chain(
        (v for st in seg.states if not isinstance(st, ErrState)
         for v in st.sym_vars),
        (x for e in seg.edges for pair in e.instantiation or ()
         for x in pair if isinstance(x, SymVar))))


def _renamed(st: AbstractState, ren: Dict[SymVar, SymVar]) -> AbstractState:
    return alpha_rename(st, {v: ren[v] for v in st.sym_vars})


def to_dot(seg: Seg) -> str:
    ren = _canonical_renaming(seg)
    lines = ["digraph seg {", "  node [shape=box, fontsize=9];"]
    for i, st in enumerate(seg.states):
        label = "ERR" if isinstance(st, ErrState) else str(_renamed(st, ren))
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{i}: {label}"];')
    styles = {EVALUATION: "solid", REFINEMENT: "dashed",
              GENERALIZATION: "bold"}
    for e in seg.edges:
        attrs = [f'style={styles[e.kind]}']
        if e.kind == GENERALIZATION:
            attrs.append('label="gen"')
        elif e.kind == REFINEMENT:
            attrs.append('label="refine"')
        lines.append(f"  n{e.src} -> n{e.dst} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(seg: Seg) -> str:
    ren = _canonical_renaming(seg)
    nodes = []
    for i, st in enumerate(seg.states):
        if isinstance(st, ErrState):
            nodes.append({"id": i, "err": True})
        else:
            nodes.append({"id": i, "err": False, "pos": str(st.pos),
                          "state": str(_renamed(st, ren))})
    edges = []
    for e in seg.edges:
        item = {"src": e.src, "dst": e.dst, "kind": e.kind}
        if e.instantiation is not None:
            item["instantiation"] = {
                str(rename_value(v, ren)): str(rename_value(w, ren))
                for v, w in e.instantiation}
        edges.append(item)
    return json.dumps({"outcome": seg.outcome, "root": seg.root,
                       "nodes": nodes, "edges": edges},
                      indent=2, sort_keys=True) + "\n"
