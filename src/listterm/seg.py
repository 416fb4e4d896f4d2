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

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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
    state_formula,
    value_key,
)
from .ir import AggType, Program, recursive_index, type_size
from .logic import Atom, Entailment, Formula, OffsetClosure, SymVar, Term
from .symexec import EVALUATION, REFINEMENT, is_return, step

GENERALIZATION = "generalization"

COMPLETE = "complete"
CONTAINS_ERR = "err"
INCOMPLETE = "incomplete"


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    kind: str
    instantiation: Optional[Tuple[Tuple[SymVar, Value], ...]] = None

    def inst_map(self) -> Dict[SymVar, Value]:
        return dict(self.instantiation or ())


@dataclass
class Seg:
    states: List[StateOrErr] = field(default_factory=list)
    edges: List[Edge] = field(default_factory=list)
    root: int = 0
    outcome: str = INCOMPLETE

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

@dataclass(frozen=True)
class ListMatch:
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


def _equal(closure: OffsetClosure, f: Formula, engine: Entailment,
           a: Value, b: Value) -> bool:
    """``a = b`` under ``f``, where ``closure`` is ``f``'s offset closure:
    proved by the closure when it can, else by the engine."""
    return closure.diff(a, b) == 0 or engine.holds(f, Atom.eq(a, b))


def find_list(s: AbstractState, start: Value, ty: AggType, prog: Program,
              engine: Entailment) -> Optional[ListMatch]:
    """Maximal concrete chain of ``ty`` nodes beginning at ``start``:
    per node a full-size allocation with a points-to entry per field, linked
    through the recursive field."""
    j = recursive_index(prog, ty.name)
    if j is None:
        return None
    size = type_size(ty, prog.layout)
    fields = prog.agg_fields(ty.name)
    offs = prog.layout.offsets_of(ty.name)
    f = state_formula(s, engine)
    closure = OffsetClosure(f)
    starts: List[SymVar] = []
    ends: List[SymVar] = []
    values: List[Tuple[Value, ...]] = []
    entries: List[Tuple[PointsTo, ...]] = []
    used = set()
    current: Value = start
    while True:
        alloc = next(
            (a for a in s.al if a not in used
             and closure.diff(a.hi, a.lo) == size - 1
             and _equal(closure, f, engine, current, a.lo)),
            None)
        if alloc is None:
            break
        node_vals: List[Value] = []
        node_entries: List[PointsTo] = []
        ok = True
        for fty, off in zip(fields, offs):
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
        current = node_vals[j - 1]
        if isinstance(current, int) and current == 0:
            break
    if not starts:
        return None
    return ListMatch(ty, len(starts), tuple(starts), tuple(ends),
                     tuple(values), tuple(entries))


def _invariant_at(s: AbstractState, root: Value, ty: AggType,
                  engine: Entailment) -> Optional[ListInvariant]:
    f = state_formula(s, engine)
    for l in s.li:
        if l.ty != ty:
            continue
        if engine.holds(f, Atom.eq(root, l.ad)):
            return l
    return None


def _describe_list(s: AbstractState, root: Value, ty: AggType, prog: Program,
                   engine: Entailment):
    """('inv', ListInvariant) or ('concrete', ListMatch) or None."""
    inv = _invariant_at(s, root, ty, engine)
    if inv is not None:
        return ("inv", inv)
    match = find_list(s, root, ty, prog, engine)
    if match is not None:
        return ("concrete", match)
    return None


def _has_concrete_head_pointer(s: AbstractState, l: ListInvariant,
                               prog: Program, engine: Entailment) -> bool:
    """Does a concrete node's chain field point at the summary's root?"""
    size = type_size(l.ty, prog.layout)
    off_j = l.rec_field.off
    f = state_formula(s, engine)
    closure = OffsetClosure(f)
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

    def __init__(self, s: AbstractState, s2: AbstractState, prog: Program,
                 engine: Entailment):
        self.s, self.s2, self.prog, self.engine = s, s2, prog, engine
        self.f1 = state_formula(s, engine)
        self.f2 = state_formula(s2, engine)
        self.cl1 = OffsetClosure(self.f1)
        self.cl2 = OffsetClosure(self.f2)
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

    def corresponding_var(self, a1: Value, a2: Value) -> Optional[Value]:
        """Existing merged var whose images provably equal a1/a2."""
        for v1, v2, m in self.pairs:
            if isinstance(m, int):
                continue
            if _equal(self.cl1, self.f1, self.engine, a1, v1) and \
                    _equal(self.cl2, self.f2, self.engine, a2, v2):
                return m
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
    M = _Merger(s, s2, prog, engine)

    # 1. Program variables anchor the correspondence.
    lv = {}
    for x in sorted(dict(s.lv)):
        lv[x] = M.pair(s.lv_of(x), s2.lv_of(x), x)

    # 2. Close over memory components until no new pairs appear.
    merged_al: List[Tuple[Allocation, Allocation, Allocation]] = []
    merged_pt: List[Tuple[PointsTo, PointsTo, PointsTo]] = []
    seen_al = set()
    seen_pt = set()
    for _round in range(4):
        before = len(M.pairs)
        for a1 in s.al:
            if a1 in seen_al:
                continue
            m_lo = None
            a2_hit = None
            for a2 in s2.al:
                m_lo = M.corresponding_var(a1.lo, a2.lo)
                if m_lo is not None:
                    a2_hit = a2
                    break
            if m_lo is None or not isinstance(m_lo, SymVar):
                continue
            m_hi = M.pair(a1.hi, a2_hit.hi, m_lo.hint + "_end")
            if not isinstance(m_hi, SymVar):
                m_hi_var = engine.fresh(m_lo.hint + "_end")
                M.mu1[m_hi_var] = a1.hi
                M.mu2[m_hi_var] = a2_hit.hi
                m_hi = m_hi_var
            seen_al.add(a1)
            merged_al.append((a1, a2_hit, Allocation(m_lo, m_hi)))
        for p1 in s.pt:
            if p1 in seen_pt:
                continue
            m_addr = None
            p2_hit = None
            for p2 in s2.pt:
                if p2.ty != p1.ty:
                    continue
                m_addr = M.corresponding_var(p1.addr, p2.addr)
                if m_addr is not None:
                    p2_hit = p2
                    break
            if m_addr is None or not isinstance(m_addr, SymVar):
                continue
            m_val = M.pair(p1.value, p2_hit.value, "val")
            seen_pt.add(p1)
            merged_pt.append((p1, p2_hit, PointsTo(m_addr, p1.ty, m_val)))
        if len(M.pairs) == before:
            break

    # 3. Lists: summarize corresponding chains/summaries.
    merged_li: List[ListInvariant] = []
    extra_atoms: List[Atom] = []
    consumed_al_1: set = set()
    consumed_al_2: set = set()
    consumed_pt_1: set = set()
    consumed_pt_2: set = set()
    footprints_1: List[Tuple[Value, Value]] = []
    footprints_2: List[Tuple[Value, Value]] = []
    agg_types = [AggType(name) for name, _ in prog.aggregates
                 if recursive_index(prog, name) is not None]
    processed_roots = set()
    consumed_starts_1 = set()
    consumed_starts_2 = set()
    for v1, v2, m in list(M.pairs):
        if not isinstance(m, SymVar) or m in processed_roots:
            continue
        for ty in agg_types:
            d1 = _describe_list(s, v1, ty, prog, engine)
            if d1 is None:
                continue
            d2 = _describe_list(s2, v2, ty, prog, engine)
            if d2 is None:
                continue
            # Avoid re-summarizing a suffix of an already consumed chain.
            if d1[0] == "concrete" and any(value_key(x) in consumed_starts_1
                                           for x in d1[1].starts):
                continue
            if d2[0] == "concrete" and any(value_key(x) in consumed_starts_2
                                           for x in d2[1].starts):
                continue
            processed_roots.add(m)

            def params(desc, st):
                kind, obj = desc
                if kind == "inv":
                    return (obj.length, [f.first for f in obj.fields],
                            [f.last for f in obj.fields], 1, obj)
                return (obj.length, list(obj.firsts), list(obj.lasts),
                        obj.length, obj)

            len1, firsts1, lasts1, low1, obj1 = params(d1, s)
            len2, firsts2, lasts2, low2, obj2 = params(d2, s2)
            fields = prog.agg_fields(ty.name)
            offs = prog.layout.offsets_of(ty.name)
            x_len = M.pair(len1, len2, "len", force_var=True)
            li_fields = []
            for fty, off, a, b, c, d in zip(fields, offs, firsts1, firsts2,
                                            lasts1, lasts2):
                first = M.pair(a, b, "fst")
                last = M.pair(c, d, "lst")
                li_fields.append(LIField(off, fty, first, last))
            merged_li.append(ListInvariant(
                ad=m, length=x_len, ty=ty, fields=tuple(li_fields),
                rec_index=recursive_index(prog, ty.name)))
            lower = min(low1 if isinstance(low1, int) else 1,
                        low2 if isinstance(low2, int) else 1)
            extra_atoms.append(Atom.ge(x_len, lower))
            # Consume concrete footprints so they leave AL/PT.
            for desc, cons_pt, foots, starts_seen in (
                    (d1, consumed_pt_1, footprints_1, consumed_starts_1),
                    (d2, consumed_pt_2, footprints_2, consumed_starts_2)):
                kind, obj = desc
                if kind == "concrete":
                    for lo, hi in zip(obj.starts, obj.ends):
                        foots.append((lo, hi))
                        starts_seen.add(value_key(lo))
                    for k in range(obj.length):
                        for p in obj.entries[k]:
                            cons_pt.add(p)
            if d1[0] == "concrete":
                starts = set(d1[1].starts)
                for a1, _a2, _mm in merged_al:
                    if a1.lo in starts:
                        consumed_al_1.add(a1)
            if d2[0] == "concrete":
                starts = set(d2[1].starts)
                for _a1, a2, _mm in merged_al:
                    if a2.lo in starts:
                        consumed_al_2.add(a2)
            break

    # Also consume allocations matched by identity of concrete footprints
    # even when they never made it into merged_al.
    kept_al = [mm for a1, a2, mm in merged_al
               if a1 not in consumed_al_1 and a2 not in consumed_al_2]
    kept_pt = []
    for p1, p2, mm in merged_pt:
        if p1 in consumed_pt_1 or p2 in consumed_pt_2:
            continue
        ok = True
        for lo, hi in footprints_1:
            if not _provably_outside(M, 1, p1.addr, lo, hi):
                ok = False
                break
        if ok:
            for lo, hi in footprints_2:
                if not _provably_outside(M, 2, p2.addr, lo, hi):
                    ok = False
                    break
        if ok:
            kept_pt.append(mm)

    # 4. Knowledge base: atoms provable in both inputs under the images.
    # Only variables that occur in a component of the merged state matter;
    # anything else could never be bound by a later instantiation search.
    component_vars = set()
    for v in lv.values():
        if isinstance(v, SymVar):
            component_vars.add(v)
    for mm in kept_al:
        component_vars.update(x for x in (mm.lo, mm.hi)
                              if isinstance(x, SymVar))
    for mm in kept_pt:
        component_vars.update(x for x in (mm.addr, mm.value)
                              if isinstance(x, SymVar))
    for l in merged_li:
        li_vals = [l.ad, l.length]
        for fl in l.fields:
            li_vals.extend((fl.first, fl.last))
        component_vars.update(x for x in li_vals if isinstance(x, SymVar))
    kb_atoms = list(extra_atoms)
    merged_vars = sorted((set(M.mu1) & set(M.mu2)) & component_vars)
    al_end_pairs = {(mm.lo, mm.hi) for mm in kept_al}

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

    # Deduplicate while preserving order.
    seen = set()
    uniq = []
    for a in kb_atoms:
        if a not in seen:
            seen.add(a)
            uniq.append(a)

    merged = AbstractState.make(
        pos=s.pos, lv=lv, al=kept_al, pt=kept_pt, li=merged_li,
        kb=Formula.conj(uniq))
    return merged, M.mu1, M.mu2


def _provably_outside(M: _Merger, side: int, addr: Value, lo: Value,
                      hi: Value) -> bool:
    f = M.f1 if side == 1 else M.f2
    return M.engine.holds(f, (Atom.lt(addr, lo), Atom.gt(addr, hi)))


# --------------------------------------------------------------------------
# Generalization checking and instantiation search
# --------------------------------------------------------------------------

def _subst_of(mu: Dict[SymVar, Value]) -> Dict[SymVar, Term]:
    return {v: Term.of(w) for v, w in mu.items()}


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
    subst = _subst_of(mu)
    if not engine.holds(f, sbar.kb.substitute(subst)):
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
        if not all(engine.holds(f, Atom.eq(v, img(fb.first)))
                   for v, fb in zip(match.firsts, lbar.fields)):
            return False
        if not all(engine.holds(f, Atom.eq(v, img(fb.last)))
                   for v, fb in zip(match.lasts, lbar.fields)):
            return False
        # Every points-to entry surviving in the older state must be
        # provably outside the materialized chain's footprint.
        for pbar in sbar.pt:
            addr = img(pbar.addr)
            for lo, hi in zip(match.starts, match.ends):
                if not engine.holds(f, (Atom.lt(addr, lo), Atom.gt(addr, hi))):
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
    closure = OffsetClosure(f)

    def img(v: Value) -> Optional[Value]:
        return v if isinstance(v, int) else mu.get(v)

    for _round in range(4):
        progress = False
        for abar in sbar.al:
            lo_i = img(abar.lo)
            if lo_i is None or img(abar.hi) is not None:
                continue
            for a in s.al:
                if _equal(closure, f, engine, a.lo, lo_i):
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
                            _equal(closure, f, engine, p.addr, addr_i):
                        mu[pbar.value] = p.value
                        progress = True
                        break
        for lbar in sbar.li:
            root_i = img(lbar.ad)
            if root_i is None:
                continue
            needed = [lbar.length] + \
                [fb.first for fb in lbar.fields if isinstance(fb.first, SymVar)] + \
                [fb.last for fb in lbar.fields if isinstance(fb.last, SymVar)]
            if all(v in mu for v in needed if isinstance(v, SymVar)):
                continue
            inv = _invariant_at(s, root_i, lbar.ty, engine)
            if inv is not None:
                pairs = [(lbar.length, inv.length)] + \
                    [(fb.first, fl.first) for fb, fl in
                     zip(lbar.fields, inv.fields)] + \
                    [(fb.last, fl.last) for fb, fl in
                     zip(lbar.fields, inv.fields)]
            else:
                match = find_list(s, root_i, lbar.ty, prog, engine)
                if match is None:
                    continue
                pairs = [(lbar.length, match.length)] + \
                    list(zip((fb.first for fb in lbar.fields), match.firsts)) + \
                    list(zip((fb.last for fb in lbar.fields), match.lasts))
            for vbar, v in pairs:
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
        if not progress:
            break

    if any(v not in mu for v in sbar.sym_vars):
        return None
    if not check_generalization(s, sbar, mu, prog, engine):
        return None
    return mu


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
    preds: Dict[str, int] = {}
    for _name, body in prog.blocks:
        term = body[-1]
        if isinstance(term, ir.BrCond):
            targets = [term.then_block, term.else_block]
        elif isinstance(term, ir.Br):
            targets = [term.block]
        else:
            targets = []
        for tgt in targets:
            preds[tgt] = preds.get(tgt, 0) + 1
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
    """Names numbered densely by first appearance in the graph; the
    engine's ids have gaps (not every fresh variable ends up in a state)."""
    ren: Dict[SymVar, SymVar] = {}
    counter = 1
    for st in seg.states:
        if isinstance(st, ErrState):
            continue
        for v in st.sym_vars:
            if v not in ren:
                ren[v] = SymVar(counter, v.hint)
                counter += 1
    for e in seg.edges:
        for v, w in (e.instantiation or ()):
            for x in (v, w):
                if isinstance(x, SymVar) and x not in ren:
                    ren[x] = SymVar(counter, x.hint)
                    counter += 1
    return ren


def _rename_value(v: Value, ren: Dict[SymVar, SymVar]) -> Value:
    return ren.get(v, v) if isinstance(v, SymVar) else v


def _renamed(st: AbstractState, ren: Dict[SymVar, SymVar]) -> AbstractState:
    return alpha_rename(st, {v: w for v, w in ren.items() if v in st.sym_vars})


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
                str(_rename_value(v, ren)): str(_rename_value(w, ren))
                for v, w in e.instantiation}
        edges.append(item)
    return json.dumps({"outcome": seg.outcome, "root": seg.root,
                       "nodes": nodes, "edges": edges},
                      indent=2, sort_keys=True) + "\n"
