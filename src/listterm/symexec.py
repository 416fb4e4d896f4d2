"""One step of symbolic execution: the dispatcher and every inference rule.

A rule is a pure function from an abstract state to a successor state or
a two-way refinement whose knowledge-base additions are complementary,
with fresh variables from the analysis's engine; it returns None when its
memory-safety side conditions are not proven.  ``RULES`` gives each
instruction type's rules in priority order: stores try list extension
before the plain store rule, getelementptr tries list traversal before
plain pointer arithmetic, loads try allocated memory before list
summaries.  :func:`step` goes to the absorbing error state at once when an
operand of the instruction (:func:`ir.operands`) has no value, so a rule
reads every operand bound; otherwise it takes the first result, and only
when every rule returns None is the successor the error state.  List
traversal, whatever the shape of the summaries, is one rule
(:func:`_traverse`).
"""

from __future__ import annotations

import operator
from typing import List, Optional, Tuple, Union

from . import ir
from .absdom import (
    ERR,
    AbstractState,
    Allocation,
    ListInvariant,
    PointsTo,
    StateOrErr,
    Value,
    state_formula,
)
from .ir import Program, Record, type_size
from .logic import Atom, Entailment, Formula, SymVar, Term

EVALUATION = "evaluation"
REFINEMENT = "refinement"


class StepResult(Record):
    edge_kind: str
    successors: Tuple[StateOrErr, ...]


# What a rule gives: a successor, a refinement, or None when it does not apply.
Outcome = Union[AbstractState, StepResult, None]


def _kb_add(s: AbstractState, *atoms: Atom) -> Formula:
    return s.kb.and_(Formula.conj(atoms))


def _define(s: AbstractState, ins, prog: Program, engine: Entailment,
            value: Term) -> AbstractState:
    """Move on, binding ``ins.dst`` to a fresh variable equal to ``value``."""
    w = engine.fresh(ins.dst)
    return s.replace_components(pos=prog.successor(s.pos),
                                lv=s.bind(ins.dst, w),
                                kb=_kb_add(s, Atom.eq(w, value)))


def _split(s: AbstractState, atom: Atom, complement: Atom) -> StepResult:
    """Refine ``s`` into the case ``atom`` and the case ``complement``."""
    return StepResult(REFINEMENT, (
        s.replace_components(kb=_kb_add(s, atom)),
        s.replace_components(kb=_kb_add(s, complement))))


def _covered(s: AbstractState, f: Formula, engine: Entailment, ad: Term,
             size: int) -> bool:
    """Do the ``size`` bytes at ``ad`` lie inside one allocation?"""
    return any(
        engine.holds(f, Atom.le(a.lo, ad), Atom.le(ad + size - 1, a.hi))
        for a in s.al)


def _disjoint(f: Formula, engine: Entailment, p: PointsTo, lo: Term,
              hi: Term, prog: Program) -> bool:
    """Is points-to entry ``p`` provably disjoint from the bytes [lo, hi]?"""
    addr = Term.of(p.addr)
    end = addr + type_size(p.ty, prog.layout) - 1
    return engine.holds(f, (Atom.lt(end, lo), Atom.lt(hi, addr)))


# --------------------------------------------------------------------------
# load
# --------------------------------------------------------------------------

def rule_load_allocated(s: AbstractState, ins: ir.Load, prog: Program,
                        engine: Entailment) -> Optional[AbstractState]:
    f = state_formula(s, engine)
    ad_t = Term.of(s.lv_of(ins.addr))
    if not _covered(s, f, engine, ad_t, type_size(ins.ty, prog.layout)):
        return None
    for p in s.pt:
        if p.ty == ins.ty and engine.holds(f, Atom.eq(ad_t, p.addr)):
            return _define(s, ins, prog, engine, Term.of(p.value))
    return None


def rule_load_list_invariant(s: AbstractState, ins: ir.Load, prog: Program,
                             engine: Entailment) -> Optional[AbstractState]:
    f = state_formula(s, engine)
    ad_t = Term.of(s.lv_of(ins.addr))
    for l in s.li:
        for fld in l.fields:
            if fld.fty != ins.ty:
                continue
            if engine.holds(f, Atom.eq(ad_t, Term.of(l.ad) + fld.off)):
                return _define(s, ins, prog, engine, Term.of(fld.first))
    return None


# --------------------------------------------------------------------------
# store
# --------------------------------------------------------------------------

def rule_store_plain(s: AbstractState, ins: ir.Store, prog: Program,
                     engine: Entailment) -> Optional[AbstractState]:
    ad = s.lv_of(ins.addr)
    f = state_formula(s, engine)
    ad_t = Term.of(ad)
    size = type_size(ins.ty, prog.layout)
    if not _covered(s, f, engine, ad_t, size):
        return None

    new_pt: List[PointsTo] = []
    target_addr: Optional[Value] = None
    for p in s.pt:
        if p.ty == ins.ty and engine.holds(f, Atom.eq(ad_t, p.addr)):
            target_addr = p.addr  # replaced below
            continue
        if _disjoint(f, engine, p, ad_t, ad_t + size - 1, prog):
            new_pt.append(p)
        # Possibly-overlapping entries are dropped: their content is unknown.
    kb = s.kb
    if target_addr is None:
        if isinstance(ad, int):
            target_addr = engine.fresh("addr")
            kb = _kb_add(s, Atom.eq(target_addr, ad))
        else:
            target_addr = ad
    new_pt.append(PointsTo(target_addr, ins.ty, s.lv_of(ins.value)))
    return s.replace_components(pos=prog.successor(s.pos), pt=new_pt, kb=kb)


def rule_list_extension(s: AbstractState, ins: ir.Store, prog: Program,
                        engine: Entailment) -> Optional[AbstractState]:
    f = state_formula(s, engine)
    ad_t = Term.of(s.lv_of(ins.addr))
    val = s.lv_of(ins.value)
    for l in s.li:
        size = type_size(l.ty, prog.layout)
        j = l.rec_index
        for alloc in s.al:
            if not engine.holds(
                    f, Atom.eq(Term.of(alloc.hi), Term.of(alloc.lo) + size - 1)):
                continue
            for m, fld_m in enumerate(l.fields, start=1):
                if fld_m.fty != ins.ty:
                    continue
                if not engine.holds(
                        f, Atom.eq(ad_t, Term.of(alloc.lo) + fld_m.off)):
                    continue
                # The new head must already (or now) point at the summary.
                if m == j:
                    if not engine.holds(f, Atom.eq(Term.of(val), l.ad)):
                        continue
                # Every other field of the new head must be initialized.
                head_vals: dict = {}
                ok = True
                for i, fld in enumerate(l.fields, start=1):
                    if i == m:
                        continue
                    entry = next(
                        (p for p in s.pt if p.ty == fld.fty and engine.holds(
                            f, Atom.eq(p.addr, Term.of(alloc.lo) + fld.off))),
                        None)
                    if entry is None:
                        ok = False
                        break
                    head_vals[i] = entry.value
                if not ok:
                    continue
                if m != j:
                    if not engine.holds(f, Atom.eq(head_vals[j], l.ad)):
                        continue
                # All side conditions hold: extend the summary.
                new_len = engine.fresh("len")
                stored = engine.fresh(f"v{m}")
                head_vals[m] = stored
                new_fields = tuple(
                    fld._replace(first=head_vals[i])
                    for i, fld in enumerate(l.fields, start=1))
                new_inv = ListInvariant(ad=alloc.lo, length=new_len,
                                        ty=l.ty, fields=new_fields,
                                        rec_index=j)
                lo_t, hi_t = Term.of(alloc.lo), Term.of(alloc.hi)
                kept_pt = [p for p in s.pt
                           if _disjoint(f, engine, p, lo_t, hi_t, prog)]
                new_li = [x for x in s.li if x != l] + [new_inv]
                return s.replace_components(
                    pos=prog.successor(s.pos),
                    al=[a for a in s.al if a != alloc],
                    pt=kept_pt,
                    li=new_li,
                    kb=_kb_add(s, Atom.eq(stored, Term.of(val)),
                               Atom.eq(new_len, Term.of(l.length) + 1)))
    return None


# --------------------------------------------------------------------------
# getelementptr: traversal family and the plain rule
# --------------------------------------------------------------------------

def _traversal_candidate(s: AbstractState, ins, engine: Entailment
                         ) -> Optional[Tuple[ListInvariant, int]]:
    """The summary being traversed plus the 1-based field the address
    computation lands in, if the base/offset side conditions of the
    traversal rules are provable for this instruction.  The base must hold
    the summary's first chain value, i.e. point at the second node."""
    f = state_formula(s, engine)
    pa = s.lv_of(ins.base)
    for l in s.li:
        rec = l.rec_field
        acc = None
        if isinstance(ins, ir.GepByte):
            t = s.lv_of(ins.offset)
            for i, fld in enumerate(l.fields, start=1):
                if engine.holds(f, Atom.eq(Term.of(t), fld.off)):
                    acc = i
                    break
        else:  # GepField
            if ins.agg != l.ty:
                continue
            t = s.lv_of(ins.index)
            # The 0-based field operand selects 1-based field t+1.
            for i in range(1, len(l.fields) + 1):
                if engine.holds(f, Atom.eq(Term.of(t) + 1, i)):
                    acc = i
                    break
        if acc is None:
            continue
        if engine.holds(f, Atom.eq(Term.of(pa), Term.of(rec.first))):
            return l, acc
    return None


def _split_partner(s: AbstractState, l: ListInvariant,
                   engine: Entailment) -> Optional[ListInvariant]:
    """A second summary of the same type whose last chain value is the
    traversed summary's root: traversing then grows the prefix."""
    f = state_formula(s, engine)
    for l1 in s.li:
        if l1 == l or l1.ty != l.ty:
            continue
        if engine.holds(f, Atom.eq(l1.rec_field.last, l.ad)):
            return l1
    return None


def _traverse(s: AbstractState, ins, l: ListInvariant, acc: int,
              partner: Optional[ListInvariant], long: bool, prog: Program,
              engine: Entailment) -> AbstractState:
    """List traversal: the head node leaves summary ``l``.  It joins
    ``partner`` (a summary ending at ``l``'s root) or, without one, becomes
    plain memory: an allocation plus one points-to entry per field.  With
    ``long`` (length provably >= 2) ``l`` moves on to its second node;
    otherwise it dissolves and its first and last values coincide."""
    atoms: List[Atom] = []
    al, pt = list(s.al), list(s.pt)
    li = [x for x in s.li if x != l and x != partner]
    if partner is None:
        v_start = engine.fresh("start")
        v_end = engine.fresh("end")
        starts = [engine.fresh(f"f{i}")
                  for i in range(1, len(l.fields) + 1)]
        size = type_size(l.ty, prog.layout)
        atoms += [Atom.eq(v_start, l.ad),
                  Atom.eq(v_end, Term.of(v_start) + size - 1)]
        al.append(Allocation(v_start, v_end))
    else:
        u_len = engine.fresh("len")
        atoms.append(Atom.eq(u_len, Term.of(partner.length) + 1))
        li.append(ListInvariant(
            ad=partner.ad, length=u_len, ty=partner.ty,
            fields=tuple(f1._replace(last=fl.first)
                         for f1, fl in zip(partner.fields, l.fields)),
            rec_index=l.rec_index))
    head = Term.of(l.rec_field.first)
    if long:
        w_start = engine.fresh("head")
        w_len = engine.fresh("len")
        atoms += [Atom.eq(w_start, head),
                  Atom.eq(w_len, Term.of(l.length) - 1)]
        head = Term.of(w_start)
    w_start_j = engine.fresh(ins.dst)
    atoms.append(Atom.eq(w_start_j, head + l.fields[acc - 1].off))
    if long:
        li.append(ListInvariant(
            ad=w_start, length=w_len, ty=l.ty,
            fields=tuple(fld._replace(first=engine.fresh(f"w{i}"))
                         for i, fld in enumerate(l.fields, start=1)),
            rec_index=l.rec_index))
    for i, fld in enumerate(l.fields):
        if partner is None:
            atoms.append(Atom.eq(starts[i], Term.of(l.ad) + fld.off))
            pt.append(PointsTo(starts[i], fld.fty, fld.first))
        if not long:
            atoms.append(Atom.eq(Term.of(fld.first), Term.of(fld.last)))
    return s.replace_components(
        pos=prog.successor(s.pos),
        lv=s.bind(ins.dst, w_start_j),
        al=al,
        pt=pt,
        li=li,
        kb=_kb_add(s, *atoms))


def rule_traverse(s: AbstractState, ins, prog: Program,
                  engine: Entailment) -> Outcome:
    """Traverse the summary whose second node the base points at, first
    splitting on whether its length is 1 when that is not decided."""
    cand = _traversal_candidate(s, ins, engine)
    if cand is None:
        return None
    l, acc = cand
    f = state_formula(s, engine)
    long = engine.holds(f, Atom.ge(l.length, 2))
    single = engine.holds(f, Atom.eq(l.length, 1))
    if not long and not single:
        return _split(s, Atom.ge(l.length, 2), Atom.eq(l.length, 1))
    partner = _split_partner(s, l, engine)
    return _traverse(s, ins, l, acc, partner, long, prog, engine)


def rule_getelementptr_plain(s: AbstractState, ins, prog: Program,
                             engine: Entailment) -> Optional[AbstractState]:
    pa = s.lv_of(ins.base)
    if isinstance(ins, ir.GepByte):
        target = Term.of(pa) + Term.of(s.lv_of(ins.offset))
    else:
        offsets = prog.layout[ins.agg.name].offsets
        t = s.lv_of(ins.index)
        if isinstance(t, SymVar):
            # A symbolic field index needs a provable constant.
            f = state_formula(s, engine)
            t = next((i for i in range(len(offsets))
                      if engine.holds(f, Atom.eq(t, i))), None)
        if t is None or not 0 <= t < len(offsets):
            return None
        target = Term.of(pa) + offsets[t]
    return _define(s, ins, prog, engine, target)


# --------------------------------------------------------------------------
# icmp and branches
# --------------------------------------------------------------------------

# The atom of each comparison in ``ir.ICMP``, and the atom of its negation.
_ATOMS = {operator.eq: (Atom.eq, Atom.ne), operator.ne: (Atom.ne, Atom.eq),
          operator.lt: (Atom.lt, Atom.ge), operator.le: (Atom.le, Atom.gt),
          operator.gt: (Atom.gt, Atom.le), operator.ge: (Atom.ge, Atom.lt)}


def _icmp_atoms(pred: str, a: Term, b: Term) -> Tuple[Atom, Atom]:
    """(atom, complement) for ``a pred b``: the comparison ``ir.ICMP`` gives
    the predicate, on unbounded integers like every other value, so
    ``ne`` against 0 is a disequality and ``x <= -1`` stays possible."""
    if pred not in ir.ICMP:
        raise ValueError(f"unknown predicate {pred!r}")
    atom, comp = _ATOMS[ir.ICMP[pred]]
    return atom(a, b), comp(a, b)


def rule_icmp(s: AbstractState, ins: ir.Icmp, prog: Program,
              engine: Entailment) -> Outcome:
    atom, comp = _icmp_atoms(ins.pred, Term.of(s.lv_of(ins.lhs)),
                             Term.of(s.lv_of(ins.rhs)))
    f = state_formula(s, engine)
    for outcome, value in ((atom, 1), (comp, 0)):
        if engine.holds(f, outcome):
            return s.replace_components(pos=prog.successor(s.pos),
                                        lv=s.bind(ins.dst, value))
    return _split(s, atom, comp)


def rule_brcond(s: AbstractState, ins: ir.BrCond, prog: Program,
                engine: Entailment) -> Outcome:
    cond = s.lv_of(ins.cond)

    def goto(block: str) -> AbstractState:
        return s.replace_components(pos=prog.position(block, 0))

    if cond in (0, 1):
        return goto(ins.then_block if cond else ins.else_block)
    if isinstance(cond, int):
        return None
    f = state_formula(s, engine)
    for value, block in ((1, ins.then_block), (0, ins.else_block)):
        if engine.holds(f, Atom.eq(cond, value)):
            return goto(block)
    return _split(s, Atom.eq(cond, 1), Atom.eq(cond, 0))


def rule_br(s: AbstractState, ins: ir.Br, prog: Program,
            engine: Entailment) -> AbstractState:
    return s.replace_components(pos=prog.position(ins.block, 0))


# --------------------------------------------------------------------------
# remaining simple rules
# --------------------------------------------------------------------------

def rule_add(s: AbstractState, ins: ir.Add, prog: Program,
             engine: Entailment) -> Optional[AbstractState]:
    return _define(s, ins, prog, engine,
                   Term.of(s.lv_of(ins.lhs)) + Term.of(s.lv_of(ins.rhs)))


def rule_bitcast(s: AbstractState, ins: ir.Bitcast, prog: Program,
                 engine: Entailment) -> Optional[AbstractState]:
    return s.replace_components(pos=prog.successor(s.pos),
                                lv=s.bind(ins.dst, s.lv_of(ins.src)))


def rule_nondet_int(s: AbstractState, ins: ir.NondetInt, prog: Program,
                    engine: Entailment) -> AbstractState:
    w = engine.fresh(ins.dst)
    return s.replace_components(pos=prog.successor(s.pos),
                                lv=s.bind(ins.dst, w),
                                kb=_kb_add(s, Atom.ge(w, 0)))


def rule_malloc(s: AbstractState, ins: ir.Malloc, prog: Program,
                engine: Entailment) -> Optional[AbstractState]:
    size = s.lv_of(ins.size)
    if not isinstance(size, int) or size < 1:
        return None
    v = engine.fresh(ins.dst)
    v_end = engine.fresh(f"{ins.dst}_end")
    return s.replace_components(
        pos=prog.successor(s.pos),
        lv=s.bind(ins.dst, v),
        al=list(s.al) + [Allocation(v, v_end)],
        kb=_kb_add(s, Atom.eq(v_end, Term.of(v) + size - 1)))


def rule_free(s: AbstractState, ins: ir.Free, prog: Program,
              engine: Entailment) -> Optional[AbstractState]:
    if s.li:
        # With summaries present we cannot cheaply rule out aliasing into
        # summarized nodes; freeing them is unsupported.
        return None
    f = state_formula(s, engine)
    ptr = Term.of(s.lv_of(ins.ptr))
    for alloc in s.al:
        if not engine.holds(f, Atom.eq(ptr, alloc.lo)):
            continue
        lo_t, hi_t = Term.of(alloc.lo), Term.of(alloc.hi)
        kept = [p for p in s.pt if _disjoint(f, engine, p, lo_t, hi_t, prog)]
        return s.replace_components(pos=prog.successor(s.pos),
                                    al=[a for a in s.al if a != alloc],
                                    pt=kept)
    return None


# Each instruction type's rules, highest priority first.
RULES = {
    ir.Load: (rule_load_allocated, rule_load_list_invariant),
    ir.Store: (rule_list_extension, rule_store_plain),
    ir.GepByte: (rule_traverse, rule_getelementptr_plain),
    ir.GepField: (rule_traverse, rule_getelementptr_plain),
    ir.Icmp: (rule_icmp,),
    ir.BrCond: (rule_brcond,),
    ir.Br: (rule_br,),
    ir.Add: (rule_add,),
    ir.Bitcast: (rule_bitcast,),
    ir.Malloc: (rule_malloc,),
    ir.NondetInt: (rule_nondet_int,),
    ir.Free: (rule_free,),
}


def is_return(s: AbstractState, prog: Program) -> bool:
    return isinstance(prog.instruction_at(s.pos), ir.Ret)


def step(s: AbstractState, prog: Program, engine: Entailment) -> StepResult:
    """Apply the first of the instruction's rules whose side conditions
    hold; with none, or with an operand that has no value, the step goes to
    the error state.  Never raises on bad memory access: the error state is
    the signal."""
    ins = prog.instruction_at(s.pos)
    if isinstance(ins, ir.Ret):
        raise ValueError("step called on a return state")
    rules = RULES.get(type(ins))
    if rules is None:
        raise TypeError(f"unknown instruction {ins!r}")
    if any(s.lv_of(x) is None for x in ir.operands(ins)):
        return StepResult(EVALUATION, (ERR,))
    for rule in rules:
        if (out := rule(s, ins, prog, engine)) is not None:
            return out if isinstance(out, StepResult) else \
                StepResult(EVALUATION, (out,))
    return StepResult(EVALUATION, (ERR,))
