"""Abstract states: local variables, allocations, points-to entries, list
summaries, and the knowledge base, plus the derived first-order state formula.

States are immutable values.  The state formula is the knowledge base, the
unconditional consequences of the memory components, and the least fixed
point of a table of rules ``(question, facts)``: points-to functionality and
injectivity, and the length consequences of list summaries.  A rule is asked
through the entailment engine only while one of its facts is missing, and the
rounds run until one adds nothing.  The formula reads only a state's
:class:`Memory` (allocations, points-to entries, list summaries and knowledge
base), so results are memoized per memory in the engine's
``state_formulas``: states that differ only in position or local variables
are saturated once and share one formula.
"""

from __future__ import annotations

from functools import partial
from typing import (Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple,
                    Union)

from .ir import AggType, IrType, ProgramPosition, Record
from .logic import Atom, Entailment, Formula, SymVar, Value, rename_formula


def value_key(v: Value):
    """Stable sort key across mixed SymVar/int values."""
    if isinstance(v, SymVar):
        return (1, v.id, v.hint)
    return (0, v, "")


class Allocation(NamedTuple):
    """Byte range [lo, hi], both ends allocated."""

    lo: SymVar
    hi: SymVar

    def sort_key(self):
        return (value_key(self.lo), value_key(self.hi))

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


class PointsTo(NamedTuple):
    """The memory at ``addr``, read with type ``ty``, holds ``value``."""

    addr: SymVar
    ty: IrType
    value: Value

    def sort_key(self):
        return (value_key(self.addr), str(self.ty), value_key(self.value))

    def __str__(self) -> str:
        return f"{self.addr} -{self.ty}-> {self.value}"


class LIField(NamedTuple):
    off: int
    fty: IrType
    first: Value  # field value in the first list element
    last: Value   # field value in the last list element

    def __str__(self) -> str:
        return f"({self.off}: {self.fty}: {self.first}..{self.last})"


class ListInvariant(NamedTuple):
    """Summary of a non-empty acyclic chain of ``length`` nodes of aggregate
    type ``ty`` starting at address ``ad``; ``rec_index`` is the 1-based
    index of the unique pointer-to-self field."""

    ad: SymVar
    length: SymVar
    ty: AggType
    fields: Tuple[LIField, ...]
    rec_index: int

    def sort_key(self):
        return (value_key(self.ad), value_key(self.length), self.ty.name)

    @property
    def rec_field(self) -> LIField:
        return self.fields[self.rec_index - 1]

    @property
    def firsts(self) -> Tuple[Value, ...]:
        return tuple(f.first for f in self.fields)

    @property
    def lasts(self) -> Tuple[Value, ...]:
        return tuple(f.last for f in self.fields)

    def __str__(self) -> str:
        fs =", ".join(str(f) for f in self.fields)
        return f"{self.ad} ={self.ty}/{self.length}=> [{fs}]"


class ErrState(Record):
    """The distinguished error state: undefined behavior not excluded."""

    def __str__(self) -> str:
        return "ERR"


ERR = ErrState()


class Memory(Record):
    """The components of a state that its state formula reads: states that
    differ only in position or local variables share one."""

    __slots__ = ("al", "pt", "li", "kb", "_hash")
    al: Tuple[Allocation, ...]
    pt: Tuple[PointsTo, ...]
    li: Tuple[ListInvariant, ...]
    kb: Formula

    def __init__(self, al: Tuple[Allocation, ...], pt: Tuple[PointsTo, ...],
                 li: Tuple[ListInvariant, ...], kb: Formula) -> None:
        set_ = object.__setattr__
        set_(self, "al", al)
        set_(self, "pt", pt)
        set_(self, "li", li)
        set_(self, "kb", kb)
        # The field tuple's hash, computed now: a memory is made only to be
        # looked up in the engine's state formulas.
        set_(self, "_hash", hash((al, pt, li, kb)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.al, self.pt, self.li, self.kb) == \
            (other.al, other.pt, other.li, other.kb)

    def __hash__(self) -> int:
        return self._hash


class AbstractState(Record):
    __slots__ = ("pos", "lv", "al", "pt", "li", "kb",
                 "_hash", "_memory", "_sym_vars")
    pos: ProgramPosition
    lv: Tuple[Tuple[str, Value], ...]
    al: Tuple[Allocation, ...]
    pt: Tuple[PointsTo, ...]
    li: Tuple[ListInvariant, ...]
    kb: Formula

    def __init__(self, pos: ProgramPosition, lv: Tuple[Tuple[str, Value], ...],
                 al: Tuple[Allocation, ...], pt: Tuple[PointsTo, ...],
                 li: Tuple[ListInvariant, ...], kb: Formula) -> None:
        set_ = object.__setattr__
        set_(self, "pos", pos)
        set_(self, "lv", lv)
        set_(self, "al", al)
        set_(self, "pt", pt)
        set_(self, "li", li)
        set_(self, "kb", kb)
        # Computed once, on first use.
        set_(self, "_hash", None)
        set_(self, "_memory", None)
        set_(self, "_sym_vars", None)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.pos, self.lv, self.al, self.pt, self.li, self.kb) == \
            (other.pos, other.lv, other.al, other.pt, other.li, other.kb)

    def __hash__(self) -> int:
        # The field tuple's hash: states are hashed on every plan lookup.
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(
                (self.pos, self.lv, self.al, self.pt, self.li, self.kb)))
        return self._hash

    @property
    def memory(self) -> Memory:
        """The state formula's cache key (computed once)."""
        if self._memory is None:
            object.__setattr__(self, "_memory",
                               Memory(self.al, self.pt, self.li, self.kb))
        return self._memory

    # -- construction --------------------------------------------------------

    @staticmethod
    def make(pos: ProgramPosition,
             lv: Union[Dict[str, Value], Iterable[Tuple[str, Value]]] = (),
             al: Iterable[Allocation] = (),
             pt: Iterable[PointsTo] = (),
             li: Iterable[ListInvariant] = (),
             kb: Formula = Formula()) -> "AbstractState":
        return AbstractState(pos, (), (), (), (), kb).replace_components(
            lv=lv, al=al, pt=pt, li=li)

    def replace_components(self, *, pos=None, lv=None, al=None, pt=None,
                           li=None, kb=None) -> "AbstractState":
        """This state with the given components, each sorted into the one
        order every state keeps; the others are this state's own objects,
        already in it."""
        return AbstractState(
            pos=self.pos if pos is None else pos,
            lv=self.lv if lv is None else tuple(sorted(dict(lv).items())),
            al=self.al if al is None else tuple(
                sorted(al, key=Allocation.sort_key)),
            pt=self.pt if pt is None else tuple(
                sorted(pt, key=PointsTo.sort_key)),
            li=self.li if li is None else tuple(
                sorted(li, key=ListInvariant.sort_key)),
            kb=self.kb if kb is None else kb,
        )

    # -- accessors ------------------------------------------------------------

    def lv_map(self) -> Dict[str, Value]:
        return dict(self.lv)

    def lv_of(self, operand: Union[str, int]) -> Optional[Value]:
        """Value of a program variable, or the literal itself for integers."""
        if isinstance(operand, int):
            return operand
        return self.lv_map().get(operand)

    def bind(self, var: str, value: Value) -> Dict[str, Value]:
        m = self.lv_map()
        m[var] = value
        return m

    @property
    def sym_vars(self) -> Tuple[SymVar, ...]:
        """The state's symbolic variables, sorted by id (computed once)."""
        if self._sym_vars is not None:
            return self._sym_vars
        seen: Dict[SymVar, None] = {}

        def add(v):
            if isinstance(v, SymVar):
                seen[v] = None

        for _, v in self.lv:
            add(v)
        for a in self.al:
            add(a.lo)
            add(a.hi)
        for p in self.pt:
            add(p.addr)
            add(p.value)
        for l in self.li:
            add(l.ad)
            add(l.length)
            for f in l.fields:
                add(f.first)
                add(f.last)
        for v in self.kb.vars():
            seen[v] = None
        object.__setattr__(self, "_sym_vars", tuple(sorted(seen)))
        return self._sym_vars

    def __str__(self) -> str:
        lv = ", ".join(f"{k}={v}" for k, v in self.lv)
        al = ", ".join(str(a) for a in self.al)
        pt = ", ".join(str(p) for p in self.pt)
        li = ", ".join(str(l) for l in self.li)
        return (f"({self.pos}; LV: {{{lv}}}; AL: {{{al}}}; PT: {{{pt}}}; "
                f"LI: {{{li}}}; KB: {self.kb})")


StateOrErr = Union[AbstractState, ErrState]


# --------------------------------------------------------------------------
# State formula
# --------------------------------------------------------------------------

def state_formula(s: AbstractState, engine: Entailment) -> Formula:
    """First-order consequence formula of the state's memory components.

    The knowledge base comes first, unchanged.  Then the unconditional
    clauses: allocation bounds and positivity, pairwise allocation
    disjointness, points-to address positivity, list length/address
    positivity.  Then the rules ``(question, facts)``: per pair of
    same-typed points-to entries, equal addresses force equal values
    (functionality) and different values force different addresses
    (injectivity); per list, length 1 forces each field's first and last
    values equal, length >= 2 forces a positive first next pointer, and a
    field whose first and last values differ forces length >= 2.  Each
    round asks, against the formula at the round's start, every rule one of
    whose facts is still missing, and adds the facts of those that hold; the
    rounds stop when one adds nothing, at the least fixed point.
    """
    cache, key = engine.state_formulas, s.memory
    cached = cache.get(key)
    if cached is not None:
        return cached

    clauses: List[Tuple[Atom, ...]] = list(s.kb.clauses)
    present = set(clauses)
    shared = engine.shared

    def add(*atoms: Atom) -> bool:
        if atoms in present:
            return False
        atoms = shared.setdefault(atoms, atoms)
        present.add(atoms)
        clauses.append(atoms)
        return True

    for a in s.al:
        add(Atom.ge(a.lo, 1))
        add(Atom.le(a.lo, a.hi))
    for i, a in enumerate(s.al):
        for b in s.al[i + 1:]:
            add(Atom.lt(a.hi, b.lo), Atom.lt(b.hi, a.lo))
    for p in s.pt:
        add(Atom.ge(p.addr, 1))
    for l in s.li:
        add(Atom.ge(l.length, 1))
        add(Atom.ge(l.ad, 1))

    rules: List[Tuple[Atom, List[Atom]]] = []
    for i, p in enumerate(s.pt):
        for q in s.pt[i + 1:]:
            if p.ty == q.ty:
                rules.append((Atom.eq(p.addr, q.addr),
                              [Atom.eq(p.value, q.value)]))
                rules.append((Atom.ne(p.value, q.value),
                              [Atom.ne(p.addr, q.addr)]))
    for l in s.li:
        rules.append((Atom.eq(l.length, 1),
                      [Atom.eq(f.first, f.last) for f in l.fields]))
        rules.append((Atom.ge(l.length, 2), [Atom.ge(l.rec_field.first, 1)]))
        rules.extend((Atom.ne(f.first, f.last), [Atom.ge(l.length, 2)])
                     for f in l.fields)

    changed = True
    while changed:
        changed = False
        current = Formula(tuple(clauses))
        for question, facts in rules:
            if any((a,) not in present for a in facts) and \
                    engine.holds(current, question):
                for a in facts:
                    changed |= add(a)

    # The last round added nothing: its formula, already hashed and
    # compiled by the engine, is the result.
    cache[key] = current
    return current


def is_satisfiable(s: AbstractState, engine: Entailment) -> bool:
    return not engine.holds(state_formula(s, engine), Atom.false())


# --------------------------------------------------------------------------
# Renaming
# --------------------------------------------------------------------------

def rename_value(v: Value, ren: Mapping[SymVar, Value]) -> Value:
    """``v`` renamed by ``ren``: an integer, or a variable ``ren`` does not
    map, stays as it is."""
    return ren.get(v, v) if isinstance(v, SymVar) else v


def alpha_rename(s: AbstractState, ren: Dict[SymVar, SymVar]) -> AbstractState:
    """Homomorphic renaming; the map must be injective on the state's
    variables (unmentioned variables stay fixed)."""
    relevant = [v for v in s.sym_vars if v in ren]
    images = [ren[v] for v in relevant]
    if len(set(images)) != len(images):
        raise ValueError("renaming is not injective on the state's variables")

    r = partial(rename_value, ren=ren)
    return AbstractState.make(
        pos=s.pos,
        lv={k: r(v) for k, v in s.lv},
        al=[Allocation(r(a.lo), r(a.hi)) for a in s.al],
        pt=[PointsTo(r(p.addr), p.ty, r(p.value)) for p in s.pt],
        li=[l._replace(ad=r(l.ad), length=r(l.length),
                       fields=tuple(f._replace(first=r(f.first),
                                               last=r(f.last))
                                    for f in l.fields))
            for l in s.li],
        kb=rename_formula(s.kb, ren),
    )
