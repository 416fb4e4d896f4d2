"""Byte-level concrete interpreter, linked-list memory predicate, and the
representation checker that ties concrete runs to abstract states.

The interpreter executes the same IR fragment the analyzer handles, with
byte-exact little-endian memory; a step shares the variables, memory and
allocation list of the state before it unless it changes them.  It is the
test oracle: randomized runs are replayed against symbolic execution graphs,
checking at every prefix that the concrete state is represented by the
abstract state on the matching path.

The representation check compiles each abstract state once into the
equality classes of its state formula and a plan that binds them: program
variables first, then solved equalities, points-to reads and list summaries
walked along their recursive field, each placement the heap allows tried in
turn.  Extents are read off the heap, not guessed (Brotherston, Gorogiannis,
Kanovich & Rowe, POPL 2016), and list lengths have no bound.  So one run's
checks share a memo of each heap, keyed by the identity of its memory dict
and allocation list, that lives as long as the walk of that run.
"""

from __future__ import annotations

from typing import (Container, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple, Union)

from . import ir
from .absdom import (AbstractState, ErrState, ListInvariant, StateOrErr,
                     Value, state_formula)
from .ir import (ICMP, Fields, Instruction, Layout, Program, ProgramPosition,
                 Record, type_size)
from .logic import (EQ, NE, Atom, Entailment, Formula, OffsetClosure, SymVar,
                    relation_holds)


# --------------------------------------------------------------------------
# Byte codec (little endian: least significant byte at the lowest address)
# --------------------------------------------------------------------------

def encode_le(value: int, size: int) -> Tuple[int, ...]:
    return tuple((value >> (8 * i)) & 0xFF for i in range(size))


def decode_le(bs: Iterable[int]) -> int:
    return int.from_bytes(bytes(bs), "little")


def read_le(mem: Mapping[int, int], addr: int, size: int) -> Optional[int]:
    try:
        return decode_le(map(mem.__getitem__, range(addr, addr + size)))
    except KeyError:
        return None


# --------------------------------------------------------------------------
# Concrete states and stepping
# --------------------------------------------------------------------------

class ConcreteState(Fields):
    __slots__ = ("pos", "asgn", "allocations", "mem", "halted", "error")
    pos: ProgramPosition
    asgn: Dict[str, int]
    allocations: List[Tuple[int, int]]
    mem: Dict[int, int]
    halted: bool
    error: bool

    def __init__(self, pos: ProgramPosition,
                 asgn: Optional[Dict[str, int]] = None,
                 allocations: Optional[List[Tuple[int, int]]] = None,
                 mem: Optional[Dict[int, int]] = None,
                 halted: bool = False, error: bool = False) -> None:
        self.pos = pos
        self.asgn = {} if asgn is None else asgn
        self.allocations = [] if allocations is None else allocations
        self.mem = {} if mem is None else mem
        self.halted = halted
        self.error = error

    def __eq__(self, other: object) -> bool:
        # Fields.__eq__ spelled out: a run compares its states at every step.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.pos, self.asgn, self.allocations, self.mem, self.halted,
                self.error) == (other.pos, other.asgn, other.allocations,
                                other.mem, other.halted, other.error)

    def allocated(self, lo: int, hi: int) -> bool:
        return any(alo <= lo and hi <= ahi for alo, ahi in self.allocations)


class FuelExhausted(Exception):
    """Raised when a concrete run neither halts nor repeats a state within
    its step budget; ``trace`` is the run up to there."""

    def __init__(self, message: str, trace: "Trace"):
        super().__init__(message)
        self.trace = trace


class Trace(Fields):
    """A run: ``instructions[i]`` leads from ``states[i]`` to
    ``states[i + 1]``.  A run that diverges ends in a lasso: ``loop`` is the
    index of the state that its last state repeats, so the run goes on by
    repeating ``states[loop:]`` forever.  It is None for a run that halts or
    is cut short."""

    states: List[ConcreteState]
    instructions: List[Instruction]
    loop: Optional[int]

    def __init__(self, states: List[ConcreteState],
                 instructions: List[Instruction],
                 loop: Optional[int] = None) -> None:
        self.states = states
        self.instructions = instructions
        self.loop = loop

    @property
    def final(self) -> ConcreteState:
        return self.states[-1]


class _Fault(Exception):
    """The instruction cannot execute: the run fails there."""


def _operand(c: ConcreteState, op) -> int:
    if isinstance(op, int):
        return op
    try:
        return c.asgn[op]
    except KeyError:
        raise _Fault from None  # an undefined variable


def _malloc_address(c: ConcreteState, size: int) -> int:
    """Smallest fresh start address >= 1 keeping a one-byte gap around
    every existing allocation."""
    a = 1
    while True:
        lo, hi = a, a + size - 1
        if all(hi + 1 < alo or ahi + 1 < lo for alo, ahi in c.allocations):
            return a
        a += 1


def _step(c: ConcreteState, ins: Instruction, prog: Program,
          nondet: Iterator[int]) -> ConcreteState:
    """Execute ``ins``, the instruction at ``c.pos``; returns a fresh state,
    never mutating ``c``.

    The new state shares ``asgn``, ``mem`` and ``allocations`` with ``c``
    unless the instruction changes them, which copies them first, so a
    state must not be mutated once a step has been taken from it.  A failing
    instruction raises :class:`_Fault`, and the state it leads to keeps
    ``c``'s position and contents, halted with an error."""
    assert not c.halted and not c.error
    n = ConcreteState(c.pos, c.asgn, c.allocations, c.mem)
    layout = prog.layout
    try:
        if isinstance(ins, ir.Load):
            addr = _operand(c, ins.addr)
            size = type_size(ins.ty, layout)
            val = read_le(c.mem, addr, size) \
                if c.allocated(addr, addr + size - 1) else None
            if val is None:
                raise _Fault  # outside every allocation, or undefined bytes
            n.asgn = {**c.asgn, ins.dst: val}

        elif isinstance(ins, ir.Store):
            addr = _operand(c, ins.addr)
            val = _operand(c, ins.value)
            size = type_size(ins.ty, layout)
            if not c.allocated(addr, addr + size - 1):
                raise _Fault
            n.mem = dict(c.mem)
            n.mem.update(zip(range(addr, addr + size), encode_le(val, size)))

        elif isinstance(ins, ir.GepByte):
            n.asgn = {**c.asgn, ins.dst: _operand(c, ins.base)
                      + _operand(c, ins.offset)}

        elif isinstance(ins, ir.GepField):
            idx = _operand(c, ins.index)
            offs = layout[ins.agg.name].offsets
            if not 0 <= idx < len(offs):
                raise _Fault  # no such field
            n.asgn = {**c.asgn, ins.dst: _operand(c, ins.base) + offs[idx]}

        elif isinstance(ins, ir.Icmp):
            held = ICMP[ins.pred](_operand(c, ins.lhs), _operand(c, ins.rhs))
            n.asgn = {**c.asgn, ins.dst: int(held)}

        elif isinstance(ins, ir.BrCond):
            cond = _operand(c, ins.cond)
            if cond not in (0, 1):
                raise _Fault
            n.pos = prog.position(ins.then_block if cond else ins.else_block, 0)
            return n

        elif isinstance(ins, ir.Br):
            n.pos = prog.position(ins.block, 0)
            return n

        elif isinstance(ins, ir.Add):
            n.asgn = {**c.asgn, ins.dst: _operand(c, ins.lhs)
                      + _operand(c, ins.rhs)}

        elif isinstance(ins, ir.Bitcast):
            n.asgn = {**c.asgn, ins.dst: _operand(c, ins.src)}

        elif isinstance(ins, ir.Malloc):
            size = _operand(c, ins.size)
            if size < 1:
                raise _Fault
            a = _malloc_address(c, size)
            n.allocations = c.allocations + [(a, a + size - 1)]
            n.mem = dict(c.mem)
            n.mem.update((addr, 0) for addr in range(a, a + size))
            n.asgn = {**c.asgn, ins.dst: a}

        elif isinstance(ins, ir.NondetInt):
            n.asgn = {**c.asgn, ins.dst: next(nondet)}

        elif isinstance(ins, ir.Free):
            addr = _operand(c, ins.ptr)
            i = next((i for i, (lo, _) in enumerate(c.allocations)
                      if lo == addr), None)
            if i is None:
                raise _Fault  # not the start of an allocation
            lo, hi = c.allocations[i]
            n.allocations = c.allocations[:i] + c.allocations[i + 1:]
            n.mem = {a: b for a, b in c.mem.items() if not lo <= a <= hi}

        elif isinstance(ins, ir.Ret):
            n.halted = True
            return n

        else:
            raise TypeError(f"unknown instruction {ins!r}")
    except _Fault:
        return ConcreteState(c.pos, c.asgn, c.allocations, c.mem,
                             halted=True, error=True)
    n.pos = prog.successor(c.pos)
    return n


def run_concrete(prog: Program, nondet: Iterator[int],
                 fuel: int = 10_000, partial: bool = False) -> Trace:
    """Run from the entry position until the program halts or a state
    repeats, within ``fuel`` steps.

    A state that repeats an earlier one (same position, variables,
    allocations and memory) with no input read in between makes the run a
    lasso: from there it goes round the same loop forever.  The trace then
    ends at the first repeat, with ``loop`` set (:class:`Trace`).  Repeats
    are found Brent style: each state is compared with one saved state,
    which moves forward whenever the steps since it reach a power of two,
    and every input read starts the search afresh (Brent, BIT 1980).

    A run that neither halts nor repeats within ``fuel`` steps raises
    :class:`FuelExhausted`; with ``partial`` the trace cut there is
    returned instead."""
    c = ConcreteState(prog.entry_position)
    states = [c]
    instrs: List[Instruction] = []
    start = 0  # the first state after the last input read
    saved, lap, power = c, 0, 1
    for _ in range(fuel):
        if c.halted:
            return Trace(states, instrs)
        ins = prog.instruction_at(c.pos)
        instrs.append(ins)
        c = _step(c, ins, prog, nondet)
        states.append(c)
        if isinstance(ins, ir.NondetInt):
            start, saved, lap, power = len(states) - 1, c, 0, 1
            continue
        lap += 1
        if c == saved:  # field by field, each shared dict by identity first
            return _lasso(states, instrs, start, lap)
        if lap == power:
            saved, lap, power = c, 0, 2 * power
    if c.halted:
        return Trace(states, instrs)
    # The saved state may lag behind a repeat that the fuel still covers.
    last = len(states) - 1
    lap = next((last - i for i in range(last - 1, start - 1, -1)
                if states[i] == c), None)
    if lap is not None:
        return _lasso(states, instrs, start, lap)
    if partial:
        return Trace(states, instrs)
    raise FuelExhausted(f"no halt or repeat within {fuel} steps",
                        Trace(states, instrs))


def _lasso(states: List[ConcreteState], instrs: List[Instruction],
           start: int, lap: int) -> Trace:
    """The run cut at its first repeat, given that the states from
    ``start`` on read no input and end ``lap`` steps after a state equal to
    the last one."""
    loop = next(i for i in range(start, len(states))
                if states[i] == states[i + lap])
    return Trace(states[:loop + lap + 1], instrs[:loop + lap], loop)


def format_trace(t: Trace) -> str:
    lines = []
    for before, ins, after in zip(t.states, t.instructions, t.states[1:]):
        changed = {a: v for a, v in after.mem.items()
                   if before.mem.get(a) != v}
        cells = " ".join(f"{a}:{v}" for a, v in sorted(changed.items()))
        lines.append(f"{before.pos} | {ir.format_instruction(ins)} | {cells}")
    if t.final.error:
        lines.append("-- error --")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# The linked-list memory predicate
# --------------------------------------------------------------------------

def walk_chain(mem: Mapping[int, int], bs: int, rec: int, ad: int,
               fields: Sequence[Tuple[int, int]],
               allocations: Container[Tuple[int, int]]
               ) -> Iterator[Tuple[int, List[int]]]:
    """The nodes of the chain from ``ad`` with their field values, following
    field ``rec`` (0-based) of ``fields``, (offset, byte size) pairs.  The
    chain goes on while the next node is one of the (start, end) ranges in
    ``allocations``, is ``bs`` bytes long, has every byte defined and
    misses the footprints of the nodes before it."""
    used: set = set()
    while (ad, ad + bs - 1) in allocations:
        foot = range(ad, ad + bs)
        if not used.isdisjoint(foot) or not all(map(mem.__contains__, foot)):
            return
        values = [read_le(mem, ad + off, size) for off, size in fields]
        if None in values:
            return
        yield ad, values
        used.update(foot)
        ad = values[rec]


# --------------------------------------------------------------------------
# Representation of concrete states by abstract states
# --------------------------------------------------------------------------

# A value compiled against a state's equality classes: (class, offset) is
# the class's value plus the offset.  Integer literals are offsets from the
# class of the constant 0.
Ref = Tuple[int, int]
Terms = Tuple[Tuple[int, int], ...]  # (class, coefficient) pairs
# A compiled atom ``const + sum(coeff * class value) REL 0``.
CAtom = Tuple[str, int, Terms]
CClause = Tuple[CAtom, ...]


class _Walk(Record):
    """Plan step: place one list summary on the heap (:func:`_extents`)."""

    root: Ref
    find: bool                                     # the root is not bound
    node_size: int
    fields: Tuple[Tuple[int, int, Ref, Ref], ...]  # offset, size, first, last
    rec: int                                       # index of the rec field
    length: Ref
    anchors: Tuple[Tuple[Ref, int], ...]  # the last node's pt: address, offset


class _Solve(Record):
    """Plan step: bind class ``cls`` to the least value the rows
    ``k * cls + const + terms <= 0`` over bound classes allow, else the
    greatest, else ``default``: an equality's two rows leave one value."""

    cls: int
    rows: Tuple[Tuple[int, int, Terms], ...]
    default: int = 0


class _Plan(Record):
    """An abstract state compiled for :func:`represents`."""

    lv: Tuple[Tuple[str, Ref], ...]
    init: Tuple[Optional[int], ...]    # class values before any binding
    # In binding order: walks, solved classes, and reads of a points-to
    # value at a bound address as (address, size, value).
    steps: Tuple[Union[Tuple[Ref, int, Ref], _Walk, _Solve], ...]
    # checks[i]: the clauses decided once steps[:i] have run.
    checks: Tuple[Tuple[CClause, ...], ...]
    al: Tuple[Tuple[Ref, Ref], ...]
    pt: Tuple[Tuple[Ref, int, Ref], ...]  # the points-to entries no step reads


def _compile(s: AbstractState, formula: Formula, layout: Layout,
             shared: Dict[tuple, tuple]) -> _Plan:
    """Order the state's bindings: program variables; then equalities
    solved for their one unbound class, points-to reads and summary walks
    as their inputs get bound; then witnesses for the classes left.  Each
    clause is checked at the first step that binds all of its classes.
    Each clause, reference and program-variable entry is the one copy of it
    in ``shared``, which the plans of one engine share."""
    closure = OffsetClosure(formula)
    index: Dict[SymVar, int] = {}

    def share(t: tuple) -> tuple:
        return shared.setdefault(t, t)

    def ref(v: Value) -> Ref:
        root, off = closure.find(v)
        return share((index.setdefault(root, len(index)), off))

    zero = ref(0)  # the constant 0's class, whose value is -zero[1]

    def catom(a: Atom) -> CAtom:
        const, coeffs = a.term.const, {}
        for v, k in a.term.coeffs:
            cls, off = ref(v)
            const += k * off
            coeffs[cls] = coeffs.get(cls, 0) + k
        const -= coeffs.pop(zero[0], 0) * zero[1]
        return a.rel, const, tuple((c, k) for c, k in coeffs.items() if k)

    lv = tuple(share((x, ref(v))) for x, v in s.lv)
    bound = {zero[0]} | {r[0] for _, r in lv}
    known = [frozenset(bound)]  # the classes bound before each step
    steps: List[Union[Tuple[Ref, int, Ref], _Walk, _Solve]] = []
    pts, lis = list(s.pt), list(s.li)
    eqs = []  # the equalities the classes did not absorb
    bounds = []  # (const, terms) of the atoms ``const + terms <= 0``
    for rel, const, t in map(catom, formula.atoms()):
        if rel == EQ:
            eqs.append(t)
            bounds.append((-const, tuple((c, -k) for c, k in t)))
        if rel != NE:
            bounds.append((const, t))

    def add(step, classes: Iterable[int]) -> None:
        steps.append(step)
        bound.update(classes)
        known.append(frozenset(bound))

    def only_unbound(terms: Terms) -> Optional[int]:
        free = [c for c, _ in terms if c not in bound]
        return free[0] if len(free) == 1 else None

    def solve(cls: int, default: int = 0) -> None:
        add(_Solve(cls, tuple(
            (dict(t)[cls], const, tuple(x for x in t if x[0] != cls))
            for const, t in bounds if only_unbound(t) == cls), default), [cls])

    def solve_equalities() -> None:
        while (cls := next((c for c in map(only_unbound, eqs)
                            if c is not None), None)) is not None:
            solve(cls)

    def is_bound(v: Value) -> bool:
        return ref(v)[0] in bound

    def rank(l: ListInvariant):  # sure walks first, guessed roots last
        return (not is_bound(l.ad), not is_bound(l.length),
                not is_bound(l.rec_field.last),
                -sum(is_bound(f.first) for f in l.fields))

    while True:
        solve_equalities()
        if (p := next((p for p in pts if is_bound(p.addr)), None)) is not None:
            pts.remove(p)
            add((ref(p.addr), type_size(p.ty, layout), ref(p.value)),
                [ref(p.value)[0]])
        elif lis:
            l = min(lis, key=rank)
            lis.remove(l)
            lasts = {f.last: f.off for f in reversed(l.fields)  # first wins
                     if isinstance(f.last, SymVar)}
            anchors = [p for p in pts if p.value in lasts]
            add(_Walk(
                root=ref(l.ad), find=not is_bound(l.ad),
                node_size=type_size(l.ty, layout),
                fields=tuple((f.off, type_size(f.fty, layout), ref(f.first),
                              ref(f.last)) for f in l.fields),
                rec=l.rec_index - 1, length=ref(l.length),
                anchors=tuple((ref(p.addr), lasts[p.value])
                              for p in anchors)),
                (ref(v)[0] for v in [l.ad, l.length] + [
                    p.addr for p in anchors] + [f.first for f in l.fields]
                 + [f.last for f in l.fields]))
        else:
            break

    # Variables no step binds are existential (stale facts about rebound
    # variables): each class takes a witness from its bounds over bound
    # classes, and the checks validate the choice.
    for cls, off in map(ref, s.sym_vars):
        if cls not in bound:
            solve(cls, -off)
            solve_equalities()

    checks: List[List[CClause]] = [[] for _ in known]
    for clause in formula.clauses:
        alts = [catom(a) for a in clause]
        if any(relation_holds(*a[:2]) for a in alts if not a[2]):
            continue  # true under every binding, e.g. an equality's class
        alts = [a for a in alts if a[2]]
        classes = {c for _, _, terms in alts for c, _ in terms}
        at = next((i for i, k in enumerate(known) if classes <= k),
                  len(steps))
        checks[at].append(share(tuple(alts)))

    init: List[Optional[int]] = [None] * len(index)
    init[zero[0]] = -zero[1]
    return _Plan(
        lv=lv, init=tuple(init),
        steps=tuple(steps), checks=tuple(tuple(c) for c in checks),
        al=tuple((ref(a.lo), ref(a.hi)) for a in s.al),
        pt=tuple((ref(p.addr), type_size(p.ty, layout), ref(p.value))
                 for p in pts))


def _value(val: List[Optional[int]], r: Ref) -> int:
    return val[r[0]] + r[1]


def _bind(val: List[Optional[int]], r: Ref, x: Optional[int]) -> bool:
    """Make ``r`` equal ``x`` by binding its class, or check that it does."""
    if x is None:
        return False
    cls, off = r
    if val[cls] is None:
        val[cls] = x - off
        return True
    return val[cls] + off == x


def _solve(val: List[Optional[int]], st: _Solve) -> None:
    rests = [(k, const + sum(kk * val[c] for c, kk in terms))
             for k, const, terms in st.rows]  # k * x + rest <= 0
    los = [-(-rest // -k) for k, rest in rests if k < 0]
    his = [-rest // k for k, rest in rests if k > 0]
    val[st.cls] = max(los) if los else min(his) if his else st.default


def _satisfied(clauses: Iterable[CClause], val: List[Optional[int]]) -> bool:
    for clause in clauses:
        for rel, const, terms in clause:
            for c, k in terms:
                const += k * val[c]
            if relation_holds(rel, const):
                break
        else:
            return False
    return True


class _Heap:
    """What the representation check reads off one heap: its allocations,
    and each chain :func:`walk_chain` yields per (bs, rec, fields, root)."""

    def __init__(self, c: ConcreteState):
        self.mem, self.blocks = c.mem, c.allocations  # their ids are its key
        self.allocations = set(c.allocations)
        self.roots: Dict[int, List[int]] = {}
        for lo, hi in c.allocations:
            self.roots.setdefault(hi - lo + 1, []).append(lo)
        self.chains: Dict[tuple, List[Tuple[int, List[int]]]] = {}


def _extents(w: _Walk, val: List[Optional[int]], heap: _Heap
             ) -> Iterator[List[Optional[int]]]:
    """The bindings for every placement of the summary the heap allows.

    The root is bound, or (``find``) it is any node-sized allocation whose
    fields hold the bound first values.  From the root the summary follows
    the chain :func:`walk_chain` accepts and may end at any of its nodes
    that agrees with the bound length and last values.  The end node gives
    the length, the last values and the addresses of the ``anchors``."""
    roots = heap.roots.get(w.node_size, []) if w.find else \
        [_value(val, w.root)]
    fields = tuple(f[:2] for f in w.fields)
    for root in roots:
        v = list(val)
        key = w.node_size, w.rec, fields, root
        if (chain := heap.chains.get(key)) is None:
            chain = heap.chains[key] = list(walk_chain(
                heap.mem, w.node_size, w.rec, root, fields, heap.allocations))
        if not chain or not _bind(v, w.root, root) or not all(
                _bind(v, f[2], x) for f, x in zip(w.fields, chain[0][1])):
            continue
        for k, (end, values) in enumerate(chain):
            v2 = list(v)
            if _bind(v2, w.length, k + 1) and all(
                    _bind(v2, f[3], x) for f, x in zip(w.fields, values)) \
                    and all(_bind(v2, addr, end + off)
                            for addr, off in w.anchors):
                yield v2


def _search(plan: _Plan, i: int, val: List[Optional[int]],
            heap: _Heap) -> bool:
    """Run the plan from step ``i``, trying each placement a walk allows."""
    for i in range(i, len(plan.steps)):
        if plan.checks[i] and not _satisfied(plan.checks[i], val):
            return False
        step = plan.steps[i]
        if isinstance(step, _Walk):
            return any(_search(plan, i + 1, v, heap)
                       for v in _extents(step, val, heap))
        if isinstance(step, _Solve):
            _solve(val, step)
        else:
            addr, size, out = step
            if not _bind(val, out, read_le(heap.mem, _value(val, addr), size)):
                return False
    # Walks placed every summary on a chain the list predicate accepts.
    return _satisfied(plan.checks[-1], val) and all(
        (_value(val, lo), _value(val, hi)) in heap.allocations
        for lo, hi in plan.al) and all(
        read_le(heap.mem, _value(val, addr), size) == _value(val, value)
        for addr, size, value in plan.pt)


def represents(c: ConcreteState, s: StateOrErr, layout: Layout,
               engine: Entailment, *,
               heaps: Optional[Dict[Tuple[int, int], _Heap]] = None) -> bool:
    """Is the concrete state an instance of the abstract state?

    The state is compiled once per engine (:func:`_compile`).  Program
    variables, equalities solved for their one unbound class, points-to
    reads and summary walks bind the classes off the heap, and each clause
    of the state formula is checked as soon as its classes are bound.  A
    walk places a summary only on a chain the list predicate accepts
    (:func:`walk_chain`) and tries every placement the heap allows.
    Classes that nothing binds take witnesses, which equalities extend;
    then the allocation images and the points-to entries no step read are
    checked.

    ``heaps`` memoizes what walks read off each heap, keyed by the ids of
    its memory dict and allocation list, for one run; no answer changes.

    No bound remains, on list lengths or on the number of placements tried:
    both are finite, read off the heap.  True is always an instance; only a
    witness choice is heuristic, so False is final unless a class that no
    program variable, memory cell, walk or equality determines needed
    another value.
    """
    if isinstance(s, ErrState):
        return True  # ERR makes no claims; everything is an instance
    plan = engine.state_plans.get(s)
    if plan is None:
        plan = _compile(s, state_formula(s, engine), layout, engine.shared)
        engine.state_plans[s] = plan
    if len(plan.lv) != len(c.asgn):
        return False  # names are checked as they bind
    val = list(plan.init)
    for x, r in plan.lv:
        if not _bind(val, r, c.asgn.get(x)):
            return False
    heaps = {} if heaps is None else heaps
    key = id(c.mem), id(c.allocations)
    heap = heaps.get(key) or heaps.setdefault(key, _Heap(c))
    return _search(plan, 0, val, heap)
