"""Byte-level concrete interpreter, linked-list memory predicate, and the
representation checker that ties concrete runs to abstract states.

The interpreter executes the same IR fragment the analyzer handles, with
byte-exact little-endian memory.  It is the test oracle: randomized runs are
replayed against symbolic execution graphs, checking at every prefix that
the concrete state is represented by the abstract state on the matching
path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (Container, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Tuple)

from . import ir
from .absdom import AbstractState, ErrState, StateOrErr, state_formula
from .ir import DataLayout, Instruction, Program, ProgramPosition, type_size
from .logic import (Atom, Entailment, Formula, OffsetClosure, SymVar,
                    eval_formula, propagate_equalities)


# --------------------------------------------------------------------------
# Byte codec (little endian: least significant byte at the lowest address)
# --------------------------------------------------------------------------

def encode_le(value: int, size: int) -> Tuple[int, ...]:
    return tuple((value >> (8 * i)) & 0xFF for i in range(size))


def decode_le(bs: Iterable[int]) -> int:
    total = 0
    for i, b in enumerate(bs):
        total += b << (8 * i)
    return total


def read_le(mem: Mapping[int, int], addr: int, size: int) -> Optional[int]:
    bs = []
    for a in range(addr, addr + size):
        if a not in mem:
            return None
        bs.append(mem[a])
    return decode_le(bs)


# --------------------------------------------------------------------------
# Concrete states and stepping
# --------------------------------------------------------------------------

@dataclass
class ConcreteState:
    pos: ProgramPosition
    asgn: Dict[str, int] = field(default_factory=dict)
    allocations: List[Tuple[int, int]] = field(default_factory=list)
    mem: Dict[int, int] = field(default_factory=dict)
    halted: bool = False
    error: bool = False

    def clone(self) -> "ConcreteState":
        return ConcreteState(self.pos, dict(self.asgn),
                             list(self.allocations), dict(self.mem),
                             self.halted, self.error)

    def allocated(self, lo: int, hi: int) -> bool:
        return any(alo <= lo and hi <= ahi for alo, ahi in self.allocations)


class FuelExhausted(Exception):
    """Raised when a concrete run does not halt within its step budget."""


@dataclass
class Trace:
    states: List[ConcreteState]
    instructions: List[Instruction]

    @property
    def final(self) -> ConcreteState:
        return self.states[-1]


def _operand_value(c: ConcreteState, op) -> Optional[int]:
    if isinstance(op, int):
        return op
    return c.asgn.get(op)


def _malloc_address(c: ConcreteState, size: int) -> int:
    """Smallest fresh start address >= 1 keeping a one-byte gap around
    every existing allocation."""
    a = 1
    while True:
        lo, hi = a, a + size - 1
        if all(hi + 1 < alo or ahi + 1 < lo for alo, ahi in c.allocations):
            return a
        a += 1


def concrete_step(c: ConcreteState, prog: Program,
                  nondet: Iterator[int]) -> ConcreteState:
    """Execute one instruction; returns a fresh state, never mutating ``c``."""
    assert not c.halted and not c.error
    n = c.clone()
    ins = prog.instruction_at(c.pos)
    nxt = prog.successor(c.pos)
    layout = prog.layout

    def err() -> ConcreteState:
        n.error = True
        n.halted = True
        return n

    if isinstance(ins, ir.Load):
        addr = _operand_value(c, ins.addr)
        size = type_size(ins.ty, layout)
        if addr is None or not c.allocated(addr, addr + size - 1):
            return err()
        val = read_le(c.mem, addr, size)
        if val is None:
            return err()
        n.asgn[ins.dst] = val
        n.pos = nxt
        return n

    if isinstance(ins, ir.Store):
        addr = _operand_value(c, ins.addr)
        val = _operand_value(c, ins.value)
        size = type_size(ins.ty, layout)
        if addr is None or val is None or not c.allocated(addr, addr + size - 1):
            return err()
        for i, b in enumerate(encode_le(val, size)):
            n.mem[addr + i] = b
        n.pos = nxt
        return n

    if isinstance(ins, ir.GepByte):
        base = _operand_value(c, ins.base)
        off = _operand_value(c, ins.offset)
        if base is None or off is None:
            return err()
        n.asgn[ins.dst] = base + off
        n.pos = nxt
        return n

    if isinstance(ins, ir.GepField):
        base = _operand_value(c, ins.base)
        idx = _operand_value(c, ins.index)
        if base is None or idx is None:
            return err()
        try:
            off = ir.field_offset(ins.agg, idx + 1, layout)
        except IndexError:
            return err()
        n.asgn[ins.dst] = base + off
        n.pos = nxt
        return n

    if isinstance(ins, ir.Icmp):
        a = _operand_value(c, ins.lhs)
        b = _operand_value(c, ins.rhs)
        if a is None or b is None:
            return err()
        result = {
            "eq": a == b, "ne": a != b,
            "ult": a < b, "ule": a <= b, "ugt": a > b, "uge": a >= b,
            "slt": a < b, "sle": a <= b, "sgt": a > b, "sge": a >= b,
        }[ins.pred]
        n.asgn[ins.dst] = int(result)
        n.pos = nxt
        return n

    if isinstance(ins, ir.BrCond):
        cond = _operand_value(c, ins.cond)
        if cond not in (0, 1):
            return err()
        n.pos = ProgramPosition(
            ins.then_block if cond == 1 else ins.else_block, 0)
        return n

    if isinstance(ins, ir.Br):
        n.pos = ProgramPosition(ins.block, 0)
        return n

    if isinstance(ins, ir.Add):
        a = _operand_value(c, ins.lhs)
        b = _operand_value(c, ins.rhs)
        if a is None or b is None:
            return err()
        n.asgn[ins.dst] = a + b
        n.pos = nxt
        return n

    if isinstance(ins, ir.Bitcast):
        v = _operand_value(c, ins.src)
        if v is None:
            return err()
        n.asgn[ins.dst] = v
        n.pos = nxt
        return n

    if isinstance(ins, ir.Malloc):
        size = _operand_value(c, ins.size)
        if size is None or size < 1:
            return err()
        a = _malloc_address(c, size)
        n.allocations.append((a, a + size - 1))
        for addr in range(a, a + size):
            n.mem[addr] = 0
        n.asgn[ins.dst] = a
        n.pos = nxt
        return n

    if isinstance(ins, ir.NondetInt):
        n.asgn[ins.dst] = next(nondet)
        n.pos = nxt
        return n

    if isinstance(ins, ir.Free):
        addr = _operand_value(c, ins.ptr)
        for i, (lo, hi) in enumerate(c.allocations):
            if lo == addr:
                del n.allocations[i]
                for a in range(lo, hi + 1):
                    n.mem.pop(a, None)
                n.pos = nxt
                return n
        return err()

    if isinstance(ins, ir.Ret):
        n.halted = True
        return n

    raise TypeError(f"unknown instruction {ins!r}")


def run_concrete(prog: Program, nondet: Iterator[int],
                 fuel: int = 10_000, partial: bool = False) -> Trace:
    """Run from the entry position; raises :class:`FuelExhausted` if the
    program does not halt within ``fuel`` steps.  With ``partial`` the
    truncated trace is returned instead."""
    c = ConcreteState(prog.entry_position)
    states = [c]
    instrs: List[Instruction] = []
    for _ in range(fuel):
        if c.halted:
            return Trace(states, instrs)
        instrs.append(prog.instruction_at(c.pos))
        c = concrete_step(c, prog, nondet)
        states.append(c)
    if c.halted:
        return Trace(states, instrs)
    if partial:
        return Trace(states, instrs)
    raise FuelExhausted(f"no halt within {fuel} steps")


def format_trace(t: Trace, prog: Program) -> str:
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

def eval_li_predicate(mem: Mapping[int, int], bs: int, j: int, ell: int,
                      ad: int, fields: List[Tuple[int, int, int, int]],
                      allocations: Container[Tuple[int, int]]) -> bool:
    """Does ``mem`` contain an ``ell``-element chain of allocated
    ``bs``-byte nodes starting at ``ad``?

    ``fields`` lists (offset, byte size, first-element value, last-element
    value); ``j`` is the 1-based index of the chain field.  Node footprints
    must be pairwise disjoint; intermediate elements' field values are read
    off the memory itself.  Every node must be one of the (start, end)
    ranges in ``allocations``.
    """
    if ell < 1:
        return False
    used: set = set()
    values = [first for _off, _size, first, _last in fields]
    while True:
        foot = range(ad, ad + bs)
        if any(a not in mem or a in used for a in foot):
            return False
        if (ad, ad + bs - 1) not in allocations:
            return False
        for (off, size, _first, _last), value in zip(fields, values):
            if read_le(mem, ad + off, size) != value:
                return False
        ell -= 1
        if ell == 0:
            return all(value == last for (_off, _size, _first, last), value
                       in zip(fields, values))
        used.update(foot)
        ad = values[j - 1]
        values = [read_le(mem, ad + off, size)
                  for off, size, _first, _last in fields]
        if None in values:
            return False


# --------------------------------------------------------------------------
# Representation of concrete states by abstract states
# --------------------------------------------------------------------------

def _solve_sigma(s: AbstractState, svars: Tuple[SymVar, ...],
                 seed: Dict[SymVar, int],
                 layout: DataLayout, c: ConcreteState,
                 formula: Formula,
                 probe: bool = False,
                 shift: int = 0) -> Optional[Dict[SymVar, int]]:
    """Extend a partial instantiation to all of the state's variables using
    conjunctive KB equalities, points-to values read from memory, and
    list-chain walking.  Returns None when some variable stays free.

    With ``probe`` the partial map is returned before witness values are
    invented, exposing which variables stay structurally undetermined."""
    sigma = dict(seed)
    eqs = [a for a in formula.atoms() if a.rel == "="]
    propagate_equalities(eqs, sigma)

    # Points-to entries whose address is known fix their value (and vice
    # versa nothing: values do not determine addresses).
    for p in s.pt:
        if p.addr in sigma and isinstance(p.value, SymVar) \
                and p.value not in sigma:
            got = read_le(c.mem, sigma[p.addr], type_size(p.ty, layout))
            if got is not None:
                sigma[p.value] = got
                propagate_equalities(eqs, sigma)

    # List invariants: walk the concrete chain from the root address.
    for l in s.li:
        if l.ad not in sigma:
            continue
        bs = type_size(l.ty, layout)
        sizes = [type_size(f.fty, layout) for f in l.fields]
        # First-element field values.
        for f, size in zip(l.fields, sizes):
            if isinstance(f.first, SymVar) and f.first not in sigma:
                got = read_le(c.mem, sigma[l.ad] + f.off, size)
                if got is not None:
                    sigma[f.first] = got
        propagate_equalities(eqs, sigma)
        # Walk the chain to find the length and the last-element values,
        # stopping when the rec field matches the (known) last rec value or
        # when the chain leaves allocated memory.
        rec = l.rec_field
        rec_size = sizes[l.rec_index - 1]
        stop = sigma.get(rec.last) if isinstance(rec.last, SymVar) \
            else rec.last
        want_len = sigma.get(l.length)
        # A walk must not run into the footprint of a sibling summary.
        other_roots = {sigma[l2.ad] for l2 in s.li
                       if l2 is not l and l2.ad in sigma}
        node = sigma[l.ad]
        count = 1
        visited = {node}
        while True:
            nxt = read_le(c.mem, node + rec.off, rec_size)
            if nxt is None:
                break
            if want_len is not None and count == want_len:
                break
            if want_len is None and stop is not None and nxt == stop:
                break
            if want_len is None and nxt in other_roots:
                break
            if nxt == 0 or nxt in visited:
                break
            node = nxt
            visited.add(node)
            count += 1
        if l.length not in sigma:
            sigma[l.length] = count
        for f, size in zip(l.fields, sizes):
            if isinstance(f.last, SymVar) and f.last not in sigma:
                got = read_le(c.mem, node + f.off, size)
                if got is not None:
                    sigma[f.last] = got
        # A materialized copy of the summary's last element shares its
        # field-value variables with the summary's lasts; anchor its
        # points-to addresses at the node the walk ended on.
        for p in s.pt:
            if not isinstance(p.addr, SymVar) or p.addr in sigma:
                continue
            for f in l.fields:
                if isinstance(f.last, SymVar) and p.value == f.last:
                    sigma[p.addr] = node + f.off
                    break
        propagate_equalities(eqs, sigma)

    if probe:
        return sigma

    # Leftover variables no longer tied to the program state (stale facts
    # about rebound variables) are existential: pick a witness from their
    # unit-coefficient bounds and let the formula check validate it.  Vars
    # linked to the witness by an equality chain translate their bounds
    # onto it, so a whole affine-connected class is assigned consistently.
    closure = OffsetClosure(formula)
    for _ in range(4):
        free = [v for v in svars if v not in sigma]
        if not free:
            break
        for v in free:
            if v in sigma:
                continue  # solved by a propagation round below
            lo = hi = None
            for a in formula.atoms():
                if a.rel != "<=":
                    continue
                coeff = 0
                rest = a.term.const
                usable = True
                for w, cc in a.term.coeffs:
                    if w in sigma:
                        rest += cc * sigma[w]
                        continue
                    d = closure.diff(w, v)  # w = v + d
                    if d is None:
                        usable = False
                        break
                    coeff += cc
                    rest += cc * d
                if not usable or coeff == 0:
                    continue
                # coeff*v + rest <= 0
                if coeff > 0:
                    hi_here = (-rest) // coeff
                    hi = hi_here if hi is None else min(hi, hi_here)
                else:
                    lo_here = -((-rest) // (-coeff))
                    lo = lo_here if lo is None else max(lo, lo_here)
            if hi is not None:
                sigma[v] = lo if lo is not None else hi
            else:
                # Unbounded above: shifting clear of concrete memory keeps
                # stale allocation extents disjoint from live allocations.
                sigma[v] = (lo if lo is not None else 0) + shift
            propagate_equalities(eqs, sigma)

    if any(v not in sigma for v in svars):
        return None
    return sigma


def represents(c: ConcreteState, s: StateOrErr, layout: DataLayout,
               engine: Entailment) -> bool:
    """Is the concrete state an instance of the abstract state?

    Builds the instantiation structurally (program variables anchor it,
    equalities and the heap propagate it) and then checks: variable-domain
    equality, the state formula under the instantiation, allocation images,
    points-to contents, and the chain predicate with chained per-element
    allocations for every list summary.
    """
    if isinstance(s, ErrState):
        return True  # ERR makes no claims; everything is an instance
    formula = state_formula(s, engine)
    svars = s.sym_vars

    lv = s.lv_map()
    if set(lv) != set(c.asgn):
        return False
    seed: Dict[SymVar, int] = {}
    for x, v in lv.items():
        if isinstance(v, int):
            if c.asgn[x] != v:
                return False
        elif v in seed:
            if seed[v] != c.asgn[x]:
                return False
        else:
            seed[v] = c.asgn[x]

    clear = max((hi for _, hi in c.allocations), default=0) + 64
    for shift in (0, clear):
        sigma = _solve_sigma(s, svars, seed, layout, c, formula,
                             shift=shift)
        if sigma is not None and _check_instance(c, s, layout, sigma,
                                                 formula):
            return True

    # Values propagated purely from the program-variable assignment are the
    # same under every instantiation, so a conflict among them is final.
    # This rejects wrong-branch candidates without the enumeration below.
    if not _seed_consistent(seed, formula):
        return False

    # The chain walk guesses each summary's extent greedily, which can go
    # wrong when several summaries carve up one chain and their boundary
    # variables are not solved yet, and a summary's root can be a stale
    # variable with no equality left to pin it down.  Both spaces are tiny
    # (short chains, few node-sized allocations), so enumerate.
    if not s.li:
        return False
    probe = _solve_sigma(s, svars, seed, layout, c, formula, probe=True)
    root_choices: List[List] = []
    for l in s.li:
        if isinstance(l.ad, SymVar) and l.ad not in probe:
            size = type_size(l.ty, layout)
            root_choices.append([lo for lo, hi in c.allocations
                                 if hi - lo + 1 == size])
        else:
            root_choices.append([None])
    roots = [l.ad for l in s.li]
    lengths = [l.length for l in s.li if isinstance(l.length, SymVar)
               and l.length not in seed]
    length_combos = [()] if not lengths else \
        list(itertools.product(range(1, 7), repeat=len(lengths)))
    attempts = 0
    for root_combo in itertools.product(*root_choices):
        for len_combo in length_combos:
            if root_combo == (None,) * len(root_combo) and not len_combo:
                continue  # the primary attempt above
            attempts += 1
            if attempts > 4096:
                return False
            seeded = dict(seed)
            for v, lo in zip(roots, root_combo):
                if lo is not None:
                    seeded[v] = lo
            seeded.update(zip(lengths, len_combo))
            for shift in (0, clear):
                sigma = _solve_sigma(s, svars, seeded, layout, c, formula,
                                     shift=shift)
                if sigma is not None and _check_instance(c, s, layout,
                                                         sigma, formula):
                    return True
    return False


def _seed_consistent(seed: Dict[SymVar, int], formula: Formula) -> bool:
    """Can any instantiation extending the seed satisfy the formula?  Only
    constraints fully determined by the seed (under equality propagation)
    are checked, so False is definitive while True is inconclusive."""
    sigma = dict(seed)
    propagate_equalities([a for a in formula.atoms() if a.rel == "="], sigma)

    def known(a: Atom) -> bool:
        return all(w in sigma for w, _ in a.term.coeffs)

    def holds(a: Atom) -> bool:
        val = a.term.const + sum(cc * sigma[w] for w, cc in a.term.coeffs)
        if a.rel == "<=":
            return val <= 0
        if a.rel == "=":
            return val == 0
        return val != 0

    for a in formula.atoms():
        if known(a) and not holds(a):
            return False
    for clause in formula.clauses:
        alts = list(clause)
        if all(known(alt) for alt in alts) \
                and not any(holds(alt) for alt in alts):
            return False
    return True


def _check_instance(c: ConcreteState, s, layout: DataLayout,
                    sigma: Dict[SymVar, int], formula: Formula) -> bool:
    if not eval_formula(sigma, formula):
        return False

    def sv(v) -> int:
        return v if isinstance(v, int) else sigma[v]

    # Allocations: each abstract allocation is a concrete allocation.
    for a in s.al:
        if (sv(a.lo), sv(a.hi)) not in c.allocations:
            return False

    # Points-to contents.
    for p in s.pt:
        got = read_le(c.mem, sv(p.addr), type_size(p.ty, layout))
        if got is None or got != sv(p.value):
            return False

    # List summaries: the chain predicate over allocated nodes.
    for l in s.li:
        fields = [(f.off, type_size(f.fty, layout), sv(f.first), sv(f.last))
                  for f in l.fields]
        if not eval_li_predicate(c.mem, type_size(l.ty, layout), l.rec_index,
                                 sv(l.length), sv(l.ad), fields,
                                 c.allocations):
            return False
    return True
