"""Mini-LLVM IR: types, data layout, instructions, and the textual parser.

The accepted language is a small fixed fragment: named aggregate type
declarations, a single ``@main`` function with labeled basic blocks, and the
handful of instructions needed for heap-manipulating loop programs (load,
store, both getelementptr forms, icmp, branches, add, bitcast, malloc,
nondet, free, ret).  Everything is immutable after parsing.

This module says once what the IR means, and the interpreter and the
symbolic rules both read it: a program's ``layout`` holds one
:class:`Aggregate` per struct (field types, byte offsets, padded size and
chain field), and :data:`ICMP` gives the comparison each ``icmp``
predicate makes.  Values are unbounded integers, so the signed and
unsigned forms of a comparison are the same comparison.
"""

from __future__ import annotations

import operator
import re
from functools import cached_property
from typing import Collection, Dict, List, NamedTuple, Optional, Tuple, Union


class Fields:
    """A record compared and printed by its fields, which are its class's
    annotated names, in order: it equals only its own class's records with
    equal fields, and prints as a dataclass.  The mutable ones (the
    interpreter's states and traces, the graph, the transition system)
    derive from it directly, set their fields in ``__init__`` and are
    unhashable; the immutable ones derive from :class:`Record`."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{n}={v!r}" for n, v in zip(self._fields, self._values())) + ")"


class Record(Fields):
    """An immutable :class:`Fields` record, with class attributes as
    defaults, that hashes as a frozen dataclass, but defining one generates
    no code.  A class hashed on the hot path derives from
    :class:`HashedRecord`."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        values = dict(zip(fields, args), **kwargs)
        if len(values) < len(args) + len(kwargs) or values.keys() - fields \
                or not all(n in values or hasattr(self, n) for n in fields):
            raise TypeError(f"{type(self).__name__} takes the fields {fields}")
        for n in fields:  # in one order, so that instances share their keys
            object.__setattr__(self, n, values.get(n, getattr(self, n, None)))

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, _value: object = None) -> None:
        raise AttributeError(f"cannot change field {name!r}")

    __delattr__ = __setattr__


class HashedRecord(Record):
    """A :class:`Record`, its fields listed in ``__slots__``, that keeps its
    hash, the field tuple's, once computed: ``logic.Formula``, which keys
    the engine's caches, and ``absdom.Memory`` and ``absdom.AbstractState``,
    which key the state formulas and the replay plans.  A subclass that
    defines ``__eq__`` re-binds this ``__hash__``, which Python drops from
    a class that defines ``__eq__``."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self._values()))
            return self._hash


class ParseError(Exception):
    """Syntax or resolution error, carrying line and column information."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


# --------------------------------------------------------------------------
# Types and layout
# --------------------------------------------------------------------------

class IntType(NamedTuple):
    width: int  # bits

    def __str__(self) -> str:
        return f"i{self.width}"


class PtrType(NamedTuple):
    pointee: "IrType"

    def __str__(self) -> str:
        return f"{self.pointee}*"


class AggType(NamedTuple):
    """A named struct, by name only, so that a struct can point to itself;
    its layout is the program's ``layout[name]``."""

    name: str

    def __str__(self) -> str:
        return self.name


IrType = Union[IntType, PtrType, AggType]

_INT_SIZES = {1: 1, 8: 1, 32: 4, 64: 8}
PTR_SIZE = 8  # a fixed 64-bit little-endian layout with natural alignment


class Aggregate(Record):
    """A struct's layout: its field types, each field's byte offset, its
    padded size, and the 1-based index of its pointer-to-self field when
    there is exactly one (None when there are none or several)."""

    fields: Tuple[IrType, ...]
    offsets: Tuple[int, ...]
    size: int
    rec_index: Optional[int]

    @staticmethod
    def of(name: str, fields: Tuple[IrType, ...]) -> "Aggregate":
        # Aggregates nest only through pointers, so every field (an integer
        # or a pointer) has a fixed size and is aligned to it.
        sizes = [type_size(f, {}) for f in fields]
        offsets, end = [], 0
        for size in sizes:
            offsets.append((end + size - 1) // size * size)
            end = offsets[-1] + size
        align = max(sizes)
        hits = [i + 1 for i, f in enumerate(fields)
                if f == PtrType(AggType(name))]
        return Aggregate(fields, tuple(offsets),
                         (end + align - 1) // align * align,
                         hits[0] if len(hits) == 1 else None)


Layout = Dict[str, Aggregate]  # each struct's record, by name


def type_size(ty: IrType, layout: Layout) -> int:
    """Byte size of a type under the given layout."""
    if isinstance(ty, IntType):
        return _INT_SIZES[ty.width]
    if isinstance(ty, PtrType):
        return PTR_SIZE
    return layout[ty.name].size


# The comparison each icmp predicate makes on unbounded integers.
ICMP = {"eq": operator.eq, "ne": operator.ne,
        "ult": operator.lt, "slt": operator.lt,
        "ule": operator.le, "sle": operator.le,
        "ugt": operator.gt, "sgt": operator.gt,
        "uge": operator.ge, "sge": operator.ge}


# --------------------------------------------------------------------------
# Instructions
# --------------------------------------------------------------------------

Operand = Union[str, int]  # program variable name or integer literal


class Load(Record):
    dst: str
    ty: IrType
    addr: Operand


class Store(Record):
    ty: IrType
    value: Operand
    addr: Operand


class GepByte(Record):
    """``dst = getelementptr i8, i8* base, iN offset``: raw byte arithmetic."""

    dst: str
    base: Operand
    offset: Operand


class GepField(Record):
    """``dst = getelementptr ty, ty* base, iN 0, iN index``: field address."""

    dst: str
    agg: AggType
    base: Operand
    index: Operand  # 0-based field index operand


class Icmp(Record):
    dst: str
    pred: str  # a key of ICMP
    ty: IrType
    lhs: Operand
    rhs: Operand


class BrCond(Record):
    cond: Operand
    then_block: str
    else_block: str


class Br(Record):
    block: str


class Add(Record):
    dst: str
    ty: IrType
    lhs: Operand
    rhs: Operand


class Bitcast(Record):
    dst: str
    from_ty: IrType
    src: Operand
    to_ty: IrType


class Malloc(Record):
    dst: str
    size: Operand  # bytes


class NondetInt(Record):
    dst: str
    width: int


class Free(Record):
    ptr: Operand


class Ret(Record):
    value: Optional[Operand] = None


Instruction = Union[Load, Store, GepByte, GepField, Icmp, BrCond, Br, Add,
                    Bitcast, Malloc, NondetInt, Free, Ret]

TERMINATORS = (Br, BrCond, Ret)


def operands(ins: Instruction) -> Tuple[Operand, ...]:
    """The values an instruction reads: its fields annotated ``Operand``
    (annotations are text, as this module postpones them), in field order;
    a return's optional value is not one."""
    return tuple(getattr(ins, n) for n, t in
                 type(ins).__annotations__.items() if t == "Operand")


def branch_targets(ins: Instruction) -> Tuple[str, ...]:
    """The blocks an instruction may jump to: none unless it branches."""
    if isinstance(ins, BrCond):
        return ins.then_block, ins.else_block
    return (ins.block,) if isinstance(ins, Br) else ()


class ProgramPosition(NamedTuple):
    block: str
    index: int

    def __str__(self) -> str:
        return f"{self.block}:{self.index}"


class Program(Record):
    entry: str
    blocks: Tuple[Tuple[str, Tuple[Instruction, ...]], ...]
    layout: Layout  # sorted by name

    @cached_property
    def _blocks(self) -> Dict[str, Tuple[Instruction, ...]]:
        # The parser rejects duplicate labels, so each names one block.
        return dict(self.blocks)

    def block(self, name: str) -> Tuple[Instruction, ...]:
        try:
            return self._blocks[name]
        except KeyError:
            raise KeyError(f"unknown block {name!r}") from None

    def instruction_at(self, pos: ProgramPosition) -> Instruction:
        return self.block(pos.block)[pos.index]

    @cached_property
    def _positions(self) -> Dict[Tuple[str, int], ProgramPosition]:
        # Shared position objects: a concrete run allocates none per step.
        return {(n, i): ProgramPosition(n, i)
                for n, body in self.blocks for i in range(len(body) + 1)}

    def position(self, block: str, index: int) -> ProgramPosition:
        return self._positions[block, index]

    @property
    def entry_position(self) -> ProgramPosition:
        return self.position(self.entry, 0)

    def successor(self, pos: ProgramPosition) -> ProgramPosition:
        return self.position(pos.block, pos.index + 1)


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

_IDENT = r"[A-Za-z_][A-Za-z0-9_.]*"
_TYPE_DECL = re.compile(rf"({_IDENT})\s*=\s*type\s*\{{(.*)\}}\s*$")
_LABEL = re.compile(rf"({_IDENT})\s*:\s*$")


def _parse_type(text: str, known: Collection[str], line: int) -> IrType:
    text = text.strip()
    stars = 0
    while text.endswith("*"):
        stars += 1
        text = text[:-1].strip()
    base: IrType
    m = re.fullmatch(r"i(\d+)", text)
    if m:
        width = int(m.group(1))
        if width not in _INT_SIZES:
            raise ParseError(f"unsupported integer width i{width}", line)
        base = IntType(width)
    elif re.fullmatch(_IDENT, text):
        if text not in known:
            raise ParseError(f"unknown type {text!r}", line)
        base = AggType(text)
    else:
        raise ParseError(f"cannot parse type {text!r}", line)
    for _ in range(stars):
        base = PtrType(base)
    return base


def _parse_operand(text: str, line: int) -> Operand:
    text = text.strip()
    if text == "null":
        return 0
    if re.fullmatch(r"-?\d+", text):
        return int(text)
    if re.fullmatch(_IDENT, text):
        return text
    raise ParseError(f"cannot parse operand {text!r}", line)


_CALL_RE = re.compile(
    rf"({_IDENT})\s*=\s*call\s+(\S+)\s+@(\w+)\s*\((.*)\)\s*$")
_FREE_RE = re.compile(rf"call\s+void\s+@free\s*\(\s*(\S+)\s+({_IDENT})\s*\)\s*$")


def _parse_instruction(text: str, known: Collection[str],
                       line: int) -> Instruction:
    text = text.strip()

    m = _FREE_RE.fullmatch(text)
    if m:
        return Free(_parse_operand(m.group(2), line))

    m = _CALL_RE.fullmatch(text)
    if m:
        dst, _retty, fn, args = m.groups()
        if fn == "malloc":
            am = re.fullmatch(r"i64\s+(\S+)", args.strip())
            if not am:
                raise ParseError("malloc expects a single i64 argument", line)
            return Malloc(dst, _parse_operand(am.group(1), line))
        if fn == "nondet_uint":
            if args.strip():
                raise ParseError("nondet_uint takes no arguments", line)
            return NondetInt(dst, 32)
        raise ParseError(f"unsupported call target @{fn}", line)

    if text.startswith("store "):
        m = re.fullmatch(r"store\s+(\S+)\s+(\S+)\s*,\s*(\S+)\s+(\S+)", text)
        if not m:
            raise ParseError("malformed store", line)
        ty = _parse_type(m.group(1), known, line)
        ptr_ty = _parse_type(m.group(3), known, line)
        if not isinstance(ptr_ty, PtrType):
            raise ParseError("store address must have pointer type", line)
        return Store(ty, _parse_operand(m.group(2), line),
                     _parse_operand(m.group(4), line))

    if text.startswith("br "):
        m = re.fullmatch(rf"br\s+label\s+({_IDENT})", text)
        if m:
            return Br(m.group(1))
        m = re.fullmatch(
            rf"br\s+i1\s+(\S+)\s*,\s*label\s+({_IDENT})\s*,\s*label\s+({_IDENT})",
            text)
        if m:
            return BrCond(_parse_operand(m.group(1), line), m.group(2), m.group(3))
        raise ParseError("malformed br", line)

    if text.startswith("ret"):
        m = re.fullmatch(r"ret\s+void", text)
        if m:
            return Ret(None)
        m = re.fullmatch(r"ret\s+(\S+)\s+(\S+)", text)
        if not m:
            raise ParseError("malformed ret", line)
        return Ret(_parse_operand(m.group(2), line))

    m = re.fullmatch(rf"({_IDENT})\s*=\s*(\w+)\s+(.*)$", text)
    if not m:
        raise ParseError(f"cannot parse instruction {text!r}", line)
    dst, op, rest = m.group(1), m.group(2), m.group(3).strip()

    if op == "load":
        lm = re.fullmatch(r"(\S+)\s*,\s*(\S+)\s+(\S+)", rest)
        if not lm:
            raise ParseError("malformed load", line)
        ty = _parse_type(lm.group(1), known, line)
        ptr_ty = _parse_type(lm.group(2), known, line)
        if not isinstance(ptr_ty, PtrType):
            raise ParseError("load address must have pointer type", line)
        return Load(dst, ty, _parse_operand(lm.group(3), line))

    if op == "icmp":
        im = re.fullmatch(r"(\w+)\s+(\S+)\s+(\S+)\s*,\s*(\S+)", rest)
        if not im:
            raise ParseError("malformed icmp", line)
        pred = im.group(1)
        if pred not in ICMP:
            raise ParseError(f"unknown icmp predicate {pred!r}", line)
        return Icmp(dst, pred, _parse_type(im.group(2), known, line),
                    _parse_operand(im.group(3), line),
                    _parse_operand(im.group(4), line))

    if op == "add":
        am = re.fullmatch(r"(\S+)\s+(\S+)\s*,\s*(\S+)", rest)
        if not am:
            raise ParseError("malformed add", line)
        return Add(dst, _parse_type(am.group(1), known, line),
                   _parse_operand(am.group(2), line),
                   _parse_operand(am.group(3), line))

    if op == "bitcast":
        bm = re.fullmatch(r"(\S+)\s+(\S+)\s+to\s+(\S+)", rest)
        if not bm:
            raise ParseError("malformed bitcast", line)
        return Bitcast(dst, _parse_type(bm.group(1), known, line),
                       _parse_operand(bm.group(2), line),
                       _parse_type(bm.group(3), known, line))

    if op == "getelementptr":
        # Byte form: getelementptr i8, i8* base, iN off
        gm = re.fullmatch(r"i8\s*,\s*i8\*\s+(\S+)\s*,\s*i\d+\s+(\S+)", rest)
        if gm:
            return GepByte(dst, _parse_operand(gm.group(1), line),
                           _parse_operand(gm.group(2), line))
        # Field form: getelementptr ty, ty* base, iN 0, iN idx
        gm = re.fullmatch(
            rf"({_IDENT})\s*,\s*({_IDENT})\*\s+(\S+)\s*,\s*i\d+\s+0\s*,\s*i\d+\s+(\S+)",
            rest)
        if gm:
            if gm.group(1) != gm.group(2):
                raise ParseError("getelementptr type mismatch", line)
            agg_ty = _parse_type(gm.group(1), known, line)
            if not isinstance(agg_ty, AggType):
                raise ParseError("field getelementptr needs an aggregate type",
                                 line)
            return GepField(dst, agg_ty, _parse_operand(gm.group(3), line),
                            _parse_operand(gm.group(4), line))
        raise ParseError("malformed getelementptr", line)

    raise ParseError(f"unknown instruction {op!r}", line)


def parse_program(text: str) -> Program:
    """Parse IR source text into an immutable :class:`Program`."""
    aggs: Dict[str, Optional[Aggregate]] = {}
    blocks: Dict[str, List[Instruction]] = {}
    # The line of each block's label, then of each of its instructions.
    lines: Dict[str, List[int]] = {}
    order: List[str] = []
    current: Optional[str] = None
    in_main = False
    saw_main = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue

        m = _TYPE_DECL.fullmatch(line)
        if m and not in_main:
            name, body = m.group(1), m.group(2)
            if name in aggs:
                raise ParseError(f"duplicate type {name!r}", lineno)
            aggs[name] = None  # visible to self-references in its fields
            fields = tuple(_parse_type(p, aggs, lineno)
                           for p in body.split(",") if p.strip())
            if not fields:
                raise ParseError(f"aggregate {name!r} has no fields", lineno)
            if any(isinstance(f, AggType) for f in fields):
                raise ParseError(f"nested aggregate by value in {name!r}",
                                 lineno)
            aggs[name] = Aggregate.of(name, fields)
            continue

        if re.fullmatch(r"define\s+i32\s+@main\s*\(\s*\)\s*\{", line):
            if saw_main:
                raise ParseError("duplicate @main", lineno)
            in_main = saw_main = True
            main_line = lineno
            continue

        if line == "}":
            if not in_main:
                raise ParseError("unmatched '}'", lineno)
            in_main = False
            current = None
            continue

        if not in_main:
            raise ParseError(f"unexpected top-level text {line!r}", lineno)

        m = _LABEL.fullmatch(line)
        if m:
            name = m.group(1)
            if name in blocks:
                raise ParseError(f"duplicate block label {name!r}", lineno)
            blocks[name] = []
            lines[name] = [lineno]
            order.append(name)
            current = name
            continue

        if current is None:
            raise ParseError("instruction before any block label", lineno)
        blocks[current].append(_parse_instruction(line, aggs, lineno))
        lines[current].append(lineno)

    if not saw_main:
        raise ParseError("no @main function found", len(text.splitlines()) or 1)
    if not order:
        raise ParseError("@main has no blocks", main_line)

    for name in order:
        body, at = blocks[name], lines[name][1:]
        if not body:
            raise ParseError(f"block {name!r} is empty", lines[name][0])
        if not isinstance(body[-1], TERMINATORS):
            raise ParseError(f"block {name!r} does not end in a terminator",
                             at[-1])
        for ins, lineno in zip(body[:-1], at):
            if isinstance(ins, TERMINATORS):
                raise ParseError(
                    f"terminator in the middle of block {name!r}", lineno)
        for ins, lineno in zip(body, at):
            for tgt in branch_targets(ins):
                if tgt not in blocks:
                    raise ParseError(f"unknown branch target {tgt!r}",
                                     lineno)

    return Program(
        entry=order[0],
        blocks=tuple((n, tuple(blocks[n])) for n in order),
        layout=dict(sorted(aggs.items())),
    )


# --------------------------------------------------------------------------
# Pretty printer
# --------------------------------------------------------------------------

def format_instruction(ins: Instruction) -> str:
    if isinstance(ins, Load):
        return f"{ins.dst} = load {ins.ty}, {ins.ty}* {ins.addr}"
    if isinstance(ins, Store):
        return f"store {ins.ty} {ins.value}, {ins.ty}* {ins.addr}"
    if isinstance(ins, GepByte):
        return (f"{ins.dst} = getelementptr i8, i8* {ins.base}, "
                f"i64 {ins.offset}")
    if isinstance(ins, GepField):
        return (f"{ins.dst} = getelementptr {ins.agg}, {ins.agg}* "
                f"{ins.base}, i32 0, i32 {ins.index}")
    if isinstance(ins, Icmp):
        return f"{ins.dst} = icmp {ins.pred} {ins.ty} {ins.lhs}, {ins.rhs}"
    if isinstance(ins, BrCond):
        return (f"br i1 {ins.cond}, label {ins.then_block}, "
                f"label {ins.else_block}")
    if isinstance(ins, Br):
        return f"br label {ins.block}"
    if isinstance(ins, Add):
        return f"{ins.dst} = add {ins.ty} {ins.lhs}, {ins.rhs}"
    if isinstance(ins, Bitcast):
        return f"{ins.dst} = bitcast {ins.from_ty} {ins.src} to {ins.to_ty}"
    if isinstance(ins, Malloc):
        return f"{ins.dst} = call i8* @malloc(i64 {ins.size})"
    if isinstance(ins, NondetInt):
        return f"{ins.dst} = call i32 @nondet_uint()"
    if isinstance(ins, Free):
        return f"call void @free(i8* {ins.ptr})"
    if isinstance(ins, Ret):
        return "ret void" if ins.value is None else f"ret i32 {ins.value}"
    raise TypeError(f"unknown instruction {ins!r}")


def pretty_print(prog: Program) -> str:
    out: List[str] = []
    for name, agg in prog.layout.items():
        out.append(f"{name} = type {{ " + ", ".join(map(str, agg.fields))
                   + " }")
    if prog.layout:
        out.append("")
    out.append("define i32 @main() {")
    for bname, body in prog.blocks:
        out.append(f"{bname}:")
        for ins in body:
            out.append("  " + format_instruction(ins))
    out.append("}")
    return "\n".join(out) + "\n"
