"""Mini-LLVM IR: types, data layout, instructions, and the textual parser.

The accepted language is a small fixed fragment: named aggregate type
declarations, a single ``@main`` function with labeled basic blocks, and the
handful of instructions needed for heap-manipulating loop programs (load,
store, both getelementptr forms, icmp, branches, add, bitcast, malloc,
nondet, free, ret).  Everything is immutable after parsing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple, Union


class ParseError(Exception):
    """Syntax or resolution error, carrying line and column information."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


# --------------------------------------------------------------------------
# Types and layout
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IntType:
    width: int  # bits

    def __str__(self) -> str:
        return f"i{self.width}"


@dataclass(frozen=True)
class PtrType:
    pointee: "IrType"

    def __str__(self) -> str:
        return f"{self.pointee}*"


@dataclass(frozen=True)
class AggType:
    """A named struct; ``fields`` is resolved lazily via the program's
    type table so self-referential declarations work."""

    name: str

    def __str__(self) -> str:
        return self.name


IrType = Union[IntType, PtrType, AggType]

I1, I8, I32, I64 = IntType(1), IntType(8), IntType(32), IntType(64)
VOID_PTR = PtrType(I8)

_INT_SIZES = {1: 1, 8: 1, 32: 4, 64: 8}


@dataclass(frozen=True)
class DataLayout:
    """Fixed 64-bit little-endian layout with natural alignment.

    Aggregate field offsets and padded sizes are precomputed per program.
    """

    ptr_size: int
    int_sizes: Tuple[Tuple[int, int], ...]
    field_offsets: Tuple[Tuple[str, Tuple[int, ...]], ...]
    aggregate_sizes: Tuple[Tuple[str, int], ...]

    def offsets_of(self, name: str) -> Tuple[int, ...]:
        for n, offs in self.field_offsets:
            if n == name:
                return offs
        raise KeyError(f"unknown aggregate {name!r}")

    def size_of_aggregate(self, name: str) -> int:
        for n, s in self.aggregate_sizes:
            if n == name:
                return s
        raise KeyError(f"unknown aggregate {name!r}")


def type_size(ty: IrType, layout: DataLayout) -> int:
    """Byte size of a type under the given layout."""
    if isinstance(ty, IntType):
        return _INT_SIZES[ty.width]
    if isinstance(ty, PtrType):
        return layout.ptr_size
    return layout.size_of_aggregate(ty.name)


def field_offset(ty: AggType, i: int, layout: DataLayout) -> int:
    """Byte offset of 1-based field ``i`` within aggregate ``ty``."""
    offs = layout.offsets_of(ty.name)
    if not 1 <= i <= len(offs):
        raise IndexError(f"field index {i} out of range for {ty.name}")
    return offs[i - 1]


# --------------------------------------------------------------------------
# Instructions
# --------------------------------------------------------------------------

Operand = Union[str, int]  # program variable name or integer literal


@dataclass(frozen=True)
class Load:
    dst: str
    ty: IrType
    addr: Operand


@dataclass(frozen=True)
class Store:
    ty: IrType
    value: Operand
    addr: Operand


@dataclass(frozen=True)
class GepByte:
    """``dst = getelementptr i8, i8* base, iN offset``: raw byte arithmetic."""

    dst: str
    base: Operand
    offset: Operand


@dataclass(frozen=True)
class GepField:
    """``dst = getelementptr ty, ty* base, iN 0, iN index``: field address."""

    dst: str
    agg: AggType
    base: Operand
    index: Operand  # 0-based field index operand


@dataclass(frozen=True)
class Icmp:
    dst: str
    pred: str  # eq, ne, ult, ule, ugt, uge, slt, sle, sgt, sge
    ty: IrType
    lhs: Operand
    rhs: Operand


@dataclass(frozen=True)
class BrCond:
    cond: Operand
    then_block: str
    else_block: str


@dataclass(frozen=True)
class Br:
    block: str


@dataclass(frozen=True)
class Add:
    dst: str
    ty: IrType
    lhs: Operand
    rhs: Operand


@dataclass(frozen=True)
class Bitcast:
    dst: str
    from_ty: IrType
    src: Operand
    to_ty: IrType


@dataclass(frozen=True)
class Malloc:
    dst: str
    size: Operand  # bytes


@dataclass(frozen=True)
class NondetInt:
    dst: str
    width: int


@dataclass(frozen=True)
class Free:
    ptr: Operand


@dataclass(frozen=True)
class Ret:
    value: Optional[Operand] = None


Instruction = Union[Load, Store, GepByte, GepField, Icmp, BrCond, Br, Add,
                    Bitcast, Malloc, NondetInt, Free, Ret]

TERMINATORS = (Br, BrCond, Ret)


@dataclass(frozen=True, order=True)
class ProgramPosition:
    block: str
    index: int

    def __str__(self) -> str:
        return f"{self.block}:{self.index}"


@dataclass(frozen=True)
class Program:
    entry: str
    blocks: Tuple[Tuple[str, Tuple[Instruction, ...]], ...]
    layout: DataLayout
    aggregates: Tuple[Tuple[str, Tuple[IrType, ...]], ...]
    multi_recursive: Tuple[str, ...] = ()  # flagged, still accepted

    def block(self, name: str) -> Tuple[Instruction, ...]:
        for n, ins in self.blocks:
            if n == name:
                return ins
        raise KeyError(f"unknown block {name!r}")

    def instruction_at(self, pos: ProgramPosition) -> Instruction:
        return self.block(pos.block)[pos.index]

    def agg_fields(self, name: str) -> Tuple[IrType, ...]:
        for n, fs in self.aggregates:
            if n == name:
                return fs
        raise KeyError(f"unknown aggregate {name!r}")

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


def recursive_index(prog: Program, name: str) -> Optional[int]:
    """1-based index of the unique pointer-to-self field, if there is
    exactly one; None otherwise (zero or several)."""
    hits = [i + 1 for i, f in enumerate(prog.agg_fields(name))
            if isinstance(f, PtrType) and isinstance(f.pointee, AggType)
            and f.pointee.name == name]
    return hits[0] if len(hits) == 1 else None


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

_IDENT = r"[A-Za-z_][A-Za-z0-9_.]*"
_TYPE_DECL = re.compile(rf"({_IDENT})\s*=\s*type\s*\{{(.*)\}}\s*$")
_LABEL = re.compile(rf"({_IDENT})\s*:\s*$")


def _parse_type(text: str, known: Dict[str, Tuple[IrType, ...]],
                line: int) -> IrType:
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


def _build_layout(aggs: Dict[str, Tuple[IrType, ...]]) -> DataLayout:
    layout = DataLayout(8, tuple(sorted(_INT_SIZES.items())), (), ())
    offsets: Dict[str, Tuple[int, ...]] = {}
    sizes: Dict[str, int] = {}
    # Aggregates may only nest through pointers, so one pass suffices and
    # every field (an integer or a pointer) is aligned to its size.
    for name, fields in aggs.items():
        off = 0
        offs: List[int] = []
        max_al = 1
        for f in fields:
            al = type_size(f, layout)
            max_al = max(max_al, al)
            off = (off + al - 1) // al * al
            offs.append(off)
            off += al
        total = (off + max_al - 1) // max_al * max_al
        offsets[name] = tuple(offs)
        sizes[name] = total
    return DataLayout(8, tuple(sorted(_INT_SIZES.items())),
                      tuple(sorted(offsets.items())),
                      tuple(sorted(sizes.items())))


_CALL_RE = re.compile(
    rf"({_IDENT})\s*=\s*call\s+(\S+)\s+@(\w+)\s*\((.*)\)\s*$")
_FREE_RE = re.compile(rf"call\s+void\s+@free\s*\(\s*(\S+)\s+({_IDENT})\s*\)\s*$")


def _parse_instruction(text: str, known: Dict[str, Tuple[IrType, ...]],
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
        if pred not in ("eq", "ne", "ult", "ule", "ugt", "uge",
                        "slt", "sle", "sgt", "sge"):
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
    aggs: Dict[str, Tuple[IrType, ...]] = {}
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
            aggs[name] = ()  # visible to self-references while parsing fields
            fields = tuple(_parse_type(p, aggs, lineno)
                           for p in body.split(",") if p.strip())
            if not fields:
                raise ParseError(f"aggregate {name!r} has no fields", lineno)
            if any(isinstance(f, AggType) for f in fields):
                raise ParseError(f"nested aggregate by value in {name!r}",
                                 lineno)
            aggs[name] = fields
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
            for tgt in ((ins.block,) if isinstance(ins, Br) else
                        (ins.then_block, ins.else_block)
                        if isinstance(ins, BrCond) else ()):
                if tgt not in blocks:
                    raise ParseError(f"unknown branch target {tgt!r}",
                                     lineno)

    multi = []
    for name, fields in aggs.items():
        rec = [f for f in fields
               if isinstance(f, PtrType) and isinstance(f.pointee, AggType)
               and f.pointee.name == name]
        if len(rec) > 1:
            multi.append(name)

    return Program(
        entry=order[0],
        blocks=tuple((n, tuple(blocks[n])) for n in order),
        layout=_build_layout(aggs),
        aggregates=tuple(sorted(aggs.items())),
        multi_recursive=tuple(multi),
    )


# --------------------------------------------------------------------------
# Pretty printer
# --------------------------------------------------------------------------

def _fmt_operand(o: Operand) -> str:
    return str(o)


def format_instruction(ins: Instruction) -> str:
    if isinstance(ins, Load):
        return f"{ins.dst} = load {ins.ty}, {ins.ty}* {_fmt_operand(ins.addr)}"
    if isinstance(ins, Store):
        return (f"store {ins.ty} {_fmt_operand(ins.value)}, "
                f"{ins.ty}* {_fmt_operand(ins.addr)}")
    if isinstance(ins, GepByte):
        return (f"{ins.dst} = getelementptr i8, i8* {_fmt_operand(ins.base)}, "
                f"i64 {_fmt_operand(ins.offset)}")
    if isinstance(ins, GepField):
        return (f"{ins.dst} = getelementptr {ins.agg}, {ins.agg}* "
                f"{_fmt_operand(ins.base)}, i32 0, i32 {_fmt_operand(ins.index)}")
    if isinstance(ins, Icmp):
        return (f"{ins.dst} = icmp {ins.pred} {ins.ty} "
                f"{_fmt_operand(ins.lhs)}, {_fmt_operand(ins.rhs)}")
    if isinstance(ins, BrCond):
        return (f"br i1 {_fmt_operand(ins.cond)}, label {ins.then_block}, "
                f"label {ins.else_block}")
    if isinstance(ins, Br):
        return f"br label {ins.block}"
    if isinstance(ins, Add):
        return (f"{ins.dst} = add {ins.ty} {_fmt_operand(ins.lhs)}, "
                f"{_fmt_operand(ins.rhs)}")
    if isinstance(ins, Bitcast):
        return (f"{ins.dst} = bitcast {ins.from_ty} {_fmt_operand(ins.src)} "
                f"to {ins.to_ty}")
    if isinstance(ins, Malloc):
        return f"{ins.dst} = call i8* @malloc(i64 {_fmt_operand(ins.size)})"
    if isinstance(ins, NondetInt):
        return f"{ins.dst} = call i32 @nondet_uint()"
    if isinstance(ins, Free):
        return f"call void @free(i8* {_fmt_operand(ins.ptr)})"
    if isinstance(ins, Ret):
        return "ret void" if ins.value is None else f"ret i32 {_fmt_operand(ins.value)}"
    raise TypeError(f"unknown instruction {ins!r}")


def pretty_print(prog: Program) -> str:
    out: List[str] = []
    for name, fields in prog.aggregates:
        out.append(f"{name} = type {{ " + ", ".join(map(str, fields)) + " }")
    if prog.aggregates:
        out.append("")
    out.append("define i32 @main() {")
    for bname, body in prog.blocks:
        out.append(f"{bname}:")
        for ins in body:
            out.append("  " + format_instruction(ins))
    out.append("}")
    return "\n".join(out) + "\n"
