"""Parser, layout, and round-trip tests for the IR front end."""

from __future__ import annotations

import pathlib
from typing import get_args

import pytest
from hypothesis import given, settings, strategies as st

from listterm.absdom import (AbstractState, Allocation, LIField,
                             ListInvariant, Memory, PointsTo)
from listterm.concrete import ConcreteState, Trace
from listterm.ir import (
    AggType,
    Add,
    Br,
    BrCond,
    Bitcast,
    Free,
    GepByte,
    GepField,
    Icmp,
    Instruction,
    IntType,
    Load,
    Malloc,
    NondetInt,
    ParseError,
    ProgramPosition,
    PtrType,
    Ret,
    Store,
    operands,
    parse_program,
    pretty_print,
    type_size,
)
from listterm.its import ITS
from listterm.logic import Atom, Formula, SymVar
from listterm.seg import Edge, Seg

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
I32 = IntType(32)

MINI = """
list = type { i32, list* }

define i32 @main() {
entry:
  n = call i32 @nondet_uint()
  mem = call i8* @malloc(i64 16)
  curr = bitcast i8* mem to list*
  v_ad = getelementptr list, list* curr, i32 0, i32 0
  store i32 n, i32* v_ad
  nx = getelementptr i8, i8* mem, i64 8
  c = icmp ult i32 n, 5
  br i1 c, label entry, label out
out:
  call void @free(i8* mem)
  ret i32 0
}
"""


def test_parse_basic_structure():
    p = parse_program(MINI)
    assert p.entry == "entry"
    assert [n for n, _ in p.blocks] == ["entry", "out"]
    body = p.block("entry")
    assert isinstance(body[0], NondetInt)
    assert isinstance(body[1], Malloc) and body[1].size == 16
    assert isinstance(body[2], Bitcast)
    assert body[3] == GepField("v_ad", AggType("list"), "curr", 0)
    assert body[4] == Store(I32, "n", "v_ad")
    assert body[5] == GepByte("nx", "mem", 8)
    assert isinstance(body[6], Icmp) and body[6].pred == "ult"
    assert isinstance(body[7], BrCond)
    out = p.block("out")
    assert out == (Free("mem"), Ret(0))


def test_layout_sizes_and_offsets():
    p = parse_program(MINI)
    lay = p.layout
    assert type_size(AggType("list"), lay) == 16
    assert type_size(I32, lay) == 4
    assert type_size(PtrType(AggType("list")), lay) == 8
    assert lay["list"].size == 16
    assert lay["list"].offsets == (0, 8)


def test_recursive_index_detection():
    p = parse_program(MINI)
    assert p.layout["list"].rec_index == 2
    q = parse_program("pair = type { i32, i32 }\n" + MINI.replace(
        "list = type { i32, list* }", "list = type { i32, list* }"))
    assert q.layout["pair"].rec_index is None


def test_multi_recursive_flagged_not_rejected():
    src = MINI.replace("list = type { i32, list* }",
                       "list = type { list*, list* }")
    src = src.replace("v_ad = getelementptr list, list* curr, i32 0, i32 0\n"
                      "  store i32 n, i32* v_ad\n  ", "")
    p = parse_program(src)
    assert p.layout["list"].rec_index is None


def test_null_literal_and_negative_int():
    src = """
define i32 @main() {
e:
  p_raw = call i8* @malloc(i64 8)
  c = icmp ne i64 p_raw, null
  ret i32 0
}
"""
    p = parse_program(src)
    ins = p.block("e")[1]
    assert ins.rhs == 0


def test_records_behave_as_frozen_dataclasses():
    """Instructions are ``Record``s: equal only within one class, hashed as
    their field tuple, printed as the dataclasses they replace, immutable,
    and built from positional, keyword or default fields."""
    assert Br("x") != Free("x") and not Br("x") == Free("x")
    assert Br("x") == Br("x") and Br("x") != Br("y") and Br("x") != ("x",)
    ins = Icmp("c", "ult", I32, "n", 0)
    assert hash(ins) == hash(("c", "ult", I32, "n", 0))
    assert repr(ins) == ("Icmp(dst='c', pred='ult', ty=IntType(width=32), "
                         "lhs='n', rhs=0)")
    with pytest.raises(AttributeError):
        ins.pred = "slt"
    with pytest.raises(AttributeError):
        del ins.pred
    assert ins.pred == "ult"
    assert Icmp("c", "ult", I32, rhs=0, lhs="n") == ins
    assert Ret().value is None and Ret() == Ret(None) == Ret(value=None)
    assert Ret(value=3).value == 3
    for args, kwargs in [((), {}), (("a", "b"), {}), (("a",), {"block": "b"}),
                         ((), {"label": "a"})]:
        with pytest.raises(TypeError):
            Br(*args, **kwargs)


def test_tuple_slotted_and_mutable_records_behave_as_dataclasses():
    """The value records hash as their field tuples, as frozen dataclasses
    do, so every set and dict over them iterates in one order; they print
    as dataclasses and cannot be changed, and ``_replace`` edits the
    tuples among them.  The mutable containers compare by fields and are
    unhashable."""
    x, y = SymVar(1, "x"), SymVar(2, "y")
    pos = ProgramPosition("b", 3)
    fld = LIField(8, I32, x, y)
    inv = ListInvariant(x, y, AggType("list"), (fld,), 1)
    kb = Formula.conj([Atom.eq(x, y)])
    memory = Memory((Allocation(x, y),), (PointsTo(x, I32, 0),), (inv,), kb)
    state = AbstractState(pos, (("p", x),), memory)
    edge = Edge(0, 1, "evaluation")
    records = [
        (I32, (32,), "IntType(width=32)"),
        (PtrType(I32), (I32,), "PtrType(pointee=IntType(width=32))"),
        (AggType("list"), ("list",), "AggType(name='list')"),
        (pos, ("b", 3), "ProgramPosition(block='b', index=3)"),
        (Allocation(x, y), (x, y), "Allocation(lo=x_1, hi=y_2)"),
        (PointsTo(x, I32, 0), (x, I32, 0),
         "PointsTo(addr=x_1, ty=IntType(width=32), value=0)"),
        (fld, (8, I32, x, y),
         "LIField(off=8, fty=IntType(width=32), first=x_1, last=y_2)"),
        (inv, (x, y, AggType("list"), (fld,), 1),
         f"ListInvariant(ad=x_1, length=y_2, ty=AggType(name='list'), "
         f"fields=({fld!r},), rec_index=1)"),
        (edge, (0, 1, "evaluation", None),
         "Edge(src=0, dst=1, kind='evaluation', instantiation=None)"),
        (kb, (kb.clauses,), f"Formula(clauses={kb.clauses!r})"),
        (memory, (memory.al, memory.pt, memory.li, kb),
         f"Memory(al={memory.al!r}, pt={memory.pt!r}, li={memory.li!r}, "
         f"kb={kb!r})"),
        (state, (pos, state.lv, memory),
         f"AbstractState(pos={pos!r}, lv={state.lv!r}, memory={memory!r})"),
    ]
    for record, fields, text in records:
        assert hash(record) == hash(fields)
        assert repr(record) == text
        with pytest.raises(AttributeError):
            setattr(record, type(record)._fields[0], None)
    assert fld._replace(first=y) == LIField(8, I32, y, y)
    assert inv._replace(length=x).length == x
    assert edge._replace(dst=0) == Edge(0, 0, "evaluation")

    c = ConcreteState(pos, {"p": 1})
    assert repr(c) == ("ConcreteState(pos=ProgramPosition(block='b', "
                       "index=3), asgn={'p': 1}, allocations=[], mem={}, "
                       "halted=False, error=False)")
    for same, copy, other in [
            (c, ConcreteState(pos, {"p": 1}), ConcreteState(pos, {"p": 1},
                                                             error=True)),
            (Trace([c], []), Trace([c], []), Trace([c], [], loop=0)),
            (ITS(), ITS({}, []), ITS({}, [None])),
            (Seg(), Seg([], [], 0), Seg(root=1))]:
        assert same == copy and same != other
        with pytest.raises(TypeError):
            hash(same)


LIST = AggType("list")

# One instance of each instruction class, and the operands it reads.
OPERANDS = [
    (Load("v", I32, "p"), ("p",)),
    (Store(I32, "v", "p"), ("v", "p")),
    (GepByte("q", "p", 8), ("p", 8)),
    (GepField("q", LIST, "p", 1), ("p", 1)),
    (Icmp("b", "eq", I32, "x", 0), ("x", 0)),
    (BrCond("b", "yes", "no"), ("b",)),
    (Br("yes"), ()),
    (Add("y", I32, "x", 1), ("x", 1)),
    (Bitcast("q", PtrType(IntType(8)), "m", PtrType(LIST)), ("m",)),
    (Malloc("m", 16), (16,)),
    (NondetInt("n", 32), ()),
    (Free("m"), ("m",)),
    (Ret(0), ()),
]


def test_operands_are_the_fields_annotated_operand():
    """What ``step`` checks for a value before any rule runs; a return's
    value is not read by a step."""
    assert {type(ins) for ins, _ in OPERANDS} == set(get_args(Instruction))
    assert [operands(ins) for ins, _ in OPERANDS] == [
        ops for _, ops in OPERANDS]


def test_positions_and_successor():
    p = parse_program(MINI)
    pos = p.entry_position
    assert pos == ProgramPosition("entry", 0)
    assert isinstance(p.instruction_at(p.successor(pos)), Malloc)


def in_main(ins):
    """A program whose one block runs ``ins``, on line 3, and returns."""
    return f"define i32 @main() {{\nb:\n  {ins}\n  ret i32 0\n}}\n"


PARSE_ERRORS = [
    ("define i32 @main() {\n}\n", "no blocks", 1),
    ("define i32 @main() {\nb:\n}\n", "empty", 2),
    ("define i32 @main() {\nb:\n  ret i32 0\n  ret i32 0\n}\n", "middle", 3),
    ("define i32 @main() {\nb:\n  br label nowhere\n}\n", "nowhere", 3),
    ("define i32 @main() {\nb:\n  x = load i32\n}\n", "load", 3),
    ("define i32 @main() {\nb:\n  x = frobnicate i32 1\n}\n", "frobnicate", 3),
    ("x = type { }\ndefine i32 @main() {\nb:\n  ret i32 0\n}\n", "fields", 1),
    ("define i32 @main() {\nb:\n  x = call i32 @rand()\n}\n", "rand", 3),
    ("ret i32 0\n", "top-level", 1),
    ("t = type { i32 }\n\ndefine i32 @main() {\n}\n", "no blocks", 3),
    ("define i32 @main() {\nb:\n  ret i32 0\nc:\n\n  x = add i32 1, 2\n}\n",
     "terminator", 6),
    ("define i32 @main() {\nb:\n  br label c\nc:\n  br label d\n}\n",
     "'d'", 5),
    ("define i32 @main() {\nb:\n  ret i32 0\n  br label b\nc:\n}\n",
     "middle", 3),
    ("t = type { i32 }\nu = type { i32, t }\n", "nested aggregate", 2),
    (in_main("x = add i7 1, 2"), "unsupported integer width i7", 3),
    (in_main("x = load foo, foo* p"), "unknown type 'foo'", 3),
    (in_main("x = add i32! 1, 2"), "cannot parse type 'i32!'", 3),
    (in_main("x = add i32 1, 2+3"), "cannot parse operand '2+3'", 3),
    (in_main("m = call i8* @malloc(i32 8)"), "single i64 argument", 3),
    (in_main("n = call i32 @nondet_uint(i32 1)"), "takes no arguments", 3),
    (in_main("store i32 1"), "malformed store", 3),
    (in_main("store i32 1, i32 p"), "store address must have pointer", 3),
    (in_main("br i1 c, label b"), "malformed br", 3),
    (in_main("ret i32"), "malformed ret", 3),
    (in_main("x = load i32, i32 p"), "load address must have pointer", 3),
    (in_main("c = icmp eq i32 1"), "malformed icmp", 3),
    (in_main("c = icmp foo i32 1, 2"), "unknown icmp predicate 'foo'", 3),
    (in_main("x = add i32 1"), "malformed add", 3),
    (in_main("q = bitcast i8* p"), "malformed bitcast", 3),
    ("t = type { i32 }\nu = type { i32 }\n" +
     in_main("q = getelementptr t, u* p, i32 0, i32 0"),
     "getelementptr type mismatch", 5),
    (in_main("q = getelementptr i32, i32* p, i32 0, i32 0"),
     "needs an aggregate type", 3),
    (in_main("q = getelementptr i32* p"), "malformed getelementptr", 3),
    ("t = type { i32 }\nt = type { i32 }\n", "duplicate type 't'", 2),
    (in_main("ret i32 0") + "define i32 @main() {\n", "duplicate @main", 6),
    ("}\n", "unmatched '}'", 1),
    ("define i32 @main() {\nb:\n  br label b\nb:\n  ret i32 0\n}\n",
     "duplicate block label 'b'", 4),
    ("define i32 @main() {\n  ret i32 0\n}\n", "before any block label", 2),
]


@pytest.mark.parametrize(
    "bad,frag,line", PARSE_ERRORS,
    ids=[f"{bad}-{frag}" for bad, frag, _ in PARSE_ERRORS])
def test_parse_errors(bad, frag, line):
    with pytest.raises(ParseError) as ei:
        parse_program(bad)
    assert frag in str(ei.value)
    assert ei.value.line == line
    assert str(ei.value).startswith(f"line {line}, col 1: ")


def test_missing_main():
    with pytest.raises(ParseError):
        parse_program("list = type { i32, list* }\n")


def test_instruction_after_close_brace_rejected():
    with pytest.raises(ParseError):
        parse_program("define i32 @main() {\nb:\n  ret i32 0\n}\nret i32 0\n")


def test_corpus_parses_and_round_trips():
    files = sorted(CORPUS.glob("*.ll"))
    assert len(files) >= 10
    for f in files:
        text = f.read_text()
        p1 = parse_program(text)
        printed = pretty_print(p1)
        p2 = parse_program(printed)
        assert p1 == p2, f.name
        # Printing is a fixpoint after one round.
        assert pretty_print(p2) == printed, f.name


def test_free_and_ret_void_round_trip():
    text = ("define i32 @main() {\nentry:\n  m = call i8* @malloc(i64 8)\n"
            "  call void @free(i8* m)\n  ret void\n}\n")
    prog = parse_program(text)
    assert prog.block("entry")[1:] == (Free("m"), Ret(None))
    assert pretty_print(prog) == text


def test_leading_example_block_shape():
    p = parse_program((CORPUS / "build_traverse_ptr.ll").read_text())
    names = [n for n, _ in p.blocks]
    assert names == ["entry", "cmpF", "bodyF", "initPtr", "cmpW", "bodyW",
                     "done"]
    assert len(p.block("bodyF")) == 12
    assert isinstance(p.block("cmpF")[0], Load)
    body_w = p.block("bodyW")
    assert isinstance(body_w[1], GepByte) and body_w[1].offset == 8


FIELD_SIZES = {"i1": 1, "i8": 1, "i32": 4, "i64": 8, "s*": 8, "other*": 8}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(sorted(FIELD_SIZES)), min_size=1, max_size=5))
def test_aggregate_field_packing_invariant(fields):
    """Each field of ``s`` sits at an offset aligned to its size, after the
    end of the field before it; the padded size is a multiple of the
    largest field; the chain field is the unique pointer to ``s``; and the
    program prints back to itself."""
    p = parse_program("other = type { i32 }\n"
                      f"s = type {{ {', '.join(fields)} }}\n"
                      "define i32 @main() {\nentry:\n  ret i32 0\n}\n")
    agg = p.layout["s"]
    sizes = [FIELD_SIZES[f] for f in fields]
    assert [type_size(f, p.layout) for f in agg.fields] == sizes
    end = 0
    for off, size in zip(agg.offsets, sizes):
        assert off % size == 0 and off >= end
        end = off + size
    assert agg.size % max(sizes) == 0 and agg.size >= end
    hits = [i + 1 for i, f in enumerate(fields) if f == "s*"]
    assert agg.rec_index == (hits[0] if len(hits) == 1 else None)
    assert parse_program(pretty_print(p)) == p
