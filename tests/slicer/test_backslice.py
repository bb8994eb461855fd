"""Tests for backward slicing."""

from repro.frontend import interpret
from repro.isa.builder import ProgramBuilder
from repro.isa.opcodes import CODE_BY_OP, LD_CODE, OPS_BY_CODE, Op
from repro.isa.registers import Reg
from repro.slicer import backward_slice


def _gather_loop(n=20):
    """idx walk -> scaled index -> gather: the canonical slice shape."""
    b = ProgramBuilder("gather")
    b.data.alloc("idx", n)
    b.data.fill("idx", list(range(n)))
    b.data.alloc("table", 64)
    b.set_reg(Reg.r2, n * 8)
    b.li(Reg.r1, 0)
    b.label("top")
    b.load(Reg.r3, Reg.r1, base_symbol="idx")
    b.shli(Reg.r4, Reg.r3, 3)
    b.load(Reg.r5, Reg.r4, base_symbol="table")
    b.add(Reg.r6, Reg.r6, Reg.r5)  # consumer, not in the slice
    b.addi(Reg.r1, Reg.r1, 8)
    b.blt(Reg.r1, Reg.r2, "top")
    b.halt()
    return interpret(b.build())


def test_slice_starts_with_the_seed():
    trace = _gather_loop()
    gather_seq = [s for s, c in enumerate(trace.columns.op_code) if c == LD_CODE][3]
    s = backward_slice(trace, gather_seq)
    assert s[0] == gather_seq


def test_slice_is_descending_and_unique():
    trace = _gather_loop()
    gather_seq = [s for s, c in enumerate(trace.columns.op_code) if c == LD_CODE][-1]
    s = backward_slice(trace, gather_seq)
    assert s == sorted(s, reverse=True)
    assert len(set(s)) == len(s)


def test_slice_follows_address_chain_through_inductions():
    trace = _gather_loop()
    loads = [s for s, c in enumerate(trace.columns.op_code) if c == LD_CODE]
    gather_seqs = trace.occurrences(trace.columns.pc[loads[1]])
    seq = gather_seqs[5]
    s = backward_slice(trace, seq)
    ops = [OPS_BY_CODE[trace.columns.op_code[x]] for x in s]
    # Must contain the gather, the shift, the idx load, and inductions.
    assert ops[0] is Op.LD
    assert Op.SHLI in ops
    assert ops.count(Op.LD) >= 2
    assert Op.ADDI in ops  # induction unrolling path


def test_slice_excludes_consumers():
    trace = _gather_loop()
    gather_seq = [s for s, c in enumerate(trace.columns.op_code) if c == LD_CODE][-1]
    s = backward_slice(trace, gather_seq)
    add_seqs = {s for s, c in enumerate(trace.columns.op_code)
                if c == CODE_BY_OP[Op.ADD]}
    assert not (set(s) & add_seqs)


def test_window_truncates_history():
    trace = _gather_loop(n=40)
    gather_seq = [s for s, c in enumerate(trace.columns.op_code) if c == LD_CODE][-1]
    wide = backward_slice(trace, gather_seq, window=100_000, max_insts=64)
    narrow = backward_slice(trace, gather_seq, window=10, max_insts=64)
    assert len(narrow) < len(wide)
    assert min(narrow) >= gather_seq - 10


def test_max_insts_cap():
    trace = _gather_loop(n=40)
    gather_seq = [s for s, c in enumerate(trace.columns.op_code) if c == LD_CODE][-1]
    s = backward_slice(trace, gather_seq, max_insts=5)
    assert len(s) == 5
