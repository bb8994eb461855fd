"""Tests for the functional interpreter and trace dataflow."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.frontend import interpret
from repro.frontend.trace import NO_PRODUCER
from repro.isa.builder import ProgramBuilder
from repro.isa.opcodes import CODE_BY_OP, Op
from repro.isa.registers import Reg


def _counting_loop(n):
    b = ProgramBuilder("count")
    b.set_reg(Reg.r2, n)
    b.li(Reg.r1, 0)
    b.label("top")
    b.addi(Reg.r1, Reg.r1, 1)
    b.blt(Reg.r1, Reg.r2, "top")
    b.halt()
    return b.build()


def test_counting_loop_executes_n_iterations():
    trace = interpret(_counting_loop(10))
    assert trace.columns.op_code.count(CODE_BY_OP[Op.ADDI]) == 10


def test_trace_ends_with_halt():
    trace = interpret(_counting_loop(3))
    assert trace.columns.op_code[-1] == CODE_BY_OP[Op.HALT]


def test_runaway_program_raises():
    b = ProgramBuilder("spin")
    b.label("top")
    b.jump("top")
    with pytest.raises(ExecutionError, match="did not halt"):
        interpret(b.build(), max_instructions=100)


def test_runaway_truncates_when_halt_not_required():
    b = ProgramBuilder("spin")
    b.label("top")
    b.jump("top")
    trace = interpret(b.build(), max_instructions=50, require_halt=False)
    assert len(trace) == 50


def test_producer_links_point_to_last_writer():
    b = ProgramBuilder("dataflow")
    b.li(Reg.r1, 5)       # seq 0
    b.li(Reg.r2, 7)       # seq 1
    b.add(Reg.r3, Reg.r1, Reg.r2)  # seq 2
    b.add(Reg.r4, Reg.r3, Reg.r3)  # seq 3
    b.halt()
    trace = interpret(b.build())
    c = trace.columns
    assert (c.src1[2], c.src2[2]) == (0, 1)
    assert (c.src1[3], c.src2[3]) == (2, 2)


def test_initial_register_values_have_no_producer():
    b = ProgramBuilder("init")
    b.set_reg(Reg.r1, 42)
    b.mov(Reg.r2, Reg.r1)
    b.halt()
    trace = interpret(b.build())
    assert trace.columns.src1[0] == NO_PRODUCER


def test_store_load_roundtrip_through_memory():
    b = ProgramBuilder("mem")
    buf = b.data.alloc("buf", 2)
    b.li(Reg.r1, 1234)
    b.li(Reg.r2, buf)
    b.store(Reg.r1, Reg.r2, imm=8)
    b.load(Reg.r3, Reg.r2, imm=8)
    b.bne(Reg.r3, Reg.r1, "fail")
    b.halt()
    b.label("fail")
    b.nop()
    b.halt()
    trace = interpret(b.build())
    c = trace.columns
    # The BNE must fall through (values equal): trace ends at first halt.
    assert c.op_code[-1] == CODE_BY_OP[Op.HALT]
    assert not c.taken[4]
    assert c.addr[3] == c.addr[2]  # load sees the store's address


def test_branch_taken_direction_and_next_pc():
    b = ProgramBuilder("br")
    b.li(Reg.r1, 1)
    b.beq(Reg.r1, Reg.r1, "over")
    b.nop()
    b.label("over")
    b.halt()
    trace = interpret(b.build())
    assert trace.columns.taken[1] and trace.columns.next_pc[1] == 3
    assert len(trace) == 3  # nop skipped


def test_data_image_visible_to_loads():
    b = ProgramBuilder("img")
    base = b.data.alloc("t", 4)
    b.data.set_word("t", 2, 77)
    b.li(Reg.r1, base)
    b.load(Reg.r2, Reg.r1, imm=16)
    b.beq(Reg.r2, 77, "good", rhs_is_imm=True)
    b.halt()  # reached only if load returned wrong value
    b.label("good")
    b.nop()
    b.halt()
    trace = interpret(b.build())
    assert trace.columns.op_code[-2] == CODE_BY_OP[Op.NOP]


def test_r0_writes_discarded():
    b = ProgramBuilder("zero")
    b.li(Reg.r0, 99)
    b.bne(Reg.r0, 0, "bad", rhs_is_imm=True)
    b.halt()
    b.label("bad")
    b.nop()
    b.halt()
    trace = interpret(b.build())
    assert trace.columns.op_code[-1] == CODE_BY_OP[Op.HALT]
    assert trace.columns.op_code[-2] != CODE_BY_OP[Op.NOP]


def test_pc_hooks_fire_with_architectural_state():
    observed = []

    def hook(seq, state):
        observed.append((seq, state.regs[Reg.r1]))

    prog = _counting_loop(4)
    addi_pc = next(i.pc for i in prog if i.op is Op.ADDI)
    interpret(prog, pc_hooks={addi_pc: hook})
    # Hook sees post-increment values 1..4.
    assert [v for _, v in observed] == [1, 2, 3, 4]


def test_unwritten_memory_reads_zero():
    b = ProgramBuilder("cold")
    b.li(Reg.r1, 0x20000)
    b.load(Reg.r2, Reg.r1)
    b.bne(Reg.r2, 0, "bad", rhs_is_imm=True)
    b.halt()
    b.label("bad")
    b.nop()
    b.halt()
    trace = interpret(b.build())
    assert trace.columns.op_code[-2] != CODE_BY_OP[Op.NOP]


class TestTraceQueries:
    def test_occurrences(self):
        prog = _counting_loop(6)
        trace = interpret(prog)
        addi_pc = next(i.pc for i in prog if i.op is Op.ADDI)
        assert len(trace.occurrences(addi_pc)) == 6


@given(n=st.integers(min_value=1, max_value=40))
def test_loop_iteration_count_matches_bound(n):
    trace = interpret(_counting_loop(n))
    assert trace.columns.op_code.count(CODE_BY_OP[Op.ADDI]) == n
