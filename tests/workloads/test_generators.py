"""Tests for the workload kernel emitters and data initializers."""

import random

import pytest

from repro.errors import WorkloadError
from repro.isa.builder import WORD_BYTES, ProgramBuilder
from repro.isa.opcodes import CODE_BY_OP, LD_CODE, Op
from repro.workloads.generators import (
    RegAlloc,
    emit_compute_chain,
    emit_lcg_advance,
    emit_lcg_index,
    init_pointer_ring,
    init_random_words,
    init_record_array,
    loop_footer,
    loop_header,
)


class TestRegAlloc:
    def test_sequential_allocation(self):
        ra = RegAlloc()
        assert ra.one() == 1
        assert ra.take(3) == [2, 3, 4]

    def test_exhaustion_raises(self):
        ra = RegAlloc()
        ra.take(29)
        with pytest.raises(WorkloadError, match="exhausted"):
            ra.take(2)


class TestDataInitializers:
    def test_random_words_in_range(self):
        b = ProgramBuilder("t")
        base = init_random_words(b, "r", 64, random.Random(1), bits=16)
        values = [b.data.image[base + i * WORD_BYTES] for i in range(64)]
        assert all(0 <= v < 2**16 for v in values)

    def test_pointer_ring_is_one_cycle(self):
        b = ProgramBuilder("t")
        n = 32
        head = init_pointer_ring(b, "ring", n, 2, random.Random(2))
        visited = set()
        node = head
        for _ in range(n):
            assert node not in visited
            visited.add(node)
            node = b.data.image[node]
        assert node == head  # closes into a single Hamiltonian cycle
        assert len(visited) == n

    def test_pointer_ring_needs_two_words(self):
        b = ProgramBuilder("t")
        with pytest.raises(WorkloadError):
            init_pointer_ring(b, "ring", 8, 1, random.Random(3))

    def test_record_array_fields(self):
        b = ProgramBuilder("t")
        base = init_record_array(b, "recs", 10, 4, [3, 100], random.Random(4))
        for i in range(10):
            assert 0 <= b.data.image[base + i * 32] < 3
            assert 0 <= b.data.image[base + i * 32 + 8] < 100

    def test_record_array_too_many_fields(self):
        b = ProgramBuilder("t")
        with pytest.raises(WorkloadError):
            init_record_array(b, "recs", 4, 1, [3, 3], random.Random(5))


class TestEmitters:
    def test_lcg_advance_is_two_insts(self):
        b = ProgramBuilder("t")
        emit_lcg_advance(b, 1, 2)
        assert b.here == 2

    def test_lcg_index_produces_aligned_bounded_offsets(self):
        from repro.frontend import interpret
        from repro.isa.registers import Reg
        from repro.workloads.generators import LCG_MULT

        b = ProgramBuilder("t")
        b.set_reg(Reg.r1, 12345)
        b.set_reg(Reg.r2, LCG_MULT)
        b.set_reg(Reg.r4, 100)
        b.data.alloc("probe", 1 << 10)
        b.li(Reg.r5, 0)
        b.label("top")
        emit_lcg_advance(b, Reg.r1, Reg.r2)
        emit_lcg_index(b, Reg.r1, Reg.r3, 10)
        b.load(Reg.r6, Reg.r3, base_symbol="probe")
        b.addi(Reg.r5, Reg.r5, 1)
        b.blt(Reg.r5, Reg.r4, "top")
        b.halt()
        trace = interpret(b.build())
        base = b.data.base("probe")
        c = trace.columns
        offsets = {addr - base for addr, code in zip(c.addr, c.op_code)
                   if code == LD_CODE}
        assert all(0 <= off < (1 << 10) * 8 for off in offsets)
        assert all(off % 8 == 0 for off in offsets)
        assert len(offsets) > 50  # well spread

    def test_compute_chain_dependent_is_serial(self):
        b = ProgramBuilder("t")
        emit_compute_chain(b, [1, 2], 6, dependent=True)
        prog_ops = [i for i in b._insts]
        assert all(i.rd == 1 for i in prog_ops)

    def test_compute_chain_independent_rotates(self):
        b = ProgramBuilder("t")
        emit_compute_chain(b, [1, 2, 3], 6, dependent=False)
        dests = {i.rd for i in b._insts}
        assert dests == {1, 2, 3}

    def test_compute_chain_needs_registers(self):
        b = ProgramBuilder("t")
        with pytest.raises(WorkloadError):
            emit_compute_chain(b, [], 4)

    def test_loop_header_footer_roundtrip(self):
        from repro.frontend import interpret
        from repro.isa.registers import Reg

        b = ProgramBuilder("t")
        b.set_reg(Reg.r2, 7)
        top = loop_header(b, "k")
        b.nop()
        loop_footer(b, top, Reg.r1, Reg.r2)
        b.halt()
        trace = interpret(b.build())
        nop = CODE_BY_OP[Op.NOP]
        assert trace.columns.op_code.count(nop) == 7
