"""Tests for trace containers and queries."""

import pytest

from repro.frontend import interpret
from repro.isa.builder import ProgramBuilder
from repro.isa.opcodes import OpClass
from repro.isa.registers import Reg


@pytest.fixture(scope="module")
def mixed_trace():
    b = ProgramBuilder("mixed")
    b.data.alloc("buf", 16)
    b.set_reg(Reg.r2, 12)
    b.li(Reg.r1, 0)
    b.label("top")
    b.load(Reg.r3, Reg.r1, base_symbol="buf")
    b.add(Reg.r4, Reg.r4, Reg.r3)
    b.store(Reg.r4, Reg.r1, base_symbol="buf")
    b.addi(Reg.r1, Reg.r1, 8)
    b.blt(Reg.r1, Reg.r2, "top")
    b.halt()
    return interpret(b.build())


def test_count_by_class(mixed_trace):
    counts = mixed_trace.count_by_class()
    assert counts[OpClass.LOAD] == 2
    assert counts[OpClass.STORE] == 2
    assert counts[OpClass.BRANCH] == 2


def test_repr_is_stable(mixed_trace):
    dyn = mixed_trace[0]
    assert f"seq={dyn.seq}" in repr(dyn)
