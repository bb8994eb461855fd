"""Tests for functional trace classification."""


from repro.critpath.classify import L1, L2, MEM, classify_trace
from repro.frontend import interpret
from repro.isa.builder import ProgramBuilder
from repro.isa.opcodes import Op
from repro.isa.registers import Reg
from repro.workloads import get_program


def _strided_loads(n=64, stride=4096):
    b = ProgramBuilder("stride")
    b.data.alloc("big", (n + 1) * stride // 8)
    b.set_reg(Reg.r2, n)
    b.set_reg(Reg.r5, stride)
    b.li(Reg.r1, 0)
    b.li(Reg.r6, b.data.base("big"))
    b.label("top")
    b.load(Reg.r3, Reg.r6)
    b.add(Reg.r6, Reg.r6, Reg.r5)
    b.addi(Reg.r1, Reg.r1, 1)
    b.blt(Reg.r1, Reg.r2, "top")
    b.halt()
    return interpret(b.build())


def test_cold_strided_loads_classified_mem():
    trace = _strided_loads()
    cls = classify_trace(trace, warm=False)
    load_pc = next(i.pc for i in trace.program if i.op is Op.LD)
    assert cls.miss_counts[load_pc] > 30
    assert cls.total_l2_misses > 30


def test_warm_small_footprint_is_l1():
    b = ProgramBuilder("hot")
    b.data.alloc("t", 8)
    b.set_reg(Reg.r2, 50)
    b.li(Reg.r1, 0)
    b.li(Reg.r6, b.data.base("t"))
    b.label("top")
    b.load(Reg.r3, Reg.r6)
    b.addi(Reg.r1, Reg.r1, 1)
    b.blt(Reg.r1, Reg.r2, "top")
    b.halt()
    trace = interpret(b.build())
    cls = classify_trace(trace)
    load_pc = next(i.pc for i in trace.program if i.op is Op.LD)
    counts = cls.service_counts[load_pc]
    assert counts[0] == cls.load_counts[load_pc]  # all L1


def test_merge_aware_classification_on_chase_pair():
    """mcf-style: the second field access of a freshly missed node line
    waits on the in-flight fill and must classify as 'mem', while only
    the initiator counts as a miss."""
    trace = interpret(get_program("mcf"), max_instructions=2_000_000)
    cls = classify_trace(trace)
    prog = trace.program
    cost_pc = next(i.pc for i in prog if i.annotation == "node-cost")
    chase_pc = next(i.pc for i in prog if "chase" in i.annotation)
    # The chase load rarely initiates (the cost load touched its line
    # first) but it waits: its mem service share must be substantial.
    chase_counts = cls.service_counts[chase_pc]
    assert chase_counts[2] > 0.5 * sum(chase_counts)
    assert cls.miss_counts.get(chase_pc, 0) < cls.load_counts[chase_pc] * 0.5
    assert cls.miss_counts.get(cost_pc, 0) > 0


def test_branch_classification_matches_predictability():
    trace = interpret(get_program("bzip2"), max_instructions=2_000_000)
    cls = classify_trace(trace)
    prog = trace.program
    data_branch = next(i.pc for i in prog if i.annotation == "data-branch")
    loop_branch = next(i.pc for i in prog if i.annotation == "loop-branch")
    assert cls.mispredict_rate(data_branch) > 0.05
    assert cls.mispredict_rate(loop_branch) < 0.01


def test_expected_service_latency_weighted():
    trace = _strided_loads()
    cls = classify_trace(trace, warm=False)
    load_pc = next(i.pc for i in trace.program if i.op is Op.LD)
    latencies = {L1: 2.0, L2: 14.0, MEM: 214.0}
    expected = cls.expected_service_latency(load_pc, latencies, default=2.0)
    assert expected > 100.0  # cold strided loads mostly go to memory
