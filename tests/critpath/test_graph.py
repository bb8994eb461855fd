"""Tests for the dependence-graph forward pass.

Every case runs on the Python loop and, when it loads, on the compiled
pass, and checks that both engines give the same time.
"""


from repro.config import MachineConfig
from repro.cpu import nativebuild
from repro.critpath.classify import classify_trace
from repro.critpath.graph import ForwardPass, service_latency
from repro.frontend import interpret
from repro.isa.builder import ProgramBuilder
from repro.isa.opcodes import LD_CODE
from repro.isa.registers import Reg


def _run(fp, latency_override=None):
    """``fp``'s time on the Python loop, checked equal on the compiled
    pass when that loads."""
    time = fp._run(latency_override, None)
    lib = nativebuild.load("critpath")
    if lib is not None:
        assert fp._run(latency_override, lib) == time
    return time


def _serial_chain(n=60):
    b = ProgramBuilder("chain")
    b.li(Reg.r1, 1)
    for _ in range(n):
        b.add(Reg.r1, Reg.r1, Reg.r1)
    b.halt()
    return interpret(b.build())


def _parallel_ops(n=60):
    b = ProgramBuilder("par")
    for k in range(n):
        b.li(Reg.r1 + (k % 8), k)
    b.halt()
    return interpret(b.build())


def test_service_latency_levels():
    m = MachineConfig()
    assert service_latency("l1", m) == m.dcache.hit_latency
    assert service_latency("l2", m) == m.dcache.hit_latency + m.l2.hit_latency
    assert service_latency("mem", m) > m.memory_latency


def test_serial_chain_longer_than_parallel():
    serial = _run(ForwardPass(_serial_chain()))
    parallel = _run(ForwardPass(_parallel_ops()))
    assert serial > parallel


def test_parallel_ops_bounded_by_width():
    n = 120
    time = _run(ForwardPass(_parallel_ops(n)))
    # Width-6 dispatch: ~n/6 cycles plus pipeline constants.
    assert time < n / 3


def test_latency_override_shortens_execution():
    b = ProgramBuilder("mem")
    b.data.alloc("t", 8)
    b.li(Reg.r1, b.data.base("t"))
    b.load(Reg.r2, Reg.r1)
    b.add(Reg.r3, Reg.r2, Reg.r2)  # dependent on the load
    b.halt()
    trace = interpret(b.build())
    cls = classify_trace(trace, warm=False)
    fp = ForwardPass(trace, classification=cls)
    base = _run(fp)
    load_seq = trace.columns.op_code.index(LD_CODE)
    reduced = _run(fp, {load_seq: 2.0})
    assert reduced < base


def test_mispredicted_branches_add_refill():
    import random
    rng = random.Random(4)
    b = ProgramBuilder("br")
    b.data.alloc("bits", 128)
    b.data.fill("bits", [rng.randint(0, 1) for _ in range(128)])
    b.set_reg(Reg.r2, 128 * 8)
    b.li(Reg.r1, 0)
    b.label("top")
    b.load(Reg.r3, Reg.r1, base_symbol="bits")
    b.beq(Reg.r3, 0, "skip", rhs_is_imm=True)
    b.nop()
    b.label("skip")
    b.addi(Reg.r1, Reg.r1, 8)
    b.blt(Reg.r1, Reg.r2, "top")
    b.halt()
    trace = interpret(b.build())
    cls = classify_trace(trace)
    with_mispredicts = _run(ForwardPass(trace, classification=cls))
    cls.mispredicted.clear()
    without = _run(ForwardPass(trace, classification=cls))
    assert with_mispredicts > without


def test_window_restriction():
    trace = _serial_chain(100)
    full = ForwardPass(trace)
    half = ForwardPass(trace, end=len(trace) // 2)
    assert len(half) == len(trace) // 2
    assert _run(half) < _run(full)


def test_rerun_is_pure():
    fp = ForwardPass(_serial_chain())
    assert _run(fp) == _run(fp)
    assert _run(fp, {0: 50.0}) >= _run(fp)
