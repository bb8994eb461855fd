"""Golden bit-identity: the C interpreter vs the Python loop.

``interpret`` runs the C twin (``_interp.c``) whenever its library
loads; ``interpret_python`` is the oracle.  Every benchmark program on
both inputs must give identical columns, every fault the same exception
and message, and every value Python ints can hold but int64 cannot must
give Python's answer (the C path declines and the Python loop runs).
The C legs skip, with the loader's reason, when the library does not
load.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import nativebuild
from repro.errors import ExecutionError
from repro.frontend import nativeinterp
from repro.frontend.interpreter import (
    _INITIAL_CAPACITY,
    _decode,
    interpret,
    interpret_python,
)
from repro.isa.instruction import Program, StaticInst
from repro.isa.opcodes import IMMEDIATE_OPS, Op
from repro.workloads import benchmark_names
from repro.workloads.registry import get_program

COLUMN_NAMES = ("pc", "op_code", "src1", "src2", "addr", "taken", "next_pc")

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


@pytest.fixture(scope="module")
def lib():
    handle = nativebuild.load("interp")
    if handle is None:
        pytest.skip(
            f"native interpreter unavailable: {nativebuild.native_error('interp')}"
        )
    return handle


def _run_c(lib, program, max_instructions=1_000_000, require_halt=True):
    return nativeinterp.run(
        lib, program, _decode(program), max_instructions, None,
        require_halt, _INITIAL_CAPACITY,
    )


def _columns(trace):
    return {name: getattr(trace.columns, name) for name in COLUMN_NAMES}


def _outcome(fn, *args, **kwargs):
    """The columns a run produced, or its exception type and message."""
    try:
        return _columns(fn(*args, **kwargs))
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("input_set", ["train", "ref"])
@pytest.mark.parametrize("name", benchmark_names())
def test_c_columns_match_python(lib, name, input_set):
    program = get_program(name, input_set)
    c_trace = _run_c(lib, program, 2_000_000)
    assert c_trace is not None
    assert _columns(c_trace) == _columns(
        interpret_python(program, max_instructions=2_000_000)
    )


@pytest.mark.parametrize("budget", [1, 5_000, _INITIAL_CAPACITY, 100_000])
def test_truncation_without_halt_matches(lib, budget):
    program = get_program("gap")
    c_trace = _run_c(lib, program, budget, require_halt=False)
    py_trace = interpret_python(program, budget, require_halt=False)
    assert len(c_trace) == budget
    assert _columns(c_trace) == _columns(py_trace)


def _program(*rows, data=None, regs=None):
    """A program from ``(op, fields)`` rows, pcs in order."""
    return Program(
        "case",
        [StaticInst(pc, op, **fields) for pc, (op, fields) in enumerate(rows)],
        data=data or {},
        initial_regs=regs or {},
    )


HALT = (Op.HALT, {})


@pytest.mark.parametrize(
    "rows, match",
    [
        ([(Op.LI, dict(rd=1, imm=1))],
         "control transferred outside program: pc=1"),
        ([(Op.LI, dict(rd=1, imm=-64)), (Op.LD, dict(rd=2, rs1=1, imm=8)),
          HALT],
         "negative load address at pc=1"),
        ([(Op.LI, dict(rd=1, imm=-64)), (Op.ST, dict(rs1=1, rs2=1, imm=8)),
          HALT],
         "negative store address at pc=1"),
        ([(Op.JMP, dict(target=0))], "did not halt within 100 instructions"),
    ],
)
def test_errors_match(lib, rows, match):
    program = _program(*rows)
    c_out = _outcome(_run_c, lib, program, 100)
    py_out = _outcome(interpret_python, program, 100)
    assert c_out == py_out
    assert c_out[0] is ExecutionError and match in c_out[1]


def test_address_overflow_falls_back_to_python(lib):
    program = _program(
        (Op.LD, dict(rd=2, rs1=1, imm=8)),
        (Op.ST, dict(rs1=1, rs2=2, imm=16)),
        HALT,
        regs={1: INT64_MAX},
    )
    assert _run_c(lib, program) is None
    # Python's own answer: the address does not fit the int64 column.
    assert _outcome(interpret, program) == _outcome(interpret_python, program)
    assert _outcome(interpret, program)[0] is OverflowError


@pytest.mark.parametrize("field", ["imm", "data", "initial_reg"])
def test_values_outside_int64_take_python_path(lib, field):
    big = 1 << 64
    program = _program(
        (Op.LI, dict(rd=1, imm=big if field == "imm" else 8)),
        (Op.LD, dict(rd=2, rs1=0, imm=8)),
        (Op.AND, dict(rd=3, rs1=2, rs2=4)),
        (Op.SLT, dict(rd=5, rs1=3, rs2=1)),
        (Op.BEQ, dict(rs1=5, rs2=0, target=5)),
        HALT,
        data={8: -big} if field == "data" else {},
        regs={4: big} if field == "initial_reg" else {},
    )
    assert _run_c(lib, program) is None
    assert _columns(interpret(program)) == _columns(interpret_python(program))


# --------------------------------------------------------------------- #
# Property: random straight-line ALU programs over int64 extremes.
# --------------------------------------------------------------------- #

ALU_OPS = [
    Op.ADD, Op.ADDI, Op.SUB, Op.AND, Op.ANDI, Op.OR, Op.XOR, Op.SHL,
    Op.SHLI, Op.SHR, Op.SHRI, Op.SLT, Op.SLTI, Op.MUL, Op.LI, Op.MOV,
]
EXTREMES = [
    0, 1, -1, 2, 7, 8, 63, 64, 65, 127, -63, -64, -65, INT64_MIN,
    INT64_MIN + 1, INT64_MAX, INT64_MAX - 7, 1 << 32, -(1 << 32),
]
N_REGS = 9  # r0..r8
MASK = INT64_MAX & ~7

int64s = st.one_of(
    st.sampled_from(EXTREMES), st.integers(INT64_MIN, INT64_MAX)
)
alu_insts = st.tuples(
    st.sampled_from(ALU_OPS),
    st.integers(0, N_REGS - 1),
    st.integers(0, N_REGS - 1),
    st.integers(0, N_REGS - 1),
    int64s,
)


def _alu(pc, op, rd, rs1, rs2, imm):
    if op is Op.LI:
        return StaticInst(pc, op, rd=rd, imm=imm)
    if op is Op.MOV:
        return StaticInst(pc, op, rd=rd, rs1=rs1)
    if op in IMMEDIATE_OPS:
        return StaticInst(pc, op, rd=rd, rs1=rs1, imm=imm)
    return StaticInst(pc, op, rd=rd, rs1=rs1, rs2=rs2)


def straight_line(insts, regs):
    """The ALU sequence, then probes exposing every register's 64 bits
    in the trace: two masked-address loads (bits 3..62, bits 0..59) and
    a sign branch per register."""
    code = [_alu(pc, *inst) for pc, inst in enumerate(insts)]

    def emit(op, **kw):
        code.append(StaticInst(len(code), op, **kw))

    for reg in range(1, N_REGS):
        emit(Op.ANDI, rd=9, rs1=reg, imm=MASK)
        emit(Op.LD, rd=10, rs1=9, imm=0)
        emit(Op.SHLI, rd=9, rs1=reg, imm=3)
        emit(Op.ANDI, rd=9, rs1=9, imm=MASK)
        emit(Op.LD, rd=10, rs1=9, imm=0)
        emit(Op.BLT, rs1=reg, rs2=0, target=len(code) + 1)
    emit(Op.HALT)
    return Program(
        "random", code, data={},
        initial_regs={r + 1: v for r, v in enumerate(regs)},
    )


@settings(max_examples=200, deadline=None)
@given(
    insts=st.lists(alu_insts, min_size=1, max_size=24),
    regs=st.lists(int64s, min_size=N_REGS - 1, max_size=N_REGS - 1),
)
def test_random_alu_programs_agree(insts, regs):
    lib = nativebuild.load("interp")
    if lib is None:
        pytest.skip(nativebuild.native_error("interp"))
    program = straight_line(insts, regs)
    c_trace = _run_c(lib, program)
    assert c_trace is not None
    assert _columns(c_trace) == _columns(interpret_python(program))


wide = st.one_of(
    st.integers(INT64_MAX + 1, 1 << 70), st.integers(-(1 << 70), INT64_MIN - 1)
)


@settings(max_examples=50, deadline=None)
@given(
    insts=st.lists(alu_insts, min_size=1, max_size=12),
    imm=wide,
    where=st.integers(0, 11),
)
def test_values_outside_int64_give_pythons_result(insts, imm, where):
    """A wide immediate anywhere: ``interpret`` declines C and returns
    exactly the Python loop's trace."""
    op, rd, rs1, rs2, _ = insts[where % len(insts)]
    if op not in IMMEDIATE_OPS:
        op = Op.LI
    insts = list(insts)
    insts[where % len(insts)] = (op, rd, rs1, rs2, imm)
    program = straight_line(insts, [0] * (N_REGS - 1))
    assert _columns(interpret(program)) == _columns(
        interpret_python(program)
    )
