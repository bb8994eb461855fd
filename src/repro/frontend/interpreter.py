"""Functional interpreter producing dynamic traces.

The interpreter executes a :class:`~repro.isa.instruction.Program` with
exact 64-bit semantics and records, per dynamic instruction, the register
dataflow (producer sequence numbers), memory addresses, and resolved branch
directions.  Optional per-PC hooks let the DDMT layer observe
architectural state at trigger points to expand p-thread spawns;
augmented interpretations pass compiled trigger plans as ``pc_hooks``.

:func:`interpret` runs the C dispatch loop
(:mod:`repro.frontend.nativeinterp`, ``_interp.c``) over the flat per-PC
table :func:`_decode` builds, whenever its library loads and every hook
is a compiled :class:`~repro.frontend.nativeinterp.TriggerPlan` -- the C
loop then expands the p-thread spawns itself -- and
:func:`interpret_reference` otherwise (no C toolchain, ``REPRO_NATIVE=0``,
Python-callable hooks, or values outside int64).  Both emit the same
columns and raise the same errors.

:func:`interpret_reference` is the Python oracle the C loop is tested
against: it decodes each ``StaticInst`` itself as it executes and
appends each row to seven lists that it converts to columns at the end,
so it shares no decode table with the C loop and a :func:`_decode` bug
cannot hide in both.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, List, Optional

from repro.errors import ExecutionError
from repro.frontend import nativeinterp
from repro.frontend.columns import TraceColumns
from repro.frontend.trace import NO_PRODUCER, Trace
from repro.isa.instruction import Program
from repro.isa.opcodes import CODE_BY_OP, IMMEDIATE_OPS, Op, OpClass
from repro.isa.registers import NUM_ARCH_REGS, ZERO

#: Hook called after a watched static PC executes: (seq, state).
PcHook = Callable[[int, "InterpreterState"], None]

#: Initial column capacity of the C loop; buffers double (bounded by
#: max_instructions) when a trace outgrows it, so tiny test programs
#: don't preallocate megabytes per interpretation.
_INITIAL_CAPACITY = 1 << 16

# Decoded dispatch categories, in the order of _interp.c's enum.
(_C_ALU_IMM, _C_ALU_RR, _C_LOAD, _C_BRANCH, _C_STORE, _C_LI, _C_MOV,
 _C_JUMP, _C_NOP, _C_HALT) = range(10)


class InterpreterState:
    """Architectural state exposed to PC hooks.

    ``regs`` are current register values *after* the watched instruction
    executed; ``last_writer`` maps each register to the sequence number of
    the dynamic instruction that produced its current value.
    """

    __slots__ = ("regs", "last_writer", "memory", "seq")

    def __init__(self) -> None:
        self.regs: List[int] = [0] * NUM_ARCH_REGS
        self.last_writer: List[int] = [NO_PRODUCER] * NUM_ARCH_REGS
        self.memory: Dict[int, int] = {}
        self.seq: int = 0

    def read_word(self, addr: int) -> int:
        """Read an aligned 8-byte word (unwritten memory reads as zero)."""
        return self.memory.get(addr & ~7, 0)


def _decode(program: Program) -> tuple:
    """Flat per-PC dispatch tuples ``(cat, code, rd, rs1, rs2, ext)``.

    ``rd`` is -1 when the instruction writes no architectural register
    (including writes to the hardwired zero register); ``ext`` carries the
    immediate or the control target.  Memoized on the program --
    programs are immutable once built (the same convention
    ``fingerprint()`` relies on).
    """
    table = getattr(program, "_decode_table", None)
    if table is not None:
        return table
    rows = []
    for inst in program.instructions:
        op = inst.op
        code = CODE_BY_OP[op]
        cls = op.op_class
        rd = inst.rd if inst.rd is not None and inst.rd != ZERO else -1
        if cls is OpClass.ALU or cls is OpClass.MUL:
            if op is Op.LI:
                row = (_C_LI, code, rd, 0, 0, inst.imm)
            elif op is Op.MOV:
                row = (_C_MOV, code, rd, inst.rs1, 0, 0)
            elif op in IMMEDIATE_OPS:
                row = (_C_ALU_IMM, code, rd, inst.rs1, 0, inst.imm)
            else:
                row = (_C_ALU_RR, code, rd, inst.rs1, inst.rs2, 0)
        elif cls is OpClass.LOAD:
            row = (_C_LOAD, code, rd, inst.rs1, 0, inst.imm or 0)
        elif cls is OpClass.STORE:
            row = (_C_STORE, code, -1, inst.rs1, inst.rs2, inst.imm or 0)
        elif cls is OpClass.BRANCH:
            row = (_C_BRANCH, code, -1, inst.rs1, inst.rs2, inst.target)
        elif cls is OpClass.JUMP:
            row = (_C_JUMP, code, -1, 0, 0, inst.target)
        elif cls is OpClass.NOP:
            row = (_C_NOP, code, -1, 0, 0, 0)
        elif cls is OpClass.HALT:
            row = (_C_HALT, code, -1, 0, 0, 0)
        else:  # pragma: no cover - all classes handled above
            raise ExecutionError(f"unhandled op class {cls} at pc={inst.pc}")
        rows.append(row)
    table = tuple(rows)
    program._decode_table = table
    return table


def interpret(
    program: Program,
    max_instructions: int = 1_000_000,
    pc_hooks: Optional[Dict[int, PcHook]] = None,
    require_halt: bool = True,
) -> Trace:
    """Execute ``program`` functionally and return its dynamic trace.

    Raises :class:`~repro.errors.ExecutionError` if the program runs past
    ``max_instructions`` without halting (unless ``require_halt`` is False,
    in which case the trace is truncated at the limit).

    Runs the C loop when the ``interp`` library loads (building it on
    the first call) and ``pc_hooks`` holds only
    :class:`~repro.frontend.nativeinterp.TriggerPlan` hooks, and
    :func:`interpret_reference` otherwise; the results are identical.
    """
    hooks = pc_hooks or None
    if hooks is None or all(
        isinstance(hook, nativeinterp.TriggerPlan) for hook in hooks.values()
    ):
        from repro.cpu import nativebuild

        lib = nativebuild.load("interp")
        if lib is not None:
            trace = nativeinterp.run(
                lib, program, _decode(program), max_instructions, hooks,
                require_halt, _INITIAL_CAPACITY,
            )
            if trace is not None:
                return trace
    return interpret_reference(program, max_instructions, hooks, require_halt)


def interpret_reference(
    program: Program,
    max_instructions: int = 1_000_000,
    pc_hooks: Optional[Dict[int, PcHook]] = None,
    require_halt: bool = True,
) -> Trace:
    """:func:`interpret` on the Python loop (the C loop's oracle),
    decoding each ``StaticInst`` as it executes."""
    state = InterpreterState()
    state.memory = dict(program.data)
    for reg, value in program.initial_regs.items():
        state.regs[reg] = value

    insts = program.instructions
    n_static = len(insts)
    regs = state.regs
    last_writer = state.last_writer
    memory = state.memory
    hooks = pc_hooks or {}
    pc_col: List[int] = []
    op_col: List[int] = []
    src1_col: List[int] = []
    src2_col: List[int] = []
    addr_col: List[int] = []
    taken_col: List[int] = []
    next_pc_col: List[int] = []

    pc = program.entry
    seq = 0
    halted = False
    while seq < max_instructions:
        if not 0 <= pc < n_static:
            raise ExecutionError(f"control transferred outside program: pc={pc}")
        static = insts[pc]
        op = static.op
        next_pc = pc + 1
        cls = op.op_class
        s1 = NO_PRODUCER
        s2 = NO_PRODUCER
        addr = -1
        taken = 0

        if cls is OpClass.ALU or cls is OpClass.MUL:
            if op is Op.LI:
                a = 0
                b = static.imm
            elif op is Op.MOV:
                a = regs[static.rs1]
                b = 0
                s1 = last_writer[static.rs1]
            elif op in IMMEDIATE_OPS:
                a = regs[static.rs1]
                b = static.imm
                s1 = last_writer[static.rs1]
            else:
                a = regs[static.rs1]
                b = regs[static.rs2]
                s1 = last_writer[static.rs1]
                s2 = last_writer[static.rs2]
            value = static.evaluate_alu(a, b)
            if static.rd != ZERO:
                regs[static.rd] = value
                last_writer[static.rd] = seq

        elif cls is OpClass.LOAD:
            base = regs[static.rs1]
            addr = (base + (static.imm or 0)) & ~7
            if addr < 0:
                raise ExecutionError(f"negative load address at pc={pc}")
            value = memory.get(addr, 0)
            s1 = last_writer[static.rs1]
            if static.rd != ZERO:
                regs[static.rd] = value
                last_writer[static.rd] = seq

        elif cls is OpClass.STORE:
            base = regs[static.rs1]
            addr = (base + (static.imm or 0)) & ~7
            if addr < 0:
                raise ExecutionError(f"negative store address at pc={pc}")
            memory[addr] = regs[static.rs2]
            s1 = last_writer[static.rs1]
            s2 = last_writer[static.rs2]

        elif cls is OpClass.BRANCH:
            if static.evaluate_branch(regs[static.rs1], regs[static.rs2]):
                taken = 1
                next_pc = static.target
            s1 = last_writer[static.rs1]
            s2 = last_writer[static.rs2]

        elif cls is OpClass.JUMP:
            taken = 1
            next_pc = static.target

        elif cls is OpClass.HALT:
            halted = True

        elif cls is not OpClass.NOP:  # pragma: no cover - all classes handled
            raise ExecutionError(f"unhandled op class {cls} at pc={pc}")

        pc_col.append(pc)
        op_col.append(CODE_BY_OP[op])
        src1_col.append(s1)
        src2_col.append(s2)
        addr_col.append(addr)
        taken_col.append(taken)
        next_pc_col.append(next_pc)

        hook = hooks.get(pc)
        if hook is not None:
            state.seq = seq
            hook(seq, state)

        seq += 1
        if halted:
            break
        pc = next_pc

    if not halted and require_halt:
        raise ExecutionError(
            f"program {program.name!r} did not halt within "
            f"{max_instructions} instructions"
        )
    return Trace(program, TraceColumns(
        array("q", pc_col), array("b", op_col), array("q", src1_col),
        array("q", src2_col), array("q", addr_col), array("b", taken_col),
        array("q", next_pc_col),
    ))
