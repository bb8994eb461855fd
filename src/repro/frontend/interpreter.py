"""Functional interpreter producing dynamic traces.

The interpreter executes a :class:`~repro.isa.instruction.Program` with
exact 64-bit semantics and records, per dynamic instruction, the register
dataflow (producer sequence numbers), memory addresses, and resolved branch
directions.  Optional per-PC hooks let the DDMT layer observe
architectural state at trigger points to expand p-thread spawns;
augmented interpretations pass compiled trigger plans as ``pc_hooks``.

:func:`interpret` runs the C twin of the dispatch loop
(:mod:`repro.frontend.nativeinterp`, ``_interp.c``) whenever its library
loads and every hook is a compiled
:class:`~repro.frontend.nativeinterp.TriggerPlan` -- the C loop then
expands the p-thread spawns itself -- and :func:`interpret_python`
otherwise.  Both emit the same columns and raise the same errors.

The Python loop emits the trace directly into flat columns (stdlib
``array('q')``/``array('b')``, grown by doubling, truncated and sealed in
place as :class:`~repro.frontend.columns.TraceColumns`) and the static
program is decoded once into flat per-PC dispatch tuples, so the dynamic
loop never chases ``StaticInst -> Op -> OpClass``
attribute/property/enum-hash chains.  The retained object-path
implementation in :mod:`repro.frontend.reference` is the bit-identity
oracle both loops are tested against.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import ExecutionError
from repro.frontend import nativeinterp
from repro.frontend.columns import (
    TraceColumns,
    grow_trace_buffers,
    trace_buffers,
)
from repro.frontend.trace import NO_PRODUCER, Trace
from repro.isa.instruction import Program
from repro.isa.opcodes import (
    ALU_SEMANTICS,
    BRANCH_SEMANTICS,
    CODE_BY_OP,
    IMMEDIATE_OPS,
    Op,
    OpClass,
)
from repro.isa.registers import NUM_ARCH_REGS, ZERO

#: Hook called after a watched static PC executes: (seq, state).
PcHook = Callable[[int, "InterpreterState"], None]

#: Initial column capacity; buffers double (bounded by max_instructions)
#: when a trace outgrows it, so tiny test programs don't preallocate
#: megabytes per interpretation.
_INITIAL_CAPACITY = 1 << 16

# Decoded dispatch categories, ordered roughly by dynamic frequency.
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
    """Flat per-PC dispatch tuples ``(cat, code, rd, rs1, rs2, ext, fn)``.

    ``rd`` is -1 when the instruction writes no architectural register
    (including writes to the hardwired zero register); ``ext`` carries the
    immediate or the control target; ``fn`` the ALU/branch semantics
    callable.  Memoized on the program -- programs are immutable once
    built (the same convention ``fingerprint()`` relies on).
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
                row = (_C_LI, code, rd, 0, 0, inst.imm, None)
            elif op is Op.MOV:
                row = (_C_MOV, code, rd, inst.rs1, 0, 0, None)
            elif op in IMMEDIATE_OPS:
                row = (_C_ALU_IMM, code, rd, inst.rs1, 0, inst.imm,
                       ALU_SEMANTICS[op])
            else:
                row = (_C_ALU_RR, code, rd, inst.rs1, inst.rs2, 0,
                       ALU_SEMANTICS[op])
        elif cls is OpClass.LOAD:
            row = (_C_LOAD, code, rd, inst.rs1, 0, inst.imm or 0, None)
        elif cls is OpClass.STORE:
            row = (_C_STORE, code, -1, inst.rs1, inst.rs2, inst.imm or 0,
                   None)
        elif cls is OpClass.BRANCH:
            row = (_C_BRANCH, code, -1, inst.rs1, inst.rs2, inst.target,
                   BRANCH_SEMANTICS[op])
        elif cls is OpClass.JUMP:
            row = (_C_JUMP, code, -1, 0, 0, inst.target, None)
        elif cls is OpClass.NOP:
            row = (_C_NOP, code, -1, 0, 0, 0, None)
        elif cls is OpClass.HALT:
            row = (_C_HALT, code, -1, 0, 0, 0, None)
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
    :func:`interpret_python` otherwise; the results are identical.
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
    return interpret_python(program, max_instructions, hooks, require_halt)


def interpret_python(
    program: Program,
    max_instructions: int = 1_000_000,
    pc_hooks: Optional[Dict[int, PcHook]] = None,
    require_halt: bool = True,
) -> Trace:
    """:func:`interpret` on the pure-Python loop (the C loop's oracle)."""
    state = InterpreterState()
    state.memory = dict(program.data)
    for reg, value in program.initial_regs.items():
        state.regs[reg] = value

    decoded = _decode(program)
    n_static = len(decoded)
    regs = state.regs
    last_writer = state.last_writer
    memory = state.memory
    memory_get = memory.get
    hooks = pc_hooks or None

    cap = min(max_instructions, _INITIAL_CAPACITY)
    cols = trace_buffers(cap)
    pc_col, op_col, src1_col, src2_col, addr_col, taken_col, next_col = cols

    pc = program.entry
    seq = 0
    halted = False
    while seq < max_instructions:
        if not 0 <= pc < n_static:
            raise ExecutionError(f"control transferred outside program: pc={pc}")
        if seq == cap:
            new_cap = min(max_instructions, cap * 2)
            grow_trace_buffers(cols, new_cap - cap)
            cap = new_cap
        cat, code, rd, rs1, rs2, ext, fn = decoded[pc]
        next_pc = pc + 1
        pc_col[seq] = pc
        op_col[seq] = code

        if cat == _C_ALU_IMM:
            value = fn(regs[rs1], ext)
            src1_col[seq] = last_writer[rs1]
            if rd >= 0:
                regs[rd] = value
                last_writer[rd] = seq
        elif cat == _C_ALU_RR:
            value = fn(regs[rs1], regs[rs2])
            src1_col[seq] = last_writer[rs1]
            src2_col[seq] = last_writer[rs2]
            if rd >= 0:
                regs[rd] = value
                last_writer[rd] = seq
        elif cat == _C_LOAD:
            addr = (regs[rs1] + ext) & ~7
            if addr < 0:
                raise ExecutionError(f"negative load address at pc={pc}")
            addr_col[seq] = addr
            src1_col[seq] = last_writer[rs1]
            if rd >= 0:
                regs[rd] = memory_get(addr, 0)
                last_writer[rd] = seq
        elif cat == _C_BRANCH:
            src1_col[seq] = last_writer[rs1]
            src2_col[seq] = last_writer[rs2]
            if fn(regs[rs1], regs[rs2]):
                taken_col[seq] = 1
                next_pc = ext
        elif cat == _C_STORE:
            addr = (regs[rs1] + ext) & ~7
            if addr < 0:
                raise ExecutionError(f"negative store address at pc={pc}")
            addr_col[seq] = addr
            src1_col[seq] = last_writer[rs1]
            src2_col[seq] = last_writer[rs2]
            memory[addr] = regs[rs2]
        elif cat == _C_LI:
            if rd >= 0:
                regs[rd] = ext
                last_writer[rd] = seq
        elif cat == _C_MOV:
            src1_col[seq] = last_writer[rs1]
            if rd >= 0:
                regs[rd] = regs[rs1]
                last_writer[rd] = seq
        elif cat == _C_JUMP:
            taken_col[seq] = 1
            next_pc = ext
        elif cat == _C_NOP:
            pass
        else:  # _C_HALT
            halted = True

        next_col[seq] = next_pc
        seq += 1
        if hooks is not None:
            hook = hooks.get(pc)
            if hook is not None:
                state.seq = seq - 1
                hook(seq - 1, state)
        if halted:
            break
        pc = next_pc

    if not halted and require_halt:
        raise ExecutionError(
            f"program {program.name!r} did not halt within "
            f"{max_instructions} instructions"
        )
    return Trace(program, TraceColumns.seal(*cols, seq))
