"""ctypes driver for the C interpreter (``_interp.c``).

:func:`repro.frontend.interpreter.interpret` runs a program here
whenever the ``interp`` library loads (see :mod:`repro.cpu.nativebuild`)
and every pc hook is a :class:`TriggerPlan`; the Python reference
interpreter (``interpret_reference``), which decodes each instruction
itself, runs otherwise.  Both produce the same trace columns, and the
same spawns.

A :class:`TriggerPlan` is a pc hook with two faces.  Called from the
reference interpreter, it runs each body's Python expansion
(``BodyPlan.expand``) and appends the resulting spawn object to its
:class:`SpawnSink`.
Encoded for C, each body is a table of :class:`BodyStep` rows that the C
loop evaluates at the trigger pc itself, writing the spawn straight into
flat spawn columns that end up in ``SpawnSink.columns``.

The C path only takes programs whose every value fits int64: an
immediate, data word or initial register outside int64 (Python ints do
not overflow) sends the program to the reference before the run, and
an address sum that overflows int64 during the run makes :func:`run`
return None so the caller reruns it in Python.  The C path never
returns a different answer; it returns no answer.
"""

from __future__ import annotations

import ctypes
from array import array
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import ExecutionError
from repro.frontend.columns import TraceColumns, grow_trace_buffers, trace_buffers
from repro.frontend.trace import Trace
from repro.isa.instruction import Program
from repro.isa.opcodes import Op
from repro.isa.registers import NUM_ARCH_REGS

#: ALU and branch function codes (_interp.c's F_*).
FN_BY_OP: Dict[Op, int] = {
    Op.ADD: 0, Op.ADDI: 0, Op.SUB: 1, Op.AND: 2, Op.ANDI: 2, Op.OR: 3,
    Op.XOR: 4, Op.SHL: 5, Op.SHLI: 5, Op.SHR: 6, Op.SHRI: 6, Op.SLT: 7,
    Op.SLTI: 7, Op.MUL: 8, Op.LI: 9, Op.MOV: 10,
    Op.BEQ: 11, Op.BNE: 12, Op.BLT: 13, Op.BGE: 14,
}

#: Body step kinds and operand modes (_interp.c's STEP_* and M_*).
STEP_ALU, STEP_LOAD, STEP_BRANCH = range(3)
M_CONST, M_REG, M_STEP = range(3)

# Row widths of the body and step tables (_interp.c's B_W and S_W).
_BODY_W = 4
_STEP_W = 12

# Run statuses (_interp.c's ST_*).
(_ST_HALT, _ST_LIMIT, _ST_FULL, _ST_BAD_PC, _ST_NEG_LOAD, _ST_NEG_STORE,
 _ST_OVERFLOW, _ST_NOMEM) = range(8)

#: Exported spawn columns, in _interp.c's export order.
SPAWN_INT64 = (
    "sp_trigger", "sp_static", "sp_pos", "sp_inst_lo", "sp_inst_hi",
    "pi_addr", "pi_hint_seq", "pi_dep_lo", "pi_dep_hi", "pi_live_lo",
    "pi_live_hi", "dep_flat", "live_flat",
)
SPAWN_INT8 = ("pi_kind", "pi_hint_taken", "pi_is_target")

_I64P = ctypes.POINTER(ctypes.c_int64)
_I8P = ctypes.POINTER(ctypes.c_int8)


class BodyStep(NamedTuple):
    """One compiled p-thread body instruction.

    Operand ``a``/``b`` is a constant (``M_CONST``), a spawn-time
    register (``M_REG``) or the value of an earlier step (``M_STEP``).
    ``deps`` are the earlier steps this one reads, ``live_regs`` the
    registers it reads from the spawn-time state, both in read order
    without repeats.  A load's address is ``a + b``.
    """

    kind: int
    fn: int
    a_mode: int
    a: int
    b_mode: int
    b: int
    pinst_kind: int
    is_target: bool
    deps: Tuple[int, ...]
    live_regs: Tuple[int, ...]


class BodyPlan(NamedTuple):
    """One static p-thread, compiled.

    ``steps`` is None for a body C cannot evaluate; ``expand(seq,
    state)`` is the Python expansion returning one spawn object.
    """

    position: int
    static_id: int
    steps: Optional[Tuple[BodyStep, ...]]
    expand: Callable


class SpawnSink:
    """Where one replay's spawns land, in trace order (ties in plan
    order).

    The reference interpreter fills ``spawns`` and ``positions`` (each
    spawn's ``BodyPlan.position``); the C loop sets ``columns`` instead,
    a dict of the :data:`SPAWN_INT64` and :data:`SPAWN_INT8` arrays.
    """

    def __init__(self) -> None:
        self.spawns: List[object] = []
        self.positions: List[int] = []
        self.columns: Optional[Dict[str, array]] = None


class TriggerPlan:
    """A pc hook expanding every body triggered at its pc."""

    __slots__ = ("bodies", "sink")

    def __init__(self, bodies: Tuple[BodyPlan, ...], sink: SpawnSink) -> None:
        self.bodies = bodies
        self.sink = sink

    def __call__(self, seq: int, state) -> None:
        sink = self.sink
        for body in self.bodies:
            sink.positions.append(body.position)
            sink.spawns.append(body.expand(seq, state))


def _i8(arr: array):
    if not len(arr):
        return ctypes.cast(None, _I8P)
    return ctypes.cast(arr.buffer_info()[0], _I8P)


# Decoded-row operands each category reads (interpreter.py's _C_*
# order: ALU_IMM, ALU_RR, LOAD, BRANCH, STORE, LI, MOV, JUMP, NOP, HALT).
_READS_RS1 = (True, True, True, True, True, False, True, False, False, False)
_READS_RS2 = (False, True, False, True, True, False, False, False, False,
              False)


def _program_image(program: Program, decoded: tuple) -> Optional[array]:
    """The program as int64 rows ``(cat, code, rd, rs1, rs2, ext, fn)``,
    or None when a value does not fit int64 or a read register is
    missing.  Memoized on the program like its decode table."""
    image = getattr(program, "_native_image", None)
    if image is None:
        flat: List[int] = []
        image = False
        for inst, (cat, code, rd, rs1, rs2, ext) in zip(
            program.instructions, decoded
        ):
            if (rs1 is None and _READS_RS1[cat]) or (
                rs2 is None and _READS_RS2[cat]
            ):
                break
            flat += (cat, code, rd, rs1 or 0, rs2 or 0, ext or 0,
                     FN_BY_OP.get(inst.op, 0))
        else:
            try:
                image = array("q", flat)
            except OverflowError:
                pass
        program._native_image = image
    return image or None


def _plan_tables(hooks: Dict[int, TriggerPlan], n_static: int):
    """``(trig_off, bodies, steps, dep_tab, live_tab, max_body, sink)``
    for C, or None when a body cannot be encoded or the plans do not
    share one sink."""
    sinks = {id(plan.sink) for plan in hooks.values()}
    if len(sinks) != 1:
        return None
    trig_off = [0] * (n_static + 1)
    bodies: List[int] = []
    steps: List[int] = []
    dep_tab: List[int] = []
    live_tab: List[int] = []
    max_body = 0
    # Hooks at pcs outside the program never fire.
    by_pc = {pc: plan for pc, plan in hooks.items() if 0 <= pc < n_static}
    for pc in range(n_static):
        plan = by_pc.get(pc)
        if plan is not None:
            for body in plan.bodies:
                if body.steps is None:
                    return None
                n_steps = len(steps) // _STEP_W
                bodies += (body.position, body.static_id, n_steps,
                           n_steps + len(body.steps))
                max_body = max(max_body, len(body.steps))
                for st in body.steps:
                    steps += (
                        st.kind, st.fn, st.a_mode, st.a, st.b_mode, st.b,
                        st.pinst_kind, 1 if st.is_target else 0,
                        len(dep_tab), len(dep_tab) + len(st.deps),
                        len(live_tab), len(live_tab) + len(st.live_regs),
                    )
                    dep_tab += st.deps
                    live_tab += st.live_regs
        trig_off[pc + 1] = len(bodies) // _BODY_W
    try:
        return (
            array("q", trig_off), array("q", bodies), array("q", steps),
            array("q", dep_tab), array("q", live_tab), max_body,
            next(iter(hooks.values())).sink,
        )
    except OverflowError:
        return None


def run(
    lib: ctypes.CDLL,
    program: Program,
    decoded: tuple,
    max_instructions: int,
    hooks: Optional[Dict[int, TriggerPlan]],
    require_halt: bool,
    initial_capacity: int,
) -> Optional[Trace]:
    """Interpret ``program`` on the C loop.

    Returns the trace (spawns in the plans' sink), raises the Python
    loop's :class:`~repro.errors.ExecutionError` for the same faults, or
    returns None when the C loop cannot give Python's answer.
    """
    from repro.cpu.nativebuild import int64_ptr as _i64

    image = _program_image(program, decoded)
    if image is None:
        return None
    try:
        data_keys = array("q", program.data.keys())
        data_vals = array("q", program.data.values())
        regs = array("q", bytes(8 * NUM_ARCH_REGS))
        for reg, value in program.initial_regs.items():
            regs[reg] = value
    except (OverflowError, IndexError, TypeError):
        return None
    tables = _plan_tables(hooks, len(decoded)) if hooks else None
    if hooks and tables is None:
        return None
    if tables is None:
        plan_args = (None,) * 5 + (0,)
        sink = None
    else:
        *plan_arrays, max_body, sink = tables
        plan_args = tuple(_i64(a) for a in plan_arrays) + (max_body,)

    handle = lib.repro_interp_new(
        _i64(image), len(decoded), program.entry, max_instructions,
        _i64(regs), _i64(data_keys), _i64(data_vals), len(data_keys),
        *plan_args,
    )
    # The handle holds its own copy of the data image.
    del data_keys, data_vals
    if not handle:
        raise MemoryError("native interpreter failed to allocate")
    try:
        cap = min(max_instructions, initial_capacity)
        cols = trace_buffers(cap)
        info = array("q", [0, 0])
        while True:
            pc_c, op_c, src1_c, src2_c, addr_c, taken_c, next_c = cols
            status = lib.repro_interp_run(
                handle, _i64(pc_c), _i8(op_c), _i64(src1_c), _i64(src2_c),
                _i64(addr_c), _i8(taken_c), _i64(next_c), cap, _i64(info),
            )
            if status != _ST_FULL:
                break
            new_cap = min(max_instructions, cap * 2)
            grow_trace_buffers(cols, new_cap - cap)
            cap = new_cap
        seq, pc = info
        if status == _ST_OVERFLOW:
            return None
        if status == _ST_NOMEM:
            raise MemoryError("native interpreter failed to allocate")
        if status == _ST_BAD_PC:
            raise ExecutionError(
                f"control transferred outside program: pc={pc}"
            )
        if status == _ST_NEG_LOAD:
            raise ExecutionError(f"negative load address at pc={pc}")
        if status == _ST_NEG_STORE:
            raise ExecutionError(f"negative store address at pc={pc}")
        if status == _ST_LIMIT and require_halt:
            raise ExecutionError(
                f"program {program.name!r} did not halt within "
                f"{max_instructions} instructions"
            )
        if sink is not None:
            sink.columns = _export_spawns(lib, handle)
    finally:
        lib.repro_interp_free(handle)
    return Trace(program, TraceColumns.seal(*cols, seq))


def _export_spawns(lib: ctypes.CDLL, handle) -> Dict[str, array]:
    from repro.cpu.nativebuild import int64_ptr as _i64

    counts = array("q", bytes(8 * 4))
    lib.repro_interp_spawn_counts(handle, _i64(counts))
    n_spawns, n_pinsts, n_deps, n_live = counts
    sizes = (n_spawns,) * 5 + (n_pinsts,) * 6 + (n_deps, n_live)
    q_cols = [array("q", bytes(8 * n)) for n in sizes]
    b_cols = [array("b", bytes(n_pinsts)) for _ in SPAWN_INT8]
    lib.repro_interp_spawn_export(
        handle,
        (_I64P * len(q_cols))(*map(_i64, q_cols)),
        (_I8P * len(b_cols))(*map(_i8, b_cols)),
    )
    columns = dict(zip(SPAWN_INT64, q_cols))
    columns.update(zip(SPAWN_INT8, b_cols))
    return columns
