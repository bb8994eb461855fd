"""Functional expansion of static p-threads into dynamic spawns.

:func:`expand_pthreads` compiles every static p-thread once into a step
table (:func:`_compile`), groups the tables by trigger pc into
:class:`~repro.frontend.nativeinterp.TriggerPlan` hooks, and replays the
program once with them.  On the C interpreter the plans are evaluated in
C and every spawn lands directly in the spawn columns a
:class:`~repro.cpu.pthreads.PThreadProgram` stores.  On the Python
interpreter each plan calls :func:`_expand_body`, the golden oracle, and
the spawn objects reach the same columns through ``from_spawns``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.cpu.pthreads import (
    KIND_BY_PCLASS,
    PInstClass,
    PInstSpec,
    PThreadProgram,
    SpawnSpec,
)
from repro.frontend.interpreter import InterpreterState, interpret
from repro.frontend.nativeinterp import (
    FN_BY_OP,
    M_CONST,
    M_REG,
    M_STEP,
    STEP_ALU,
    STEP_BRANCH,
    STEP_LOAD,
    BodyPlan,
    BodyStep,
    SpawnSink,
    TriggerPlan,
)
from repro.frontend.trace import NO_PRODUCER, Trace
from repro.isa.instruction import Program, StaticInst
from repro.isa.opcodes import IMMEDIATE_OPS, Op, OpClass
from repro.pthsel.pthread import StaticPThread


_TRACE_ADOPTIONS = obs.counters.counter("ddmt.augment.trace_adoptions")


@dataclass
class AugmentedProgram:
    """A program's trace together with its expanded p-thread spawns."""

    trace: Trace
    pthreads: PThreadProgram
    #: Per static p-thread: dynamic spawns expanded.
    spawn_counts: Dict[int, int]


def _pinst_class(inst: StaticInst) -> PInstClass:
    cls = inst.op.op_class
    if cls is OpClass.LOAD:
        return PInstClass.LOAD
    if cls is OpClass.MUL:
        return PInstClass.MUL
    return PInstClass.ALU


def _expand_body(
    pthread: StaticPThread,
    trigger_seq: int,
    state: InterpreterState,
    hint_seq: int = -1,
) -> SpawnSpec:
    """Execute a p-thread body against spawn-time architectural state.

    Register values are read from the checkpoint (the state just after
    the trigger executed); loads read the memory image as of the spawn
    point.  Returns the spawn's timing description: per p-instruction
    class, resolved address, intra-body dependences and main-thread
    live-in producers.

    For branch p-threads, ``hint_seq`` names the future dynamic branch
    instance the computed outcome is communicated to.
    """
    local_values: Dict[int, int] = {}
    local_writer: Dict[int, int] = {}  # register -> body index
    insts: List[PInstSpec] = []
    target_set = set(pthread.target_pcs)

    for idx, inst in enumerate(pthread.body):
        body_deps: List[int] = []
        livein_seqs: List[int] = []

        def read(reg: int) -> int:
            writer = local_writer.get(reg)
            if writer is not None:
                body_deps.append(writer)
                return local_values[reg]
            producer = state.last_writer[reg]
            if producer != NO_PRODUCER:
                livein_seqs.append(producer)
            return state.regs[reg]

        op = inst.op
        if op.op_class is OpClass.BRANCH:
            # Branch pre-execution: evaluate the outcome and attach the
            # hint; executes as a single-cycle compare.
            a, b2 = read(inst.rs1), read(inst.rs2)
            taken = inst.evaluate_branch(a, b2)
            insts.append(
                PInstSpec(
                    klass=PInstClass.ALU,
                    body_deps=tuple(dict.fromkeys(body_deps)),
                    livein_seqs=tuple(dict.fromkeys(livein_seqs)),
                    hint_branch_seq=hint_seq,
                    hint_taken=taken,
                )
            )
            continue
        if op.op_class is OpClass.LOAD:
            base = read(inst.rs1)
            addr = (base + (inst.imm or 0)) & ~7
            value = state.read_word(addr) if addr >= 0 else 0
            insts.append(
                PInstSpec(
                    klass=PInstClass.LOAD,
                    addr=max(0, addr),
                    body_deps=tuple(dict.fromkeys(body_deps)),
                    livein_seqs=tuple(dict.fromkeys(livein_seqs)),
                    is_target=inst.pc in target_set,
                )
            )
        else:  # ALU / MUL (p-threads contain no stores or branches)
            if op is Op.LI:
                a, b = 0, inst.imm
            elif op is Op.MOV:
                a, b = read(inst.rs1), 0
            elif op in IMMEDIATE_OPS:
                a, b = read(inst.rs1), inst.imm
            else:
                a, b = read(inst.rs1), read(inst.rs2)
            value = inst.evaluate_alu(a, b)
            insts.append(
                PInstSpec(
                    klass=_pinst_class(inst),
                    body_deps=tuple(dict.fromkeys(body_deps)),
                    livein_seqs=tuple(dict.fromkeys(livein_seqs)),
                )
            )
        if inst.rd is not None:
            local_values[inst.rd] = value
            local_writer[inst.rd] = idx

    return SpawnSpec(
        trigger_seq=trigger_seq,
        static_id=pthread.pthread_id,
        insts=tuple(insts),
    )


def _compile(pthread: StaticPThread) -> Optional[Tuple[BodyStep, ...]]:
    """The body of ``pthread`` as C step rows: :func:`_expand_body`'s
    static half (operand sources, body deps, live-in registers).

    Returns None for a body only :func:`_expand_body` can run (an op it
    does not evaluate, a missing register).
    """
    target_set = set(pthread.target_pcs)
    local_writer: Dict[int, int] = {}  # register -> body index
    steps: List[BodyStep] = []
    for idx, inst in enumerate(pthread.body):
        deps: List[int] = []
        live_regs: List[int] = []

        def read(reg: Optional[int]) -> Tuple[int, int]:
            if reg is None:
                raise LookupError(reg)
            writer = local_writer.get(reg)
            if writer is not None:
                deps.append(writer)
                return M_STEP, writer
            live_regs.append(reg)
            return M_REG, reg

        op = inst.op
        cls = op.op_class
        kind, fn, is_target = STEP_ALU, FN_BY_OP.get(op, 0), False
        try:
            if cls is OpClass.BRANCH:
                kind = STEP_BRANCH
                a, b = read(inst.rs1), read(inst.rs2)
            elif cls is OpClass.LOAD:
                kind = STEP_LOAD
                a, b = read(inst.rs1), (M_CONST, inst.imm or 0)
                is_target = inst.pc in target_set
            elif cls is not OpClass.ALU and cls is not OpClass.MUL:
                return None
            elif op is Op.LI:
                a, b = (M_CONST, 0), (M_CONST, inst.imm)
            elif op is Op.MOV:
                a, b = read(inst.rs1), (M_CONST, 0)
            elif op in IMMEDIATE_OPS:
                a, b = read(inst.rs1), (M_CONST, inst.imm)
            else:
                a, b = read(inst.rs1), read(inst.rs2)
        except LookupError:
            return None
        klass = PInstClass.ALU if kind == STEP_BRANCH else _pinst_class(inst)
        steps.append(
            BodyStep(
                kind, fn, *a, *b, KIND_BY_PCLASS[klass], is_target,
                tuple(dict.fromkeys(deps)), tuple(dict.fromkeys(live_regs)),
            )
        )
        if kind != STEP_BRANCH and inst.rd is not None:
            local_writer[inst.rd] = idx
    return tuple(steps)


def _resolve_hints(
    program: PThreadProgram,
    positions,
    pthreads: List[StaticPThread],
    trace: Trace,
) -> None:
    """Point each branch p-thread spawn's hints at their branch instance.

    Spawn ``i`` of branch p-thread ``p`` (at ``positions[i]``) hints the
    ``p.hint_offset``-th dynamic instance of ``p``'s target branch after
    its trigger, or nothing (-1) past the end of the trace.  Writes
    ``program.pi_hint_seq`` in place, before any view of it exists.
    """
    targets = {}
    for pos, pthread in enumerate(pthreads):
        if pthread.is_branch_pthread:
            targets[pos] = (
                trace.occurrences(pthread.target_pcs[0]),
                pthread.hint_offset - 1,
                [k for k, inst in enumerate(pthread.body)
                 if inst.op.op_class is OpClass.BRANCH],
            )
    if not targets:
        return
    hint_seq = program.pi_hint_seq
    for trigger, inst_lo, pos in zip(
        program.sp_trigger, program.sp_inst_lo, positions
    ):
        target = targets.get(pos)
        if target is None:
            continue
        occurrences, skip, branch_steps = target
        index = bisect.bisect_right(occurrences, trigger) + skip
        seq = occurrences[index] if index < len(occurrences) else -1
        for k in branch_steps:
            hint_seq[inst_lo + k] = seq


def expand_pthreads(
    program: Program,
    pthreads: List[StaticPThread],
    max_instructions: int = 2_000_000,
    reference_trace: Optional[Trace] = None,
    require_halt: bool = True,
) -> AugmentedProgram:
    """Replay ``program`` and expand every spawn of every p-thread.

    Spawns are in trace order, ties (several p-threads on one trigger)
    broken by position in ``pthreads``: spawn order is observable, since
    the simulator allocates contexts in list order.  Branch p-threads'
    hint targets come from the replay's own trace.

    When ``reference_trace`` is supplied, it is *adopted* as the
    augmented program's trace: spawn hooks cannot perturb execution, so
    the hooked interpretation reproduces the reference trace exactly,
    and sharing the object lets every augmented program reuse the
    reference trace's derived analyses and simulation precomputes.
    """
    sink = SpawnSink()
    plans: Dict[int, List[BodyPlan]] = {}
    for pos, pthread in enumerate(pthreads):
        plans.setdefault(pthread.trigger_pc, []).append(
            BodyPlan(pos, pthread.pthread_id, _compile(pthread),
                     partial(_expand_body, pthread))
        )
    hooks = {pc: TriggerPlan(tuple(bodies), sink)
             for pc, bodies in plans.items()}
    if hooks or reference_trace is None:
        trace = interpret(
            program, max_instructions, pc_hooks=hooks,
            require_halt=require_halt,
        )
    if reference_trace is not None:
        trace = reference_trace
        _TRACE_ADOPTIONS.add()

    if sink.columns is not None:
        positions = sink.columns["sp_pos"]
        pthread_program = PThreadProgram(columns=sink.columns)
    else:
        positions = sink.positions
        pthread_program = PThreadProgram.from_spawns(sink.spawns)
    _resolve_hints(pthread_program, positions, pthreads, trace)
    counts = [0] * len(pthreads)
    for pos in positions:
        counts[pos] += 1
    return AugmentedProgram(
        trace=trace,
        pthreads=pthread_program,
        spawn_counts={
            pthread.pthread_id: count
            for pthread, count in zip(pthreads, counts)
        },
    )
