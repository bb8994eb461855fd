"""Golden bit-identity of p-thread expansion: C replay vs Python.

``expand_pthreads`` replays the program once with compiled trigger
plans.  On the C interpreter the plans run in C and the spawns land in
spawn columns directly; on the Python reference interpreter each
plan calls ``_expand_body``.  For every p-thread set ``run_experiment`` selects
(targets O/L/E on train, branch p-threads on L, and the ref->train
profile path) both must give the same spawns field by field, the same
trace columns and the same ``spawn_counts``.  ``run_experiment`` always
passes the run trace as the reference, so each ref->train set is
replayed once more without it, which covers the ``reference_trace=None``
replay.  Where a direct oracle derives something its own way -- branch
hint targets, the replay without a reference trace -- the Python replay
must also equal it: the hooked replay calling ``_expand_body`` with hint
targets taken from a plain interpretation, merged in (trigger, position)
order.  The C legs skip, with the loader's reason, when the library does
not load.
"""

import bisect
import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import nativebuild
from repro.cpu.pthreads import COLUMNS, PThreadProgram
from repro.ddmt import augment
from repro.frontend import tracestore
from repro.frontend.interpreter import interpret_reference
from repro.harness import experiment
from repro.isa.instruction import Program, StaticInst
from repro.isa.opcodes import IMMEDIATE_OPS, Op
from repro.pthsel.pthread import StaticPThread
from repro.pthsel.targets import Target
from repro.workloads import benchmark_names

TRACE_COLUMNS = ("pc", "op_code", "src1", "src2", "addr", "taken", "next_pc")


class _Captured(Exception):
    """Stops run_experiment once its expand_pthreads call is recorded."""


def _selected_sets():
    """Every distinct expand_pthreads call run_experiment makes, plus
    each ref->train call without its reference trace."""
    calls = {}
    last = []

    def record(program, pthreads, max_instructions, reference_trace,
               require_halt):
        key = (
            program.fingerprint(), max_instructions,
            reference_trace is not None, require_halt,
            tuple(
                (p.pthread_id, p.trigger_pc, p.hint_offset, p.target_pcs,
                 p.body)
                for p in pthreads
            ),
        )
        calls.setdefault(key, (
            program, list(pthreads), max_instructions, reference_trace,
            require_halt,
        ))

    def capture(program, pthreads, max_instructions=2_000_000,
                reference_trace=None, require_halt=True):
        last[:] = [program, pthreads, max_instructions, reference_trace,
                   require_halt]
        record(*last)
        raise _Captured

    cells = [
        dict(target=target) for target in
        (Target.ORIGINAL, Target.LATENCY, Target.ENERGY)
    ] + [
        dict(target=Target.LATENCY, include_branch_pthreads=True),
        dict(target=Target.LATENCY, profile_input="ref", run_input="train"),
    ]
    real = experiment.expand_pthreads
    experiment.expand_pthreads = capture
    try:
        for benchmark in benchmark_names():
            for cell in cells:
                with pytest.raises(_Captured):
                    experiment.run_experiment(benchmark, **cell)
                if cell.get("profile_input") == "ref":
                    program, pthreads, budget, _, halt = last
                    record(program, pthreads, budget, None, halt)
    finally:
        experiment.expand_pthreads = real
        tracestore.clear()
    return list(calls.values())


@pytest.fixture(scope="module")
def selected_sets():
    return _selected_sets()


def _oracle(program, pthreads, max_instructions, reference_trace,
            require_halt):
    """The direct expansion: one plain interpretation for hint targets,
    one hooked replay calling ``_expand_body``, merge by (trigger,
    position)."""
    plain = interpret_reference(program, max_instructions,
                             require_halt=require_halt)
    collected = []
    by_trigger = {}
    for pos, pthread in enumerate(pthreads):
        by_trigger.setdefault(pthread.trigger_pc, []).append(pos)

    def hint_target(pthread, seq):
        occurrences = plain.occurrences(pthread.target_pcs[0])
        index = bisect.bisect_right(occurrences, seq) + pthread.hint_offset - 1
        return occurrences[index] if index < len(occurrences) else -1

    def make_hook(positions):
        def hook(seq, state):
            for pos in positions:
                pthread = pthreads[pos]
                hint = (hint_target(pthread, seq)
                        if pthread.is_branch_pthread else -1)
                collected.append((seq, pos, augment._expand_body(
                    pthread, seq, state, hint_seq=hint)))
        return hook

    trace = interpret_reference(
        program, max_instructions,
        pc_hooks={pc: make_hook(p) for pc, p in by_trigger.items()},
        require_halt=require_halt,
    )
    collected.sort(key=lambda item: item[:2])
    counts = {p.pthread_id: 0 for p in pthreads}
    for _, pos, _ in collected:
        counts[pthreads[pos].pthread_id] += 1
    if reference_trace is not None:
        trace = reference_trace
    return trace, [spawn for _, _, spawn in collected], counts


def _spawn_list(program):
    return [
        spawn
        for trigger in sorted(program.spawns_by_trigger)
        for spawn in program.spawns_by_trigger[trigger]
    ]


def _trace_columns(trace):
    return {name: getattr(trace.columns, name) for name in TRACE_COLUMNS}


def _spawn_columns(program):
    return {name: getattr(program, name) for name in COLUMNS}


def _assert_matches(augmented, oracle):
    trace, spawns, counts = oracle
    assert _trace_columns(augmented.trace) == _trace_columns(trace)
    assert augmented.spawn_counts == counts
    assert _spawn_list(augmented.pthreads) == spawns


@contextlib.contextmanager
def python_replay():
    """Route expand_pthreads' replay to the reference interpreter."""
    real = augment.interpret
    augment.interpret = interpret_reference
    try:
        yield
    finally:
        augment.interpret = real


@pytest.fixture(scope="module")
def lib():
    handle = nativebuild.load("interp")
    if handle is None:
        pytest.skip(
            f"native interpreter unavailable: {nativebuild.native_error('interp')}"
        )
    return handle


def _needs_oracle(call):
    """Sets whose hints or replay the oracle derives differently: branch
    p-threads (hint targets) and the ref->train replays without a
    reference trace.  Elsewhere it makes the Python replay's own ``_expand_body``
    calls, in the same order."""
    _, pthreads, _, reference_trace, _ = call
    return reference_trace is None or any(
        p.is_branch_pthread for p in pthreads
    )


@pytest.fixture(scope="module")
def expansions(selected_sets):
    """Per selected set: the call, its Python-replay expansion and, where
    :func:`_needs_oracle`, the oracle's."""
    with python_replay():
        return [
            (call, augment.expand_pthreads(*call),
             _oracle(*call) if _needs_oracle(call) else None)
            for call in selected_sets
        ]


def test_selected_sets_cover_every_path(selected_sets):
    assert any(p.is_branch_pthread for c in selected_sets for p in c[1])
    assert any(c[3] is None for c in selected_sets)  # ref->train, no ref
    assert any(c[3] is not None and c[1] for c in selected_sets)


def test_python_replay_matches_oracle(expansions):
    checked = [(python, oracle) for _, python, oracle in expansions
               if oracle is not None]
    assert checked
    for python, oracle in checked:
        _assert_matches(python, oracle)


def test_c_replay_matches_python_replay(lib, expansions):
    for call, python, _ in expansions:
        native = augment.expand_pthreads(*call)
        assert _trace_columns(native.trace) == _trace_columns(python.trace)
        assert native.spawn_counts == python.spawn_counts
        assert _spawn_columns(native.pthreads) == _spawn_columns(
            python.pthreads
        )


def test_columns_view_round_trip_is_lossless(expansions):
    # The oracle's sets carry every field, branch hints included.
    for _, python, oracle in expansions:
        if oracle is None:
            continue
        program = python.pthreads
        columns = _spawn_columns(program)
        assert _spawn_columns(
            PThreadProgram.from_spawns(_spawn_list(program))
        ) == columns


# --------------------------------------------------------------------- #
# Property: random bodies over int64 extremes, C vs Python.
# --------------------------------------------------------------------- #

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1
ALU_OPS = [
    Op.ADD, Op.ADDI, Op.SUB, Op.AND, Op.ANDI, Op.OR, Op.XOR, Op.SHL,
    Op.SHLI, Op.SHR, Op.SHRI, Op.SLT, Op.SLTI, Op.MUL, Op.LI, Op.MOV,
]
int64s = st.one_of(
    st.sampled_from([0, 1, -1, 8, 63, 64, -64, INT64_MIN, INT64_MAX]),
    st.integers(INT64_MIN, INT64_MAX),
)
regs = st.integers(0, 6)
body_rows = st.lists(
    st.tuples(
        st.sampled_from(ALU_OPS + [Op.LD, Op.BLT, Op.BEQ]),
        regs, regs, regs, int64s,
    ),
    min_size=1, max_size=10,
)


def _inst(pc, op, rd, rs1, rs2, imm):
    if op is Op.LD:
        return StaticInst(pc, op, rd=rd, rs1=rs1, imm=imm)
    if op in (Op.BLT, Op.BEQ):
        return StaticInst(pc, op, rs1=rs1, rs2=rs2, target=0)
    if op is Op.LI:
        return StaticInst(pc, op, rd=rd, imm=imm)
    if op is Op.MOV:
        return StaticInst(pc, op, rd=rd, rs1=rs1)
    if op in IMMEDIATE_OPS:
        return StaticInst(pc, op, rd=rd, rs1=rs1, imm=imm)
    return StaticInst(pc, op, rd=rd, rs1=rs1, rs2=rs2)


@settings(max_examples=100, deadline=None)
@given(
    main=st.lists(
        st.tuples(st.sampled_from(ALU_OPS), regs, regs, regs, int64s),
        min_size=1, max_size=8,
    ),
    bodies=st.lists(body_rows, min_size=1, max_size=3),
    init=st.lists(int64s, min_size=6, max_size=6),
    words=st.lists(int64s, min_size=4, max_size=4),
)
def test_random_bodies_agree(main, bodies, init, words):
    """Random main-thread ALU code and up to three random bodies (ALU,
    loads of a small data image, branches) triggered at different pcs,
    so spawns see changing registers and last writers; two bodies share
    a trigger when the program is short."""
    if nativebuild.load("interp") is None:
        pytest.skip(nativebuild.native_error("interp"))
    code = [_inst(pc, *row) for pc, row in enumerate(main)]
    code.append(StaticInst(len(code), Op.HALT))
    program = Program(
        "random", code,
        data={8 * i: w for i, w in enumerate(words)},
        initial_regs={r + 1: v for r, v in enumerate(init)},
    )
    pthreads = [
        StaticPThread(
            pthread_id=10 + k,
            trigger_pc=(k * 3) % len(code),
            body=tuple(_inst(100 + i, *row) for i, row in enumerate(body)),
            target_pcs=(100,),
        )
        for k, body in enumerate(bodies)
    ]
    native = _outcome(program, pthreads)
    with python_replay():
        python = _outcome(program, pthreads)
    assert native == python


def _outcome(program, pthreads):
    """Everything an expansion produced, or its exception.  (A body
    load address past int64 fits no spawn column on either path.)"""
    try:
        augmented = augment.expand_pthreads(program, pthreads)
    except OverflowError as exc:
        return str(exc)
    return (
        _spawn_columns(augmented.pthreads), augmented.spawn_counts,
        _trace_columns(augmented.trace),
    )

