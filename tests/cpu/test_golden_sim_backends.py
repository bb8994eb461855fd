"""Golden bit-identity: the compiled cycle kernel vs the reference.

The C cycle kernel (:mod:`repro.cpu.kerneldriver`) must be
indistinguishable from the retained :class:`repro.cpu.pipeline.Pipeline`
oracle everywhere downstream: full structural :class:`SimStats`
equality (cycle/stall breakdowns, activity counters, missed-load sets,
per-PC miss dicts) for baseline and p-thread-augmented runs over every
seed benchmark, and identical figure rows through the whole harness.
Two engines are compared: ``reference`` and ``c`` (the ``native``
backend on the compiled kernel).  ``c`` joins the matrix whenever the
compiled artifact loads (a C compiler on PATH, or a cached build);
without a toolchain ``native`` runs on the reference itself, so the
matrix is the reference alone and each test still runs it end to end.
"""

import pytest

from repro.config import EnergyConfig, MachineConfig
from repro.cpu import engine
from repro.cpu.pipeline import simulate
from repro.cpu.pthreads import (
    PInstClass,
    PInstSpec,
    PThreadProgram,
    SpawnSpec,
)
from repro.errors import PipelineDeadlockError
from repro.ddmt.augment import expand_pthreads
from repro.energy.wattch import EnergyModel
from repro.frontend import tracestore
from repro.frontend.interpreter import interpret
from repro.harness import figures, simcache
from repro.harness.experiment import clear_baseline_cache
from repro.pthsel.framework import BaselineEstimates, select_pthreads
from repro.pthsel.targets import Target
from repro.workloads import benchmark_names
from repro.workloads.registry import get_program

try:
    from repro.cpu import nativebuild

    HAVE_NATIVE = nativebuild.native_available()
except Exception:  # pragma: no cover - probe must never break the suite
    HAVE_NATIVE = False

#: Bit-identity does not depend on the instruction budget; a reduced one
#: keeps the 9-benchmark x 2-engine matrix affordable.  The seed
#: programs halt past this budget, so truncated traces are exercised.
BUDGET = 60_000

BACKENDS = ["reference"] + (["c"] if HAVE_NATIVE else [])


@pytest.fixture(autouse=True)
def _clean_state():
    tracestore.clear()
    clear_baseline_cache()
    yield
    engine.set_sim_backend(None)
    tracestore.clear()
    clear_baseline_cache()


def _use(name):
    """Make later simulations run on engine ``name``."""
    if name == "reference":
        engine.set_sim_backend("reference")
        return
    engine.set_sim_backend("native")
    assert nativebuild.load() is not None


def _backend_stats(trace, machine, pthreads=None):
    """Baseline + optionally augmented SimStats under each backend."""
    out = {}
    for backend in BACKENDS:
        _use(backend)
        out[backend] = simulate(trace, machine, pthreads)
    return out


@pytest.mark.parametrize("bench_name", benchmark_names())
def test_backends_bit_identical(bench_name):
    """Full SimStats equality, baseline and augmented, per benchmark."""
    program = get_program(bench_name, "train")
    trace = interpret(program, max_instructions=BUDGET, require_halt=False)
    machine = MachineConfig()
    energy = EnergyConfig()

    by_backend = _backend_stats(trace, machine)
    reference = by_backend["reference"]
    for backend in BACKENDS[1:]:
        assert by_backend[backend] == reference, (
            f"{bench_name}/{backend}: baseline SimStats diverge from the "
            "reference engine"
        )

    # P-thread selection must agree too (it consumes only the trace, but
    # a backend bug upstream would surface here), and the augmented run
    # exercises spawns, p-instruction scheduling, and coverage counters.
    measured = EnergyModel(energy, machine).evaluate(reference.activity)
    estimates = BaselineEstimates(
        ipc=reference.ipc,
        l0=float(reference.cycles),
        e0=measured.total_joules,
    )
    selection = select_pthreads(
        trace, estimates, target=Target.LATENCY, machine=machine,
        energy=energy,
    )
    if not selection.pthreads:
        return
    augmented = expand_pthreads(
        program,
        selection.pthreads,
        max_instructions=BUDGET,
        reference_trace=trace,
        require_halt=False,
    )
    opt_by_backend = {}
    for backend in BACKENDS:
        _use(backend)
        opt_by_backend[backend] = simulate(
            augmented.trace, machine, augmented.pthreads
        )
    opt_reference = opt_by_backend["reference"]
    assert opt_reference.spawns_started >= 0
    for backend in BACKENDS[1:]:
        assert opt_by_backend[backend] == opt_reference, (
            f"{bench_name}/{backend}: augmented SimStats diverge from the "
            "reference engine"
        )


def _strip_timings(row):
    # Phase walls differ run to run and src_baseline legitimately
    # differs between engines (the batch prewarm is gated off under the
    # reference engine); everything numeric must match exactly.
    return {
        k: v
        for k, v in row.items()
        if not k.startswith("t_") and not k.startswith("src_")
    }


def _tiny_grid():
    return [
        _strip_timings(row)
        for row in figures.figure5_memory_latency(
            benchmarks=("gcc",),
            latencies=(100, 200),
            targets=(Target.LATENCY,),
            jobs=1,
        )
    ]


def test_figure_rows_identical_across_backends():
    with simcache.disabled():
        _use("reference")
        reference_rows = _tiny_grid()
        for backend in BACKENDS[1:]:
            tracestore.clear()
            clear_baseline_cache()
            _use(backend)
            assert _tiny_grid() == reference_rows, (
                f"{backend}: figure rows diverge from the reference engine"
            )


# ---------------------------------------------------------------------------
# Edge paths: the corners a fast engine is most likely to get wrong.


from repro.isa.builder import ProgramBuilder  # noqa: E402
from repro.isa.registers import Reg  # noqa: E402


def _alu_program(n=20, chain=2):
    b = ProgramBuilder("alu")
    b.set_reg(Reg.r2, n)
    b.li(Reg.r1, 0)
    b.label("top")
    for _ in range(chain):
        b.add(Reg.r3, Reg.r3, Reg.r4)
    b.addi(Reg.r1, Reg.r1, 1)
    b.blt(Reg.r1, Reg.r2, "top")
    b.halt()
    return b.build()


def test_zero_instruction_trace_all_backends():
    trace = interpret(_alu_program(), max_instructions=0, require_halt=False)
    assert len(trace) == 0
    by_backend = _backend_stats(trace, MachineConfig())
    reference = by_backend["reference"]
    assert reference.committed == 0
    for backend in BACKENDS[1:]:
        assert by_backend[backend] == reference


def test_spawn_under_structural_pressure_all_backends():
    """Spawns arriving while the ROB/contexts/registers are saturated.

    A tiny machine forces every structural limit to bite: contexts run
    out (spawns dropped), the ROB fills mid p-thread, and the shared
    physical register file throttles renames.  All of it must account
    identically under every backend, down to spawn/drop counters.
    """
    trace = interpret(_alu_program(n=60, chain=4), require_halt=False)
    # The renamer reserves 32 physical registers for main architectural
    # state, so 48 leaves a pool of 16 -- larger than the 8-entry ROB so
    # the ROB limit bites first, small enough that p-thread renames
    # contend with the main thread for it.
    machine = MachineConfig(
        rob_entries=8,
        physical_registers=48,
        thread_contexts=3,
    )
    body = tuple(
        PInstSpec(klass=PInstClass.LOAD, addr=0x90000 + i * 4096)
        for i in range(6)
    )
    spawns = [
        SpawnSpec(trigger_seq=2 + 5 * i, static_id=i % 4, insts=body)
        for i in range(8)
    ]
    pthreads = PThreadProgram.from_spawns(spawns)
    by_backend = {}
    for backend in BACKENDS:
        _use(backend)
        by_backend[backend] = simulate(trace, machine, pthreads)
    reference = by_backend["reference"]
    assert reference.spawns_started > 0
    assert reference.spawns_dropped_no_context > 0
    for backend in BACKENDS[1:]:
        assert by_backend[backend] == reference


def test_deadlock_detected_identically():
    """A self-dependent instruction must deadlock every backend alike.

    No well-formed trace can deadlock (in-order dispatch means producers
    always precede dependents), so the trace is doctored white-box: one
    instruction made its own producer.  It dispatches, waits on itself
    forever, and once the frontend drains both engines must conclude "no
    future event" and raise through the shared ``_deadlock_error``.
    """
    program = _alu_program(n=1, chain=1)

    def _doctored():
        # Rebuilt per backend: the pipeline view and the kernel inputs
        # are memoized on the trace, so the mutation must precede the
        # first simulate.
        trace = interpret(program, require_halt=False)
        trace.columns.src1[1] = 1
        return trace

    messages = {}
    for backend in BACKENDS:
        _use(backend)
        with pytest.raises(PipelineDeadlockError) as excinfo:
            simulate(_doctored(), MachineConfig())
        messages[backend] = str(excinfo.value)
    for backend in BACKENDS[1:]:
        assert messages[backend] == messages["reference"]
