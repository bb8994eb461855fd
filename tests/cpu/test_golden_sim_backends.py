"""Golden bit-identity: the compiled cycle kernel vs the reference.

The C cycle kernel (:mod:`repro.cpu.kerneldriver`) must be
indistinguishable from the retained :class:`repro.cpu.pipeline.Pipeline`
oracle everywhere downstream: full structural :class:`SimStats`
equality (cycle/stall breakdowns, activity counters, missed-load sets,
per-PC miss dicts) for baseline and p-thread-augmented runs over every
seed benchmark, and identical figure rows through the whole harness.
Two engines are compared: ``reference`` (forced by patching
:func:`repro.cpu.pipeline.use_reference`) and ``c`` (the compiled
kernel :func:`~repro.cpu.pipeline.simulate` picks by itself).  ``c``
joins the matrix whenever the compiled artifact loads (a C compiler on
PATH, or a cached build); without a toolchain every run takes the
reference, so the matrix is the reference alone and each test still
runs it end to end.
"""

from dataclasses import replace

import pytest

from repro.config import CacheConfig, EnergyConfig, MachineConfig
from repro.cpu import pipeline
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
from repro.pthsel.branches import select_branch_pthreads
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


#: The engine :func:`_use` last selected.
_engine = {"name": None}


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    real = pipeline.use_reference
    monkeypatch.setattr(
        pipeline,
        "use_reference",
        lambda: _engine["name"] == "reference" or real(),
    )
    tracestore.clear()
    yield
    _engine["name"] = None
    tracestore.clear()


def _use(name):
    """Make later simulations run on engine ``name``."""
    _engine["name"] = name
    if name == "c":
        assert nativebuild.load() is not None


def _backend_stats(trace, machine, pthreads=None, warm=True):
    """Baseline + optionally augmented SimStats under each backend."""
    out = {}
    for backend in BACKENDS:
        _use(backend)
        out[backend] = simulate(trace, machine, pthreads, warm=warm)
    return out


def _budget_trace(bench_name, program=None):
    program = program or get_program(bench_name, "train")
    return interpret(program, max_instructions=BUDGET, require_halt=False)


def _estimates(stats, machine, energy):
    measured = EnergyModel(energy, machine).evaluate(stats.activity)
    return BaselineEstimates(
        ipc=stats.ipc, l0=float(stats.cycles), e0=measured.total_joules,
    )


@pytest.mark.parametrize("bench_name", benchmark_names())
def test_backends_bit_identical(bench_name):
    """Full SimStats equality, baseline and augmented, per benchmark."""
    program = get_program(bench_name, "train")
    trace = _budget_trace(bench_name, program)
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
    selection = select_pthreads(
        trace, _estimates(reference, machine, energy),
        target=Target.LATENCY, machine=machine, energy=energy,
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


#: Machines away from the default predictor, BTB, cache geometry and
#: memory latency, plus a cold-cache run: each exercises a component
#: the kernel models on its own (predictor tables, BTB capacity,
#: warm-up, fetch line ids, L2 and memory timing).
_DEFAULT = MachineConfig()
VARIANTS = {
    "tiny-btb-bpred": (MachineConfig(btb_entries=1, bpred_entries=64), True),
    "bpred-256": (MachineConfig(bpred_entries=256), True),
    "cold": (_DEFAULT, False),
    "l2-64k": (_DEFAULT.scaled_l2(64 * 1024, 10), True),
    "icache-32b-lines": (
        replace(_DEFAULT, icache=replace(_DEFAULT.icache, line_bytes=32)),
        True,
    ),
    "mem-500": (MachineConfig(memory_latency=500), True),
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("bench_name", ["parser", "vpr.route"])
def test_machine_variants_bit_identical(bench_name, variant):
    machine, warm = VARIANTS[variant]
    by_backend = _backend_stats(_budget_trace(bench_name), machine, warm=warm)
    reference = by_backend["reference"]
    for backend in BACKENDS[1:]:
        assert by_backend[backend] == reference, (
            f"{bench_name}/{variant}/{backend}: SimStats diverge from the "
            "reference engine"
        )


@pytest.mark.parametrize("bench_name", ["bzip2", "parser"])
def test_branch_hint_runs_bit_identical(bench_name):
    """Branch p-threads override the predictor at fetch on both engines."""
    program = get_program(bench_name, "train")
    trace = _budget_trace(bench_name, program)
    machine = MachineConfig()
    energy = EnergyConfig()
    _use("reference")
    estimates = _estimates(simulate(trace, machine), machine, energy)
    loads = select_pthreads(
        trace, estimates, target=Target.LATENCY, machine=machine,
        energy=energy,
    )
    branches = select_branch_pthreads(
        trace, estimates, target=Target.LATENCY, machine=machine,
        energy=energy, classification=loads.classification,
    )
    assert branches.pthreads
    augmented = expand_pthreads(
        program,
        loads.pthreads + branches.pthreads,
        max_instructions=BUDGET,
        reference_trace=trace,
        require_halt=False,
    )
    by_backend = _backend_stats(augmented.trace, machine, augmented.pthreads)
    reference = by_backend["reference"]
    assert reference.branch_hints_used > 0
    for backend in BACKENDS[1:]:
        assert by_backend[backend] == reference, (
            f"{bench_name}/{backend}: branch-hint SimStats diverge from the "
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
        # Rebuilt per backend: the reference's pipeline view is memoized
        # on the trace, so the mutation must precede the first simulate.
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


def _icache_overflow_program(body_alus=400, loads=8, iterations=40):
    """A loop whose body spans more lines than the I-cache holds, over a
    data stream larger than the L2 (see the warm-up test below)."""
    stride = 64 * loads
    b = ProgramBuilder("icache-overflow")
    b.data.alloc("stream", stride * iterations // 8)
    b.set_reg(Reg.r2, stride * iterations)
    b.li(Reg.r1, 0)
    b.label("top")
    for k in range(loads):
        b.load(Reg.r3, Reg.r1, imm=64 * k, base_symbol="stream")
    for _ in range(body_alus):
        b.add(Reg.r4, Reg.r4, Reg.r5)
    b.addi(Reg.r1, Reg.r1, stride)
    b.blt(Reg.r1, Reg.r2, "top")
    b.halt()
    return b.build()


def test_warm_up_touches_each_fetch_line_once_all_backends(monkeypatch):
    """The warm-up touches each fetch line once, in first-seen order.

    The loop body (about 26 lines of 64 B) overflows a 1 KB, 2-way
    I-cache and the data stream (20 KB) overflows an 8 KB L2, so the
    code lines the warm-up touched in the first iteration leave the L2
    before the timed run starts.  A warm-up that touched the I-cache on
    every instruction would keep re-missing them into the L2 and start
    the timed run with a different L2.
    """
    machine = replace(
        _DEFAULT.scaled_l2(8 * 1024, 10),
        icache=CacheConfig(1024, 2, 64, 1),
    )
    trace = interpret(_icache_overflow_program())
    by_backend = _backend_stats(trace, machine)
    reference = by_backend["reference"]
    for backend in BACKENDS[1:]:
        assert by_backend[backend] == reference

    # The case can tell the rule apart: the same warm-up touching the
    # I-cache for every instruction gives different stats.
    def warm_every_inst(self):
        L = self.trace.as_lists()
        for pc, addr in zip(L.pc, L.addr):
            self.hierarchy.warm_inst(pc * pipeline.INST_BYTES)
            if addr >= 0:
                self.hierarchy.warm_data(addr)

    monkeypatch.setattr(pipeline.Pipeline, "_warm_caches", warm_every_inst)
    _use("reference")
    assert simulate(trace, machine).cycles != reference.cycles
