"""Golden bit-identity: the C interpreter vs the Python reference.

:func:`~repro.frontend.interpreter.interpret`, which runs the C loop
whenever ``_interp.c`` loads, must be indistinguishable from
:func:`~repro.frontend.interpreter.interpret_reference` everywhere
downstream: identical trace columns, identical ``SimStats.summary()``,
identical selected p-thread sets, and identical figure rows.  Without a
compiled library both sides run the reference.
"""

import pytest

from repro.config import EnergyConfig, MachineConfig
from repro.cpu.pipeline import simulate
from repro.energy.wattch import EnergyModel
from repro.frontend import tracestore
from repro.frontend.interpreter import interpret, interpret_reference
from repro.harness import figures, simcache
from repro.pthsel.framework import BaselineEstimates, select_pthreads
from repro.pthsel.targets import Target
from repro.workloads import benchmark_names
from repro.workloads.registry import get_program

#: Bit-identity does not depend on the instruction budget; a reduced one
#: keeps the 9-benchmark x 2-path matrix affordable.  The seed programs
#: halt past this budget, so truncated interpretation is exercised too.
BUDGET = 60_000

COLUMN_NAMES = ("pc", "op_code", "src1", "src2", "addr", "taken", "next_pc")


@pytest.fixture(autouse=True)
def _clean_state():
    tracestore.clear()
    yield
    tracestore.clear()


def _columns_as_lists(trace):
    return {
        name: [int(v) for v in getattr(trace.columns, name)]
        for name in COLUMN_NAMES
    }


def _signature(trace):
    """SimStats summary + the selected p-thread set for one trace."""
    machine = MachineConfig()
    energy = EnergyConfig()
    stats = simulate(trace, machine)
    measured = EnergyModel(energy, machine).evaluate(stats.activity)
    estimates = BaselineEstimates(
        ipc=stats.ipc,
        l0=float(stats.cycles),
        e0=measured.total_joules,
    )
    selection = select_pthreads(
        trace, estimates, target=Target.LATENCY, machine=machine,
        energy=energy,
    )
    pthreads = sorted(
        (
            p.trigger_pc,
            tuple((inst.pc, inst.op.value, inst.imm) for inst in p.body),
            tuple(p.target_pcs),
        )
        for p in selection.pthreads
    )
    return stats.summary(), pthreads


@pytest.mark.parametrize("bench_name", benchmark_names())
def test_columnar_matches_reference(bench_name):
    program = get_program(bench_name, "train")
    reference = interpret_reference(
        program, max_instructions=BUDGET, require_halt=False
    )
    trace = interpret(program, max_instructions=BUDGET, require_halt=False)
    assert _columns_as_lists(trace) == _columns_as_lists(reference), (
        f"{bench_name}: trace columns diverge from reference"
    )
    assert _signature(trace) == _signature(reference), (
        f"{bench_name}: stats or p-thread selection diverge"
    )


def _strip_timings(row):
    return {k: v for k, v in row.items() if not k.startswith("t_")}


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


def test_figure_rows_identical_across_paths(monkeypatch):
    with simcache.disabled():
        # Reference object path: every trace in the grid built by the
        # retained interpreter (the memo and the DDMT expansion both).
        monkeypatch.setattr(tracestore, "interpret", interpret_reference)
        from repro.ddmt import augment

        monkeypatch.setattr(augment, "interpret", interpret_reference)
        reference_rows = _tiny_grid()

        monkeypatch.setattr(tracestore, "interpret", interpret)
        monkeypatch.setattr(augment, "interpret", interpret)
        tracestore.clear()
        assert _tiny_grid() == reference_rows, (
            "figure rows diverge from the object-path reference"
        )
