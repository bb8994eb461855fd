"""Energy conservation on real simulated runs.

For every benchmark, the baseline and the O-augmented run (original
PTHSEL, so p-threads spawn) are simulated at a reduced budget, and the
energy model's attribution must conserve energy: the per-structure
joules sum to the run's total, and the main-thread share plus the
p-thread share is that same total.  The hand-built activity cases in
``test_wattch.py`` cannot catch a simulator counter the model forgets
to bill.
"""

import math

import pytest

from repro.config import EnergyConfig, MachineConfig
from repro.cpu.pipeline import simulate
from repro.ddmt.augment import expand_pthreads
from repro.energy.breakdown import CATEGORIES
from repro.energy.wattch import EnergyModel
from repro.frontend.interpreter import interpret
from repro.pthsel.framework import BaselineEstimates, select_pthreads
from repro.pthsel.targets import Target
from repro.workloads import benchmark_names
from repro.workloads.registry import get_program

#: The seed programs run past this budget, so traces are truncated.
BUDGET = 60_000


def _assert_conserved(energy):
    joules = energy.breakdown.joules
    assert set(joules) == set(CATEGORIES)
    assert all(value >= 0.0 for value in joules.values())
    assert math.isclose(
        math.fsum(joules.values()), energy.total_joules, rel_tol=1e-12
    )
    main = math.fsum(v for k, v in joules.items() if not k.endswith("_pth"))
    assert math.isclose(
        main + energy.breakdown.pthread_total,
        energy.total_joules,
        rel_tol=1e-12,
    )


@pytest.mark.parametrize("bench_name", benchmark_names())
def test_baseline_and_augmented_runs_conserve_energy(bench_name):
    program = get_program(bench_name, "train")
    trace = interpret(program, max_instructions=BUDGET, require_halt=False)
    machine, energy = MachineConfig(), EnergyConfig()
    model = EnergyModel(energy, machine)

    baseline = simulate(trace, machine)
    base_energy = model.evaluate(baseline.activity)
    _assert_conserved(base_energy)
    # The baseline runs no p-threads, so it bills them nothing.
    assert base_energy.breakdown.pthread_total == 0.0

    selection = select_pthreads(
        trace,
        BaselineEstimates(
            ipc=baseline.ipc,
            l0=float(baseline.cycles),
            e0=base_energy.total_joules,
        ),
        target=Target.ORIGINAL,
        machine=machine,
        energy=energy,
    )
    augmented = expand_pthreads(
        program,
        selection.pthreads,
        max_instructions=BUDGET,
        reference_trace=trace,
        require_halt=False,
    )
    optimized = simulate(augmented.trace, machine, augmented.pthreads)
    opt_energy = model.evaluate(optimized.activity)
    _assert_conserved(opt_energy)
    # Every benchmark's O selection spawns at this budget, and the
    # p-threads' share of the energy is billed to them.
    assert optimized.spawns_started > 0
    assert opt_energy.breakdown.pthread_total > 0.0
