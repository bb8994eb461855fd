"""Tests for the periodic-sampling engine."""

import pytest

from repro.config import SimulationConfig
from repro.cpu.pipeline import simulate
from repro.frontend import interpret
from repro.harness.sampling import sampled_simulate
from repro.workloads import get_program


@pytest.fixture(scope="module")
def gap_trace():
    return interpret(get_program("gap"), max_instructions=2_000_000)


def test_full_fraction_equals_direct_simulation(gap_trace):
    direct = simulate(gap_trace)
    est = sampled_simulate(
        gap_trace, sim=SimulationConfig(sample_fraction=1.0)
    )
    assert est.estimated_cycles == direct.cycles
    assert est.n_samples == 1
    assert est.coverage == 1.0


def test_sampled_estimate_close_to_full(gap_trace):
    full = simulate(gap_trace)
    est = sampled_simulate(
        gap_trace,
        sim=SimulationConfig(
            sample_fraction=0.25, sample_instructions=8_000
        ),
    )
    assert est.n_samples >= 3
    assert est.coverage < 0.5
    # Periodic sampling of a steady loop should land within 25%.
    assert est.estimated_cycles == pytest.approx(full.cycles, rel=0.25)


def test_sample_stats_are_per_window(gap_trace):
    est = sampled_simulate(
        gap_trace,
        sim=SimulationConfig(sample_fraction=0.2, sample_instructions=5_000),
    )
    assert len(est.sample_stats) == est.n_samples
    assert est.measured_instructions == sum(
        s.committed for s in est.sample_stats
    )


def test_empty_trace_rejected(gap_trace):
    from repro.errors import ConfigError
    from repro.frontend.trace import Trace

    with pytest.raises(ConfigError):
        sampled_simulate(Trace(gap_trace.program, []))


@pytest.fixture(scope="module")
def gap_augmented(gap_trace):
    from repro.ddmt import expand_pthreads
    from repro.energy import EnergyModel
    from repro.pthsel import Target, select_pthreads
    from repro.pthsel.framework import BaselineEstimates

    stats = simulate(gap_trace)
    e0 = EnergyModel().evaluate(stats.activity).total_joules
    result = select_pthreads(
        gap_trace,
        BaselineEstimates(stats.ipc, float(stats.cycles), e0),
        target=Target.LATENCY,
    )
    return expand_pthreads(
        gap_trace.program, result.pthreads, reference_trace=gap_trace
    )


def test_sliced_pthreads_reference_only_the_window(gap_augmented):
    from repro.harness.sampling import _slice_pthreads

    start, end = 75_000, 83_000
    sliced = _slice_pthreads(gap_augmented.pthreads, start, end)
    full = gap_augmented.pthreads.spawns_by_trigger
    assert sliced.total_spawns == sum(
        len(group) for trigger, group in full.items()
        if start <= trigger < end
    )
    liveins = [
        seq
        for group in sliced.spawns_by_trigger.values()
        for spawn in group
        for inst in spawn.insts
        for seq in inst.livein_seqs
    ]
    assert liveins
    assert all(-1 <= seq < end - start for seq in liveins)
    for group in sliced.spawns_by_trigger.values():
        for spawn in group:
            assert 0 <= spawn.trigger_seq < end - start
            for inst in spawn.insts:
                assert -1 <= inst.hint_branch_seq < end - start


def test_sampled_simulate_runs_with_augmented_pthreads(gap_augmented):
    est = sampled_simulate(
        gap_augmented.trace,
        pthreads=gap_augmented.pthreads,
        sim=SimulationConfig(sample_fraction=0.25, sample_instructions=8_000),
    )
    assert est.n_samples >= 3
    assert sum(s.spawns_started for s in est.sample_stats) > 0
    assert est.measured_instructions == sum(
        s.committed for s in est.sample_stats
    )
