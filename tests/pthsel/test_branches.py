"""Tests for branch pre-execution (the Section 7 extension)."""

import pytest

from repro.cpu.pipeline import simulate
from repro.ddmt import expand_pthreads
from repro.energy import EnergyModel
from repro.frontend import interpret
from repro.pthsel.branches import (
    BranchMispredictCost,
    identify_problem_branches,
    select_branch_pthreads,
)
from repro.config import SelectionConfig
from repro.critpath.classify import classify_trace
from repro.pthsel.framework import BaselineEstimates
from repro.pthsel.targets import Target
from repro.workloads import get_program


@pytest.fixture(scope="module")
def bzip2_setup():
    program = get_program("bzip2")
    trace = interpret(program, max_instructions=2_000_000)
    stats = simulate(trace)
    e0 = EnergyModel().evaluate(stats.activity).total_joules
    return program, trace, BaselineEstimates(
        stats.ipc, float(stats.cycles), e0
    ), stats


def test_mispredict_cost_saturates():
    cost = BranchMispredictCost(penalty_cycles=30.0)
    assert cost.gain(10.0) == 10.0
    assert cost.gain(100.0) == 30.0
    assert cost.gain(-1.0) == 0.0


def test_problem_branch_identification(bzip2_setup):
    _, trace, _, _ = bzip2_setup
    cls = classify_trace(trace)
    pcs = identify_problem_branches(cls, SelectionConfig())
    data_branch = next(
        i.pc for i in trace.program if i.annotation == "data-branch"
    )
    assert data_branch in pcs


def test_branch_pthreads_selected_and_marked(bzip2_setup):
    _, trace, base, _ = bzip2_setup
    result = select_branch_pthreads(trace, base, target=Target.LATENCY)
    assert result.n_pthreads >= 1
    for pthread in result.pthreads:
        assert pthread.is_branch_pthread
        assert pthread.hint_offset >= 1
        assert pthread.body[-1].op.is_branch


def test_expanded_hints_target_future_instances(bzip2_setup):
    program, trace, base, _ = bzip2_setup
    result = select_branch_pthreads(trace, base, target=Target.LATENCY)
    augmented = expand_pthreads(program, result.pthreads,
                                reference_trace=trace)
    checked = 0
    correct = 0
    for spawns in augmented.pthreads.spawns_by_trigger.values():
        for spawn in spawns:
            final = spawn.insts[-1]
            if final.hint_branch_seq >= 0:
                assert final.hint_branch_seq > spawn.trigger_seq
                checked += 1
                taken = trace.columns.taken[final.hint_branch_seq]
                if taken == final.hint_taken:
                    correct += 1
    assert checked > 100
    # Pre-computed outcomes overwhelmingly match the actual directions.
    assert correct / checked > 0.9


def test_hints_reduce_effective_mispredictions(bzip2_setup):
    program, trace, base, baseline_stats = bzip2_setup
    result = select_branch_pthreads(trace, base, target=Target.LATENCY)
    augmented = expand_pthreads(program, result.pthreads,
                                reference_trace=trace)
    stats = simulate(augmented.trace, pthreads=augmented.pthreads)
    assert stats.branch_hints_used > 0
    assert stats.mispredictions < baseline_stats.mispredictions


def test_zero_idle_does_not_kill_branch_energy_target(bzip2_setup):
    """Branch hints save at Etotal/c, not Eidle/c: unlike load p-threads,
    the energy target can stay alive at a 0% idle factor."""
    from repro.config import EnergyConfig

    _, trace, base, _ = bzip2_setup
    result = select_branch_pthreads(
        trace, base, target=Target.ENERGY,
        energy=EnergyConfig().with_idle_factor(0.0),
    )
    # Selection may or may not find profitable candidates, but the model
    # must not be categorically empty the way load-target selection is.
    assert result.predicted is not None
