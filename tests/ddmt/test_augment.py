"""Tests for functional p-thread spawn expansion."""

import pytest

from repro.cpu.pipeline import simulate
from repro.ddmt import expand_pthreads
from repro.energy import EnergyModel
from repro.frontend import interpret
from repro.pthsel import Target, select_pthreads
from repro.pthsel.framework import BaselineEstimates
from repro.workloads import get_program


@pytest.fixture(scope="module")
def gap_selected():
    program = get_program("gap")
    trace = interpret(program, max_instructions=2_000_000)
    stats = simulate(trace)
    e0 = EnergyModel().evaluate(stats.activity).total_joules
    result = select_pthreads(
        trace,
        BaselineEstimates(stats.ipc, float(stats.cycles), e0),
        target=Target.LATENCY,
    )
    return program, trace, result


def test_one_spawn_per_trigger_occurrence(gap_selected):
    program, trace, result = gap_selected
    augmented = expand_pthreads(program, result.pthreads)
    for pthread in result.pthreads:
        expected = len(trace.occurrences(pthread.trigger_pc))
        assert augmented.spawn_counts[pthread.pthread_id] == expected


def test_augmented_trace_identical_to_plain(gap_selected):
    """P-threads never modify architectural state: the augmented run's
    main-thread trace must equal the unaugmented one."""
    program, trace, result = gap_selected
    augmented = expand_pthreads(program, result.pthreads)
    assert len(augmented.trace) == len(trace)
    for column in ("pc", "addr", "taken"):
        assert (getattr(augmented.trace.columns, column)
                == getattr(trace.columns, column))


def test_spawn_addresses_match_future_demand(gap_selected):
    """A p-thread's target-load address must equal the address the main
    thread computes for the covered future instance."""
    program, trace, result = gap_selected
    pthread = max(result.pthreads, key=lambda p: p.size)
    augmented = expand_pthreads(program, [pthread])
    target_pc = pthread.target_pcs[0]
    demand_addrs = {
        seq: trace.columns.addr[seq] for seq in trace.occurrences(target_pc)
    }
    demand_by_addr = {}
    for seq, addr in demand_addrs.items():
        demand_by_addr.setdefault(addr, []).append(seq)
    matched = 0
    total = 0
    for spawns in augmented.pthreads.spawns_by_trigger.values():
        for spawn in spawns:
            for inst in spawn.insts:
                if inst.is_target:
                    total += 1
                    if any(
                        seq > spawn.trigger_seq
                        for seq in demand_by_addr.get(inst.addr, [])
                    ):
                        matched += 1
    # Near the end of the loop there is no future instance; the bulk must
    # match exactly.
    assert total > 0
    assert matched / total > 0.95


def test_liveins_point_at_or_before_trigger(gap_selected):
    program, trace, result = gap_selected
    augmented = expand_pthreads(program, result.pthreads)
    for spawns in list(augmented.pthreads.spawns_by_trigger.values())[:50]:
        for spawn in spawns:
            for inst in spawn.insts:
                for livein in inst.livein_seqs:
                    assert livein <= spawn.trigger_seq


def test_body_deps_are_earlier_indices(gap_selected):
    program, trace, result = gap_selected
    augmented = expand_pthreads(program, result.pthreads)
    spawns = next(iter(augmented.pthreads.spawns_by_trigger.values()))
    for spawn in spawns:
        for idx, inst in enumerate(spawn.insts):
            assert all(d < idx for d in inst.body_deps)


def test_bodies_have_no_stores_or_branches(gap_selected):
    program, trace, result = gap_selected
    for pthread in result.pthreads:
        for inst in pthread.body:
            assert not inst.op.is_store
            assert not inst.op.is_control
