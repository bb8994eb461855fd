"""End-to-end selection tests (framework + selector + targets)."""

import pytest

from repro.config import SelectionConfig
from repro.cpu.pipeline import simulate
from repro.energy import EnergyModel
from repro.frontend import interpret
from repro.pthsel import Target, select_pthreads
from repro.pthsel.framework import BaselineEstimates
from repro.workloads import get_program


@pytest.fixture(scope="module")
def gap_setup():
    trace = interpret(get_program("gap"), max_instructions=2_000_000)
    stats = simulate(trace)
    e0 = EnergyModel().evaluate(stats.activity).total_joules
    return trace, BaselineEstimates(
        ipc=stats.ipc, l0=float(stats.cycles), e0=e0
    )


def test_latency_target_selects_pthreads(gap_setup):
    trace, base = gap_setup
    result = select_pthreads(trace, base, target=Target.LATENCY)
    assert result.n_pthreads >= 1
    assert result.predicted["ladv_agg"] > 0
    for p in result.pthreads:
        assert p.size >= 1
        assert p.body[-1].op.is_load  # the target load ends the body


def test_targets_are_ordered_by_aggressiveness(gap_setup):
    """E-p-threads never execute more p-instruction volume than L."""
    trace, base = gap_setup

    def volume(target):
        r = select_pthreads(trace, base, target=target)
        return sum(
            p.size * p.predicted.get("dc_trig", 0.0) for p in r.pthreads
        )

    v_energy, v_ed, v_original = (
        volume(Target.ENERGY),
        volume(Target.ED),
        volume(Target.ORIGINAL),
    )
    assert v_energy <= v_ed + 1e-9
    assert v_ed <= v_original + 1e-9


def test_original_never_less_aggressive_than_latency(gap_setup):
    trace, base = gap_setup
    o = select_pthreads(trace, base, target=Target.ORIGINAL)
    l = select_pthreads(trace, base, target=Target.LATENCY)
    assert o.n_pthreads >= l.n_pthreads


def test_ed2_close_to_latency(gap_setup):
    """The paper: P2-p-threads are very similar to L-p-threads."""
    trace, base = gap_setup
    l = select_pthreads(trace, base, target=Target.LATENCY)
    p2 = select_pthreads(trace, base, target=Target.ED2)
    l_triggers = {(p.trigger_pc, p.size) for p in l.pthreads}
    p2_triggers = {(p.trigger_pc, p.size) for p in p2.pthreads}
    assert l_triggers & p2_triggers


def test_zero_idle_factor_kills_energy_target(gap_setup):
    """Figure 5 top: with no idle energy to recover, no E-p-threads
    exist (all EADVagg negative)."""
    from repro.config import EnergyConfig

    trace, base = gap_setup
    result = select_pthreads(
        trace,
        base,
        target=Target.ENERGY,
        energy=EnergyConfig().with_idle_factor(0.0),
    )
    assert result.n_pthreads == 0


def test_no_problem_loads_yields_empty_selection(gap_setup):
    trace, base = gap_setup
    # No gap load accounts for every L2 miss on its own.
    config = SelectionConfig(min_miss_share=1.0)
    result = select_pthreads(trace, base, selection=config)
    assert result.n_pthreads == 0
    assert result.problem_pcs == []


def test_selection_is_deterministic(gap_setup):
    trace, base = gap_setup
    a = select_pthreads(trace, base, target=Target.ED)
    b = select_pthreads(trace, base, target=Target.ED)
    assert [p.describe() for p in a.pthreads] == [
        p.describe() for p in b.pthreads
    ]


def test_describe_renders(gap_setup):
    trace, base = gap_setup
    result = select_pthreads(trace, base)
    text = result.describe()
    assert "p-threads" in text
