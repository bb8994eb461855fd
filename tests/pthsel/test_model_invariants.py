"""Invariants of PTHSEL's analytic models, checked on real selections.

No set of p-threads can save more cycles than the program runs, so a
selection's predicted aggregate latency advantage (``ladv_agg``) must
not exceed the profile baseline's cycle count.  The paper's L3 adds the
per-p-thread gains, and for target O that sum overshoots the baseline;
those cases are recorded as strict known failures with their measured
values, so a fix to how gains are added up flips them.
"""

import functools

import pytest

from repro.config import SimulationConfig
from repro.cpu.pipeline import simulate
from repro.energy import EnergyModel
from repro.frontend import interpret
from repro.pthsel import Target, select_pthreads
from repro.pthsel.framework import BaselineEstimates
from repro.workloads import get_program


@functools.lru_cache(maxsize=None)
def _profile(program):
    """Train-input trace and baseline estimates, as an experiment builds."""
    trace = interpret(
        get_program(program, "train"),
        max_instructions=SimulationConfig().max_instructions,
    )
    stats = simulate(trace)
    e0 = EnergyModel().evaluate(stats.activity).total_joules
    return trace, BaselineEstimates(
        ipc=stats.ipc, l0=float(stats.cycles), e0=e0
    )


def _overshoot(values):
    return pytest.mark.xfail(
        strict=True,
        reason=f"additive L3 overshoots: predicted ladv_agg {values}",
    )


@pytest.mark.parametrize("program,target", [
    ("bzip2", Target.LATENCY),   # 447,608 <= 449,184
    ("mcf", Target.LATENCY),     # 94,868 <= 1,673,432
    pytest.param("bzip2", Target.ORIGINAL,
                 marks=_overshoot("1,769,566 > baseline 449,184")),
    pytest.param("mcf", Target.ORIGINAL,
                 marks=_overshoot("2,372,487 > baseline 1,673,432")),
])
def test_predicted_saving_within_baseline_cycles(program, target):
    trace, baseline = _profile(program)
    result = select_pthreads(trace, baseline, target=target)
    assert result.predicted["ladv_agg"] <= baseline.l0
