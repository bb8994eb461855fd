"""Invariants of PTHSEL's analytic models, checked on real selections.

No set of p-threads can save more cycles than the program runs, so a
selection's predicted aggregate latency advantage (``ladv_agg``) must
not exceed the profile baseline's cycle count.  The paper's L3 adds the
per-p-thread gains, and for target O that sum overshoots the baseline;
those cases are recorded as strict known failures with their measured
values, so a fix to how gains are added up flips them.

The load-cost functions are monotone because the forward pass they are
priced on is: it only adds and takes maxima, so no load finishing sooner
can make the window finish later.  ``build_cost_functions`` clamps its
samples, so the property is checked on the pass itself, on both engines.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MachineConfig, SimulationConfig
from repro.cpu import nativebuild
from repro.cpu.pipeline import simulate
from repro.critpath.classify import L2, MEM, classify_trace_cached
from repro.critpath.graph import ForwardPass, service_latency
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


@functools.lru_cache(maxsize=None)
def _gap_window():
    """A 5K-instruction gap window and the seqs of its missing loads."""
    trace = interpret(
        get_program("gap", "train"),
        max_instructions=SimulationConfig().max_instructions,
    )
    cls = classify_trace_cached(trace, MachineConfig())
    fp = ForwardPass(trace, MachineConfig(), cls, end=5_000)
    misses = [seq for seq in fp.load_seqs() if cls.service.get(seq) == MEM]
    return fp, misses


L2_LATENCY = service_latency(L2, MachineConfig())
MEM_LATENCY = service_latency(MEM, MachineConfig())


@pytest.mark.parametrize("engine", [
    "python",
    pytest.param("native", marks=pytest.mark.skipif(
        not nativebuild.native_available("critpath"),
        reason="compiled forward pass unavailable: "
        f"{nativebuild.native_error('critpath')}",
    )),
])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_forward_pass_is_monotone_in_latency(engine, data):
    fp, misses = _gap_window()
    lib = nativebuild.load("critpath") if engine == "native" else None
    subset = data.draw(st.lists(st.sampled_from(misses), unique=True))
    a = data.draw(st.integers(L2_LATENCY, MEM_LATENCY))
    b = data.draw(st.integers(L2_LATENCY, a))
    base = fp._run(None, lib)
    at_a = fp._run({seq: float(a) for seq in subset}, lib)
    at_b = fp._run({seq: float(b) for seq in subset}, lib)
    assert base >= at_a >= at_b
