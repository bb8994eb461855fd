"""Integration tests for the experiment harness."""

import pytest

from repro.config import MachineConfig, SimulationConfig
from repro.frontend import tracestore
from repro.harness import experiment
from repro.harness.experiment import run_baseline, run_experiment
from repro.pthsel.targets import Target
from repro.workloads.registry import get_program


@pytest.fixture(scope="module")
def gap_latency():
    tracestore.clear()
    return run_experiment("gap", target=Target.LATENCY)


def test_baseline_measurement_consistency():
    m = run_baseline("gap")
    assert m.cycles > 0
    assert m.joules > 0
    assert m.stats.committed > 0


def test_experiment_improves_latency(gap_latency):
    assert gap_latency.speedup_pct > 5.0
    assert gap_latency.optimized.cycles < gap_latency.baseline.cycles


def test_metrics_consistent_with_measurements(gap_latency):
    r = gap_latency
    expected = 100.0 * (1 - r.optimized.cycles / r.baseline.cycles)
    assert r.speedup_pct == pytest.approx(expected)
    rel_d = 1 - r.speedup_pct / 100
    rel_e = 1 - r.energy_save_pct / 100
    assert 1 - r.ed_save_pct / 100 == pytest.approx(rel_d * rel_e, rel=1e-6)


def test_diagnostics_ranges(gap_latency):
    d = gap_latency.diagnostics()
    assert 0 <= d["usefulness_pct"] <= 100
    assert 0 <= d["full_coverage_pct"] <= 110
    assert d["avg_pthread_length"] > 0
    assert d["spawns"] > 0


def test_summary_row_keys(gap_latency):
    row = gap_latency.summary_row()
    for key in ("speedup_pct", "energy_save_pct", "ed_save_pct",
                "full_coverage_pct", "pinst_increase_pct"):
        assert key in row


def test_baseline_cache_reused():
    tracestore.clear()
    a = run_baseline("gcc")
    b = run_baseline("gcc")
    assert a.stats is b.stats  # memoized simulation object


def test_realistic_profiling_runs():
    r = run_experiment("gcc", target=Target.LATENCY, profile_input="ref")
    assert r.baseline.cycles > 0
    # Selection happened against the ref profile; run is on train.
    assert r.benchmark == "gcc"


def test_machine_override_changes_baseline():
    tracestore.clear()
    slow = run_baseline("gap",
                        machine=MachineConfig().with_memory_latency(300))
    fast = run_baseline("gap",
                        machine=MachineConfig().with_memory_latency(100))
    assert slow.cycles > fast.cycles


def test_invalid_config_fails_before_simulating():
    from repro.errors import ConfigError
    from repro.harness.experiment import run_experiment

    with pytest.raises(
        ConfigError, match=r"MachineConfig\.pipeline_stages"
    ):
        run_experiment("gap", machine=MachineConfig(pipeline_stages=3))


def test_realistic_profiling_adopts_the_run_trace(monkeypatch):
    # The augmented replay of a ref->train cell runs the train program,
    # so it adopts the train run trace instead of building a second copy.
    tracestore.clear()
    seen = []
    real = experiment.expand_pthreads

    def spy(program, pthreads, **kwargs):
        seen.append((program, pthreads, kwargs))
        return real(program, pthreads, **kwargs)

    monkeypatch.setattr(experiment, "expand_pthreads", spy)
    run_experiment("gap", target=Target.LATENCY, profile_input="ref")
    sim = SimulationConfig()
    run_trace, build_s = tracestore.get_trace(get_program("gap", "train"),
                                              sim.max_instructions)
    ((program, pthreads, kwargs),) = seen
    assert build_s == 0.0  # the experiment's own run trace
    assert kwargs["reference_trace"] is run_trace
    # Adoption is sound: the replay without the reference builds the
    # same trace and the same spawns.
    fresh = real(program, pthreads,
                 max_instructions=kwargs["max_instructions"])
    adopted = real(program, pthreads, **kwargs)
    assert fresh.trace.as_lists() == run_trace.as_lists()
    assert fresh.spawn_counts == adopted.spawn_counts
