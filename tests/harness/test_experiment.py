"""Integration tests for the experiment harness."""

import pytest

from repro import obs
from repro.config import EnergyConfig, MachineConfig, SimulationConfig
from repro.frontend import tracestore
from repro.harness import experiment
from repro.harness.experiment import run_baseline, run_experiment
from repro.harness.figures import result_row
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


def test_optimized_run_memo_serves_cells_with_the_same_pthreads():
    # The idle factor changes only the energy model, so gap's L cells at
    # three idle factors select the same p-threads and share one
    # optimized timing run, held on the run trace.
    tracestore.clear()
    hits = "harness.experiment.opt_cache.hits"
    before = obs.counters.snapshot().get(hits, 0)
    rows = [
        result_row(run_experiment(
            "gap", target=Target.LATENCY,
            energy=EnergyConfig().with_idle_factor(factor),
        ))
        for factor in (0.0, 0.05, 0.10)
    ]
    assert obs.counters.snapshot().get(hits, 0) - before == 2
    assert [r["src_optimized"] for r in rows] == [
        "simulated", "memo", "memo"
    ]
    assert [r["n_pthreads"] for r in rows] == [2, 2, 2]
    assert len({r["speedup_pct"] for r in rows}) == 1
    assert len({r["energy_save_pct"] for r in rows}) == 3

    # The memo-served cell is the cell a fresh process computes.
    tracestore.clear()
    fresh = result_row(run_experiment(
        "gap", target=Target.LATENCY,
        energy=EnergyConfig().with_idle_factor(0.05),
    ))
    assert fresh["src_optimized"] == "simulated"

    def payload(row):
        return {k: v for k, v in row.items()
                if not k.startswith(("t_", "src_"))}

    assert payload(fresh) == payload(rows[1])


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


def test_crash_partway_through_a_cell_retries_to_the_same_row(monkeypatch):
    # A simulator crash after the baseline and the augmented program
    # already sit on the run trace: the retry reuses both, simulates the
    # optimized program afresh, and yields the fault-free row.
    from repro.errors import FaultInjectedError
    from repro.harness import simcache
    from repro.harness.parallel import (
        ExperimentJob,
        RetryPolicy,
        run_experiments,
    )

    job = ExperimentJob("gap", target=Target.LATENCY)
    policy = RetryPolicy(max_attempts=2)
    with simcache.disabled():
        tracestore.clear()
        (clean,) = run_experiments([job], n_jobs=1, policy=policy,
                                   degrade=False)

        real = experiment.simulate
        crashed = []

        def crash_once(trace, machine=None, pthreads=None, **kwargs):
            if pthreads is not None and not crashed:
                crashed.append(trace)
                raise FaultInjectedError("simulator crash", site="test")
            return real(trace, machine, pthreads, **kwargs)

        monkeypatch.setattr(experiment, "simulate", crash_once)
        tracestore.clear()
        before = obs.counters.snapshot()
        (retried,) = run_experiments([job], n_jobs=1, policy=policy,
                                     degrade=False)
    delta = obs.counters.delta_since(before)
    assert crashed
    assert delta.get("harness.parallel.retries") == 1
    assert delta.get("harness.experiment.aug_cache.hits") == 1

    def payload(row):
        return {k: v for k, v in row.items()
                if not k.startswith(("t_", "src_"))}

    clean_row, retried_row = result_row(clean), result_row(retried)
    assert retried_row["src_optimized"] == "simulated"
    assert payload(retried_row) == payload(clean_row)
