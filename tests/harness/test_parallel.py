"""Tests for the parallel experiment engine and baseline-cache identity."""

import json

import pytest

from repro import obs
from repro.config import MachineConfig, SimulationConfig
from repro.frontend import tracestore
from repro.harness import parallel, simcache
from repro.harness.experiment import _baseline_sim
from repro.harness.figures import result_row
from repro.harness.parallel import (
    ExperimentJob,
    resolve_jobs,
    run_experiments,
)
from repro.obs import RunWriter
from repro.pthsel.targets import Target
from repro.workloads import registry

#: The seed programs always run to completion (119k-187k insts), so a
#: smaller instruction budget cannot shrink the work; keep the grids to
#: the cheapest benchmarks instead.
SIM = SimulationConfig()


# --------------------------------------------------------------------- #
# resolve_jobs
# --------------------------------------------------------------------- #


def test_resolve_jobs_explicit_wins(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "7")
    assert resolve_jobs(3) == 3


def test_resolve_jobs_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs() == 5


def test_resolve_jobs_env_invalid(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "lots")
    with pytest.raises(ValueError):
        resolve_jobs()


def test_resolve_jobs_default_is_cpu_count(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    import os

    assert resolve_jobs() == max(1, os.cpu_count() or 1)


def test_resolve_jobs_floor_is_one():
    assert resolve_jobs(0) == 1
    assert resolve_jobs(-3) == 1


# --------------------------------------------------------------------- #
# Baseline keys
# --------------------------------------------------------------------- #


def test_baseline_keys_include_profile_input():
    job = ExperimentJob("gcc", profile_input="ref", run_input="train")
    keys = job.baseline_keys()
    assert [(k[0], k[1]) for k in keys] == [("gcc", "train"), ("gcc", "ref")]


# --------------------------------------------------------------------- #
# Determinism: jobs=4 == jobs=1 (modulo wall-clock fields)
# --------------------------------------------------------------------- #


def _strip_timings(row):
    # t_* walls and src_* provenance are telemetry: both legitimately
    # depend on execution strategy (jobs, memo warmth, batch prewarm),
    # never on results.
    return {
        k: v
        for k, v in row.items()
        if not k.startswith("t_") and not k.startswith("src_")
    }


def _grid():
    return [
        ExperimentJob(benchmark, target=target, sim=SIM)
        for benchmark in ("parser", "vortex")
        for target in (Target.LATENCY, Target.ENERGY)
    ]


def test_jobs4_matches_jobs1():
    tracestore.clear()
    sequential = run_experiments(_grid(), n_jobs=1)
    tracestore.clear()
    parallel = run_experiments(_grid(), n_jobs=4)

    assert len(sequential) == len(parallel) == 4
    for seq, par in zip(sequential, parallel):
        assert _strip_timings(result_row(seq)) == _strip_timings(
            result_row(par)
        )


def test_parallel_merges_worker_counters():
    tracestore.clear()
    before = obs.counters.snapshot()
    run_experiments(_grid()[:2], n_jobs=2)
    delta = obs.counters.delta_since(before)
    # The simulations happened in worker processes, yet the parent's
    # registry accounts for them.
    assert delta.get("cpu.pipeline.simulations", 0) > 0
    assert delta.get("harness.parallel.jobs_dispatched", 0) == 2
    assert delta.get("harness.parallel.pools_started", 0) == 1


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_counters_and_manifest_hold_only_numbers(n_jobs, tmp_path):
    tracestore.clear()
    run_experiments(
        [ExperimentJob("gap", target=t, sim=SIM)
         for t in (Target.LATENCY, Target.ENERGY)],
        n_jobs=n_jobs,
    )
    snapshot = obs.counters.snapshot()
    manifest_path = RunWriter(str(tmp_path), command="figure3").finalize(
        counters=snapshot
    )
    with open(manifest_path, encoding="utf-8") as fh:
        written = json.load(fh)["counters"]
    assert written.keys() == snapshot.keys()
    for values in (snapshot, written):
        bad = {
            name: value
            for name, value in values.items()
            if isinstance(value, bool) or not isinstance(value, (int, float))
        }
        assert bad == {}


def test_single_job_grid_stays_in_process():
    tracestore.clear()
    before = obs.counters.snapshot()
    results = run_experiments(
        [ExperimentJob("gcc", sim=SIM)], n_jobs=4
    )
    delta = obs.counters.delta_since(before)
    assert len(results) == 1
    assert delta.get("harness.parallel.pools_started", 0) == 0


def test_pool_submits_only_cells(tmp_path, monkeypatch):
    # Two cells sharing one baseline: the pool runs the two cells and
    # nothing else; they share the baseline through the simcache.
    submitted = []
    real_new_pool = parallel._new_pool

    def recording_pool(workers, epoch):
        pool = real_new_pool(workers, epoch)
        submit = pool.submit

        def recording_submit(fn, *args, **kwargs):
            submitted.append(fn.__name__)
            return submit(fn, *args, **kwargs)

        pool.submit = recording_submit
        return pool

    monkeypatch.setattr(parallel, "_new_pool", recording_pool)
    tracestore.clear()
    simcache.configure(cache_dir=str(tmp_path))
    try:
        results = run_experiments(
            [ExperimentJob("gcc", target=t, sim=SIM)
             for t in (Target.LATENCY, Target.ENERGY)],
            n_jobs=2,
        )
    finally:
        simcache.reset()
    assert [r.benchmark for r in results] == ["gcc", "gcc"]
    assert submitted == ["_worker_experiment", "_worker_experiment"]


# --------------------------------------------------------------------- #
# Baseline-cache identity: same configs, different programs never alias.
# --------------------------------------------------------------------- #


def test_baseline_cache_keyed_by_workload_content(monkeypatch):
    tracestore.clear()
    machine = MachineConfig()
    _, gcc_stats, _ = _baseline_sim("gcc", "train", machine, SIM)
    # Re-register "gcc" to build a different program.  A cache keyed on
    # (name, machine) would now serve the stale gcc result.
    monkeypatch.setitem(
        registry._BUILDERS, "gcc", registry._BUILDERS["twolf"]
    )
    _, swapped_stats, _ = _baseline_sim("gcc", "train", machine, SIM)
    assert swapped_stats.cycles != gcc_stats.cycles

    _, twolf_stats, _ = _baseline_sim("twolf", "train", machine, SIM)
    assert swapped_stats.cycles == twolf_stats.cycles
    tracestore.clear()
