"""Lock-step batch planning and prewarm adoption."""

import pytest

from repro import obs
from repro.config import MachineConfig, SimulationConfig
from repro.cpu import nativebuild, pipeline
from repro.frontend import tracestore
from repro.harness import batchplan, experiment, simcache
from repro.harness.experiment import run_experiment
from repro.pthsel.targets import Target

#: The batch pass runs the compiled cycle kernel; without it (no C
#: toolchain, ``REPRO_NATIVE=0``) only the gating tests apply.
HAVE_NATIVE = nativebuild.native_available()

needs_native = pytest.mark.skipif(
    not HAVE_NATIVE, reason="compiled kernel unavailable"
)

# mcf halts within this budget and has the fastest cycle loop,
# keeping the real simulations in TestPrewarm cheap.
SIM = SimulationConfig(max_instructions=150_000)


class _Job:
    """Minimal ExperimentJob protocol: just baseline_keys()."""

    def __init__(self, benchmark, machine, sim=SIM, input_name="train"):
        self._keys = [(benchmark, input_name, machine, sim)]

    def baseline_keys(self):
        return list(self._keys)


@pytest.fixture(autouse=True)
def _clean_state():
    tracestore.clear()
    yield
    tracestore.clear()


def _prewarm_counts(before):
    """``harness.batchplan.*`` counter growth since ``before``."""
    delta = obs.counters.delta_since(before)
    return {
        name: delta.get(f"harness.batchplan.{name}", 0)
        for name in ("groups", "simulated", "cached")
    }


def _latency_jobs(benchmark="mcf", latencies=(100, 200)):
    return [
        _Job(benchmark, MachineConfig(memory_latency=lat))
        for lat in latencies
    ]


class TestPlanBatches:
    def test_groups_by_shared_trace(self):
        jobs = _latency_jobs("gcc") + _latency_jobs("twolf", (100,))
        groups = batchplan.plan_batches(jobs)
        by_bench = {g.benchmark: g for g in groups}
        assert set(by_bench) == {"gcc", "twolf"}
        assert len(by_bench["gcc"]) == 2
        assert len(by_bench["twolf"]) == 1

    def test_duplicate_machines_collapse(self):
        jobs = _latency_jobs(latencies=(100, 100, 200))
        (group,) = batchplan.plan_batches(jobs)
        assert len(group) == 2
        # First-appearance order is preserved.
        assert [m.machine.memory_latency for m in group.members] == [100, 200]

    def test_different_budgets_do_not_share(self):
        other = SimulationConfig(max_instructions=120_000)
        jobs = [
            _Job("gcc", MachineConfig(memory_latency=100)),
            _Job("gcc", MachineConfig(memory_latency=200), sim=other),
        ]
        assert len(batchplan.plan_batches(jobs)) == 2


@needs_native
class TestPrewarm:
    def test_prewarm_adopts_baselines(self):
        jobs = _latency_jobs()
        with simcache.disabled():
            before = obs.counters.snapshot()
            batchplan.prewarm(jobs)
            assert _prewarm_counts(before) == {
                "groups": 1, "simulated": 2, "cached": 0,
            }
            for job in jobs:
                for key in job.baseline_keys():
                    assert experiment.baseline_cached(*key)
            # The per-cell experiment is now served from the adopted
            # baseline and says so in its provenance.
            result = run_experiment(
                "mcf",
                target=Target.LATENCY,
                machine=MachineConfig(memory_latency=100),
                sim=SIM,
            )
            assert result.provenance["baseline"] == "batch"

    def test_prewarm_skips_cached_members(self):
        jobs = _latency_jobs()
        with simcache.disabled():
            batchplan.prewarm(jobs)
            before = obs.counters.snapshot()
            batchplan.prewarm(jobs)
        assert _prewarm_counts(before) == {
            "groups": 1, "simulated": 0, "cached": 2,
        }

    def test_single_member_groups_left_alone(self):
        before = obs.counters.snapshot()
        with simcache.disabled():
            batchplan.prewarm(_latency_jobs(latencies=(100,)))
        assert _prewarm_counts(before) == {
            "groups": 0, "simulated": 0, "cached": 0,
        }


class TestMaybePrewarm:
    NOTHING = {"groups": 0, "simulated": 0, "cached": 0}

    def _gated(self, jobs):
        before = obs.counters.snapshot()
        with simcache.disabled():
            batchplan.maybe_prewarm(jobs)
        return _prewarm_counts(before)

    def test_reference_backend_gates_off(self, monkeypatch):
        monkeypatch.setattr(pipeline, "use_reference", lambda: True)
        assert self._gated(_latency_jobs()) == self.NOTHING

    def test_no_compiled_kernel_gates_off(self, monkeypatch):
        # Without the C kernel every simulation runs on the reference,
        # which has nothing to batch.
        monkeypatch.setenv("REPRO_NATIVE", "0")
        nativebuild.reset_probe()
        try:
            assert self._gated(_latency_jobs()) == self.NOTHING
        finally:
            nativebuild.reset_probe()

    def test_single_job_gates_off(self):
        assert self._gated(_latency_jobs(latencies=(100,))) == self.NOTHING

    @needs_native
    def test_sequential_grid_runs_prewarm(self):
        assert self._gated(_latency_jobs()) == {
            "groups": 1, "simulated": 2, "cached": 0,
        }
