"""The compiled cycle engine: dispatch, loading, and batch identity.

Covers which runs :func:`simulate` routes to the reference
:class:`Pipeline` (every run when the compiled kernel cannot load),
that the compiled kernel reads the sealed trace columns without
building Python lists, and, where the compiled artifact loads,
``simulate_batch``/``batchplan`` equivalence with per-cell simulation.  Toolchain-less environments skip the
compiled cases -- never fail.
"""

import pytest

from repro import faults, obs
from repro.config import MachineConfig, SimulationConfig
from repro.cpu import kerneldriver, nativebuild, pipeline
from repro.cpu.batch import simulate_batch
from repro.cpu.pipeline import simulate
from repro.errors import FaultInjectedError
from repro.frontend import tracestore
from repro.frontend.interpreter import interpret
from repro.harness import batchplan, experiment, simcache
from repro.harness.experiment import run_experiment
from repro.pthsel.targets import Target
from repro.workloads.registry import get_program

HAVE_NATIVE = nativebuild.native_available()

SIM = SimulationConfig(max_instructions=150_000)


@pytest.fixture(autouse=True)
def _clean_state():
    tracestore.clear()
    yield
    nativebuild.reset_probe()
    tracestore.clear()


@pytest.fixture()
def _no_native(monkeypatch):
    """Environment where the compiled kernel cannot load."""
    monkeypatch.setenv("REPRO_NATIVE", "0")
    nativebuild.reset_probe()
    yield
    nativebuild.reset_probe()


def _gap_trace():
    return interpret(
        get_program("gap", "train"), max_instructions=20_000,
        require_halt=False,
    )


class TestEngineErrors:
    def test_native_runs_without_compiled_kernel(
        self, _no_native, monkeypatch
    ):
        spy = _PipelineSpy(monkeypatch)
        trace = _gap_trace()
        native = simulate(trace)
        assert spy.built == 1
        assert native.committed == len(trace)

    def test_kernel_without_library_names_the_reason(self, _no_native):
        with pytest.raises(RuntimeError, match="REPRO_NATIVE=0"):
            kerneldriver.simulate_kernel(_gap_trace())

    def test_native_error_reports_reason(self, _no_native):
        assert not nativebuild.native_available()
        assert "REPRO_NATIVE=0" in nativebuild.native_error()


class TestLoader:
    def test_reset_probe_forgets_every_library(self, _no_native):
        for name in nativebuild.LIBRARIES:
            assert not nativebuild.native_available(name)
            assert "REPRO_NATIVE=0" in nativebuild.native_error(name)
        assert set(nativebuild._probes) == set(nativebuild.LIBRARIES)
        nativebuild.reset_probe()
        assert not nativebuild._probes

    def test_cli_reports_every_library_and_fails(
        self, _no_native, monkeypatch, capsys
    ):
        monkeypatch.setattr("sys.argv", ["nativebuild"])
        assert nativebuild.main() == 1
        out = capsys.readouterr().out
        for name in nativebuild.LIBRARIES:
            assert f"native {name} unavailable" in out


class _PipelineSpy:
    """Counts :class:`Pipeline` constructions while installed."""

    def __init__(self, monkeypatch):
        self.built = 0
        real = pipeline.Pipeline
        spy = self

        class Spy(real):
            def __init__(self, *args, **kwargs):
                spy.built += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(pipeline, "Pipeline", Spy)


class TestDispatch:
    @pytest.mark.skipif(not HAVE_NATIVE, reason="compiled kernel unavailable")
    def test_native_runs_the_kernel(self, monkeypatch):
        spy = _PipelineSpy(monkeypatch)
        simulate(_gap_trace())
        assert spy.built == 0

    def test_reference_backend_routes_to_pipeline(self, monkeypatch):
        spy = _PipelineSpy(monkeypatch)
        monkeypatch.setattr(pipeline, "use_reference", lambda: True)
        simulate(_gap_trace())
        assert spy.built == 1

    def test_pipeline_step_fault_routes_to_pipeline(self, monkeypatch):
        spy = _PipelineSpy(monkeypatch)
        trace = _gap_trace()
        with faults.active(["pipeline.step:1.0"]):
            with pytest.raises(FaultInjectedError) as err:
                simulate(trace)
        assert err.value.site == "pipeline.step"
        assert spy.built == 1


@pytest.mark.skipif(not HAVE_NATIVE, reason="compiled kernel unavailable")
class TestNativeAvailable:
    def test_probe_is_memoized(self):
        first = nativebuild.load()
        assert first is not None
        assert nativebuild.load() is first
        assert nativebuild.native_error() is None

    def test_c_kernel_builds_no_python_lists(self):
        trace = _gap_trace()
        simulate(trace, MachineConfig(memory_latency=200))
        assert "pipeline" not in trace.derived
        assert trace._lists is None

    def test_simulate_batch_matches_per_config_simulate(self, monkeypatch):
        program = get_program("mcf", "train")
        trace, _ = tracestore.get_trace(program, SIM.max_instructions)
        configs = [
            MachineConfig(memory_latency=lat) for lat in (100, 200, 500)
        ]
        got = simulate_batch(trace, configs)
        monkeypatch.setattr(pipeline, "use_reference", lambda: True)
        expected = [simulate(trace, config) for config in configs]
        assert got == expected


@pytest.mark.skipif(not HAVE_NATIVE, reason="compiled kernel unavailable")
class TestNativePrewarm:
    class _Job:
        def __init__(self, benchmark, machine):
            self._keys = [(benchmark, "train", machine, SIM)]

        def baseline_keys(self):
            return list(self._keys)

    def _jobs(self):
        return [
            self._Job("mcf", MachineConfig(memory_latency=lat))
            for lat in (100, 200)
        ]

    def _rows(self):
        return [
            run_experiment(
                "mcf",
                target=Target.LATENCY,
                machine=MachineConfig(memory_latency=lat),
                sim=SIM,
            )
            for lat in (100, 200)
        ]

    def test_prewarm_adoption_identical_to_per_cell(self):
        # The prewarmed baselines must be the exact stats per-cell
        # simulation produces, and the per-cell experiment must be
        # served from the adopted baseline.
        with simcache.disabled():
            per_cell_rows = self._rows()
        tracestore.clear()
        with simcache.disabled():
            before = obs.counters.snapshot()
            batchplan.prewarm(self._jobs())
            assert obs.counters.delta_since(before).get(
                "harness.batchplan.simulated"
            ) == 2
            for job in self._jobs():
                for key in job.baseline_keys():
                    assert experiment.baseline_cached(*key)
            prewarmed_rows = self._rows()
        for per_cell, prewarmed in zip(per_cell_rows, prewarmed_rows):
            assert per_cell.provenance["baseline"] == "simulated"
            assert prewarmed.provenance["baseline"] == "batch"
            assert prewarmed.baseline == per_cell.baseline
            assert prewarmed.optimized == per_cell.optimized
            assert prewarmed.metrics == per_cell.metrics
