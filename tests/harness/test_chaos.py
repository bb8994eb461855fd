"""Tests for the in-process chaos drill (``repro chaos``)."""

from repro import faults
from repro.harness import chaos, experiment


def test_in_process_chaos_recomputes_the_faulted_run(monkeypatch):
    # At --jobs 1 the faulted run shares this process with the
    # reference run; it must simulate every cell again, not read the
    # reference's optimized stats back from the trace store.
    real = experiment.simulate
    optimized = []

    def spy(trace, machine=None, pthreads=None, **kwargs):
        if pthreads is not None:
            optimized.append(trace)
        return real(trace, machine, pthreads, **kwargs)

    monkeypatch.setattr(experiment, "simulate", spy)
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.reset()
    report = chaos.run_chaos(quick=True, jobs=1)
    assert report["ok"] is True
    assert len(optimized) == 2 * report["cells"]
