"""Simulator progress heartbeats: emission at debug level, ETA
semantics (``eta_s`` is null until instructions retire), and the
``--quiet`` suppression gate -- under both cycle engines: the
reference ``Pipeline`` (no compiled kernel) and the C kernel, which emits heartbeats through its progress hook without
building a ``Pipeline``."""

import io
import json

import pytest

from repro import obs
from repro.cpu import nativebuild, pipeline
from repro.cpu.pipeline import simulate
from repro.frontend import interpret
from repro.isa.builder import ProgramBuilder
from repro.isa.registers import Reg

HEARTBEAT_FIELDS = {
    "cycles", "committed", "progress_pct", "spawns", "wall_s",
    "cycles_per_sec", "interval_cycles_per_sec",
    "interval_retired_per_sec", "eta_s",
}


def _alu_loop(n=200):
    b = ProgramBuilder("alu")
    b.set_reg(Reg.r2, n)
    b.li(Reg.r1, 0)
    b.label("top")
    b.add(Reg.r3, Reg.r3, Reg.r4)
    b.addi(Reg.r1, Reg.r1, 1)
    b.blt(Reg.r1, Reg.r2, "top")
    b.halt()
    return interpret(b.build())


@pytest.fixture
def kernels(monkeypatch):
    """Iterate over the cycle engines: each step makes later
    simulations run on the reference (no compiled kernel), then on the
    C kernel when it loads."""

    def each():
        monkeypatch.setenv("REPRO_NATIVE", "0")
        nativebuild.reset_probe()
        yield "reference"
        monkeypatch.delenv("REPRO_NATIVE")
        nativebuild.reset_probe()
        if nativebuild.load() is not None:
            yield "c"

    yield each
    nativebuild.reset_probe()


class _Beats:
    """The ``sim_heartbeat`` events written to the debug JSON-lines sink."""

    def __init__(self, stream):
        self.stream = stream

    def clear(self):
        self.stream.seek(0)
        self.stream.truncate()

    def events(self):
        records = map(json.loads, self.stream.getvalue().splitlines())
        return [r for r in records if r["event"] == "sim_heartbeat"]


@pytest.fixture
def beats(monkeypatch):
    """Debug logging into a buffer, heartbeats at a tiny cycle interval."""
    monkeypatch.setattr(pipeline, "HEARTBEAT_CYCLES", 25)
    stream = io.StringIO()
    obs.configure(level="debug", stream=stream)
    yield _Beats(stream)
    obs.reset()


def test_debug_logging_emits_heartbeats_with_progress_fields(
    monkeypatch, kernels, beats
):
    def no_pipeline(*args, **kwargs):
        raise AssertionError("a heartbeating kernel run built the reference")

    for kernel in kernels():
        if kernel == "c":
            monkeypatch.setattr(pipeline, "Pipeline", no_pipeline)
        beats.clear()
        simulate(_alu_loop())
        events = beats.events()
        assert events, f"{kernel}: no heartbeats at debug level"
        for event in events:
            assert HEARTBEAT_FIELDS <= set(event)
            assert 0.0 <= event["progress_pct"] <= 100.0
            assert event["eta_s"] is None or event["eta_s"] >= 0.0
        cycles = [e["cycles"] for e in events]
        assert cycles == sorted(cycles)
        pcts = [e["progress_pct"] for e in events]
        assert pcts == sorted(pcts)


def test_eta_is_null_until_instructions_retire(monkeypatch, kernels, beats):
    # Fire the first heartbeat before anything can commit (the frontend
    # pipe alone is several cycles deep): zero retired in the interval
    # must report eta_s null, never a division blow-up or a bogus 0.
    monkeypatch.setattr(pipeline, "HEARTBEAT_CYCLES", 1)
    for kernel in kernels():
        beats.clear()
        simulate(_alu_loop())
        events = beats.events()
        assert events[0]["committed"] == 0, kernel
        assert events[0]["eta_s"] is None, kernel
        # Once instructions retire the projection becomes a real number.
        assert any(
            e["eta_s"] is not None for e in events if e["committed"] > 0
        ), kernel


def test_quiet_suppresses_heartbeats_at_debug_level(kernels, beats):
    for kernel in kernels():
        beats.clear()
        obs.set_quiet(True)
        try:
            simulate(_alu_loop())
        finally:
            obs.set_quiet(False)
        assert beats.events() == [], kernel
        simulate(_alu_loop())  # gate re-opens once quiet is lifted
        assert beats.events(), kernel


def test_no_heartbeats_below_debug(monkeypatch, kernels):
    monkeypatch.setattr(pipeline, "HEARTBEAT_CYCLES", 25)
    # Below debug the heartbeat branch is dead: log_event must never
    # even be called with a heartbeat.
    assert not obs.is_enabled("debug")
    seen = []
    real = obs.log_event

    def spy(event, **fields):
        seen.append(event)
        real(event, **fields)

    monkeypatch.setattr(pipeline.obs, "log_event", spy)
    for _ in kernels():
        simulate(_alu_loop())
    assert "sim_heartbeat" not in seen
