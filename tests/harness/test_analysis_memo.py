"""Cross-cell analysis sharing: memoized classification, slice trees,
cost functions, and optimized runs must never change results."""

import pytest

from repro.config import MachineConfig
from repro.critpath.classify import (
    classify_trace,
    classify_trace_cached,
    profile_geometry_key,
)
from repro.frontend import tracestore
from repro.frontend.interpreter import interpret
from repro.harness import figures, simcache
from repro.harness.experiment import clear_baseline_cache
from repro.pthsel.targets import Target
from repro.workloads.registry import get_program


@pytest.fixture(autouse=True)
def _clean_state():
    tracestore.clear()
    clear_baseline_cache()
    yield
    tracestore.clear()
    clear_baseline_cache()


@pytest.fixture()
def trace():
    return interpret(get_program("gcc", "train"), max_instructions=60_000,
                     require_halt=False)


def test_geometry_key_ignores_latencies():
    base = MachineConfig()
    assert profile_geometry_key(
        base.with_memory_latency(300)
    ) == profile_geometry_key(base)
    assert profile_geometry_key(
        base.scaled_l2(128 * 1024, 10)
    ) != profile_geometry_key(base)


def test_classification_shared_across_latencies(trace):
    machine = MachineConfig()
    first = classify_trace_cached(trace, machine)
    again = classify_trace_cached(trace, machine.with_memory_latency(300))
    assert again is first
    other_geom = classify_trace_cached(
        trace, machine.scaled_l2(128 * 1024, 10)
    )
    assert other_geom is not first


def test_classification_memo_matches_direct_classify(trace):
    machine = MachineConfig()
    cached = classify_trace_cached(trace, machine)
    direct = classify_trace(trace, machine)
    assert direct is not cached
    assert cached.service == direct.service
    assert cached.mispredicted == direct.mispredicted


def _tiny_grid(latencies=(100, 200)):
    tracestore.clear()
    clear_baseline_cache()
    return [
        {
            k: v
            for k, v in row.items()
            if not k.startswith("t_") and not k.startswith("src_")
        }
        for row in figures.figure5_memory_latency(
            benchmarks=("gcc",),
            latencies=latencies,
            targets=(Target.LATENCY,),
            jobs=1,
        )
    ]


def test_grid_rows_identical_shared_and_per_cell():
    # The shared grid reuses the trace, classification, slice trees and
    # augmentation across its cells; each per-cell run starts from
    # cleared memos and computes everything itself.
    with simcache.disabled():
        shared = _tiny_grid()
        per_cell = [row for lat in (100, 200) for row in _tiny_grid((lat,))]
    assert shared == per_cell
