"""``repro bench`` measures every cycle engine cold."""

from repro import obs
from repro.cpu import engine
from repro.harness import bench, figures
from repro.harness.experiment import clear_baseline_cache
from repro.frontend import tracestore
from repro.pthsel.targets import Target

SPAWN_BUILDS = "ddmt.augment.spawn_cache.builds"


def test_backend_walls_start_each_engine_cold(monkeypatch):
    # The spawn cache survives nothing between engines: the second
    # engine's wall must rebuild the p-thread spawns it needs.
    monkeypatch.setattr(
        bench,
        "_grid_kwargs",
        lambda quick: {
            "benchmarks": ("gcc",),
            "latencies": (100,),
            "targets": (Target.LATENCY,),
        },
    )
    real = figures.figure5_memory_latency
    passes = []

    def recording(**kwargs):
        before = obs.counters.snapshot().get(SPAWN_BUILDS, 0)
        rows = real(**kwargs)
        built = obs.counters.snapshot().get(SPAWN_BUILDS, 0) - before
        passes.append((engine.backend(), built))
        return rows

    monkeypatch.setattr(figures, "figure5_memory_latency", recording)
    engine.set_sim_backend("native")
    try:
        out = bench.bench_grid(jobs=1, quick=True, backend_walls=True)
    finally:
        engine.set_sim_backend(None)
        clear_baseline_cache()
        tracestore.clear()
    assert set(out["backend_walls_s"]) == {"native", "reference"}
    # Pass 0: the sequential native wall; pass 1: the reference wall.
    assert passes[0][0] == "native" and passes[0][1] > 0
    assert passes[1][0] == "reference" and passes[1][1] > 0
