"""``repro bench`` measures every cycle engine cold."""

from repro.cpu import engine
from repro.harness import bench, experiment, figures
from repro.harness.experiment import clear_baseline_cache
from repro.frontend import tracestore
from repro.pthsel.targets import Target


def test_backend_walls_start_each_engine_cold(monkeypatch):
    # No memo survives between engines: the second engine's wall must
    # expand the p-thread spawns it needs again.
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
    real_expand = experiment.expand_pthreads
    expansions = [0]
    passes = []

    def counting_expand(*args, **kwargs):
        expansions[0] += 1
        return real_expand(*args, **kwargs)

    def recording(**kwargs):
        before = expansions[0]
        rows = real(**kwargs)
        passes.append((engine.backend(), expansions[0] - before))
        return rows

    monkeypatch.setattr(experiment, "expand_pthreads", counting_expand)
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
