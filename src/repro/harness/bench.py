"""Throughput benchmarking: the repo's performance trajectory.

Two measurements matter for the "as fast as the hardware allows" goal:

- **Simulator throughput** -- single-thread ``cycles/sec`` through
  :func:`repro.cpu.pipeline.simulate` per benchmark, the number the
  hot-loop optimization work targets.  The trace is interpreted outside
  the timed region, matching how the harness amortizes that cost across
  a figure grid.
- **Figure-grid wall time** -- end-to-end seconds for a representative
  sweep (``figure5_memory_latency``), measured three ways: sequential
  with the simulation cache disabled (the seed baseline's behavior),
  then with ``--jobs N`` + cache on a first (cold) and second (warm)
  pass.

:func:`run_bench` collects both into one JSON-serializable payload and
:func:`write_bench` writes it as ``BENCH_<yyyymmdd>.json``, seeding the
perf history the CI smoke job uploads per PR.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Dict, List, Optional, Sequence

from repro import __version__, obs
from repro.config import MachineConfig, SimulationConfig
from repro.cpu.pipeline import simulate
from repro.cpu import engine as sim_engine
from repro.cpu import nativebuild
from repro.frontend import tracestore
from repro.frontend.interpreter import interpret
from repro.harness import batchplan, experiment, figures, simcache
from repro.pthsel.targets import Target
from repro.workloads import benchmark_names
from repro.workloads.registry import get_program

#: Benchmarks the quick (CI smoke) mode times.
QUICK_BENCHMARKS = ("gcc", "twolf")


def bench_simulator(
    benchmarks: Optional[Sequence[str]] = None,
    input_name: str = "train",
) -> List[Dict[str, object]]:
    """Single-thread simulator throughput rows, one per benchmark."""
    if benchmarks is None:
        benchmarks = benchmark_names()
    sim = SimulationConfig()
    machine = MachineConfig()
    rows: List[Dict[str, object]] = []
    for benchmark in benchmarks:
        t0 = time.perf_counter()
        trace = interpret(
            get_program(benchmark, input_name),
            max_instructions=sim.max_instructions,
        )
        t_trace = time.perf_counter() - t0
        with obs.span("bench_simulate", benchmark=benchmark):
            t0 = time.perf_counter()
            stats = simulate(trace, machine)
            wall = time.perf_counter() - t0
        rows.append(
            {
                "benchmark": benchmark,
                "cycles": stats.cycles,
                "committed": stats.committed,
                "wall_s": round(wall, 4),
                "t_trace": round(t_trace, 4),
                "cycles_per_sec": round(stats.cycles / wall) if wall else 0,
            }
        )
    return rows


def _grid_kwargs(quick: bool) -> Dict[str, object]:
    if quick:
        return {
            "benchmarks": ("gcc",),
            "latencies": (100, 200),
            "targets": (Target.LATENCY,),
        }
    return {}


def _reset_memos() -> None:
    """Drop every in-process memo a cold grid pass must not inherit:
    the baseline LRU (with the augmented/optimized memos) and the trace
    memo."""
    experiment.clear_baseline_cache()
    tracestore.clear()


def bench_grid(
    jobs: Optional[int] = None,
    quick: bool = False,
    compare_sequential: bool = True,
    backend_walls: Optional[bool] = None,
) -> Dict[str, object]:
    """Wall-clock three ways through ``figure5_memory_latency``.

    ``backend_walls`` forces (True) or suppresses (False) the
    per-backend sequential-wall sweep; the default (None) measures it
    in quick mode only, where re-running the grid per engine is cheap.
    """
    kwargs = _grid_kwargs(quick)
    measure_walls = quick if backend_walls is None else backend_walls
    out: Dict[str, object] = {
        "grid": "figure5_memory_latency",
        "quick": quick,
        "jobs": jobs,
    }

    if compare_sequential:
        # An honest cold pass: nothing carried over from earlier phases
        # of this process (see _reset_memos), only the sharing the
        # sequential grid itself builds up.
        _reset_memos()
        with simcache.disabled():
            t0 = time.perf_counter()
            rows = figures.figure5_memory_latency(jobs=1, **kwargs)
            out["sequential_uncached_wall_s"] = round(
                time.perf_counter() - t0, 3
            )
        out["rows"] = len(rows)
        # Per-row cold phase breakdown (trace/analysis/sim walls) plus
        # totals, so the bench JSON shows where the cold path spends.
        # Rows whose layers were all served from in-process memos (e.g.
        # a second target selecting an already-simulated p-thread set)
        # built nothing and would silently dilute the breakdown: they
        # are counted, not listed.  Each listed row carries its cache
        # provenance (src_*) so "cheap" rows are explainable.
        phase_keys = ("t_trace", "t_analysis", "t_sim")
        cold_rows = []
        cached_rows = 0
        for row in rows:
            if sum(float(row.get(k, 0.0)) for k in phase_keys) <= 0.0:
                cached_rows += 1
                continue
            cold_rows.append(
                {
                    k: row[k]
                    for k in ("benchmark", "target", *phase_keys)
                    if k in row
                }
                | {
                    k: v
                    for k, v in row.items()
                    if k.startswith("src_")
                }
            )
        out["cold_phase_rows"] = cold_rows
        out["cached_rows"] = cached_rows
        out["cold_phase_totals_s"] = {
            k[2:]: round(sum(float(r.get(k, 0.0)) for r in rows), 3)
            for k in phase_keys
        }
        out["batch_prewarm"] = batchplan.last_prewarm_stats()
        out["tracestore"] = tracestore.stats()

        # Per-backend walls over the same sequential uncached grid, so
        # the committed baseline pins every engine's speed -- a change
        # that only slows the engine nobody selected by default would
        # otherwise sail through.  Quick mode by default: re-running the
        # full grid under the reference engine multiplies bench time, so
        # full-grid walls are opt-in (``repro bench --backend-walls``,
        # used for the published BENCH_*.json speedup figures).
        if measure_walls:
            active = sim_engine.backend()
            walls = {active: out["sequential_uncached_wall_s"]}
            for name in sim_engine.SIM_BACKENDS:
                if name == active:
                    continue
                _reset_memos()
                sim_engine.set_sim_backend(name)
                try:
                    with simcache.disabled():
                        t0 = time.perf_counter()
                        figures.figure5_memory_latency(jobs=1, **kwargs)
                        walls[name] = round(time.perf_counter() - t0, 3)
                finally:
                    sim_engine.set_sim_backend(active)
            out["backend_walls_s"] = walls

    t0 = time.perf_counter()
    rows = figures.figure5_memory_latency(jobs=jobs, **kwargs)
    out["cold_wall_s"] = round(time.perf_counter() - t0, 3)
    out["rows"] = len(rows)

    t0 = time.perf_counter()
    figures.figure5_memory_latency(jobs=jobs, **kwargs)
    out["warm_wall_s"] = round(time.perf_counter() - t0, 3)

    seq = out.get("sequential_uncached_wall_s")
    if seq:
        out["warm_speedup"] = round(seq / max(out["warm_wall_s"], 1e-9), 2)
    return out


def run_bench(
    quick: bool = False,
    jobs: Optional[int] = None,
    with_grid: bool = True,
    compare_sequential: Optional[bool] = None,
    backend_walls: Optional[bool] = None,
) -> Dict[str, object]:
    """Collect the full benchmark payload (simulator + grid timings)."""
    if compare_sequential is None:
        compare_sequential = True
    payload: Dict[str, object] = {
        "date": time.strftime("%Y-%m-%d"),
        "version": __version__,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "quick": quick,
        "sim_backend": sim_engine.backend(),
        # ``native`` is the C kernel or, without a C compiler, the
        # several-fold slower reference engine; walls compare only
        # within one of them.
        "native_kernel": (
            "c" if nativebuild.load() is not None else "reference"
        ),
        "simulator": bench_simulator(
            QUICK_BENCHMARKS if quick else None
        ),
    }
    if with_grid:
        payload["figure_grid"] = bench_grid(
            jobs=jobs,
            quick=quick,
            compare_sequential=compare_sequential,
            backend_walls=backend_walls,
        )
    cache = simcache.get_cache()
    if cache is not None:
        payload["simcache"] = cache.stats()
    # Recovery accounting rides along so throughput regressions caused
    # by retries/rebuilds are visible in the payload itself.
    snapshot = obs.counters.snapshot()
    payload["resilience"] = {
        name.split("harness.parallel.", 1)[1]: int(value)
        for name, value in snapshot.items()
        if name.startswith("harness.parallel.")
        and name.split(".")[-1]
        in ("retries", "recoveries", "failures", "timeouts",
            "pool_rebuilds", "cells_resumed")
    }
    injected = {
        name.split("faults.injected.", 1)[1]: int(value)
        for name, value in snapshot.items()
        if name.startswith("faults.injected.")
    }
    if injected:
        payload["resilience"]["injected"] = injected
    # Server-side counters (admission sheds, breaker trips, recovered
    # jobs) join the same section when a server ran in this process.
    # Histograms store dict-valued state in the same registry; only the
    # scalar counters belong in this summary.
    server = {
        name.split("server.", 1)[1]: int(value)
        for name, value in snapshot.items()
        if name.startswith("server.") and not isinstance(value, dict)
    }
    if server:
        payload["resilience"]["server"] = server
    return payload


def hotspot_table(profile, limit: int = 25) -> str:
    """Render a cProfile run as a top-``limit`` cumulative-time table.

    ``profile`` is a :class:`cProfile.Profile` that has finished
    collecting (the CLI's ``bench --profile`` wraps :func:`run_bench`
    in one).  Returned as text so it can be printed or written next to
    the bench payload as a ``*.profile.txt`` artifact.
    """
    import io
    import pstats

    buffer = io.StringIO()
    stats = pstats.Stats(profile, stream=buffer)
    stats.sort_stats("cumulative").print_stats(limit)
    return buffer.getvalue()


def write_bench(
    payload: Dict[str, object], path: Optional[str] = None
) -> str:
    """Write ``payload`` to ``path`` (default ``BENCH_<yyyymmdd>.json``
    in the current directory) and return the path written."""
    if path is None:
        path = f"BENCH_{time.strftime('%Y%m%d')}.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path
