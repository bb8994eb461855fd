"""Workload definitions and layer-activity expectations.

Plain data only: the parent runner imports this without importing
``repro``, so a checkout without the program fails before any work.

A grid workload is a list of ``(benchmark, target label, memory
latency or None)`` cells run through
``repro.harness.parallel.run_experiments(grid, n_jobs=1)``.  The
``sim-only`` workload is a baseline timing simulation of every listed
benchmark's trace at the default machine.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

Cell = Tuple[str, str, Optional[int]]

INPUT_SETS = ("train", "ref")

WORKLOADS: Dict[str, Dict[str, object]] = {
    "memlat-sweep": {
        "why": "Figure 5 memory-latency grid: cells share traces, "
        "classifications, slice trees and optimized runs, and the "
        "lock-step baseline prewarm runs",
        "kind": "grid",
        "benchmarks": ("gcc",),
        "targets": ("L", "E"),
        "latencies": (100, 300),
        "active": ("interpret", "batch_sim", "opt_sim", "classify",
                   "cost", "slice", "search", "augment", "energy",
                   "simcache"),
        "idle": (),
    },
    "suite-original": {
        "why": "Figure 2 grid (target O) on distinct programs: no "
        "cross-cell reuse, no prewarm, and the flat load cost leaves "
        "the cost layer idle",
        "kind": "grid",
        "benchmarks": ("bzip2", "vpr.route"),
        "targets": ("O",),
        "latencies": (None,),
        "active": ("interpret", "base_sim", "opt_sim", "classify",
                   "slice", "search", "augment", "energy", "simcache"),
        "idle": ("cost", "batch_sim"),
    },
    "sim-only": {
        "why": "baseline timing simulation of two memory-bound and two "
        "compute-bound traces at the default machine, traces interpreted "
        "in set-up: isolates the cycle engine",
        "kind": "sim",
        "benchmarks": ("gcc", "mcf", "vortex", "vpr.route"),
        "active": ("interpret", "base_sim"),
        "idle": ("batch_sim", "opt_sim", "classify", "cost", "slice",
                 "search", "augment", "energy", "simcache"),
    },
    # One cell, for the self-tests only; not listed in BENCHMARK.json.
    "smoke": {
        "why": "one cheap cell for the self-tests",
        "kind": "grid",
        "benchmarks": ("bzip2",),
        "targets": ("O",),
        "latencies": (None,),
        "active": ("interpret", "base_sim", "opt_sim", "classify",
                   "slice", "search", "augment", "energy", "simcache"),
        "idle": ("cost", "batch_sim"),
    },
}


def grid_cells(workload: str, seed: int) -> List[Cell]:
    """The workload's cells in the order ``seed`` gives them.

    The seed permutes the order only: every seed runs the same set of
    cells, so every seed does the same work and yields the same rows.
    """
    spec = WORKLOADS[workload]
    cells: List[Cell] = [
        (benchmark, target, latency)
        for latency in spec["latencies"]
        for benchmark in spec["benchmarks"]
        for target in spec["targets"]
    ]
    random.Random(seed).shuffle(cells)
    return cells


def sim_benchmarks(workload: str, seed: int) -> List[str]:
    """The ``sim``-kind workload's benchmarks in seed order."""
    names = list(WORKLOADS[workload]["benchmarks"])
    random.Random(seed).shuffle(names)
    return names


def check_activity(workload: str, counts: Dict[str, float]) -> List[str]:
    """Problems with the traced run's layer activity (empty when fine).

    A layer listed as active must record calls, and one listed as idle
    must record none, so a refactor that moves a call site cannot
    silently zero a layer or charge work to the wrong one.
    """
    spec = WORKLOADS[workload]
    problems = []
    for layer in spec["active"]:
        if not counts.get(f"{layer}.calls", 0):
            problems.append(f"{layer} recorded no calls on {workload}")
    for layer in spec["idle"]:
        if counts.get(f"{layer}.calls", 0):
            problems.append(
                f"{layer} recorded {counts[f'{layer}.calls']:g} calls on "
                f"{workload}, where it should be idle"
            )
    return problems
