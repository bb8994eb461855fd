"""One cold pass of one workload, in a fresh process.

Started by ``run.py`` with one JSON argument:
``{"workload", "input", "seed", "trace", "setup_only", "spawned"}``,
where ``spawned`` is the parent's ``time.monotonic()`` just before it
started this process (the clock is system-wide on Linux).  Prints one
JSON object as its last line of standard output.

Set-up is everything before the first timed call: interpreter start,
importing the program, building the job list and, for ``sim-only``,
interpreting the traces.  The timed region is the grid run, or the
simulations.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
from typing import Dict, List

from workload_spec import WORKLOADS, grid_cells, sim_benchmarks

#: Row columns left out of the digest: host timings, the distributed
#: trace id, and cache provenance (which of two cells sharing work ran
#: it first depends on the seed's cell order).
_UNSTABLE_PREFIXES = ("t_", "src_")
_UNSTABLE_KEYS = ("trace_id",)


def rows_digest(rows: List[Dict[str, object]]) -> str:
    """SHA-256 of the rows, order-free, without unstable columns."""
    stable = [
        {
            k: v
            for k, v in row.items()
            if k not in _UNSTABLE_KEYS and not k.startswith(_UNSTABLE_PREFIXES)
        }
        for row in rows
    ]
    lines = sorted(json.dumps(row, sort_keys=True) for row in stable)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _stats_ok(stats, width: int) -> bool:
    if stats.cycles <= 0 or stats.committed <= 0:
        return False
    try:
        stats.stalls.verify(width, stats.cycles)
    except ValueError:
        return False
    return True


def _pp(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def prepare_grid(workload: str, input_name: str, seed: int):
    from repro.config import MachineConfig
    from repro.harness.parallel import ExperimentJob
    from repro.pthsel.targets import Target

    grid = []
    for benchmark, target, latency in grid_cells(workload, seed):
        machine = (
            MachineConfig().with_memory_latency(latency)
            if latency is not None else None
        )
        grid.append(
            ExperimentJob(
                benchmark,
                target=Target(target),
                profile_input=input_name,
                run_input=input_name,
                machine=machine,
                tag={"memory_latency": latency} if latency else {},
            )
        )
    return grid


def run_grid(grid) -> Dict[str, object]:
    from repro.config import MachineConfig
    from repro.harness.figures import result_row
    from repro.harness.parallel import JobFailure, run_experiments

    results = run_experiments(grid, n_jobs=1, degrade=True)
    rows = []
    failed = 0
    lat_err: List[float] = []
    energy_err: List[float] = []
    for job, result in zip(grid, results):
        row = result_row(result)
        row.update(job.tag)
        rows.append(row)
        if isinstance(result, JobFailure):
            failed += 1
            continue
        width = (job.machine or MachineConfig()).width
        base, opt = result.baseline, result.optimized
        if not (
            _stats_ok(base.stats, width)
            and _stats_ok(opt.stats, width)
            and opt.stats.committed == base.stats.committed
            and math.isfinite(base.joules) and base.joules > 0
            and math.isfinite(opt.joules) and opt.joules > 0
        ):
            failed += 1
            continue
        predicted = result.selection.predicted
        lat_err.append(abs(
            _pp(base.cycles - opt.cycles, base.cycles)
            - _pp(predicted.get("ladv_agg", 0.0), base.cycles)
        ))
        energy_err.append(abs(
            _pp(base.joules - opt.joules, base.joules)
            - _pp(predicted.get("eadv_agg", 0.0), base.joules)
        ))
    return {
        "attempted": len(grid),
        "failed": failed,
        "rows": rows,
        "model_err_latency_pp": (
            sum(lat_err) / len(lat_err) if lat_err else 0.0
        ),
        "model_err_energy_pp": (
            sum(energy_err) / len(energy_err) if energy_err else 0.0
        ),
    }


def prepare_sim(workload: str, input_name: str, seed: int):
    from repro.config import SimulationConfig
    from repro.frontend import tracestore
    from repro.workloads.registry import get_program

    limit = SimulationConfig().max_instructions
    traces = []
    for benchmark in sim_benchmarks(workload, seed):
        trace, _ = tracestore.get_trace(get_program(benchmark, input_name),
                                        limit)
        traces.append((benchmark, trace))
    return traces


def run_sim(traces) -> Dict[str, object]:
    from repro.config import MachineConfig
    from repro.cpu import pipeline

    machine = MachineConfig()
    rows = []
    failed = 0
    for benchmark, trace in traces:
        stats = pipeline.simulate(trace, machine)
        rows.append({"benchmark": benchmark, **stats.summary()})
        if not (_stats_ok(stats, machine.width)
                and stats.committed == len(trace)):
            failed += 1
    return {
        "attempted": len(traces),
        "failed": failed,
        "rows": rows,
    }


def main(argv: List[str]) -> int:
    args = json.loads(argv[1])
    workload = args["workload"]
    kind = WORKLOADS[workload]["kind"]
    import repro  # noqa: F401  (import time is set-up)

    ledger = None
    if args["trace"]:
        from ledger import Ledger

        ledger = Ledger()
        ledger.install()
    prep_started = time.monotonic()
    prepare = prepare_grid if kind == "grid" else prepare_sim
    state = prepare(workload, args["input"], args["seed"])
    ready = time.monotonic()
    out: Dict[str, object] = {
        "setup_s": ready - args["spawned"],
        "prep_s": ready - prep_started,
    }
    if not args["setup_only"]:
        started = time.perf_counter()
        result = run_grid(state) if kind == "grid" else run_sim(state)
        out["wall_s"] = time.perf_counter() - started
        rows = result.pop("rows")
        out.update(result)
        out["digest"] = rows_digest(rows)
        out["rows"] = len(rows)
        if ledger is not None:
            ledger.uninstall()
            out["ledger"] = ledger.report(out["prep_s"] + out["wall_s"])
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
