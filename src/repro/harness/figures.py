"""Per-figure/table regenerators.

One function per experiment in the paper's evaluation:

- :func:`figure2`  -- latency and energy breakdowns, unoptimized (N) vs
  original-PTHSEL p-threads (O);
- :func:`figure3`  -- improvements, diagnostics, and breakdowns for the
  O/L/E/P targets across the suite;
- :func:`table3`   -- model validation: actual vs predicted latency,
  energy, and ED reductions;
- :func:`figure4`  -- realistic profiling: select on "ref", run "train";
- :func:`figure5_idle`, :func:`figure5_memory_latency`,
  :func:`figure5_l2_size` -- the three sensitivity studies.

Each returns plain data (lists of dict rows) so benchmarks, examples and
tests can render or assert on them; ``render_*`` helpers produce the
text tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import EnergyConfig, MachineConfig, SelectionConfig
from repro.cpu.stats import BREAKDOWN_CATEGORIES
from repro.harness.experiment import ExperimentResult
from repro.harness.parallel import (
    ExperimentJob,
    GridResult,
    JobFailure,
    run_experiments,
)
from repro.harness.report import (
    format_table,
    geometric_mean_pct,
    visible_columns,
)
from repro.pthsel.targets import Target
from repro.workloads.registry import BENCHMARK_NAMES

#: The three-benchmark subsets the paper's Figure 5 panels show.
FIG5_IDLE_BENCHMARKS = ("gap", "vortex", "vpr.route")
FIG5_MEMLAT_BENCHMARKS = ("gcc", "twolf", "vortex")
FIG5_L2_BENCHMARKS = ("mcf", "twolf", "vortex")
TABLE3_BENCHMARKS = ("gcc", "parser", "vortex", "vpr.place")


def _latency_stack(result: ExperimentResult, run: str) -> Dict[str, float]:
    """A latency breakdown normalized to the baseline run's 100%."""
    measurement = result.baseline if run == "baseline" else result.optimized
    baseline_cycles = result.baseline.cycles or 1
    return {
        c: 100.0 * getattr(measurement.stats.breakdown, c) / baseline_cycles
        for c in BREAKDOWN_CATEGORIES
    }


def _energy_stack(result: ExperimentResult, run: str) -> Dict[str, float]:
    """An energy breakdown normalized to the baseline run's 100%."""
    measurement = result.baseline if run == "baseline" else result.optimized
    return measurement.energy.breakdown.relative_to(result.baseline.joules)


def result_row(result: GridResult) -> Dict[str, object]:
    if isinstance(result, JobFailure):
        # Degraded grids interleave failure rows with result rows; the
        # renderers show them with gaps in the metric columns.
        return result.row()
    row: Dict[str, object] = {
        "benchmark": result.benchmark,
        "target": result.target.label,
        "n_pthreads": result.selection.n_pthreads,
    }
    row.update(result.summary_row())
    # Phase wall-clock timings ride along for machine-readable artifacts;
    # the text renderers filter the ``t_`` columns out.
    row.update(
        {f"t_{k}": round(v, 4) for k, v in result.phase_seconds.items()}
    )
    # Cache provenance (src_result/src_baseline/src_optimized): lets
    # consumers tell simulated rows from cache-served ones instead of
    # inferring it from zero phase walls.  getattr: results unpickled
    # from caches written before the field existed.
    row.update(
        {
            f"src_{layer}": src
            for layer, src in (
                getattr(result, "provenance", None) or {}
            ).items()
        }
    )
    return row


@dataclass
class FigureData:
    """Rows plus per-run breakdown stacks for one figure."""

    rows: List[Dict[str, object]] = field(default_factory=list)
    latency_stacks: List[Dict[str, object]] = field(default_factory=list)
    energy_stacks: List[Dict[str, object]] = field(default_factory=list)

    def gmeans(self, metric: str = "speedup_pct") -> Dict[str, float]:
        """Geometric-mean improvement per target across benchmarks.

        Failure rows carry no metrics and are skipped: a degraded grid
        still summarizes, over the cells that completed.
        """
        by_target: Dict[str, List[float]] = {}
        for row in self.rows:
            if row.get("failed") or metric not in row:
                continue
            by_target.setdefault(str(row["target"]), []).append(
                float(row[metric])
            )
        return {t: geometric_mean_pct(v) for t, v in by_target.items()}

    def render(self) -> str:
        if not self.rows:
            return format_table(self.rows)
        return format_table(self.rows, columns=visible_columns(self.rows))


def _collect(
    benchmarks: Sequence[str],
    targets: Sequence[Target],
    profile_input: str = "train",
    machine: Optional[MachineConfig] = None,
    energy: Optional[EnergyConfig] = None,
    selection: Optional[SelectionConfig] = None,
    with_stacks: bool = True,
    jobs: Optional[int] = None,
) -> FigureData:
    grid = [
        ExperimentJob(
            benchmark,
            target=target,
            profile_input=profile_input,
            machine=machine,
            energy=energy,
            selection=selection,
        )
        for benchmark in benchmarks
        for target in targets
    ]
    results = run_experiments(grid, n_jobs=jobs)
    data = FigureData()
    by_benchmark: Dict[str, List[ExperimentResult]] = {}
    for job, result in zip(grid, results):
        data.rows.append(result_row(result))
        if isinstance(result, JobFailure):
            continue  # no stacks for a cell that never produced stats
        by_benchmark.setdefault(job.benchmark, []).append(result)
    if with_stacks:
        for benchmark in benchmarks:
            first = True
            for result in by_benchmark.get(benchmark, ()):
                if first:
                    data.latency_stacks.append(
                        {"benchmark": benchmark, "run": "N",
                         **_latency_stack(result, "baseline")}
                    )
                    data.energy_stacks.append(
                        {"benchmark": benchmark, "run": "N",
                         **_energy_stack(result, "baseline")}
                    )
                    first = False
                data.latency_stacks.append(
                    {"benchmark": benchmark, "run": result.target.label,
                     **_latency_stack(result, "optimized")}
                )
                data.energy_stacks.append(
                    {"benchmark": benchmark, "run": result.target.label,
                     **_energy_stack(result, "optimized")}
                )
    return data


# --------------------------------------------------------------------- #
# Figure 2: energy-blind pre-execution (N vs O).
# --------------------------------------------------------------------- #


def figure2(
    benchmarks: Sequence[str] = BENCHMARK_NAMES,
    machine: Optional[MachineConfig] = None,
    energy: Optional[EnergyConfig] = None,
    jobs: Optional[int] = None,
) -> FigureData:
    """Latency and energy breakdowns for unoptimized execution and
    original-PTHSEL (energy-blind, flat-cost) pre-execution."""
    return _collect(benchmarks, (Target.ORIGINAL,), machine=machine,
                    energy=energy, jobs=jobs)


# --------------------------------------------------------------------- #
# Figure 3: retargeting with PTHSEL+E.
# --------------------------------------------------------------------- #


def figure3(
    benchmarks: Sequence[str] = BENCHMARK_NAMES,
    targets: Sequence[Target] = (
        Target.ORIGINAL,
        Target.LATENCY,
        Target.ENERGY,
        Target.ED,
    ),
    machine: Optional[MachineConfig] = None,
    energy: Optional[EnergyConfig] = None,
    jobs: Optional[int] = None,
) -> FigureData:
    """The paper's central study: O/L/E/P p-threads across the suite."""
    return _collect(benchmarks, targets, machine=machine, energy=energy,
                    jobs=jobs)


# --------------------------------------------------------------------- #
# Figure 4: robustness to profiling data.
# --------------------------------------------------------------------- #


def figure4(
    benchmarks: Sequence[str] = BENCHMARK_NAMES,
    targets: Sequence[Target] = (Target.LATENCY, Target.ENERGY, Target.ED),
    jobs: Optional[int] = None,
) -> FigureData:
    """Realistic profiling: p-threads selected from "ref" profiles drive
    "train" runs."""
    return _collect(benchmarks, targets, profile_input="ref",
                    with_stacks=False, jobs=jobs)


# --------------------------------------------------------------------- #
# Table 3: model validation.
# --------------------------------------------------------------------- #


def table3(
    benchmarks: Sequence[str] = TABLE3_BENCHMARKS,
    target: Target = Target.LATENCY,
    jobs: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Actual / predicted ratios for latency, energy, and ED reductions.

    Ratios near 1 mean the PTHSEL+E models predict the simulated effect
    well; below 1 means over-estimation (the paper reports 0.64-0.93 for
    latency with the criticality model).
    """
    grid = [
        ExperimentJob(benchmark, target=target) for benchmark in benchmarks
    ]
    results = run_experiments(grid, n_jobs=jobs)
    rows: List[Dict[str, object]] = []
    for benchmark, result in zip(benchmarks, results):
        if isinstance(result, JobFailure):
            rows.append(result.row())
            continue
        predicted = result.selection.predicted
        base = result.baseline
        opt = result.optimized

        actual_latency = float(base.cycles - opt.cycles)
        actual_energy = base.joules - opt.joules
        actual_ed = base.joules * base.cycles - opt.joules * opt.cycles

        ladv = predicted.get("ladv_agg", 0.0)
        eadv = predicted.get("eadv_agg", 0.0)
        # The predicted ED reduction follows from the additive LADV/EADV
        # totals (equation C3): predicted ED' = (L0-LADV)*(E0-EADV).
        l0, e0 = float(base.cycles), base.joules
        predicted_ed_reduction = l0 * e0 - max(l0 - ladv, 0.0) * max(
            e0 - eadv, 0.0
        )

        rows.append(
            {
                "benchmark": benchmark,
                "latency_ratio": (
                    actual_latency / ladv if ladv else float("nan")
                ),
                "energy_ratio": (
                    actual_energy / eadv if eadv else float("nan")
                ),
                "ed_ratio": (
                    actual_ed / predicted_ed_reduction
                    if predicted_ed_reduction
                    else float("nan")
                ),
            }
        )
    return rows


# --------------------------------------------------------------------- #
# Figure 5: sensitivity studies.
# --------------------------------------------------------------------- #


def _sweep(
    grid: List[ExperimentJob], jobs: Optional[int]
) -> List[Dict[str, object]]:
    """Run a tagged job grid and return rows with the tag columns."""
    rows: List[Dict[str, object]] = []
    for job, result in zip(grid, run_experiments(grid, n_jobs=jobs)):
        row = result_row(result)
        row.update(job.tag)  # failure rows already carry it; idempotent
        rows.append(row)
    return rows


def figure5_idle(
    benchmarks: Sequence[str] = FIG5_IDLE_BENCHMARKS,
    factors: Sequence[float] = (0.0, 0.05, 0.10),
    targets: Sequence[Target] = (Target.LATENCY, Target.ENERGY, Target.ED),
    jobs: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Idle energy factor sweep (Figure 5 top)."""
    grid = [
        ExperimentJob(
            benchmark,
            target=target,
            energy=EnergyConfig().with_idle_factor(factor),
            tag={"idle_factor": factor},
        )
        for factor in factors
        for benchmark in benchmarks
        for target in targets
    ]
    return _sweep(grid, jobs)


def figure5_memory_latency(
    benchmarks: Sequence[str] = FIG5_MEMLAT_BENCHMARKS,
    latencies: Sequence[int] = (100, 200, 300),
    targets: Sequence[Target] = (Target.LATENCY, Target.ENERGY, Target.ED),
    jobs: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Memory latency sweep (Figure 5 middle)."""
    grid = [
        ExperimentJob(
            benchmark,
            target=target,
            machine=MachineConfig().with_memory_latency(latency),
            tag={"memory_latency": latency},
        )
        for latency in latencies
        for benchmark in benchmarks
        for target in targets
    ]
    return _sweep(grid, jobs)


def figure5_l2_size(
    benchmarks: Sequence[str] = FIG5_L2_BENCHMARKS,
    sizes: Sequence[Tuple[int, int]] = (
        (128 * 1024, 10),
        (256 * 1024, 12),
        (512 * 1024, 15),
    ),
    targets: Sequence[Target] = (Target.LATENCY, Target.ENERGY, Target.ED),
    jobs: Optional[int] = None,
) -> List[Dict[str, object]]:
    """L2 size/latency sweep (Figure 5 bottom)."""
    grid = [
        ExperimentJob(
            benchmark,
            target=target,
            machine=MachineConfig().scaled_l2(size_bytes, hit_latency),
            tag={"l2_kb": size_bytes // 1024, "l2_latency": hit_latency},
        )
        for size_bytes, hit_latency in sizes
        for benchmark in benchmarks
        for target in targets
    ]
    return _sweep(grid, jobs)
