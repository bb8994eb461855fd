"""End-to-end experiment runner.

One experiment is the paper's basic unit of evaluation: profile a
benchmark, select p-threads with PTHSEL(+E) under some target, augment
the program, run baseline and augmented timing+energy simulations, and
report relative latency/energy/ED metrics plus the pre-execution
diagnostics of Figure 3.

A ``None`` config means the paper's default.  A config that is passed
in is already checked: each config validates every field when it is
built, so an invalid one never reaches a simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro import obs
from repro.config import (
    EnergyConfig,
    MachineConfig,
    SelectionConfig,
    SimulationConfig,
)
from repro.cpu.pipeline import simulate
from repro.cpu.stats import SimStats
from repro.ddmt.augment import AugmentedProgram, expand_pthreads
from repro.energy.metrics import relative_metrics
from repro.energy.wattch import EnergyModel, EnergyResult
from repro.frontend import tracestore
from repro.frontend.trace import Trace
from repro.harness import simcache
from repro.pthsel.framework import (
    BaselineEstimates,
    SelectionResult,
    select_pthreads,
)
from repro.pthsel.targets import Target
from repro.workloads.registry import get_program


@dataclass
class RunMeasurement:
    """One timing + energy measurement."""

    stats: SimStats
    energy: EnergyResult

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def joules(self) -> float:
        return self.energy.total_joules


@dataclass
class ExperimentResult:
    """Everything one (benchmark, target) experiment produced."""

    benchmark: str
    target: Target
    baseline: RunMeasurement
    optimized: RunMeasurement
    selection: SelectionResult
    metrics: Dict[str, float]
    #: Wall-clock seconds per harness phase (profile/select/augment/...),
    #: collected by :func:`run_experiment` via ``obs.span``.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Where each layer of this result came from -- ``result``:
    #: computed|simcache, ``baseline``: simulated|memo|batch|simcache,
    #: ``optimized``: simulated|memo, ``trace``: interpreted|memo (did
    #: this run pay for interpretation, or was the trace served from the
    #: per-process :mod:`repro.frontend.tracestore`?).  Rows expose
    #: these as ``src_*`` columns so cached cells are distinguishable
    #: from simulated ones, and a ``t_trace`` of 0.0 is explainable.
    provenance: Dict[str, str] = field(default_factory=dict)

    @property
    def speedup_pct(self) -> float:
        return self.metrics["speedup_pct"]

    @property
    def energy_save_pct(self) -> float:
        return self.metrics["energy_save_pct"]

    @property
    def ed_save_pct(self) -> float:
        return self.metrics["ed_save_pct"]

    @property
    def ed2_save_pct(self) -> float:
        return self.metrics["ed2_save_pct"]

    def diagnostics(self) -> Dict[str, float]:
        """The Figure 3 second-panel quantities."""
        opt = self.optimized.stats
        base_misses = max(1, self.baseline.stats.demand_l2_misses)
        return {
            "full_coverage_pct": 100.0 * opt.covered_misses_full / base_misses,
            "partial_coverage_pct": 100.0
            * opt.covered_misses_partial
            / base_misses,
            "pinst_increase_pct": 100.0 * opt.pinst_increase,
            "usefulness_pct": 100.0 * opt.usefulness,
            "avg_pthread_length": self.selection.average_length,
            "spawns": float(opt.spawns_started),
        }

    def summary_row(self) -> Dict[str, float]:
        row = {
            "speedup_pct": round(self.speedup_pct, 2),
            "energy_save_pct": round(self.energy_save_pct, 2),
            "ed_save_pct": round(self.ed_save_pct, 2),
            "ed2_save_pct": round(self.ed2_save_pct, 2),
        }
        row.update({k: round(v, 2) for k, v in self.diagnostics().items()})
        return row


# --------------------------------------------------------------------- #
# Baseline sharing: sensitivity sweeps re-simulate the same baseline for
# several targets.  Two layers:
#
# - the trace itself: ``trace.derived[("baseline", machine fingerprint)]``
#   holds the stats, so they live and die with the trace in
#   :mod:`repro.frontend.tracestore`, which keys traces by the workload's
#   *content* fingerprint -- two programs registered under the same
#   benchmark name can never alias;
# - the persistent :mod:`repro.harness.simcache`, holding the SimStats
#   only (traces are cheap to re-interpret, expensive to store), shared
#   across processes and CLI invocations.
# --------------------------------------------------------------------- #

_CACHE_HITS = obs.counters.counter("harness.experiment.baseline_cache.hits")
_CACHE_MISSES = obs.counters.counter(
    "harness.experiment.baseline_cache.misses"
)


def _baseline_slot(machine: MachineConfig) -> Tuple[str, str]:
    """The ``trace.derived`` key of one machine's baseline stats.  Its
    value is ``(stats, adopted)``; ``adopted`` marks stats the batch
    prewarm (:mod:`repro.harness.batchplan`) installed, whose rows carry
    ``src_baseline == "batch"``."""
    return ("baseline", machine.fingerprint)


def _baseline_material(
    benchmark: str,
    input_name: str,
    program_fp: str,
    machine: MachineConfig,
    sim: SimulationConfig,
) -> Dict[str, object]:
    """Disk-cache key material for one baseline timing simulation."""
    return {
        "kind": "baseline_stats",
        "benchmark": benchmark,
        "input": input_name,
        "program": program_fp,
        "machine": machine.fingerprint,
        "max_instructions": sim.max_instructions,
    }


def _baseline_sim(
    benchmark: str,
    input_name: str,
    machine: MachineConfig,
    sim: SimulationConfig,
) -> Tuple[Trace, SimStats, Dict[str, float]]:
    """Trace + baseline stats + cold phase walls ({"trace": s, "sim": s}).

    The phase walls are 0.0 for work served from a cache (the trace
    memo, the stats on the trace, or the persistent stats cache): they
    measure what *this call* built, which is what a cold-path phase
    breakdown wants.  The dict also carries ``src`` (where the *stats*
    came from) and ``src_trace`` (``"interpreted"`` when this call ran
    the interpreter, ``"memo"`` otherwise) so a zero wall is always
    explainable.
    """
    program = get_program(benchmark, input_name)
    # The trace is machine-independent: the per-process memo shares it
    # across every (machine, target) cell of a sweep.
    trace, t_trace, trace_src = tracestore.get_trace_tagged(
        program, sim.max_instructions
    )
    slot = _baseline_slot(machine)
    held = trace.derived.get(slot)
    if held is not None:
        _CACHE_HITS.add()
        stats, adopted = held
        return trace, stats, {
            "trace": 0.0, "sim": 0.0, "src": "batch" if adopted else "memo",
            "src_trace": "memo",
        }
    _CACHE_MISSES.add()
    disk = simcache.get_cache()
    material = _baseline_material(
        benchmark, input_name, program.fingerprint(), machine, sim
    )
    with obs.span("baseline_sim", benchmark=benchmark,
                  input=input_name) as sp:
        t_sim = 0.0
        src = "simcache"
        stats: Optional[SimStats] = None
        if disk is not None:
            cached = disk.get(material)
            if isinstance(cached, SimStats):
                stats = cached
        if stats is None:
            src = "simulated"
            with obs.span("timing_sim") as sim_sp:
                stats = simulate(trace, machine)
            t_sim = sim_sp.wall_s
            if disk is not None:
                disk.put(material, stats)
        sp.annotate(cycles=stats.cycles, committed=stats.committed)
    trace.derived[slot] = (stats, False)
    return trace, stats, {
        "trace": t_trace, "sim": t_sim, "src": src, "src_trace": trace_src,
    }


def warm_baseline(
    benchmark: str,
    input_name: str = "train",
    machine: Optional[MachineConfig] = None,
    sim: Optional[SimulationConfig] = None,
) -> SimStats:
    """Ensure one baseline simulation is cached (on its trace and on
    disk); returns its stats.  The parallel engine fans these out before
    dispatching full experiments so identical baselines are simulated
    exactly once."""
    _, stats, _ = _baseline_sim(
        benchmark,
        input_name,
        machine or MachineConfig(),
        sim or SimulationConfig(),
    )
    return stats


_RESULT_HITS = obs.counters.counter("harness.experiment.result_cache.hits")
_RESULT_MISSES = obs.counters.counter(
    "harness.experiment.result_cache.misses"
)


def baseline_cached(
    benchmark: str,
    input_name: str,
    machine: MachineConfig,
    sim: SimulationConfig,
) -> bool:
    """Whether a baseline simulation is already served without running.

    Probes the trace the store already holds (never interpreting) and
    the persistent cache (existence only, no deserialization).  The
    batch planner uses this to skip members of a shared-trace group that
    a previous run, journal resume, or earlier group already produced.
    """
    program = get_program(benchmark, input_name)
    trace = tracestore.peek(program, sim.max_instructions)
    if trace is not None and _baseline_slot(machine) in trace.derived:
        return True
    disk = simcache.get_cache()
    if disk is None:
        return False
    return disk.contains(
        _baseline_material(
            benchmark, input_name, program.fingerprint(), machine, sim
        )
    )


def adopt_baseline(
    benchmark: str,
    input_name: str,
    machine: MachineConfig,
    sim: SimulationConfig,
    trace: Trace,
    stats: SimStats,
) -> None:
    """Install a batch-prewarmed baseline simulation on its trace.

    The lock-step pass (:mod:`repro.harness.batchplan`) produces stats
    bit-identical to what :func:`_baseline_sim` would have computed for
    the same ``(trace, machine)``; adopting them (and writing them to
    the persistent cache, when enabled) makes per-cell experiments
    cache hits whose rows say ``batch``.
    """
    disk = simcache.get_cache()
    if disk is not None:
        program_fp = get_program(benchmark, input_name).fingerprint()
        disk.put(
            _baseline_material(benchmark, input_name, program_fp, machine, sim),
            stats,
        )
    trace.derived[_baseline_slot(machine)] = (stats, True)


# --------------------------------------------------------------------- #
# Optimized-run sharing: a sweep frequently selects the *same* p-thread
# set in several cells (e.g. two targets agreeing at one latency, or one
# target agreeing across latencies).  The augmented expansion depends
# only on (run trace, p-threads) -- not the machine -- and the optimized
# timing run additionally on the machine, so both live on the run trace
# at exactly that granularity:
# ``run_trace.derived[("augment", signature)]`` and
# ``run_trace.derived[("optimized", machine fingerprint, signature)]``.
# Keyed by p-thread *content*, never by how the set was selected.
# --------------------------------------------------------------------- #

_AUG_HITS = obs.counters.counter("harness.experiment.aug_cache.hits")
_OPT_HITS = obs.counters.counter("harness.experiment.opt_cache.hits")


def _pthread_signature(pthreads) -> Tuple:
    """Content signature of a selected p-thread set: everything the
    expansion and the timing simulation can observe."""
    return tuple(
        (
            p.pthread_id,
            p.trigger_pc,
            p.hint_offset,
            p.target_pcs,
            tuple(
                (i.pc, i.op.value, i.rd, i.rs1, i.rs2, i.imm, i.target)
                for i in p.body
            ),
        )
        for p in pthreads
    )


def run_baseline(
    benchmark: str,
    input_name: str = "train",
    machine: Optional[MachineConfig] = None,
    energy: Optional[EnergyConfig] = None,
    sim: Optional[SimulationConfig] = None,
) -> RunMeasurement:
    """Simulate a benchmark without pre-execution."""
    machine = machine or MachineConfig()
    energy = energy or EnergyConfig()
    sim = sim or SimulationConfig()
    _, stats, _ = _baseline_sim(benchmark, input_name, machine, sim)
    model = EnergyModel(energy, machine)
    return RunMeasurement(stats=stats, energy=model.evaluate(stats.activity))


def run_experiment(
    benchmark: str,
    target: Target = Target.LATENCY,
    profile_input: str = "train",
    run_input: str = "train",
    machine: Optional[MachineConfig] = None,
    energy: Optional[EnergyConfig] = None,
    selection: Optional[SelectionConfig] = None,
    sim: Optional[SimulationConfig] = None,
    include_branch_pthreads: bool = False,
) -> ExperimentResult:
    """Profile, select, augment, and measure one benchmark.

    ``profile_input`` is the input set PTHSEL mines p-threads from;
    ``run_input`` is the input the augmented program runs on.  The paper's
    primary study uses ideal profiling (both "train"); the Figure 4
    robustness study profiles on "ref" and runs on "train".

    ``include_branch_pthreads`` additionally selects branch-outcome
    p-threads (the paper's Section 7 extension) alongside the load
    prefetching ones.
    """
    machine = machine or MachineConfig()
    energy = energy or EnergyConfig()
    selection = selection or SelectionConfig()
    sim = sim or SimulationConfig()

    # Whole-result persistent cache: an experiment is a deterministic
    # function of workload content + configuration, so a warm cache
    # answers repeat sweep cells without simulating anything.
    disk = simcache.get_cache()
    material: Optional[Dict[str, object]] = None
    if disk is not None:
        run_fp = get_program(benchmark, run_input).fingerprint()
        profile_fp = (
            run_fp
            if profile_input == run_input
            else get_program(benchmark, profile_input).fingerprint()
        )
        material = {
            "kind": "experiment",
            "benchmark": benchmark,
            "target": target.label,
            "profile_input": profile_input,
            "run_input": run_input,
            "run_program": run_fp,
            "profile_program": profile_fp,
            "machine": machine.fingerprint,
            "energy": energy.fingerprint,
            "selection": selection.fingerprint,
            "simulation": sim.fingerprint,
            "branch_pthreads": include_branch_pthreads,
        }
        cached = disk.get(material)
        if isinstance(cached, ExperimentResult):
            _RESULT_HITS.add()
            obs.log_event(
                "experiment_cached",
                benchmark=benchmark,
                target=target.label,
            )
            # Re-stamp provenance: whatever the original run built, this
            # call served the whole result from the persistent cache.
            # (getattr: entries pickled before the field existed.)
            provenance = dict(getattr(cached, "provenance", None) or {})
            provenance["result"] = "simcache"
            cached.provenance = provenance
            return cached
        _RESULT_MISSES.add()

    model = EnergyModel(energy, machine)
    phase_seconds: Dict[str, float] = {}

    with obs.span("experiment", benchmark=benchmark,
                  target=target.label) as sp_total:
        # Baseline measurement on the run input.
        with obs.span("baseline") as sp:
            run_trace, run_stats, base_phases = _baseline_sim(
                benchmark, run_input, machine, sim
            )
            baseline = RunMeasurement(
                stats=run_stats, energy=model.evaluate(run_stats.activity)
            )
        phase_seconds["baseline"] = sp.wall_s
        t_trace = base_phases["trace"]
        t_sim = base_phases["sim"]
        src_trace = base_phases.get("src_trace", "memo")

        # Profile (possibly a different input) supplies the selection inputs.
        with obs.span("profile", input=profile_input) as sp:
            if profile_input == run_input:
                profile_trace, profile_stats = run_trace, run_stats
            else:
                profile_trace, profile_stats, profile_phases = (
                    _baseline_sim(benchmark, profile_input, machine, sim)
                )
                t_trace += profile_phases["trace"]
                t_sim += profile_phases["sim"]
                if profile_phases.get("src_trace") == "interpreted":
                    # t_trace includes the profile interpretation: the
                    # row must not claim a pure memo hit.
                    src_trace = "interpreted"
            profile_energy = model.evaluate(profile_stats.activity)
            estimates = BaselineEstimates(
                ipc=profile_stats.ipc,
                l0=float(profile_stats.cycles),
                e0=profile_energy.total_joules,
            )
        phase_seconds["profile"] = sp.wall_s

        with obs.span("select") as sp:
            result = select_pthreads(
                profile_trace,
                estimates,
                target=target,
                machine=machine,
                energy=energy,
                selection=selection,
            )
            if include_branch_pthreads:
                from repro.pthsel.branches import select_branch_pthreads

                branch_result = select_branch_pthreads(
                    profile_trace,
                    estimates,
                    target=target,
                    machine=machine,
                    energy=energy,
                    selection=selection,
                    classification=result.classification,
                )
                result.pthreads = result.pthreads + branch_result.pthreads
                for key, value in branch_result.predicted.items():
                    result.predicted[key] = (
                        result.predicted.get(key, 0.0) + value
                    )
            sp.annotate(n_pthreads=result.n_pthreads)
        phase_seconds["select"] = sp.wall_s

        # Augment the run program and measure.  Both layers live on the
        # run trace, shared across sweep cells that selected an identical
        # p-thread set: the expansion machine-independently, the timing
        # run per machine.  The replay adopts the run trace, whichever
        # input the p-threads were profiled on.
        with obs.span("augment") as sp:
            signature = _pthread_signature(result.pthreads)
            aug_slot = ("augment", signature)
            opt_slot = ("optimized", machine.fingerprint, signature)
            opt_stats: Optional[SimStats] = run_trace.derived.get(opt_slot)
            augmented: Optional[AugmentedProgram] = None
            if opt_stats is not None:
                _OPT_HITS.add()
            else:
                augmented = run_trace.derived.get(aug_slot)
                if augmented is not None:
                    _AUG_HITS.add()
                else:
                    augmented = expand_pthreads(
                        get_program(benchmark, run_input),
                        result.pthreads,
                        max_instructions=sim.max_instructions,
                        reference_trace=run_trace,
                    )
                    run_trace.derived[aug_slot] = augmented
        phase_seconds["augment"] = 0.0 if opt_stats is not None else sp.wall_s
        opt_cached = opt_stats is not None

        with obs.span("simulate") as sp:
            if opt_stats is None:
                opt_stats = simulate(
                    augmented.trace, machine, augmented.pthreads
                )
                run_trace.derived[opt_slot] = opt_stats
            optimized = RunMeasurement(
                stats=opt_stats, energy=model.evaluate(opt_stats.activity)
            )
            sp.annotate(cycles=opt_stats.cycles,
                        committed=opt_stats.committed)
        phase_seconds["simulate"] = 0.0 if opt_cached else sp.wall_s
        # Cold-path breakdown: what this run actually built (0.0 when a
        # layer was served from cache).  "trace" is interpretation,
        # "analysis" the PTHSEL selection pass, "sim" the timing runs.
        phase_seconds["trace"] = t_trace
        phase_seconds["analysis"] = phase_seconds["select"]
        phase_seconds["sim"] = t_sim + phase_seconds["simulate"]

        metrics = relative_metrics(
            base_delay=float(baseline.cycles),
            base_energy=baseline.joules,
            new_delay=float(optimized.cycles),
            new_energy=optimized.joules,
        )
        sp_total.annotate(
            cycles=opt_stats.cycles,
            speedup_pct=round(metrics["speedup_pct"], 2),
        )
    phase_seconds["total"] = sp_total.wall_s
    experiment = ExperimentResult(
        benchmark=benchmark,
        target=target,
        baseline=baseline,
        optimized=optimized,
        selection=result,
        metrics=metrics,
        phase_seconds=phase_seconds,
        provenance={
            "result": "computed",
            "baseline": base_phases.get("src", "simulated"),
            "optimized": "memo" if opt_cached else "simulated",
            "trace": src_trace,
        },
    )
    if disk is not None and material is not None:
        disk.put(material, experiment)
    return experiment
