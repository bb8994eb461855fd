"""Top-level PTHSEL / PTHSEL+E entry point.

``select_pthreads`` runs the full pipeline the paper describes: profile
the trace (functional cache + branch classification), identify problem
loads, build per-load cost functions (flat for the ORIGINAL target,
criticality-based otherwise), mine slice trees, evaluate and select
candidates per tree under the target's composite objective, and merge
common-trigger selections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import obs
from repro.config import EnergyConfig, MachineConfig, SelectionConfig
from repro.critpath.classify import (
    LoadClassification,
    classify_trace_cached,
    profile_geometry_key,
)
from repro.critpath.loadcost import FlatLoadCost, build_cost_functions
from repro.energy.wattch import EnergyModel
from repro.frontend.trace import Trace
from repro.pthsel.composite import CompositeParams
from repro.pthsel.energy_model import EnergyParams, PthselEnergyModel
from repro.pthsel.latency_model import LatencyModel, LatencyParams
from repro.pthsel.merging import merge_pthreads
from repro.pthsel.pthread import StaticPThread
from repro.pthsel.selector import TreeSelector
from repro.pthsel.targets import Target
from repro.slicer.problem_loads import identify_problem_loads
from repro.slicer.slicetree import build_slice_tree


@dataclass
class BaselineEstimates:
    """Per-application external parameters (L6 and C2).

    ``ipc`` is the unoptimized main thread's sequencing bandwidth
    (BWSEQmt); ``l0`` its execution time in cycles; ``e0`` its energy in
    joules.  These normally come from a baseline simulation; the paper
    notes that in practice only the E0/L0 ratio matters.
    """

    ipc: float
    l0: float
    e0: float


@dataclass
class SelectionResult:
    """The output of one PTHSEL(+E) run."""

    target: Target
    pthreads: List[StaticPThread]
    problem_pcs: List[int]
    classification: LoadClassification
    #: Aggregate model predictions, summed over selected p-threads.
    predicted: Dict[str, float] = field(default_factory=dict)

    @property
    def n_pthreads(self) -> int:
        return len(self.pthreads)

    @property
    def average_length(self) -> float:
        if not self.pthreads:
            return 0.0
        return sum(p.size for p in self.pthreads) / len(self.pthreads)

    def describe(self) -> str:
        lines = [
            f"PTHSEL+E target={self.target.label}: {len(self.pthreads)} "
            f"p-threads over {len(self.problem_pcs)} problem loads "
            f"(avg length {self.average_length:.1f})"
        ]
        lines.extend(p.describe() for p in self.pthreads)
        return "\n".join(lines)


def select_pthreads(
    trace: Trace,
    baseline: BaselineEstimates,
    target: Target = Target.LATENCY,
    machine: Optional[MachineConfig] = None,
    energy: Optional[EnergyConfig] = None,
    selection: Optional[SelectionConfig] = None,
    classification: Optional[LoadClassification] = None,
) -> SelectionResult:
    """Select p-threads for ``trace`` under the given target."""
    machine = machine or MachineConfig()
    energy = energy or EnergyConfig()
    selection = selection or SelectionConfig()
    # Sweep-cell sharing is only sound when the classification is the
    # canonical one for (trace, machine); a caller-supplied profile may
    # have been built differently, so it opts the call out of the memos.
    memo = classification is None
    if classification is None:
        classification = classify_trace_cached(trace, machine)

    problem_pcs = identify_problem_loads(classification, selection)
    obs.counters.counter("pthsel.framework.problem_loads").add(
        len(problem_pcs)
    )
    result = SelectionResult(
        target=target,
        pthreads=[],
        problem_pcs=problem_pcs,
        classification=classification,
    )
    if not problem_pcs:
        return result

    # Cost functions: flat for original PTHSEL, criticality-based for
    # every PTHSEL+E target (Section 4.1).
    if target.uses_flat_load_cost:
        cost_functions = {pc: FlatLoadCost() for pc in problem_pcs}
    else:
        # Cost functions depend on the full machine (latencies drive the
        # dependence-graph passes) but not on the target: the targets of
        # one sweep cell share them.  Values are frozen dataclasses.
        cost_key = ("loadcost", machine.fingerprint, tuple(problem_pcs))
        cost_functions = trace.derived.get(cost_key) if memo else None
        if cost_functions is None:
            cost_functions = build_cost_functions(
                trace, classification, problem_pcs, machine
            )
            if memo:
                trace.derived[cost_key] = cost_functions

    latency_model = LatencyModel(
        LatencyParams.from_machine(machine, baseline.ipc),
        machine,
        classification,
        embedded_latency_factor=selection.embedded_latency_factor,
    )
    energy_constants = EnergyModel(energy, machine).pthsel_constants()
    pth_energy = PthselEnergyModel(
        EnergyParams.from_constants(energy_constants),
        float(machine.width),
        classification,
    )
    composite = CompositeParams(
        l0=baseline.l0, e0=baseline.e0, w=target.composition_weight
    )

    pc_occurrences = trace.pc_occurrence_counts()
    selected_all: List[StaticPThread] = []
    next_id = 0
    totals: Dict[str, float] = {
        "ladv_agg": 0.0,
        "eadv_agg": 0.0,
        "cadv_agg": 0.0,
    }
    # Slice trees depend on the trace and the classification geometry
    # only -- neither latencies nor the target -- so all cells of a
    # latency sweep share one tree per problem load.  TreeSelector
    # treats trees as read-only.
    tree_key = (
        "slicetrees",
        profile_geometry_key(machine),
        selection.slicing_window,
        selection.max_pthread_insts,
    )
    trees: Dict[int, object] = trace.derived.setdefault(tree_key, {}) if memo else {}
    for pc in problem_pcs:
        tree = trees.get(pc)
        if tree is None:
            tree = build_slice_tree(
                trace,
                classification,
                pc,
                window=selection.slicing_window,
                max_insts=selection.max_pthread_insts,
                pc_occurrences=pc_occurrences,
            )
            trees[pc] = tree
        selector = TreeSelector(
            tree,
            latency_model,
            pth_energy,
            composite,
            cost_functions[pc],
            trace.program,
            max_pthread_insts=selection.max_pthread_insts,
            overlap_discount=selection.overlap_discount,
            min_gain_cycles=selection.min_gain_cycles,
            target_label=target.label,
        )
        for candidate in selector.select():
            metrics = candidate.metrics
            ladv = metrics.get("ladv_agg_discounted", metrics["ladv_agg"])
            eadv = metrics.get("eadv_agg_discounted", metrics["eadv_agg"])
            cadv = metrics.get("cadv_agg_discounted", metrics["cadv_agg"])
            totals["ladv_agg"] += ladv
            totals["eadv_agg"] += eadv
            totals["cadv_agg"] += cadv
            selected_all.append(
                StaticPThread(
                    pthread_id=next_id,
                    trigger_pc=candidate.node.pc,
                    body=tuple(candidate.body),
                    target_pcs=(pc,),
                    predicted={
                        "ladv_agg": ladv,
                        "eadv_agg": eadv,
                        "cadv_agg": cadv,
                        "lred": metrics["lred"],
                        "gain": metrics["gain"],
                        "dc_trig": float(candidate.dc_trig),
                        "dc_ptcm": float(candidate.dc_ptcm),
                    },
                )
            )
            next_id += 1

    if selection.merge_triggers:
        selected_all = merge_pthreads(selected_all)
    result.pthreads = selected_all
    result.predicted = totals
    if obs.is_enabled("info"):
        obs.log_event(
            "selection_done",
            target=target.label,
            problem_loads=len(problem_pcs),
            n_pthreads=len(selected_all),
            ladv_agg=round(totals["ladv_agg"], 1),
            eadv_agg=round(totals["eadv_agg"], 4),
        )
    return result
