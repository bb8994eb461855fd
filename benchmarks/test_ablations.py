"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation disables one piece of the selection machinery and measures
the effect on a representative benchmark, demonstrating that the piece
earns its place:

- flat vs criticality load cost (the paper's O-vs-L distinction, run on
  twolf where overlapping misses make the flat model over-select);
- overlap discounting (equation L7) on vs off;
- trigger merging post-pass on vs off;
- interaction-cost averaging: the criticality samples sit between the
  pessimistic-only and optimistic-only estimates.
"""

from conftest import write_report

from repro.config import SelectionConfig
from repro.critpath.classify import classify_trace
from repro.critpath.loadcost import build_cost_functions
from repro.frontend import interpret
from repro.harness.experiment import run_experiment
from repro.harness.report import format_table
from repro.pthsel.targets import Target
from repro.slicer import identify_problem_loads
from repro.workloads import get_program


def test_ablation_flat_vs_criticality_load_cost(run_once, results_dir):
    def run():
        flat = run_experiment("twolf", target=Target.ORIGINAL)
        crit = run_experiment("twolf", target=Target.LATENCY)
        return flat, crit

    flat, crit = run_once(run)
    rows = [
        {"model": "flat (O)", "speedup_pct": flat.speedup_pct,
         "energy_save_pct": flat.energy_save_pct,
         "pinst_increase_pct": flat.diagnostics()["pinst_increase_pct"]},
        {"model": "criticality (L)", "speedup_pct": crit.speedup_pct,
         "energy_save_pct": crit.energy_save_pct,
         "pinst_increase_pct": crit.diagnostics()["pinst_increase_pct"]},
    ]
    write_report(results_dir, "ablation_load_cost",
                 format_table(rows))
    # The criticality model achieves at least the flat model's speedup
    # with no more p-instruction volume.
    assert crit.speedup_pct >= flat.speedup_pct - 1.5
    assert (
        crit.diagnostics()["pinst_increase_pct"]
        <= flat.diagnostics()["pinst_increase_pct"] + 1e-6
    )


def test_ablation_overlap_discount(run_once, results_dir):
    def run():
        on = run_experiment("bzip2", target=Target.LATENCY,
                            selection=SelectionConfig(overlap_discount=True))
        off = run_experiment("bzip2", target=Target.LATENCY,
                             selection=SelectionConfig(overlap_discount=False))
        return on, off

    on, off = run_once(run)
    rows = [
        {"discount": "on", "n_pthreads": on.selection.n_pthreads,
         "speedup_pct": on.speedup_pct,
         "energy_save_pct": on.energy_save_pct},
        {"discount": "off", "n_pthreads": off.selection.n_pthreads,
         "speedup_pct": off.speedup_pct,
         "energy_save_pct": off.energy_save_pct},
    ]
    write_report(results_dir, "ablation_overlap_discount",
                 format_table(rows))
    # Without discounting, overlapping p-threads pile up.
    assert off.selection.n_pthreads >= on.selection.n_pthreads
    assert off.energy_save_pct <= on.energy_save_pct + 1.0


def test_ablation_trigger_merging(run_once, results_dir):
    def run():
        merged = run_experiment("mcf", target=Target.ORIGINAL,
                                selection=SelectionConfig(merge_triggers=True))
        split = run_experiment("mcf", target=Target.ORIGINAL,
                               selection=SelectionConfig(merge_triggers=False))
        return merged, split

    merged, split = run_once(run)
    rows = [
        {"merging": "on", "n_pthreads": merged.selection.n_pthreads,
         "pinst_increase_pct": merged.diagnostics()["pinst_increase_pct"],
         "energy_save_pct": merged.energy_save_pct},
        {"merging": "off", "n_pthreads": split.selection.n_pthreads,
         "pinst_increase_pct": split.diagnostics()["pinst_increase_pct"],
         "energy_save_pct": split.energy_save_pct},
    ]
    write_report(results_dir, "ablation_trigger_merging",
                 format_table(rows))
    # Merging shares the common prefix: never more p-threads, never more
    # executed p-instruction volume.
    assert merged.selection.n_pthreads <= split.selection.n_pthreads
    assert (
        merged.diagnostics()["pinst_increase_pct"]
        <= split.diagnostics()["pinst_increase_pct"] + 1.0
    )


def test_ablation_interaction_averaging(run_once, results_dir):
    """twolf's two contemporaneous gathers: the averaged estimate must
    sit between pessimistic-only and the flat (fully optimistic
    cycle-for-cycle) assumption."""

    def run():
        trace = interpret(get_program("twolf"), max_instructions=2_000_000)
        cls = classify_trace(trace)
        pcs = identify_problem_loads(cls)
        return build_cost_functions(trace, cls, pcs)

    functions = run_once(run)
    rows = []
    for pc, fn in functions.items():
        rows.append({
            "pc": pc,
            "saturation_cycles": fn.saturation,
            "criticality": fn.criticality,
            "miss_latency": fn.miss_latency,
        })
    write_report(results_dir, "ablation_interaction_averaging",
                 format_table(rows))
    for fn in functions.values():
        # Strictly below the flat assumption (some interaction exists)...
        assert fn.saturation < fn.miss_latency
        # ...but well above zero (not the pessimistic collapse).
        assert fn.saturation > 0.05 * fn.miss_latency
