"""Figure 2: latency and energy breakdowns of energy-blind pre-execution.

Regenerates both panels: per-benchmark critical-path (latency) and energy
stacks for unoptimized execution (N) and original-PTHSEL p-threads (O),
normalized to N = 100%.  The paper's headline for this figure: O-p-threads
improve performance by ~13.8% while increasing energy by ~11.9% -- a
quasi-linear latency/energy trade-off.
"""

from conftest import row_table, write_report

from repro.cpu.stats import BREAKDOWN_CATEGORIES
from repro.energy.breakdown import CATEGORIES as ENERGY_CATEGORIES
from repro.harness.figures import figure2
from repro.harness.report import format_table, geometric_mean_pct


def test_figure2_breakdowns(run_once, results_dir):
    data = run_once(figure2)

    lines = ["== Figure 2: improvements with O-p-threads =="]
    lines.append(row_table(data.rows))
    lines.append("")
    lines.append("== Latency breakdown stacks (baseline = 100) ==")
    lines.append(
        format_table(data.latency_stacks,
                     columns=["benchmark", "run", *BREAKDOWN_CATEGORIES],
                     float_digits=1)
    )
    lines.append("")
    lines.append("== Energy breakdown stacks (baseline = 100) ==")
    lines.append(
        format_table(data.energy_stacks,
                     columns=["benchmark", "run", *ENERGY_CATEGORIES],
                     float_digits=1)
    )
    speedups = data.gmeans("speedup_pct")["O"]
    energy = data.gmeans("energy_save_pct")["O"]
    lines.append("")
    lines.append(
        f"GMean: speedup {speedups:+.1f}% energy {energy:+.1f}% "
        f"(paper: +13.8% / -11.9%)"
    )
    write_report(results_dir, "fig2_pthsel_breakdowns", "\n".join(lines))

    # Shape assertions: pre-execution helps latency, costs energy.
    assert speedups > 5.0
    assert energy < 2.0
    # Every baseline latency stack sums to ~100.
    for stack in data.latency_stacks:
        if stack["run"] == "N":
            total = sum(stack[c] for c in BREAKDOWN_CATEGORIES)
            assert abs(total - 100.0) < 1.0
