"""Figure 3: retargeting p-thread selection with PTHSEL+E.

Regenerates all four panels for the O/L/E/P targets: metric improvements,
pre-execution diagnostics (coverage, p-instruction increase, usefulness,
average p-thread length), and the latency/energy breakdown stacks.

Paper headline shapes this reproduces:
- L-p-threads: best performance (paper +16.4%) at moderate energy cost;
- E-p-threads: lowest coverage/overhead, energy-neutral or saving;
- P (ED)-p-threads: between the two, best or near-best ED;
- O-p-threads: similar latency to L but consistently worse energy.
"""

from conftest import row_table, write_report

from repro.cpu.stats import BREAKDOWN_CATEGORIES
from repro.energy.breakdown import CATEGORIES as ENERGY_CATEGORIES
from repro.harness.figures import figure3
from repro.harness.report import format_table


def test_figure3_retargeting(run_once, results_dir):
    data = run_once(figure3)

    lines = ["== Figure 3: O/L/E/P targets across the suite =="]
    lines.append(row_table(data.rows))
    lines.append("")
    for metric in ("speedup_pct", "energy_save_pct", "ed_save_pct"):
        lines.append(f"GMean {metric}: " + "  ".join(
            f"{t}={v:+.1f}%" for t, v in data.gmeans(metric).items()
        ))
    lines.append("")
    lines.append("== Latency stacks ==")
    lines.append(format_table(
        data.latency_stacks,
        columns=["benchmark", "run", *BREAKDOWN_CATEGORIES],
        float_digits=1,
    ))
    lines.append("")
    lines.append("== Energy stacks ==")
    lines.append(format_table(
        data.energy_stacks,
        columns=["benchmark", "run", *ENERGY_CATEGORIES],
        float_digits=1,
    ))
    write_report(results_dir, "fig3_retargeting", "\n".join(lines))

    speed = data.gmeans("speedup_pct")
    energy = data.gmeans("energy_save_pct")

    # Metric robustness (the paper's Section 5.1 summary): the latency
    # target wins latency; the energy target wins energy.
    assert speed["L"] >= speed["E"]
    assert energy["E"] >= energy["L"]
    assert energy["E"] >= energy["O"]
    # Energy-blind selection is the most energy-hungry.
    assert energy["O"] <= energy["L"]
    # E-p-threads are roughly energy-neutral or better (paper: +0.7%).
    assert energy["E"] > -2.0
