"""Self-contained HTML run reports (``repro report``).

Renders a single ``report.html`` from the machine-readable artifacts an
evaluation command left in its ``--out`` directory:

- ``manifest.json``      -- provenance header (command, argv, versions,
  configuration fingerprints, wall time);
- ``results.jsonl``      -- the per-(benchmark, target) result table,
  the phase-timing stacks and any load-test rows, read through
  :func:`~repro.obs.manifest.read_runs` (so a torn last line is
  dropped).  A directory reused by several runs shows the manifest's
  run, so the header and the tables describe the same run.

The output is deliberately dependency-free: inline CSS, no JavaScript,
no external fonts or images, so the file can be archived as a CI
artifact and opened anywhere (including the GitHub artifact viewer).
"""

from __future__ import annotations

import html
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigError
from repro.obs.manifest import (
    MANIFEST_NAME,
    RESULTS_NAME,
    STAMPED_KEYS,
    read_manifest,
    read_runs,
)

REPORT_NAME = "report.html"

#: Phase-timing palette (cycled over whatever ``t_*`` columns exist).
PHASE_PALETTE = (
    "#1e88e5", "#43a047", "#fb8c00", "#8e24aa", "#00897b",
    "#e53935", "#6d4c41", "#3949ab",
)

#: Result columns shown first, in this order, when present.
LEAD_COLUMNS = (
    "benchmark", "target", "n_pthreads", "speedup_pct",
    "energy_save_pct", "ed_save_pct", "ed2_save_pct",
    "avg_pthread_length", "spawns", "full_coverage_pct",
    "partial_coverage_pct", "usefulness_pct",
)


@dataclass
class RunData:
    """Everything ``render_report`` reads from a run directory."""

    run_dir: str
    manifest: Optional[Dict[str, Any]] = None
    rows: List[Dict[str, Any]] = field(default_factory=list)


def load_run(run_dir: str) -> RunData:
    """Read manifest and the result rows of one run; loud when neither
    exists.

    The run shown is the manifest's (the one its ``run`` row belongs
    to) or, without a manifest, the last run written.  A directory
    holding neither a manifest nor results is almost always a typo'd
    path, so that raises :class:`~repro.errors.ConfigError`; any one
    artifact missing on its own just leaves its section out.
    """
    rows = read_runs([run_dir]) if os.path.isdir(run_dir) else []
    data = RunData(run_dir=run_dir, manifest=read_manifest(run_dir) or None)
    shown = next(
        (row["run_id"] for row in rows if row["kind"] == "run"),
        rows[-1]["run_id"] if rows else None,
    )
    data.rows = [
        row for row in rows
        if row["kind"] == "result" and row["run_id"] == shown
    ]
    if data.manifest is None and not data.rows:
        raise ConfigError(
            f"no run artifacts in {run_dir!r}: expected "
            f"{MANIFEST_NAME} and/or {RESULTS_NAME} "
            "(was this directory written with --out?)"
        )
    return data


# --------------------------------------------------------------------- #
# HTML building blocks.
# --------------------------------------------------------------------- #


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:,.4g}"
    return _esc(value)


def _stack_bar(
    parts: Sequence[Any],
    title: str = "",
) -> str:
    """A horizontal 100%-stacked bar from ``(name, fraction, color)``."""
    cells = []
    for name, frac, color in parts:
        pct = 100.0 * frac
        if pct <= 0.0:
            continue
        cells.append(
            f'<span class="seg" style="width:{pct:.3f}%;'
            f'background:{color}" title="{_esc(name)}: {pct:.2f}%">'
            "</span>"
        )
    return (
        f'<div class="stack" title="{_esc(title)}">' + "".join(cells)
        + "</div>"
    )


def _legend(items: Sequence[Any]) -> str:
    chips = "".join(
        f'<span class="chip"><span class="swatch" '
        f'style="background:{color}"></span>{_esc(name)}</span>'
        for name, color in items
    )
    return f'<div class="legend">{chips}</div>'


def _table(rows: List[Dict[str, Any]], columns: Sequence[str]) -> str:
    head = "".join(f"<th>{_esc(c)}</th>" for c in columns)
    body = []
    for row in rows:
        cells = "".join(
            f"<td>{_fmt(row[c]) if c in row else ''}</td>" for c in columns
        )
        cls = ' class="failed"' if row.get("failed") else ""
        body.append(f"<tr{cls}>{cells}</tr>")
    return (
        f"<table><thead><tr>{head}</tr></thead>"
        f"<tbody>{''.join(body)}</tbody></table>"
    )


def _row_label(row: Dict[str, Any]) -> str:
    bench = row.get("benchmark", "?")
    target = row.get("target")
    return f"{bench}.{target}" if target else str(bench)


# --------------------------------------------------------------------- #
# Sections.
# --------------------------------------------------------------------- #


def _header_section(data: RunData) -> str:
    man = data.manifest
    if man is None:
        return "<p class='muted'>no manifest.json in this directory</p>"
    try:
        wall = f"{float(man.get('wall_s', 0)):.2f} s"
    except (TypeError, ValueError):
        wall = str(man.get("wall_s"))
    facts = [
        ("command", man.get("command")),
        ("run id", man.get("run_id")),
        ("commit", man.get("git_commit")),
        ("started", man.get("started")),
        ("finished", man.get("finished")),
        ("wall", wall),
        ("rows", man.get("n_rows")),
        ("version", f"repro {man.get('version')} / "
                    f"python {man.get('python')}"),
        ("argv", " ".join(man.get("argv") or [])),
    ]
    if man.get("degraded"):
        facts.append(("degraded", "true (some cells failed)"))
    if man.get("interrupted"):
        facts.append(("interrupted", "true"))
    dl = "".join(
        f"<dt>{_esc(k)}</dt><dd>{_esc(v)}</dd>"
        for k, v in facts if v not in (None, "")
    )
    fps = ", ".join(
        f"{name}={cfg.get('fingerprint')}"
        for name, cfg in sorted((man.get("configs") or {}).items())
    )
    if fps:
        dl += f"<dt>config fingerprints</dt><dd>{_esc(fps)}</dd>"
    return f"<dl class='facts'>{dl}</dl>"


def _results_section(data: RunData) -> str:
    # A load test writes a summary row (throughput_rps) that renders in
    # its own section, and one sample row per request (request), which
    # is not a result; keep the results table for experiment rows.
    experiment_rows = [
        r for r in data.rows
        if "throughput_rps" not in r and "request" not in r
    ]
    rows = [r for r in experiment_rows if not r.get("failed")]
    failed = [r for r in experiment_rows if r.get("failed")]
    if not experiment_rows:
        return "<p class='muted'>no experiment rows</p>"
    seen = {k for row in experiment_rows for k in row}
    columns = [c for c in LEAD_COLUMNS if c in seen]
    columns += sorted(
        k for k in seen
        if k not in columns and not k.startswith("t_")
        and k not in STAMPED_KEYS and k not in ("error", "detail")
    )
    out = _table(rows, columns)
    if failed:
        out += (
            f"<h3>{len(failed)} failed cell(s)</h3>"
            + _table(failed, ["benchmark", "target", "error", "detail"])
        )
    return out


#: The disjoint phases of a result row, which add up to its ``t_total``.
#: ``t_trace``, ``t_analysis`` and ``t_sim`` overlap them, so the bar
#: leaves them out.
STACKED_PHASES = ("t_baseline", "t_profile", "t_select", "t_augment",
                  "t_simulate")


def _phases_section(data: RunData) -> str:
    timed = [
        row for row in data.rows
        if any(p in row for p in STACKED_PHASES)
    ]
    if not timed:
        return "<p class='muted'>no phase timings recorded</p>"
    phases = [p for p in STACKED_PHASES if any(p in row for row in timed)]
    colors = {
        p: PHASE_PALETTE[i % len(PHASE_PALETTE)]
        for i, p in enumerate(phases)
    }
    bars = []
    for row in timed:
        stacked = sum(float(row.get(p) or 0.0) for p in phases)
        if stacked <= 0:
            continue
        total = float(row.get("t_total") or stacked)
        parts = [
            (p[2:], float(row.get(p) or 0.0) / stacked, colors[p])
            for p in phases
        ]
        bars.append(
            f"<div class='barrow'><span class='barlabel'>"
            f"{_esc(_row_label(row))} ({total:.2f}s)</span>"
            + _stack_bar(parts, title=_row_label(row)) + "</div>"
        )
    legend = _legend([(p[2:], colors[p]) for p in phases])
    return legend + "".join(bars)


#: Load-test columns shown first, in this order, when present.
LOADTEST_LEAD_COLUMNS = (
    "mode", "benchmark", "requests", "ok", "shed", "dropped", "failed",
    "throughput_rps", "p50_latency_ms", "p95_latency_ms",
    "failure_rate", "shed_rate",
)


def _loadtest_section(data: RunData) -> str:
    rows = [r for r in data.rows if "throughput_rps" in r]
    if not rows:
        return (
            "<p class='muted'>no load-test rows -- run "
            "<code>repro loadtest</code> into this directory</p>"
        )
    seen = {k for row in rows for k in row}
    columns = [c for c in LOADTEST_LEAD_COLUMNS if c in seen]
    columns += sorted(
        k for k in seen
        if k not in columns and k not in STAMPED_KEYS
        and k not in ("latency_budget_s", "max_concurrent_in_budget",
                      "target")
    )
    out = _table(rows, columns)
    # The latency-budget arithmetic: how many concurrent clients the
    # observed tail latency supports inside a fixed response budget.
    budgets = [
        r for r in rows
        if r.get("latency_budget_s") and r.get("p95_latency_ms")
    ]
    for row in budgets:
        budget = float(row["latency_budget_s"])
        p95_s = float(row["p95_latency_ms"]) / 1000.0
        fit = row.get(
            "max_concurrent_in_budget",
            int(budget / p95_s) if p95_s > 0 else 0,
        )
        out += (
            "<p class='muted'>latency budget: with p95 = "
            f"{p95_s:.2f}s per request, a {budget:.0f}s budget "
            f"sustains <b>{fit}</b> concurrent request(s) "
            "(max_concurrent = budget / p95)</p>"
        )
    return out


_CSS = """
body { font: 14px/1.5 -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2em auto; max-width: 72em; padding: 0 1em; color: #222; }
h1 { border-bottom: 2px solid #1e88e5; padding-bottom: .3em; }
h2 { margin-top: 2em; border-bottom: 1px solid #ddd; }
table { border-collapse: collapse; margin: 1em 0; font-size: 13px; }
th, td { border: 1px solid #ddd; padding: .35em .6em; text-align: right; }
th:first-child, td:first-child { text-align: left; }
th { background: #f5f5f5; }
tr.failed td { background: #ffebee; }
.stack { display: flex; height: 1.4em; width: 100%;
         border: 1px solid #bbb; border-radius: 3px; overflow: hidden; }
.seg { display: inline-block; height: 100%; }
.barrow { margin: .6em 0; }
.barlabel { display: block; font-size: 12px; color: #444;
            margin-bottom: .15em; font-family: monospace; }
.legend { margin: .5em 0 1em; }
.chip { margin-right: 1em; font-size: 12px; white-space: nowrap; }
.swatch { display: inline-block; width: .9em; height: .9em;
          margin-right: .3em; border: 1px solid #999;
          vertical-align: -0.1em; }
.facts dt { float: left; clear: left; width: 11em; font-weight: 600; }
.facts dd { margin-left: 12em; font-family: monospace;
            word-break: break-all; }
.muted { color: #888; }
code { background: #f5f5f5; padding: .1em .3em; border-radius: 3px; }
"""


def render_html(data: RunData) -> str:
    """The full report document (pure)."""
    title = "repro run report"
    if data.manifest:
        title += f" -- {data.manifest.get('command', '')}"
    sections = [
        ("Run", _header_section(data)),
        ("Results", _results_section(data)),
        ("Phase timings", _phases_section(data)),
        ("Load test", _loadtest_section(data)),
    ]
    body = "".join(
        f"<h2>{_esc(name)}</h2>{content}" for name, content in sections
    )
    return (
        "<!DOCTYPE html>\n<html lang='en'><head>"
        "<meta charset='utf-8'>"
        f"<title>{_esc(title)}</title>"
        f"<style>{_CSS}</style></head><body>"
        f"<h1>{_esc(title)}</h1>{body}"
        "</body></html>\n"
    )


def render_report(
    run_dir: str,
    output: Optional[str] = None,
) -> str:
    """Load a run directory and write its ``report.html``; returns the
    output path."""
    data = load_run(run_dir)
    path = output or os.path.join(run_dir, REPORT_NAME)
    doc = render_html(data)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(doc)
    return path
