"""Self-contained HTML run reports (``repro report``).

Renders a single ``report.html`` from the machine-readable artifacts an
evaluation command left in its ``--out`` directory:

- ``manifest.json``      -- provenance header (command, argv, versions,
  configuration fingerprints, wall time);
- ``results.jsonl``      -- the per-(benchmark, target) result table and
  the phase-timing stacks;
- ``utrace/*.summary.json`` -- top-down stall-attribution stacks and the
  per-event energy-audit stacks of every traced simulation.

The output is deliberately dependency-free: inline CSS, no JavaScript,
no external fonts or images, so the file can be archived as a CI
artifact and opened anywhere (including the GitHub artifact viewer).
"""

from __future__ import annotations

import glob
import html
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro import obs
from repro.errors import ConfigError
from repro.obs.manifest import MANIFEST_NAME, RESULTS_NAME

REPORT_NAME = "report.html"

#: Fixed colors per top-down stall category (order = stacking order).
STALL_COLORS = (
    ("retiring", "#4caf50"),
    ("fetch_starved", "#90caf9"),
    ("branch_recovery", "#ff7043"),
    ("load_miss", "#ef5350"),
    ("rob_full", "#ab47bc"),
    ("rs_full", "#7e57c2"),
    ("pthread_contention", "#ffb300"),
    ("exec", "#78909c"),
)

#: Fixed colors per energy category (main structures, then p-thread).
ENERGY_COLORS = (
    ("imem_main", "#1e88e5"),
    ("dmem_main", "#43a047"),
    ("l2_main", "#00897b"),
    ("ooo_main", "#8e24aa"),
    ("rob_bpred", "#f4511e"),
    ("idle", "#bdbdbd"),
    ("imem_pth", "#90caf9"),
    ("dmem_pth", "#a5d6a7"),
    ("l2_pth", "#80cbc4"),
    ("ooo_pth", "#ce93d8"),
)

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
    summaries: List[Dict[str, Any]] = field(default_factory=list)


def load_run(run_dir: str) -> RunData:
    """Read manifest/results/utrace summaries; loud when nothing exists.

    A directory holding neither a manifest nor results is almost always
    a typo'd path, so that raises :class:`~repro.errors.ConfigError`;
    any one artifact missing on its own just leaves its section out.
    """
    data = RunData(run_dir=run_dir)
    manifest_path = os.path.join(run_dir, MANIFEST_NAME)
    if os.path.exists(manifest_path):
        with open(manifest_path, "r", encoding="utf-8") as fh:
            data.manifest = json.load(fh)
    results_path = os.path.join(run_dir, RESULTS_NAME)
    if os.path.exists(results_path):
        with open(results_path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    data.rows.append(json.loads(line))
    pattern = os.path.join(run_dir, "utrace", "*.summary.json")
    for path in sorted(glob.glob(pattern)):
        # A corrupt or half-written summary must not take the whole
        # report down; the trace sections simply lose that entry.
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data.summaries.append(json.load(fh))
        except (OSError, ValueError):
            obs.log_event(
                "report_summary_unreadable", level="warning", path=path
            )
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
    # Load-test rows (identified by throughput_rps) render in their own
    # section; keep the experiment-results table for experiment rows.
    experiment_rows = [
        r for r in data.rows if "throughput_rps" not in r
    ]
    rows = [r for r in experiment_rows if not r.get("failed")]
    failed = [r for r in experiment_rows if r.get("failed")]
    if not experiment_rows:
        return "<p class='muted'>no results.jsonl rows</p>"
    seen = {k for row in experiment_rows for k in row}
    columns = [c for c in LEAD_COLUMNS if c in seen]
    columns += sorted(
        k for k in seen
        if k not in columns and not k.startswith("t_")
        and k not in ("failed", "error", "detail")
    )
    out = _table(rows, columns)
    if failed:
        out += (
            f"<h3>{len(failed)} failed cell(s)</h3>"
            + _table(failed, ["benchmark", "target", "error", "detail"])
        )
    return out


def _phases_section(data: RunData) -> str:
    timed = [
        row for row in data.rows
        if any(k.startswith("t_") for k in row)
    ]
    if not timed:
        return "<p class='muted'>no phase timings recorded</p>"
    phases = sorted({k for row in timed for k in row if k.startswith("t_")})
    colors = {
        p: PHASE_PALETTE[i % len(PHASE_PALETTE)]
        for i, p in enumerate(phases)
    }
    bars = []
    for row in timed:
        total = sum(float(row.get(p) or 0.0) for p in phases)
        if total <= 0:
            continue
        parts = [
            (p[2:], float(row.get(p) or 0.0) / total, colors[p])
            for p in phases
        ]
        bars.append(
            f"<div class='barrow'><span class='barlabel'>"
            f"{_esc(_row_label(row))} ({total:.2f}s)</span>"
            + _stack_bar(parts, title=_row_label(row)) + "</div>"
        )
    legend = _legend([(p[2:], colors[p]) for p in phases])
    return legend + "".join(bars)


def _stalls_section(data: RunData) -> str:
    if not data.summaries:
        return (
            "<p class='muted'>(untraced run) -- no utrace summaries; "
            "run with <code>repro trace</code> or "
            "<code>--trace-window</code> to collect stall "
            "attribution</p>"
        )
    colors = dict(STALL_COLORS)
    bars = []
    for s in data.summaries:
        fractions = s.get("stall_fractions") or {}
        parts = [
            (name, float(fractions.get(name, 0.0)), color)
            for name, color in STALL_COLORS
        ]
        ipc = s.get("ipc")
        bars.append(
            f"<div class='barrow'><span class='barlabel'>"
            f"{_esc(s.get('label'))} (ipc {ipc})</span>"
            + _stack_bar(parts, title=str(s.get("label"))) + "</div>"
        )
    legend = _legend(
        [(name, colors[name]) for name, _ in STALL_COLORS]
    )
    note = (
        "<p class='muted'>every issue slot of every cycle charged to "
        "exactly one cause (slots = width &times; cycles)</p>"
    )
    return note + legend + "".join(bars)


def _energy_section(data: RunData) -> str:
    audited = [s for s in data.summaries if s.get("energy_audit")]
    if not audited:
        return (
            "<p class='muted'>(untraced run) -- no energy audits; "
            "traced runs with the audit disabled, or no traces at "
            "all</p>"
        )
    colors = dict(ENERGY_COLORS)
    bars = []
    for s in audited:
        audit = s["energy_audit"]
        per_cat = audit.get("per_category") or {}
        joules = {
            name: float((per_cat.get(name) or {}).get("event", 0.0))
            for name, _ in ENERGY_COLORS
        }
        total = sum(joules.values()) or 1.0
        parts = [
            (name, joules[name] / total, color)
            for name, color in ENERGY_COLORS
        ]
        badge = (
            "<span class='ok'>audit ok</span>"
            if audit.get("ok")
            else "<span class='bad'>audit FAILED</span>"
        )
        err = audit.get("max_rel_error", 0.0)
        bars.append(
            f"<div class='barrow'><span class='barlabel'>"
            f"{_esc(s.get('label'))} ({total:.3f} J) {badge} "
            f"<span class='muted'>max rel err {err:.2e}</span></span>"
            + _stack_bar(parts, title=str(s.get("label"))) + "</div>"
        )
    legend = _legend([(n, colors[n]) for n, _ in ENERGY_COLORS])
    note = (
        "<p class='muted'>per-event accumulated energy, cross-checked "
        "against the closed-form E1&ndash;E8 model</p>"
    )
    return note + legend + "".join(bars)


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
        if k not in columns
        and k not in ("schema", "latency_budget_s",
                      "max_concurrent_in_budget", "target")
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


def _traces_section(data: RunData) -> str:
    if not data.summaries:
        return ""
    rows = []
    for s in data.summaries:
        window = s.get("window")
        if not (isinstance(window, (list, tuple)) and len(window) == 2):
            window = ("?", "?")
        rows.append({
            "label": s.get("label"),
            "window": "{}..{}".format(*window),
            "cycles": s.get("cycles"),
            "committed": s.get("committed"),
            "insts_recorded": s.get("insts_recorded"),
            "insts_dropped": s.get("insts_dropped"),
            "events": s.get("events"),
            "replays": s.get("replays"),
            "redirects": s.get("redirects"),
            "spawns": s.get("spawns"),
        })
    columns = list(rows[0].keys())
    return "<h2>Trace inventory</h2>" + _table(rows, columns)


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
.ok { color: #2e7d32; font-weight: 600; }
.bad { color: #c62828; font-weight: 700; }
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
        ("Top-down stall attribution", _stalls_section(data)),
        ("Energy audit", _energy_section(data)),
        ("Load test", _loadtest_section(data)),
    ]
    body = "".join(
        f"<h2>{_esc(name)}</h2>{content}" for name, content in sections
    )
    body += _traces_section(data)
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
