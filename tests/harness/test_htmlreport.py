"""Tests for the self-contained HTML run report."""

import json
import os
from html.parser import HTMLParser

import pytest

from repro.errors import ConfigError
from repro.harness.htmlreport import (
    REPORT_NAME,
    load_run,
    render_html,
    render_report,
)

_VOIDS = {"meta", "br", "hr", "img", "input", "link"}


class _Checker(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.stack = []
        self.errors = []

    def handle_starttag(self, tag, attrs):
        if tag not in _VOIDS:
            self.stack.append(tag)

    def handle_endtag(self, tag):
        if not self.stack or self.stack[-1] != tag:
            self.errors.append(f"mismatched </{tag}>")
        else:
            self.stack.pop()


def _assert_well_formed(doc):
    checker = _Checker()
    checker.feed(doc)
    assert checker.errors == []
    assert checker.stack == []


def _write_run(tmp_path, with_traces=True):
    manifest = {
        "command": "figure3",
        "run_id": "20260805T000000-1",
        "argv": ["figure3", "--out", "x"],
        "started": "2026-08-05T00:00:00Z",
        "finished": "2026-08-05T00:01:00Z",
        "wall_s": 60.0,
        "n_rows": 2,
        "version": "0.1",
        "python": "3.11",
        "configs": {"machine": {"fingerprint": "abc123", "values": {}}},
    }
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    rows = [
        {"benchmark": "gap", "target": "L", "n_pthreads": 2,
         "speedup_pct": 39.7, "energy_save_pct": 10.3,
         "t_baseline": 5.0, "t_sim": 8.0},
        {"benchmark": "gap", "target": "O", "failed": True,
         "error": "ExecutionError", "detail": "boom"},
    ]
    with open(tmp_path / "results.jsonl", "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    if with_traces:
        os.makedirs(tmp_path / "utrace", exist_ok=True)
        summary = {
            "label": "gap.L.optimized",
            "cell": "abc",
            "window": [0, 20000],
            "cycles": 20000,
            "committed": 30000,
            "ipc": 1.5,
            "width": 6,
            "insts_recorded": 100,
            "insts_dropped": 0,
            "events": 400,
            "replays": 3,
            "redirects": 2,
            "spawns": 1,
            "stall_slots": {"retiring": 30000, "load_miss": 90000},
            "stall_fractions": {"retiring": 0.25, "load_miss": 0.75},
            "latency_breakdown": {"mem": 15000, "fetch": 5000},
            "energy_audit": {
                "ok": True,
                "tolerance": 1e-3,
                "max_rel_error": 0.0,
                "event_total_joules": 1.0,
                "closed_form_joules": 1.0,
                "per_category": {
                    "imem_main": {"event": 0.4, "closed_form": 0.4},
                    "idle": {"event": 0.6, "closed_form": 0.6},
                },
            },
        }
        (tmp_path / "utrace" / "gap.L.optimized.abc.summary.json"
         ).write_text(json.dumps(summary))
    return tmp_path


def test_load_run_missing_artifacts_raises(tmp_path):
    with pytest.raises(ConfigError, match="no run artifacts"):
        load_run(str(tmp_path))


def test_render_report_writes_default_path(tmp_path):
    _write_run(tmp_path)
    path = render_report(str(tmp_path))
    assert path == str(tmp_path / REPORT_NAME)
    doc = open(path).read()
    _assert_well_formed(doc)


def test_report_contains_all_sections(tmp_path):
    _write_run(tmp_path)
    doc = render_html(load_run(str(tmp_path)))
    for heading in (
        "Results", "Phase timings", "Top-down stall attribution",
        "Energy audit", "Trace inventory",
    ):
        assert heading in doc
    assert "gap.L.optimized" in doc
    assert "audit ok" in doc
    assert "1 failed cell(s)" in doc
    assert "abc123" in doc  # config fingerprint from the manifest
    assert "<script" not in doc  # self-contained: no JS


def test_report_without_traces_degrades(tmp_path):
    _write_run(tmp_path, with_traces=False)
    doc = render_html(load_run(str(tmp_path)))
    _assert_well_formed(doc)
    assert "no utrace summaries" in doc
    assert "Trace inventory" not in doc


def test_report_escapes_labels(tmp_path):
    _write_run(tmp_path, with_traces=False)
    rows = [{"benchmark": "<script>alert(1)</script>", "target": "L"}]
    with open(tmp_path / "results.jsonl", "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    doc = render_html(load_run(str(tmp_path)))
    assert "<script>alert" not in doc
    assert "&lt;script&gt;" in doc


def test_render_report_custom_output(tmp_path):
    _write_run(tmp_path)
    out = tmp_path / "sub" / "r.html"
    assert render_report(str(tmp_path), output=str(out)) == str(out)
    assert out.exists()


def test_untraced_run_renders_placeholders(tmp_path):
    """Stall/energy sections degrade to '(untraced run)', not errors."""
    _write_run(tmp_path, with_traces=False)
    doc = render_html(load_run(str(tmp_path)))
    _assert_well_formed(doc)
    assert doc.count("(untraced run)") == 2  # stalls + energy sections
    assert "Top-down stall attribution" in doc
    assert "Energy audit" in doc


def test_corrupt_summary_does_not_break_report(tmp_path):
    _write_run(tmp_path, with_traces=True)
    (tmp_path / "utrace" / "zz.broken.summary.json").write_text("{ nope")
    data = load_run(str(tmp_path))
    assert len(data.summaries) == 1  # the broken one is dropped, logged
    doc = render_html(data)
    _assert_well_formed(doc)
    assert "gap.L.optimized" in doc


def test_summary_without_window_renders(tmp_path):
    _write_run(tmp_path, with_traces=True)
    path = tmp_path / "utrace" / "gap.L.optimized.abc.summary.json"
    summary = json.loads(path.read_text())
    del summary["window"]
    path.write_text(json.dumps(summary))
    doc = render_html(load_run(str(tmp_path)))
    _assert_well_formed(doc)
    assert "?..?" in doc
