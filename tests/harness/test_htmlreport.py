"""Tests for the self-contained HTML run report."""

import json
from html.parser import HTMLParser

import pytest

from repro.errors import ConfigError
from repro.obs.manifest import RunWriter
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


def _write_run(tmp_path):
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
    _assert_well_formed(doc)
    for heading in ("Run", "Results", "Phase timings", "Load test"):
        assert f"<h2>{heading}</h2>" in doc
    assert "1 failed cell(s)" in doc
    assert "abc123" in doc  # config fingerprint from the manifest
    assert "<script" not in doc  # self-contained: no JS


def test_report_escapes_labels(tmp_path):
    _write_run(tmp_path)
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



def test_report_shows_the_manifest_run(tmp_path):
    for run_id, bench in (("first", "mcf"), ("second", "gap")):
        writer = RunWriter(str(tmp_path), command="run", run_id=run_id)
        writer.add_row({"benchmark": bench, "target": "L",
                        "speedup_pct": 1.0})
        writer.finalize()
    data = load_run(str(tmp_path))
    assert data.manifest["run_id"] == "second"
    assert [r["benchmark"] for r in data.rows] == ["gap"]
    doc = render_html(data)
    assert "mcf" not in doc
    # The reader's stamps are bookkeeping, not result columns.
    assert "<th>run_seq</th>" not in doc and "<th>schema</th>" not in doc
