"""Tests for the regression timeline: disciplines, attribution, SVG.

The timeline generalizes ``benchmarks/check_regression.py`` to the
whole ingested history, so the disciplines must match the
single-baseline checker exactly: determinism metrics break on any
difference, throughput floors, wall-clock ceilings, sub-second walls
tracked but never banded, and grid walls compared only within one grid
shape.
"""

import json
from html.parser import HTMLParser

import pytest

from repro.analytics.store import RunStore
from repro.analytics.timeline import (
    Series,
    build_timeline,
    load_baseline,
    render_phase_stack_svg,
    render_series_svg,
    render_timeline_html,
    timeline_section_html,
)


def _store(tmp_path):
    return RunStore(str(tmp_path / "store"))


def _ingest_results(store, run, gmean_value):
    rows = [
        {"benchmark": b, "target": "L", "ed2_save_pct": gmean_value,
         "t_trace": 0.1, "t_analysis": 0.2, "t_sim": 1.0}
        for b in ("gap", "mcf")
    ]
    store.append_rows(rows, run_id=f"run{run}", commit=f"c{run:07d}abcde")


def _ingest_bench(store, run, cycles=1000, cps=1e6, wall=6.0, rows=2):
    store.append_rows(
        [
            {"kind": "bench", "benchmark": "gcc", "cycles": cycles,
             "committed": 500, "cycles_per_sec": cps},
            {"kind": "bench_grid", "rows": rows,
             "sequential_uncached_wall_s": wall, "cold_wall_s": wall,
             "warm_wall_s": 0.2},
        ],
        run_id=f"BENCH_{run}.json",
    )


# -- Series.check disciplines ------------------------------------------- #


def test_exact_discipline_breaks_on_any_difference():
    s = Series("cycles", [(1, 100.0), (2, 100.0), (3, 101.0)],
               discipline="exact", baseline=100.0)
    s.check(tolerance=0.5)
    assert not s.ok
    assert s.first_bad_seq == 3
    assert s.bound == 100.0


def test_floor_discipline_allows_band():
    s = Series("tput", [(1, 100.0), (2, 60.0), (3, 49.0)],
               discipline="floor", baseline=100.0)
    s.check(tolerance=0.5)
    assert s.first_bad_seq == 3  # 60 >= 50 passes, 49 < 50 trips
    assert s.bound == pytest.approx(50.0)


def test_ceiling_discipline():
    s = Series("wall", [(1, 10.0), (2, 14.9), (3, 15.1)],
               discipline="ceiling", baseline=10.0)
    s.check(tolerance=0.5)
    assert s.first_bad_seq == 3
    assert s.bound == pytest.approx(15.0)


def test_self_basing_on_first_point():
    s = Series("x", [(1, 20.0), (2, 9.0)], discipline="floor")
    s.check(tolerance=0.5)
    assert s.baseline == 20.0
    assert s.first_bad_seq == 2  # 9 < 20 * 0.5


# -- build_timeline ----------------------------------------------------- #


def test_timeline_ok_on_stable_history(tmp_path):
    store = _store(tmp_path)
    for run in range(3):
        _ingest_results(store, run, gmean_value=30.0)
    report = build_timeline(store, tolerance=0.5)
    assert report.ok
    assert report.first_regression is None
    names = [s.name for s in report.series]
    assert "gmean_ed2_save_pct[L]" in names
    assert set(report.phase_series) == {"t_trace", "t_analysis", "t_sim"}


def test_timeline_attributes_first_regressing_run(tmp_path):
    store = _store(tmp_path)
    _ingest_results(store, 0, gmean_value=30.0)
    _ingest_results(store, 1, gmean_value=28.0)  # inside the band
    _ingest_results(store, 2, gmean_value=5.0)   # collapses
    report = build_timeline(store, tolerance=0.5)
    assert not report.ok
    first = report.first_regression
    assert first["metric"] == "gmean_ed2_save_pct[L]"
    assert first["run_seq"] == 3
    assert first["run_id"] == "run2"
    assert first["commit"] == "c0000002abcd"  # truncated to 12 chars
    assert first["discipline"] == "floor"
    assert first["value"] == pytest.approx(5.0)


def test_timeline_bench_determinism_vs_baseline(tmp_path):
    store = _store(tmp_path)
    _ingest_bench(store, 0, cycles=1000)
    _ingest_bench(store, 1, cycles=1001)  # single-cycle drift
    baseline = {"simulator": [{"benchmark": "gcc", "cycles": 1000,
                               "committed": 500,
                               "cycles_per_sec": 1e6}]}
    report = build_timeline(store, baseline=baseline, tolerance=0.5)
    bad = [s for s in report.series if not s.ok]
    assert [s.name for s in bad] == ["bench_cycles[gcc]"]
    assert bad[0].first_bad_seq == 2
    assert bad[0].discipline == "exact"


def test_timeline_throughput_floor_vs_baseline(tmp_path):
    store = _store(tmp_path)
    _ingest_bench(store, 0, cps=1e6)
    _ingest_bench(store, 1, cps=0.4e6)  # below the 50% floor
    baseline = {"simulator": [{"benchmark": "gcc", "cycles": 1000,
                               "committed": 500,
                               "cycles_per_sec": 1e6}]}
    report = build_timeline(store, baseline=baseline, tolerance=0.5)
    bad = {s.name for s in report.series if not s.ok}
    assert bad == {"bench_cycles_per_sec[gcc]"}


def test_timeline_grid_walls_split_by_shape(tmp_path):
    """A quick 2-row grid and a full 27-row grid never cross-compare."""
    store = _store(tmp_path)
    _ingest_bench(store, 0, wall=6.0, rows=2)
    _ingest_bench(store, 1, wall=110.0, rows=27)  # different shape
    baseline = {
        "simulator": [],
        "figure_grid": {"rows": 2, "sequential_uncached_wall_s": 6.0,
                        "cold_wall_s": 6.0},
    }
    report = build_timeline(store, baseline=baseline, tolerance=0.5)
    assert report.ok  # 110 s on 27 rows is not a regression of 6 s on 2
    names = {s.name for s in report.series}
    assert "grid_cold_wall_s[rows=2]" in names
    assert "grid_cold_wall_s[rows=27]" in names
    banded = {
        s.name: s.bound for s in report.series if s.bound is not None
    }
    assert banded["grid_cold_wall_s[rows=2]"] == pytest.approx(9.0)


def test_timeline_subsecond_walls_tracked_not_banded(tmp_path):
    store = _store(tmp_path)
    _ingest_bench(store, 0, wall=6.0)   # warm wall is 0.2 s in both
    _ingest_bench(store, 1, wall=6.0)
    report = build_timeline(store, tolerance=0.5)
    warm = [s for s in report.series
            if s.name.startswith("grid_warm_wall_s")]
    assert len(warm) == 1
    assert warm[0].bound is None  # noise-dominated: never banded
    assert warm[0].ok


def test_timeline_to_dict_is_json_serializable(tmp_path):
    store = _store(tmp_path)
    _ingest_results(store, 0, gmean_value=30.0)
    _ingest_results(store, 1, gmean_value=5.0)
    report = build_timeline(store, tolerance=0.5)
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["ok"] is False
    assert payload["first_regression"]["metric"].startswith("gmean_")
    series = {s["name"]: s for s in payload["series"]}
    points = series["gmean_ed2_save_pct[L]"]["points"]
    assert points[0]["run_id"] == "run0"


def test_load_baseline(tmp_path):
    path = tmp_path / "base.json"
    path.write_text(json.dumps({"simulator": []}))
    assert load_baseline(str(path)) == {"simulator": []}


# -- rendering ---------------------------------------------------------- #

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


def test_render_series_svg_marks_bad_points():
    s = Series("bench_cycles[g<cc>]", [(1, 100.0), (2, 150.0)],
               discipline="ceiling", baseline=100.0)
    s.check(tolerance=0.2)
    svg = render_series_svg(s, {1: {"run_id": "a"}, 2: {"run_id": "b"}})
    assert svg.startswith("<svg")
    assert "#c62828" in svg      # the out-of-band point is red
    assert "g&lt;cc&gt;" in svg  # labels escape
    assert "<rect" in svg        # the tolerance band is drawn
    _assert_well_formed(svg)


def test_render_series_svg_empty():
    s = Series("x", [])
    assert "no points" in render_series_svg(s, {})


def test_render_phase_stack_svg():
    svg = render_phase_stack_svg({
        "t_trace": [(1, 1.0), (2, 2.0)],
        "t_sim": [(1, 3.0), (2, 4.0)],
    })
    assert svg.count("<rect") == 4
    assert "run 2 sim: 4.00s" in svg
    _assert_well_formed(svg)
    assert "(no phase timings" in render_phase_stack_svg({})


def test_timeline_section_html_states(tmp_path):
    store = _store(tmp_path)
    empty = build_timeline(store)
    assert "analytics store is empty" in timeline_section_html(empty)

    _ingest_results(store, 0, gmean_value=30.0)
    ok = build_timeline(store, tolerance=0.5)
    html_ok = timeline_section_html(ok)
    assert "trajectory ok" in html_ok
    _assert_well_formed(html_ok)

    _ingest_results(store, 1, gmean_value=1.0)
    bad = build_timeline(RunStore(store.root), tolerance=0.5)
    html_bad = timeline_section_html(bad)
    assert "first regression" in html_bad
    assert "run1" in html_bad
    _assert_well_formed(html_bad)


def test_render_timeline_html_standalone(tmp_path):
    store = _store(tmp_path)
    _ingest_results(store, 0, gmean_value=30.0)
    doc = render_timeline_html(build_timeline(store))
    assert doc.startswith("<!DOCTYPE html>")
    assert "<script" not in doc  # no-JS, self-contained
    _assert_well_formed(doc)
