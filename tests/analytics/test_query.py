"""Tests for cross-run aggregation: correctness, accounting, speed.

The gmean aggregation must agree with the paper-facing
:func:`repro.harness.report.geometric_mean_pct` (same log-space math),
and -- the acceptance bar for the analytics subsystem -- a
gmean-ED²-by-objective trend over 100k+ ingested rows must complete in
under 2 s.
"""

import math
import random
import time

import pytest

from repro.errors import ConfigError
from repro.harness.report import geometric_mean_pct
from repro.analytics.query import (
    aggregate,
    cache_hit_rate,
    gmean_trend,
    phase_walls,
    select_rows,
)
from repro.analytics.store import RunStore

def _store(tmp_path):
    return RunStore(str(tmp_path / "store"))


def _seed_store(store, runs=2):
    for run in range(runs):
        rows = [
            {"benchmark": "gap", "target": "L", "ed2_save_pct": 30.0,
             "t_trace": 0.1, "t_analysis": 0.2, "t_sim": 1.0},
            {"benchmark": "mcf", "target": "L", "ed2_save_pct": 10.0,
             "t_trace": 0.1, "t_analysis": 0.3, "t_sim": 2.0},
            {"benchmark": "gap", "target": "E", "ed2_save_pct": 5.0},
            {"benchmark": "vpr", "target": "L", "ed2_save_pct": 99.0,
             "failed": True, "error": "JobFailure"},
        ]
        store.append_rows(rows, run_id=f"r{run}", commit=f"c{run}")


def test_gmean_matches_report_helper(tmp_path):
    store = _store(tmp_path)
    _seed_store(store, runs=1)
    result = aggregate(store, "ed2_save_pct", group_by=("target",))
    by_target = {row["target"]: row for row in result.rows}
    assert by_target["L"]["value"] == pytest.approx(
        geometric_mean_pct([30.0, 10.0])
    )
    assert by_target["L"]["n"] == 2
    assert by_target["E"]["value"] == pytest.approx(
        geometric_mean_pct([5.0])
    )
    # The failed vpr row was skipped and counted, never averaged in.
    assert result.n_failed_skipped == 1


def test_simple_aggregations(tmp_path):
    store = _store(tmp_path)
    store.append_rows(
        [{"benchmark": "a", "x": 1.0}, {"benchmark": "a", "x": 3.0},
         {"benchmark": "b", "x": 5.0}],
        run_id="r1",
    )
    def vals(agg):
        res = aggregate(store, "x", group_by=("benchmark",), agg=agg)
        return {row["benchmark"]: row["value"] for row in res.rows}
    assert vals("mean") == {"a": 2.0, "b": 5.0}
    assert vals("sum") == {"a": 4.0, "b": 5.0}
    assert vals("count") == {"a": 2.0, "b": 1.0}
    assert vals("min") == {"a": 1.0, "b": 5.0}
    assert vals("max") == {"a": 3.0, "b": 5.0}


def test_unknown_aggregation_raises(tmp_path):
    store = _store(tmp_path)
    _seed_store(store, runs=1)
    with pytest.raises(ConfigError, match="unknown aggregation"):
        aggregate(store, "ed2_save_pct", agg="median")


def test_string_metric_raises(tmp_path):
    store = _store(tmp_path)
    _seed_store(store, runs=1)
    with pytest.raises(ConfigError, match="not a numeric column"):
        aggregate(store, "benchmark", group_by=("target",))


def test_where_filters_before_aggregation(tmp_path):
    store = _store(tmp_path)
    _seed_store(store, runs=2)
    result = aggregate(
        store, "ed2_save_pct", group_by=("run_seq",),
        where={"benchmark": "gap", "target": "L"},
    )
    assert [row["n"] for row in result.rows] == [1, 1]
    assert all(
        row["value"] == pytest.approx(30.0) for row in result.rows
    )


def test_include_failed_opts_back_in(tmp_path):
    store = _store(tmp_path)
    store.append_rows(
        [{"benchmark": "a", "x": 10.0},
         {"benchmark": "a", "x": 20.0, "failed": True}],
        run_id="r1",
    )
    skipped = aggregate(store, "x", group_by=("benchmark",), agg="mean")
    assert skipped.rows[0]["value"] == 10.0
    assert skipped.n_failed_skipped == 1
    included = aggregate(store, "x", group_by=("benchmark",), agg="mean",
                         include_failed=True)
    assert included.rows[0]["value"] == 15.0
    assert included.n_failed_skipped == 0


def test_missing_values_skipped_and_counted(tmp_path):
    store = _store(tmp_path)
    store.append_rows([{"benchmark": "a", "x": 2.0},
                       {"benchmark": "a"},
                       {"benchmark": "a", "x": None}], run_id="r1")
    result = aggregate(store, "x", group_by=("benchmark",), agg="mean")
    assert result.rows[0]["value"] == 2.0
    assert result.rows[0]["n"] == 1
    assert result.n_missing_skipped == 2


def test_gmean_saturated_savings_skipped(tmp_path):
    # A >=100% "saving" has no log-space image; it must be counted as
    # unusable rather than crash or poison the mean.
    store = _store(tmp_path)
    store.append_rows([{"benchmark": "a", "x": 50.0},
                       {"benchmark": "a", "x": 100.0}], run_id="r1")
    result = aggregate(store, "x", group_by=("benchmark",), agg="gmean")
    assert result.rows[0]["value"] == pytest.approx(50.0)
    assert result.n_missing_skipped == 1


def test_empty_store_returns_empty_result(tmp_path):
    result = aggregate(_store(tmp_path), "x")
    assert result.rows == []
    assert result.n_input_rows == 0


def test_kind_selects_row_family(tmp_path):
    store = _store(tmp_path)
    store.append_rows(
        [{"benchmark": "a", "x": 1.0},
         {"kind": "trace", "benchmark": "a", "ipc": 1.5}],
        run_id="r1",
    )
    (result,) = select_rows(store, kind="result")
    assert (result["benchmark"], result["x"]) == ("a", 1.0)
    (trace,) = select_rows(store, kind="trace")
    assert trace["ipc"] == 1.5
    assert len(list(select_rows(store))) == 2


def test_column_missing_from_one_run_counts_as_missing(tmp_path):
    store = _store(tmp_path)
    store.append_rows([{"benchmark": "a", "x": 1.0}], run_id="r1")
    store.append_rows([{"benchmark": "b"}], run_id="r2")
    result = aggregate(store, "x", group_by=("run_seq",), agg="mean")
    assert result.n_input_rows == 2
    assert result.n_missing_skipped == 1
    assert result.rows[0] == {"run_seq": 1.0, "value": 1.0, "n": 1}
    assert result.rows[1]["n"] == 0
    assert math.isnan(result.rows[1]["value"])


def test_where_on_numeric_column_with_non_numeric_value(tmp_path):
    store = _store(tmp_path)
    store.append_rows([{"benchmark": "gcc", "memory_latency": 300,
                        "ed2_save_pct": 20.0}], run_id="r1")
    result = aggregate(store, "ed2_save_pct",
                       where={"memory_latency": "abc"})
    assert result.rows == []
    assert result.n_input_rows == 0


def test_where_numeric_value_matches_int(tmp_path):
    store = _store(tmp_path)
    store.append_rows(
        [{"benchmark": "gcc", "memory_latency": 300, "ed2_save_pct": 20.0},
         {"benchmark": "gcc", "memory_latency": 100, "ed2_save_pct": 5.0}],
        run_id="r1",
    )
    for wanted in ("300", "300.0"):
        result = aggregate(store, "ed2_save_pct", group_by=("benchmark",),
                           where={"memory_latency": wanted})
        assert result.n_input_rows == 1
        assert result.rows[0]["value"] == pytest.approx(20.0)


def test_where_string_filter_needs_the_key(tmp_path):
    store = _store(tmp_path)
    store.append_rows(
        [{"benchmark": "gap", "target": "L", "x": 1.0},
         {"kind": "run", "x": 2.0}],
        run_id="r1",
    )
    assert [r["x"] for r in select_rows(store, where={"target": "L"})] \
        == [1.0]
    assert list(select_rows(store, where={"target": ""})) == []


def test_named_queries(tmp_path):
    store = _store(tmp_path)
    _seed_store(store, runs=2)
    store.append_rows(
        [{"kind": "run", "cache_hit_rate": 0.75, "wall_s": 3.0}],
        run_id="extra",
    )
    trend = gmean_trend(store)
    assert {row["target"] for row in trend.rows} == {"L", "E"}
    hits = cache_hit_rate(store)
    assert hits.rows[0]["value"] == 0.75
    walls = phase_walls(store)
    assert walls["t_sim"].rows[0]["value"] == pytest.approx(3.0)


def test_gmean_100k_rows_under_two_seconds(tmp_path):
    """Acceptance bar: ED² gmean by objective over >=100k rows < 2 s."""
    store = _store(tmp_path)
    random.seed(7)
    targets = ("O", "L", "E", "P")
    for run in range(10):
        rows = [
            {"benchmark": f"b{i % 400}", "target": targets[i % 4],
             "ed2_save_pct": random.uniform(-5.0, 60.0)}
            for i in range(10_000)
        ]
        store.append_rows(rows, run_id=f"run{run}", commit=f"c{run:03d}")
    assert store.stats()["rows"] == 100_000

    start = time.perf_counter()
    trend = gmean_trend(store)
    elapsed = time.perf_counter() - start
    assert trend.n_input_rows == 100_000
    assert len(trend.rows) == 10 * len(targets)
    assert all(row["n"] == 2_500 for row in trend.rows)
    assert elapsed < 2.0, f"gmean over 100k rows took {elapsed:.2f}s"
