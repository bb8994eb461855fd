"""Tests for the run store: round-trips, adversarial ingest.

The adversarial cases encode the store's contract -- *lossless for good
rows, loud for bad ones*: torn trailing lines in ``results.jsonl`` are
the expected crash artifact and are silently tolerated, damaged
interior lines and rows stamped with a schema newer than this code are
counted (and warned about via obs), and degraded runs with JobFailure
rows ingest as flagged rows rather than disappearing.
"""

import json
import os
from pathlib import Path

import pytest

from repro.config import MachineConfig
from repro.errors import ConfigError
from repro.obs.manifest import RESULTS_SCHEMA_VERSION, RunWriter
from repro.analytics.query import aggregate
from repro.analytics.store import (
    RUN_FORMAT,
    RunStore,
    STORE_SCHEMA_VERSION,
    default_store_dir,
    ingest_enabled,
)


def _store(tmp_path):
    return RunStore(str(tmp_path / "store"))


def _rows(n=3, failed_at=None):
    rows = []
    for i in range(n):
        row = {"benchmark": f"b{i}", "target": "L",
               "ed2_save_pct": 10.0 + i, "t_sim": 0.5}
        if i == failed_at:
            row = {"benchmark": f"b{i}", "target": "L", "failed": True,
                   "error": "JobFailure", "detail": "boom"}
        rows.append(row)
    return rows


# -- append/load round trip --------------------------------------------- #


def test_append_rows_round_trip(tmp_path):
    store = _store(tmp_path)
    report = store.append_rows(_rows(3), run_id="r1", commit="abc123")
    assert report.rows_ingested == 3
    assert report.run_seq == 1
    assert report.path == os.path.join(store.root, "runs",
                                       "run-000001.json")
    with open(report.path) as fh:
        doc = json.load(fh)
    assert doc["format"] == RUN_FORMAT
    assert doc["meta"]["run_id"] == "r1"

    rows = list(store.rows())
    assert [r["benchmark"] for r in rows] == ["b0", "b1", "b2"]
    assert [r["kind"] for r in rows] == ["result"] * 3
    assert [r["commit"] for r in rows] == ["abc123"] * 3
    assert [r["run_seq"] for r in rows] == [1, 1, 1]
    assert [r["schema"] for r in rows] == [1, 1, 1]
    assert [r["failed"] for r in rows] == [0, 0, 0]
    assert [r["ed2_save_pct"] for r in rows] == [10.0, 11.0, 12.0]


def test_append_dedups_by_run_id(tmp_path):
    store = _store(tmp_path)
    assert store.append_rows(_rows(), run_id="r1").rows_ingested == 3
    again = store.append_rows(_rows(), run_id="r1")
    assert again.skipped
    assert "already ingested" in again.reason
    forced = store.append_rows(_rows(), run_id="r1", force=True)
    assert forced.rows_ingested == 3
    assert forced.run_seq == 2


def test_append_leaves_no_temp_files(tmp_path):
    store = _store(tmp_path)
    store.append_rows(_rows(), run_id="r1")
    leftovers = [
        name
        for root, _, names in os.walk(store.root)
        for name in names
        if name.startswith(".tmp-")
    ]
    assert leftovers == []


def test_missing_column_stays_missing(tmp_path):
    store = _store(tmp_path)
    store.append_rows([{"benchmark": "a", "x": 1.0}], run_id="r1")
    store.append_rows([{"benchmark": "b"}], run_id="r2")
    rows = list(store.rows())
    assert "x" not in rows[1]  # the second run lacks it
    # Query-level missing-value accounting is exercised in test_query;
    # here the store must simply not have invented a value.


def test_newer_store_index_refused(tmp_path):
    store = _store(tmp_path)
    store.append_rows(_rows(), run_id="r1")
    index = json.loads(open(store.index_path).read())
    index["store_schema"] = STORE_SCHEMA_VERSION + 1
    with open(store.index_path, "w") as fh:
        json.dump(index, fh)
    fresh = RunStore(store.root)
    with pytest.raises(ConfigError, match="newer than this code"):
        fresh.append_rows(_rows(), run_id="r2")


def test_newer_run_format_skipped(tmp_path):
    store = _store(tmp_path)
    store.append_rows(_rows(), run_id="r1")
    bogus = os.path.join(store.root, "runs", "run-999999.json")
    doc = {"format": RUN_FORMAT + 1, "meta": {},
           "rows": [{"kind": "result", "benchmark": "future"}]}
    with open(bogus, "w") as fh:
        json.dump(doc, fh)
    rows = list(store.rows())
    # The future-format run file is skipped, not fatal.
    assert [r["benchmark"] for r in rows] == ["b0", "b1", "b2"]


@pytest.mark.parametrize("payload", [
    "not a run file at all\n",
    '{"format": 1, "meta": {}, "rows": {"not": "a list"}}',
    '{"format": 1, "meta": {}, "rows": [{"benchmark": "x"}',
], ids=["not-json", "rows-not-a-list", "torn"])
def test_garbage_run_file_skipped(tmp_path, payload):
    store = _store(tmp_path)
    store.append_rows(_rows(), run_id="r1")
    bogus = os.path.join(store.root, "runs", "run-999998.json")
    with open(bogus, "w") as fh:
        fh.write(payload)
    assert len(list(store.rows())) == 3


def _write_old_columnar_store(root):
    """A store as the binary columnar segment format left it."""
    os.makedirs(os.path.join(root, "segments"))
    with open(os.path.join(root, "index.json"), "w") as fh:
        json.dump({"store_schema": 1, "next_seq": 2, "ingests": [
            {"seq": 1, "run_id": "old", "rows": 1}]}, fh)
    header = {"magic": "rcol", "format": 1, "n_rows": 1, "columns": [],
              "dicts": {}, "meta": {}}
    with open(os.path.join(root, "segments", "seg-000001.rcol"),
              "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")


def _snapshot(root):
    return {p: p.read_bytes() for p in Path(root).rglob("*") if p.is_file()}


def test_old_columnar_store_refused(tmp_path):
    root = str(tmp_path / "old-store")
    _write_old_columnar_store(root)
    before = _snapshot(root)
    store = RunStore(root)
    for action in (
        lambda: store.append_rows(_rows(), run_id="r2"),
        lambda: list(store.rows()),
        store.stats,
    ):
        with pytest.raises(ConfigError) as excinfo:
            action()
        message = str(excinfo.value)
        assert "--store" in message and "re-ingest" in message
    assert _snapshot(root) == before  # nothing written, nothing added


# -- run-directory ingest ----------------------------------------------- #


def _write_run_dir(tmp_path, degraded=False):
    """A real RunWriter-produced directory (schema stamps included)."""
    out = tmp_path / "run"
    writer = RunWriter(str(out), command="figure3", argv=["figure3"],
                       configs={"machine": MachineConfig()})
    writer.add_row({"benchmark": "gap", "target": "L",
                    "speedup_pct": 12.5, "ed2_save_pct": 30.0})
    if degraded:
        writer.add_row({"benchmark": "gap", "target": "O", "failed": True,
                        "error": "JobFailure", "detail": "worker died"})
    writer.finalize(counters={"harness.simcache.hits": 3,
                              "harness.simcache.misses": 1})
    return out


def test_ingest_run_directory(tmp_path):
    out = _write_run_dir(tmp_path)
    store = _store(tmp_path)
    report = store.ingest_run(str(out))
    assert not report.skipped
    assert report.rows_ingested == 2  # 1 result row + 1 run-level row
    assert report.lines_damaged == 0
    assert report.rows_rejected == 0

    by_kind = {r["kind"]: r for r in store.rows()}
    assert sorted(by_kind) == ["result", "run"]
    # The RunWriter stamped the current schema into results.jsonl and
    # the ingester preserved it.
    assert by_kind["result"]["schema"] == RESULTS_SCHEMA_VERSION
    # Run-level row carries the simcache hit rate from the manifest.
    assert by_kind["run"]["cache_hit_rate"] == pytest.approx(0.75)


def test_ingest_degraded_run_flags_rows(tmp_path):
    out = _write_run_dir(tmp_path, degraded=True)
    store = _store(tmp_path)
    report = store.ingest_run(str(out))
    # JobFailure rows ingest as flagged rows -- never dropped.
    assert report.rows_ingested == 3
    assert report.rows_flagged == 1
    failed_kinds = [r["kind"] for r in store.rows() if r["failed"]]
    assert failed_kinds == ["result"]


def test_ingest_run_dedups_and_forces(tmp_path):
    out = _write_run_dir(tmp_path)
    store = _store(tmp_path)
    first = store.ingest_run(str(out))
    assert not first.skipped
    again = store.ingest_run(str(out))
    assert again.skipped
    forced = store.ingest_run(str(out), force=True)
    assert not forced.skipped
    assert forced.run_seq == first.run_seq + 1


def test_ingest_tolerates_torn_tail(tmp_path):
    out = _write_run_dir(tmp_path)
    with open(out / "results.jsonl", "a") as fh:
        fh.write('{"benchmark": "gap", "tar')  # crash mid-write
    store = _store(tmp_path)
    report = store.ingest_run(str(out))
    # The torn tail is the expected crash artifact: ignored, not damage.
    assert report.lines_damaged == 0
    assert report.rows_ingested == 2


def test_ingest_counts_interior_damage(tmp_path):
    out = _write_run_dir(tmp_path)
    lines = (out / "results.jsonl").read_text().splitlines()
    lines.insert(0, "}{ not json at all")
    lines.insert(1, '["an array is not a record"]')
    (out / "results.jsonl").write_text("\n".join(lines) + "\n")
    store = _store(tmp_path)
    report = store.ingest_run(str(out))
    assert report.lines_damaged == 2
    assert report.rows_ingested == 2  # good rows are lossless


def test_ingest_rejects_newer_schema_rows(tmp_path):
    out = _write_run_dir(tmp_path)
    with open(out / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"schema": RESULTS_SCHEMA_VERSION + 7,
                             "benchmark": "gap", "target": "E",
                             "speedup_pct": 1.0}) + "\n")
        fh.write(json.dumps({"schema": "bogus", "benchmark": "gap",
                             "target": "P"}) + "\n")
    store = _store(tmp_path)
    report = store.ingest_run(str(out))
    assert report.rows_rejected == 2
    assert report.rows_ingested == 2  # good rows unaffected


def test_ingest_mixed_schema_versions(tmp_path):
    """Pre-stamp (v1) and stamped (v2) artifacts coexist in one store."""
    out = _write_run_dir(tmp_path)
    legacy = tmp_path / "legacy-run"
    os.makedirs(legacy)
    with open(legacy / "results.jsonl", "w") as fh:
        # A v1 artifact: no schema key on any row, no manifest at all.
        fh.write(json.dumps({"benchmark": "mcf", "target": "L",
                             "ed2_save_pct": 20.0}) + "\n")
    store = _store(tmp_path)
    assert store.ingest_run(str(out)).rows_ingested == 2
    report = store.ingest_run(str(legacy))
    assert report.rows_ingested == 1
    assert report.run_id == "legacy-run"  # dirname fallback
    schemas = sorted(
        r["schema"] for r in store.rows() if r["kind"] == "result"
    )
    assert schemas == [1, RESULTS_SCHEMA_VERSION]


def test_store_with_legacy_trace_rows_aggregates_results(tmp_path):
    """A store that already holds ``kind: "trace"`` rows from older
    ingests still loads, and its result and run rows still aggregate."""
    store = _store(tmp_path)
    store.append_rows(
        [{"kind": "trace", "label": "gap.L.optimized", "benchmark": "gap",
          "ipc": 1.5, "stall_load_miss": 0.75}],
        run_id="legacy-trace",
    )
    store.ingest_run(str(_write_run_dir(tmp_path)))

    reopened = RunStore(store.root)
    kinds = sorted(r["kind"] for r in reopened.rows())
    assert kinds == ["result", "run", "trace"]
    result = aggregate(reopened, "ed2_save_pct", agg="mean", kind="result")
    assert sum(row["n"] for row in result.rows) == 1
    walls = aggregate(reopened, "wall_s", agg="mean", kind="run")
    assert sum(row["n"] for row in walls.rows) == 1


def test_ingest_empty_directory_skips(tmp_path):
    empty = tmp_path / "empty"
    os.makedirs(empty)
    report = _store(tmp_path).ingest_run(str(empty))
    assert report.skipped
    assert "no ingestable rows" in report.reason


def test_ingest_path_dispatches(tmp_path):
    out = _write_run_dir(tmp_path)
    plain = tmp_path / "BENCH_X.json"
    plain.write_text(json.dumps({"simulator": []}))
    store = _store(tmp_path)
    assert store.ingest_path(str(out)).rows_ingested == 2
    # Only run directories ingest; a plain file is rejected loudly
    # rather than guessed at.
    with pytest.raises(ConfigError, match="not a run directory"):
        store.ingest_path(str(plain))
    with pytest.raises(ConfigError, match="not a run directory"):
        store.ingest_path(str(tmp_path / "missing"))


# -- misc --------------------------------------------------------------- #


def test_stats_summarizes_store(tmp_path):
    store = _store(tmp_path)
    store.append_rows(_rows(), run_id="r1")
    store.append_rows(_rows(), run_id="r2")
    stats = store.stats()
    assert stats["runs"] == 2
    assert stats["ingests"] == 2
    assert stats["rows"] == 6
    assert stats["bytes"] > 0


def test_env_knobs(monkeypatch):
    monkeypatch.setenv("REPRO_ANALYTICS", "0")
    assert not ingest_enabled()
    monkeypatch.setenv("REPRO_ANALYTICS", "1")
    assert ingest_enabled()
    monkeypatch.delenv("REPRO_ANALYTICS")
    assert ingest_enabled()
    monkeypatch.setenv("REPRO_ANALYTICS_DIR", "/tmp/somewhere")
    assert default_store_dir() == "/tmp/somewhere"
    monkeypatch.delenv("REPRO_ANALYTICS_DIR")
    assert default_store_dir().endswith("repro-analytics")
