"""Tests for the columnar run store: round-trips, adversarial ingest.

The adversarial cases encode the store's contract -- *lossless for good
rows, loud for bad ones*: torn trailing lines in ``results.jsonl`` are
the expected crash artifact and are silently tolerated, damaged
interior lines and rows stamped with a schema newer than this code are
counted (and warned about via obs), and degraded runs with JobFailure
rows ingest as flagged rows rather than disappearing.
"""

import json
import math
import os

import pytest

from repro.config import MachineConfig
from repro.errors import ConfigError
from repro.obs.manifest import RESULTS_SCHEMA_VERSION, RunWriter
from repro.analytics.store import (
    RunStore,
    SEGMENT_FORMAT,
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
    assert os.path.exists(report.segment)

    segs = list(store.segments())
    assert len(segs) == 1
    seg = segs[0]
    assert seg.n_rows == 3
    assert seg.strings("benchmark") == ["b0", "b1", "b2"]
    assert seg.strings("kind") == ["result"] * 3
    assert seg.strings("commit") == ["abc123"] * 3
    assert list(seg.column("run_seq")) == [1, 1, 1]
    assert [float(v) for v in seg.column("ed2_save_pct")] == [
        10.0, 11.0, 12.0
    ]


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


def test_missing_column_reads_as_nan(tmp_path):
    store = _store(tmp_path)
    store.append_rows([{"benchmark": "a", "x": 1.0}], run_id="r1")
    store.append_rows([{"benchmark": "b"}], run_id="r2")
    segs = list(store.segments())
    assert segs[1].column("x") is None  # second segment lacks it
    # Query-level NaN fill is exercised in test_query; here the store
    # must simply not have invented a value.


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


def test_newer_segment_format_skipped(tmp_path):
    store = _store(tmp_path)
    store.append_rows(_rows(), run_id="r1")
    bogus = os.path.join(store.root, "segments", "seg-999999.rcol")
    header = {"magic": "rcol", "format": SEGMENT_FORMAT + 1,
              "n_rows": 1, "columns": [], "dicts": {}, "meta": {}}
    with open(bogus, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
    segs = list(store.segments())
    assert len(segs) == 1  # the future-format segment is skipped, not fatal
    assert segs[0].n_rows == 3


def test_garbage_segment_skipped(tmp_path):
    store = _store(tmp_path)
    store.append_rows(_rows(), run_id="r1")
    bogus = os.path.join(store.root, "segments", "seg-999998.rcol")
    with open(bogus, "wb") as fh:
        fh.write(b"not a segment at all\n")
    assert len(list(store.segments())) == 1


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

    seg = next(iter(store.segments()))
    kinds = seg.strings("kind")
    assert sorted(kinds) == ["result", "run"]
    # The RunWriter stamped the current schema into results.jsonl and
    # the ingester preserved it column-wise.
    i = kinds.index("result")
    assert seg.column("schema")[i] == RESULTS_SCHEMA_VERSION
    # Run-level row carries the simcache hit rate from the manifest.
    j = kinds.index("run")
    assert float(seg.column("cache_hit_rate")[j]) == pytest.approx(0.75)


def test_ingest_degraded_run_flags_rows(tmp_path):
    out = _write_run_dir(tmp_path, degraded=True)
    store = _store(tmp_path)
    report = store.ingest_run(str(out))
    # JobFailure rows ingest as flagged rows -- never dropped.
    assert report.rows_ingested == 3
    assert report.rows_flagged == 1
    seg = next(iter(store.segments()))
    kinds = seg.strings("kind")
    flags = list(seg.column("failed"))
    failed_kinds = [k for k, f in zip(kinds, flags) if f]
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
        int(s)
        for seg in store.segments()
        for s, k in zip(seg.column("schema"), seg.strings("kind"))
        if k == "result"
    )
    assert schemas == [1, RESULTS_SCHEMA_VERSION]


def test_ingest_trace_summaries(tmp_path):
    out = _write_run_dir(tmp_path)
    os.makedirs(out / "utrace")
    summary = {"label": "gap.L.optimized", "ipc": 1.5, "cycles": 20000,
               "committed": 30000,
               "stall_fractions": {"retiring": 0.25, "load_miss": 0.75}}
    (out / "utrace" / "gap.L.optimized.abc.summary.json").write_text(
        json.dumps(summary)
    )
    (out / "utrace" / "broken.zz.summary.json").write_text("{ nope")
    store = _store(tmp_path)
    report = store.ingest_run(str(out))
    assert report.rows_ingested == 3  # result + trace + run
    seg = next(iter(store.segments()))
    kinds = seg.strings("kind")
    i = kinds.index("trace")
    assert seg.strings("benchmark")[i] == "gap"
    assert float(seg.column("stall_load_miss")[i]) == pytest.approx(0.75)


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
    assert stats["segments"] == 2
    assert stats["ingests"] == 2
    assert stats["rows"] == 6
    assert stats["bytes"] > 0


def test_mixed_type_column_stringifies(tmp_path):
    store = _store(tmp_path)
    store.append_rows(
        [{"benchmark": "a", "x": 1.5}, {"benchmark": "b", "x": "oops"}],
        run_id="r1",
    )
    seg = next(iter(store.segments()))
    # Hand-edited artifacts with mixed types must not silently drop
    # values: the column degrades to strings.
    assert seg.strings("x") == ["1.5", "oops"]


def test_none_values_read_as_nan(tmp_path):
    store = _store(tmp_path)
    store.append_rows(
        [{"benchmark": "a", "x": None}, {"benchmark": "b", "x": 2.0}],
        run_id="r1",
    )
    seg = next(iter(store.segments()))
    col = seg.column("x")
    assert math.isnan(float(col[0]))
    assert float(col[1]) == 2.0


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
