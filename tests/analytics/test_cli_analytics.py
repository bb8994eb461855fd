"""End-to-end CLI tests for ``repro analytics`` and auto-ingest.

Auto-ingest at the end of ``--out`` runs is the fleet's data feed, and
``REPRO_ANALYTICS=0`` (the suite-wide default from conftest) must keep
runs bit-identical to the pre-analytics layout -- both sides of that
switch are exercised here through the real CLI entry point.
"""

import json
import os

import pytest

from repro.cli import main
from repro.analytics.store import RunStore


@pytest.fixture
def store_dir(tmp_path):
    return str(tmp_path / "store")


def _run_with_out(tmp_path, name="out"):
    out = str(tmp_path / name)
    assert main(["run", "gap", "--target", "E", "--out", out]) == 0
    return out


def test_analytics_off_leaves_no_store(tmp_path, store_dir, capsys,
                                       monkeypatch):
    monkeypatch.setenv("REPRO_ANALYTICS", "0")
    monkeypatch.setenv("REPRO_ANALYTICS_DIR", store_dir)
    _run_with_out(tmp_path)
    captured = capsys.readouterr()
    assert "ingested" not in captured.out + captured.err
    assert not os.path.exists(store_dir)


def test_auto_ingest_on_run_with_out(tmp_path, store_dir, capsys,
                                     monkeypatch):
    monkeypatch.setenv("REPRO_ANALYTICS", "1")
    _run_with_out(tmp_path)
    # The run went through --store-less dispatch: default dir applies,
    # which conftest points at a scratch path; use an explicit store
    # for the assertable case.
    assert main(["run", "gap", "--target", "E",
                 "--out", str(tmp_path / "out2"),
                 "--store", store_dir]) == 0
    assert "ingested" in capsys.readouterr().err
    store = RunStore(store_dir)
    assert store.stats()["ingests"] == 1
    seg = next(iter(store.segments()))
    assert "result" in seg.strings("kind")


def test_analytics_ingest_query_stats_roundtrip(tmp_path, store_dir,
                                                capsys, monkeypatch):
    monkeypatch.setenv("REPRO_ANALYTICS", "0")  # manual ingest only
    out = _run_with_out(tmp_path)
    capsys.readouterr()

    assert main(["analytics", "ingest", out, "--store", store_dir]) == 0
    assert "run_seq 1" in capsys.readouterr().out

    # Re-ingest dedups; --force appends a new segment.
    assert main(["analytics", "ingest", out, "--store", store_dir]) == 0
    assert "skipped" in capsys.readouterr().out
    assert main(["analytics", "ingest", out, "--force",
                 "--store", store_dir]) == 0
    capsys.readouterr()

    assert main(["analytics", "stats", "--store", store_dir]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["segments"] == 2

    assert main(["analytics", "query", "--metric", "speedup_pct",
                 "--agg", "mean", "--group-by", "run_seq,target",
                 "--json", "--store", store_dir]) == 0
    rows = [json.loads(line)
            for line in capsys.readouterr().out.splitlines() if line]
    assert {row["target"] for row in rows} == {"E"}
    assert len(rows) == 2  # one per ingest seq


def test_analytics_query_table_and_accounting(tmp_path, store_dir,
                                              capsys):
    RunStore(store_dir).append_rows(
        [{"benchmark": "gap", "target": "L", "ed2_save_pct": 30.0}],
        run_id="r1",
    )
    assert main(["analytics", "query", "--store", store_dir]) == 0
    captured = capsys.readouterr()
    assert "ed2_save_pct" not in captured.err
    assert "value" in captured.out
    assert "1 input rows" in captured.err


def test_analytics_query_bad_where_exits_2(store_dir, capsys):
    assert main(["analytics", "query", "--where", "nonsense",
                 "--store", store_dir]) == 2
    assert "COL=VALUE" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["reslt", "span"])
def test_analytics_query_unknown_kind_exits_2(store_dir, capsys, kind):
    with pytest.raises(SystemExit) as excinfo:
        main(["analytics", "query", "--kind", kind, "--store", store_dir])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_analytics_ingest_plain_file_exits_2(tmp_path, store_dir, capsys):
    plain = tmp_path / "snapshot.json"
    plain.write_text("{}")
    assert main(["analytics", "ingest", str(plain),
                 "--store", store_dir]) == 2
    assert "not a run directory" in capsys.readouterr().err
    assert not os.path.exists(store_dir)
