"""End-to-end CLI tests for ``repro analytics query``.

The query reads ``--out`` run directories directly: they are the only
copy of a run's rows.
"""

import json

import pytest

from repro.cli import main
from repro.obs.manifest import RunWriter


def _run_dir(tmp_path, row):
    out = str(tmp_path / "run")
    writer = RunWriter(out, command="run", run_id="r1")
    writer.add_row(row)
    writer.finalize()
    return out


def _json_rows(out):
    return [json.loads(line) for line in out.splitlines() if line]


def test_reused_out_dir_counts_each_run_once(tmp_path, capsys):
    out = str(tmp_path / "out")
    for _ in range(2):
        assert main(["run", "gap", "--target", "L", "--out", out]) == 0
    capsys.readouterr()

    assert main(["analytics", "query", out, "--agg", "count",
                 "--group-by", "run_seq", "--metric", "speedup_pct",
                 "--json"]) == 0
    rows = _json_rows(capsys.readouterr().out)
    assert [(row["run_seq"], row["n"]) for row in rows] == [(1, 1), (2, 1)]

    # One run row, for the run the manifest describes.
    assert main(["analytics", "query", out, "--kind", "run",
                 "--metric", "wall_s", "--agg", "mean", "--json"]) == 0
    (row,) = _json_rows(capsys.readouterr().out)
    assert (row["run_seq"], row["n"]) == (2, 1)


def test_analytics_query_table_and_accounting(tmp_path, capsys):
    out = _run_dir(tmp_path, {"benchmark": "gap", "target": "L",
                              "ed2_save_pct": 30.0})
    assert main(["analytics", "query", out]) == 0
    captured = capsys.readouterr()
    assert "ed2_save_pct" not in captured.err
    assert "value" in captured.out
    assert "1 input rows" in captured.err


def test_analytics_query_where_non_numeric_on_numeric_column(
        tmp_path, capsys):
    out = _run_dir(tmp_path, {"benchmark": "gcc", "target": "L",
                              "memory_latency": 300, "ed2_save_pct": 30.0})
    assert main(["analytics", "query", out,
                 "--where", "memory_latency=abc"]) == 0
    captured = capsys.readouterr()
    assert "(no rows)" in captured.out
    assert "Traceback" not in captured.err
    assert main(["analytics", "query", out, "--where", "memory_latency=300",
                 "--json"]) == 0
    (row,) = _json_rows(capsys.readouterr().out)
    assert row["target"] == "L" and row["n"] == 1


def test_analytics_query_bad_where_exits_2(tmp_path, capsys):
    assert main(["analytics", "query", str(tmp_path),
                 "--where", "nonsense"]) == 2
    assert "COL=VALUE" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["reslt", "span"])
def test_analytics_query_unknown_kind_exits_2(tmp_path, capsys, kind):
    with pytest.raises(SystemExit) as excinfo:
        main(["analytics", "query", str(tmp_path), "--kind", kind])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_analytics_query_plain_file_exits_2(tmp_path, capsys):
    plain = tmp_path / "snapshot.json"
    plain.write_text("{}")
    assert main(["analytics", "query", str(plain)]) == 2
    assert "not a run directory" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["analytics", "ingest", "."],
    ["analytics", "stats"],
    ["analytics", "query", ".", "--store", "s"],
], ids=["ingest", "stats", "store"])
def test_run_store_commands_are_gone(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
