"""Tests for config fingerprints, the run-artifact writer and the
run-directory reader."""

import csv
import json
import os

import pytest

from repro import obs
from repro.config import EnergyConfig, MachineConfig
from repro.errors import ConfigError
from repro.obs.manifest import (
    RESULTS_SCHEMA_VERSION,
    RunWriter,
    config_fingerprint,
    git_commit,
    read_runs,
)


def test_fingerprint_stable_across_instances():
    assert config_fingerprint(MachineConfig()) == config_fingerprint(
        MachineConfig()
    )


def test_fingerprint_distinguishes_values_and_types():
    base = config_fingerprint(MachineConfig())
    assert config_fingerprint(MachineConfig(width=8)) != base
    assert config_fingerprint(EnergyConfig()) != base


def test_config_fingerprint_property():
    cfg = MachineConfig()
    assert cfg.fingerprint == config_fingerprint(cfg)
    assert len(cfg.fingerprint) == 16


def test_run_writer_round_trip(tmp_path):
    out = tmp_path / "demo"
    writer = RunWriter(str(out), command="figure3", argv=["figure3"],
                       configs={"machine": MachineConfig()})
    writer.add_row({"benchmark": "gcc", "target": "L", "speedup_pct": 12.5})
    writer.add_row({"benchmark": "gcc", "target": "E", "speedup_pct": 4.0})
    manifest_path = writer.finalize(
        counters={"cpu.pipeline.simulations": 3}, gmeans={"L": 12.5}
    )

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest_path == str(out / "manifest.json")
    assert manifest["command"] == "figure3"
    assert manifest["n_rows"] == 2
    assert manifest["version"]
    assert manifest["counters"] == {"cpu.pipeline.simulations": 3}
    assert manifest["gmeans"] == {"L": 12.5}
    fp = manifest["configs"]["machine"]["fingerprint"]
    assert fp == MachineConfig().fingerprint
    assert manifest["configs"]["machine"]["values"]["width"] == 6

    rows = [json.loads(line)
            for line in (out / "results.jsonl").read_text().splitlines()]
    assert [r["target"] for r in rows] == ["L", "E"]

    with open(out / "run_table.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    assert len(table) == 2
    assert table[0]["benchmark"] == "gcc"
    assert table[0]["run_id"] == writer.run_id
    assert table[0]["command"] == "figure3"
    assert float(table[0]["speedup_pct"]) == 12.5


def test_run_table_appends_and_reuses_header(tmp_path):
    out = str(tmp_path / "demo")
    w1 = RunWriter(out, command="run")
    w1.add_row({"benchmark": "a", "target": "L", "speedup_pct": 1.0})
    w1.finalize()

    # A second run into the same directory appends; its extra column
    # widens the header after the existing ones, and the earlier row is
    # padded so the accumulated table stays rectangular.
    w2 = RunWriter(out, command="run")
    w2.add_row({"benchmark": "b", "target": "E", "speedup_pct": 2.0,
                "new_col": 9})
    w2.finalize()

    # A third run with no new column appends under the reused header.
    w3 = RunWriter(out, command="run")
    w3.add_row({"benchmark": "c", "target": "O"})
    w3.finalize()

    with open(f"{out}/run_table.csv", newline="") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 4  # one header + three rows
    assert lines[0] == "run_id,command,benchmark,target,speedup_pct,new_col"
    with open(f"{out}/run_table.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    assert [r["benchmark"] for r in table] == ["a", "b", "c"]
    assert [r["new_col"] for r in table] == ["", "9", ""]
    assert [r["speedup_pct"] for r in table] == ["1.0", "2.0", ""]
    assert len({r["run_id"] for r in table}) == 3
    results = open(f"{out}/results.jsonl").read().splitlines()
    assert len(results) == 3
    assert json.loads(results[1])["new_col"] == 9


def test_default_run_ids_are_unique_within_a_process(tmp_path):
    started = 1_790_000_000.0
    ids = {RunWriter(str(tmp_path / "x"), started=started).run_id
           for _ in range(3)}
    assert len(ids) == 3


def test_run_ids_embed_timestamp(tmp_path):
    writer = RunWriter(str(tmp_path / "x"))
    assert "T" in writer.run_id and "-" in writer.run_id


def test_results_records_are_schema_stamped(tmp_path):
    writer = RunWriter(str(tmp_path / "x"), command="run")
    writer.add_row({"benchmark": "gap", "target": "L"})
    writer.finalize()
    record = json.loads(
        open(tmp_path / "x" / "results.jsonl").read().splitlines()[0]
    )
    assert record["schema"] == RESULTS_SCHEMA_VERSION
    assert record["run_id"] == writer.run_id
    # In-memory rows stay unstamped: run_table.csv and figure payloads
    # keep their historical shape.
    assert "schema" not in writer.rows[0]
    with open(tmp_path / "x" / "run_table.csv", newline="") as fh:
        header = fh.readline()
    assert "schema" not in header


def test_manifest_carries_schema_version_and_commit(tmp_path, monkeypatch):
    monkeypatch.setenv("GITHUB_SHA", "f" * 40)
    writer = RunWriter(str(tmp_path / "x"), command="run")
    writer.add_row({"benchmark": "gap", "target": "L"})
    writer.finalize()
    manifest = json.loads(open(tmp_path / "x" / "manifest.json").read())
    assert manifest["schema_version"] == RESULTS_SCHEMA_VERSION
    assert manifest["git_commit"] == "f" * 40


def test_git_commit_env_override(monkeypatch):
    monkeypatch.setenv("GITHUB_SHA", "abc123")
    assert git_commit() == "abc123"


# -- reading run directories back ---------------------------------------- #


def _run_dir(tmp_path, name="run", run_id="r1", degraded=False):
    """A RunWriter-produced directory: one result row, a run row."""
    out = tmp_path / name
    writer = RunWriter(str(out), command="figure3", argv=["figure3"],
                       run_id=run_id, configs={"machine": MachineConfig()})
    writer.add_row({"benchmark": "gap", "target": "L",
                    "speedup_pct": 12.5, "ed2_save_pct": 30.0})
    if degraded:
        writer.add_row({"benchmark": "gap", "target": "O", "failed": True,
                        "error": "JobFailure", "detail": "worker died"})
    writer.finalize(counters={"harness.simcache.hits": 3,
                              "harness.simcache.misses": 1})
    return out


def _append(path, *lines):
    with open(path, "a") as fh:
        fh.write("".join(lines))


def _clean(tmp_path):
    return [_run_dir(tmp_path)]


def _torn_tail(tmp_path):
    out = _run_dir(tmp_path)
    _append(out / "results.jsonl", '{"benchmark": "gap", "tar')
    return [out]


def _interior_damage(tmp_path):
    out = _run_dir(tmp_path)
    lines = (out / "results.jsonl").read_text().splitlines()
    lines[:0] = ["}{ not json at all", '["an array is not a record"]']
    (out / "results.jsonl").write_text("\n".join(lines) + "\n")
    return [out]


def _newer_schema(tmp_path):
    out = _run_dir(tmp_path)
    _append(
        out / "results.jsonl",
        json.dumps({"schema": RESULTS_SCHEMA_VERSION + 7, "run_id": "r1",
                    "benchmark": "gap", "target": "E"}) + "\n",
        json.dumps({"schema": "bogus", "benchmark": "gap",
                    "target": "P"}) + "\n",
    )
    return [out]


def _mixed_schema(tmp_path):
    # A v1 artifact: no schema and no run_id on any row, no manifest.
    legacy = tmp_path / "legacy-run"
    os.makedirs(legacy)
    _append(legacy / "results.jsonl",
            json.dumps({"benchmark": "mcf", "target": "L",
                        "ed2_save_pct": 20.0}) + "\n")
    return [_run_dir(tmp_path), legacy]


def _degraded(tmp_path):
    return [_run_dir(tmp_path, degraded=True)]


def _load_test(tmp_path):
    out = _run_dir(tmp_path)
    _append(out / "results.jsonl",
            json.dumps({"schema": RESULTS_SCHEMA_VERSION, "run_id": "r1",
                        "mode": "closed", "throughput_rps": 2.0,
                        "failed": 3}) + "\n")
    return [out]


def _empty(tmp_path):
    os.makedirs(tmp_path / "empty")
    return [tmp_path / "empty"]


_RESULT = (1, "r1", "result", RESULTS_SCHEMA_VERSION, 0)
_RUN = (1, "r1", "run", 1, 0)


@pytest.mark.parametrize("make_dirs, expected, damaged, rejected", [
    (_clean, [_RESULT, _RUN], 0, 0),
    # The torn tail is the expected crash artifact: dropped, not damage.
    (_torn_tail, [_RESULT, _RUN], 0, 0),
    # Good rows are lossless around damaged interior lines.
    (_interior_damage, [_RESULT, _RUN], 2, 0),
    (_newer_schema, [_RESULT, _RUN], 0, 2),
    # Pre-stamp (v1) and stamped (v2) directories read side by side; the
    # manifest-less one is its own run, named after its directory.
    (_mixed_schema, [_RESULT, _RUN, (2, "legacy-run", "result", 1, 0)],
     0, 0),
    # JobFailure rows come back flagged, never dropped.
    (_degraded, [_RESULT, (1, "r1", "result", RESULTS_SCHEMA_VERSION, 1),
                 _RUN], 0, 0),
    # A load-test summary's ``failed`` is a request count, not a flag.
    (_load_test, [_RESULT, (1, "r1", "result", RESULTS_SCHEMA_VERSION, 3),
                  _RUN], 0, 0),
    (_empty, [], 0, 0),
], ids=["clean", "torn-tail", "interior-damage", "newer-schema",
        "mixed-schema", "degraded", "load-test", "empty"])
def test_read_runs(tmp_path, make_dirs, expected, damaged, rejected):
    dirs = [str(d) for d in make_dirs(tmp_path)]
    before = obs.counters.snapshot()
    rows = read_runs(dirs)
    delta = obs.counters.delta_since(before)
    assert [
        (r["run_seq"], r["run_id"], r["kind"], r["schema"], r["failed"])
        for r in rows
    ] == expected
    assert delta.get("results.damaged_lines", 0) == damaged
    assert delta.get("results.rejected_rows", 0) == rejected
    for row in rows:
        if row["kind"] == "run":
            # The manifest's counters give the run's simcache hit rate.
            assert row["cache_hit_rate"] == pytest.approx(0.75)
        elif row["run_id"] == "r1" and not row["failed"]:
            assert row["speedup_pct"] == 12.5


def test_read_runs_splits_a_reused_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("GITHUB_SHA", "c" * 40)
    _run_dir(tmp_path, run_id="first")
    out = _run_dir(tmp_path, run_id="second")
    rows = read_runs([str(out)])
    assert [(r["run_seq"], r["run_id"], r["kind"]) for r in rows] == [
        (1, "first", "result"),
        (2, "second", "result"),
        (2, "second", "run"),
    ]
    # Only the manifest's run has a known commit.
    assert [r["commit"] for r in rows] == ["", "c" * 40, "c" * 40]


def test_read_runs_gives_unstamped_records_to_the_manifest_run(tmp_path):
    out = _run_dir(tmp_path, run_id="r1")
    # Records written before they carried run_id.
    lines = (out / "results.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    for record in records:
        del record["run_id"]
    (out / "results.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in records)
    )
    assert [(r["run_seq"], r["run_id"]) for r in read_runs([str(out)])] \
        == [(1, "r1"), (1, "r1")]


def test_read_runs_refuses_a_non_directory(tmp_path):
    plain = tmp_path / "snapshot.json"
    plain.write_text("{}")
    for path in (plain, tmp_path / "missing"):
        with pytest.raises(ConfigError, match="not a run directory"):
            read_runs([str(path)])
