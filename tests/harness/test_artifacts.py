"""End-to-end tests: CLI artifacts and telemetry wiring."""

import csv
import json

import pytest

from repro import obs
from repro.cli import main
from repro.config import MachineConfig
from repro.frontend import tracestore
from repro.harness import experiment
from repro.harness.figures import FigureData

#: Columns every (benchmark, target) result row must carry.
ROW_KEYS = {
    "benchmark", "target", "n_pthreads",
    "speedup_pct", "energy_save_pct", "ed_save_pct", "ed2_save_pct",
    "full_coverage_pct", "partial_coverage_pct", "pinst_increase_pct",
    "usefulness_pct", "avg_pthread_length", "spawns",
}
PHASE_KEYS = {"t_baseline", "t_profile", "t_select", "t_augment",
              "t_simulate", "t_total"}


@pytest.fixture(autouse=True)
def _quiet_obs():
    obs.reset()
    yield
    obs.reset()


def test_run_json_out_produces_artifacts(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["run", "gap", "--json", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    row = json.loads(stdout.strip())
    assert ROW_KEYS <= set(row)
    assert PHASE_KEYS <= set(row)
    assert row["benchmark"] == "gap" and row["target"] == "L"

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "run"
    assert manifest["n_rows"] == 1
    assert set(manifest["configs"]) == {
        "machine", "energy", "selection", "simulation"
    }
    assert (
        manifest["configs"]["machine"]["fingerprint"]
        == MachineConfig().fingerprint
    )
    assert "cpu.pipeline.simulations" in manifest["counters"]

    results = (out / "results.jsonl").read_text().splitlines()
    assert len(results) == 1
    assert json.loads(results[0])["ed2_save_pct"] == row["ed2_save_pct"]

    with open(out / "run_table.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    assert len(table) == 1
    assert table[0]["benchmark"] == "gap"
    assert table[0]["run_id"]

    # A second run into the same directory appends a run_table row.
    assert main(["run", "gap", "--json", "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out / "run_table.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 2


def test_run_text_includes_ed2_and_quiet_suppresses_describe(capsys):
    assert main(["run", "gap"]) == 0
    out = capsys.readouterr().out
    assert "ed2_save_pct" in out
    assert "p-threads over" in out  # the selection description

    assert main(["run", "gap", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "ed2_save_pct" in out
    assert "p-threads over" not in out


def test_run_log_level_emits_span_events(capsys):
    # Earlier tests in this process may have warmed the in-process
    # caches for this exact experiment; the span assertions below need
    # the simulations to actually run.
    tracestore.clear()
    assert main(["run", "gap", "--quiet", "--log-level", "info"]) == 0
    err = capsys.readouterr().err
    events = [json.loads(line) for line in err.splitlines() if line]
    names = {e.get("name") for e in events if e["event"] == "span_end"}
    assert {"select", "simulate", "experiment"} <= names
    done = [e for e in events if e["event"] == "sim.done"]
    assert done and done[-1]["cycles_per_sec"] > 0


def test_figure3_out_emits_rows_with_phase_timings(tmp_path, capsys,
                                                   monkeypatch):
    # Plumbing test: a stubbed figure3 keeps this fast while exercising
    # the full artifact path (rows -> jsonl/csv/manifest + gmeans).
    rows = [
        {"benchmark": "gap", "target": t, "speedup_pct": s,
         "energy_save_pct": s / 2, "ed_save_pct": s / 3,
         "t_select": 0.5, "t_simulate": 1.5, "t_total": 2.0}
        for t, s in (("O", 10.0), ("L", 12.0))
    ]
    from repro.harness import figures

    monkeypatch.setattr(
        figures, "figure3",
        lambda benchmarks=None, jobs=None: FigureData(rows=list(rows)),
    )
    out = tmp_path / "fig3"
    assert main(["figure3", "--benchmarks", "gap", "--json",
                 "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    emitted = [json.loads(line) for line in lines]
    assert [r.get("target") for r in emitted[:2]] == ["O", "L"]
    assert emitted[-1]["event"] == "gmeans"
    assert "speedup_pct" in emitted[-1]

    results = [json.loads(line)
               for line in (out / "results.jsonl").read_text().splitlines()]
    assert all({"t_select", "t_simulate", "t_total"} <= set(r)
               for r in results)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["benchmarks"] == ["gap"]
    assert "speedup_pct" in manifest["gmeans"]


def test_phase_seconds_on_experiment_result():
    result = experiment.run_experiment("gap")
    assert {"baseline", "profile", "select", "augment", "simulate",
            "total"} <= set(result.phase_seconds)
    assert result.phase_seconds["total"] >= result.phase_seconds["simulate"]
