"""Tests for the command-line interface."""

import json
import re

import pytest

from repro import cli
from repro.cli import main
from repro.harness import chaos, simcache


@pytest.fixture(autouse=True)
def _isolated_simcache():
    """CLI cache flags mutate process-wide state; restore defaults."""
    yield
    simcache.reset()


def test_list_prints_benchmarks(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "mcf" in out and "vpr.route" in out


def test_run_single_experiment(capsys):
    assert main(["run", "gap", "--target", "E"]) == 0
    out = capsys.readouterr().out
    assert "speedup_pct" in out


def test_run_rejects_unknown_benchmark():
    with pytest.raises(SystemExit):
        main(["run", "eon"])


def test_rejects_unknown_target():
    with pytest.raises(SystemExit):
        main(["run", "gap", "--target", "X"])


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_cache_stats_reports_configured_dir(tmp_path, capsys):
    cache_dir = str(tmp_path / "simcache")
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dir"] == cache_dir
    assert payload["entries"] == 0
    assert payload["schema_version"] == simcache.SCHEMA_VERSION


def test_cache_clear_removes_entries(tmp_path, capsys):
    cache_dir = str(tmp_path / "simcache")
    cache = simcache.SimCache(cache_dir)
    cache.put({"k": 1}, "payload")
    assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "removed 1 entries" in out
    assert cache.stats()["entries"] == 0


def test_run_with_cache_dir_populates_cache(tmp_path, capsys):
    cache_dir = str(tmp_path / "simcache")
    assert main(["run", "gap", "--quiet", "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entries"] > 0


def test_no_sim_cache_flag_disables_cache(tmp_path, capsys):
    cache_dir = str(tmp_path / "simcache")
    assert main(
        ["run", "gap", "--quiet", "--cache-dir", cache_dir,
         "--no-sim-cache"]
    ) == 0
    capsys.readouterr()
    simcache.reset()
    assert simcache.SimCache(cache_dir).stats()["entries"] == 0


# --------------------------------------------------------------------- #
# Robustness flags
# --------------------------------------------------------------------- #


def test_inject_fault_bad_spec_exits_2(capsys):
    assert main(["run", "gap", "--inject-fault", "worker.nap:0.5"]) == 2
    err = capsys.readouterr().err
    assert "unknown fault site" in err


def test_fault_env_bad_spec_exits_2(monkeypatch, capsys):
    # REPRO_FAULTS is checked up front, not when a site is first drawn
    # (a run may consult no site at all).
    from repro import faults

    monkeypatch.setenv(faults.ENV_VAR, "worker.nap:0.5")
    monkeypatch.setattr(cli, "_dispatch", lambda *args: 0)
    faults.reset()
    try:
        assert main(["run", "gap"]) == 2
    finally:
        faults.reset()
    assert "unknown fault site" in capsys.readouterr().err


def test_inject_fault_malformed_prob_exits_2(capsys):
    assert main(["run", "gap", "--inject-fault", "worker.run:lots"]) == 2
    assert "expected SITE:prob" in capsys.readouterr().err


def test_resume_without_out_exits_2(capsys):
    assert main(["figure3", "--resume"]) == 2
    assert "--resume requires --out" in capsys.readouterr().err


_FIG3 = ["figure3", "--benchmarks", "gap"]


# Each ``flag`` is a whole command line ending in the refused flag.
@pytest.mark.parametrize("flag", [
    [*_FIG3, "--retries", "0"], [*_FIG3, "--retries", "-2"],
    [*_FIG3, "--job-timeout", "0"], [*_FIG3, "--job-timeout", "-1"],
    [*_FIG3, "--jobs", "0"], [*_FIG3, "--jobs", "-3"],
    ["serve", "--max-queue", "0"], ["serve", "--workers", "0"],
    ["serve", "--deadline", "0"],
    ["loadtest", "--rate", "0"], ["loadtest", "--requests", "0"],
    ["loadtest", "--concurrency", "0"], ["loadtest", "--wait-timeout", "0"],
    ["loadtest", "--budget", "0"],
    ["chaos", "--server", "--kill-after", "0"],
])
def test_nonpositive_retry_flags_exit_2(flag, monkeypatch, capsys):
    # A count, rate or budget of zero or less leaves nothing to run, so
    # argparse refuses it before any grid, server or load test starts.
    monkeypatch.setattr(cli, "_dispatch", lambda *args: 0)
    with pytest.raises(SystemExit) as excinfo:
        main(flag)
    assert excinfo.value.code == 2
    assert flag[-2] in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "gap", "--retries", "2"],
    ["list", "--job-timeout", "5"],
    ["serve", "--retries", "2"],
    ["loadtest", "--resume", "--out", "X"],
    ["figure2", "--quiet"],
])
def test_flags_only_on_commands_that_read_them(argv, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_dispatch", lambda *args: 0)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_server_chaos_refuses_attempt_flags(monkeypatch, capsys):
    # The server drill runs each served job once: no attempt budget.
    monkeypatch.setattr(chaos, "run_server_chaos", lambda **kw: {"ok": True})
    with pytest.raises(SystemExit) as excinfo:
        main(["chaos", "--server", "--retries", "2"])
    assert excinfo.value.code == 2
    assert "--retries" in capsys.readouterr().err


def test_chaos_retries_is_the_faulted_runs_budget(monkeypatch):
    calls = []

    def run_chaos(**kwargs):
        calls.append(kwargs)
        return {"ok": True, "failed_cells": []}

    monkeypatch.setattr(chaos, "run_chaos", run_chaos)
    assert main(["chaos", "--quick", "--retries", "5"]) == 0
    assert main(["chaos", "--quick"]) == 0
    assert calls[0]["max_attempts"] == 5
    assert "max_attempts" not in calls[1]  # run_chaos' own default


def test_chaos_has_one_retry_flag(capsys):
    # --retries is chaos' only attempt budget.
    with pytest.raises(SystemExit) as excinfo:
        main(["chaos", "--help"])
    assert excinfo.value.code == 0
    flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert "--retries" in flags
    assert not [flag for flag in flags if "attempt" in flag]


def test_serve_refuses_job_timeout(tmp_path, capsys):
    # A served job runs on a queue thread and cannot be preempted, so
    # serve has no such flag (its --deadline bounds the queue wait).
    state = tmp_path / "state"
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--port", "0", "--state", str(state),
              "--job-timeout", "5"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not state.exists()


def test_manifest_write_fault_is_tolerated(tmp_path, capsys):
    out = str(tmp_path / "artifacts")
    code = main(
        ["run", "gap", "--quiet", "--out", out,
         "--inject-fault", "manifest.write:1.0"]
    )
    assert code == 0  # results printed; provenance failure is non-fatal
    err = capsys.readouterr().err
    assert "could not write artifacts" in err
    import os

    assert not os.path.exists(os.path.join(out, "manifest.json"))


def test_fault_plan_does_not_leak_between_invocations(tmp_path, capsys):
    from repro import faults

    out = str(tmp_path / "artifacts")
    main(["run", "gap", "--quiet", "--out", out,
          "--inject-fault", "manifest.write:1.0"])
    capsys.readouterr()
    assert not faults.site_active("manifest.write")


# --------------------------------------------------------------------- #
# The HTML run report (repro report), and the tracing surface that is
# gone: ``repro trace`` and ``--trace-window`` are argparse errors.
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("argv", [
    ["trace", "gap"],
    ["trace", "gap", "--quick", "--out", "t"],
])
def test_trace_command_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "invalid choice: 'trace'" in capsys.readouterr().err


def test_trace_range_flag_is_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "gap", "--out", str(tmp_path / "t"),
              "--trace-window", "0:1000"])
    assert excinfo.value.code == 2
    assert "--trace-window" in capsys.readouterr().err


def test_run_then_report_end_to_end(tmp_path, capsys):
    import os

    out = str(tmp_path / "run-gap")
    assert main(["run", "gap", "--quiet", "--out", out]) == 0
    assert "speedup_pct" in capsys.readouterr().out
    assert sorted(os.listdir(out)) == [
        "manifest.json", "results.jsonl", "run_table.csv",
    ]

    assert main(["report", out]) == 0
    report_path = capsys.readouterr().out.strip()
    assert report_path == os.path.join(out, "report.html")
    doc = open(report_path).read()
    for section in ("Run", "Results", "Phase timings"):
        assert f"<h2>{section}</h2>" in doc
    assert "gap" in doc
    assert "Top-down stall attribution" not in doc


def test_report_survives_a_torn_tail(tmp_path, capsys):
    from repro.obs.manifest import RunWriter

    out = str(tmp_path / "run")
    writer = RunWriter(out, command="figure3")
    for bench in ("gap", "mcf"):
        writer.add_row({"benchmark": bench, "target": "L",
                        "speedup_pct": 1.0})
    writer.finalize()
    with open(f"{out}/results.jsonl", "a") as fh:
        fh.write('{"benchmark": "vortex", "tar')  # crash mid-append
    assert main(["report", out]) == 0
    doc = open(capsys.readouterr().out.strip()).read()
    assert "gap" in doc and "mcf" in doc
    assert "vortex" not in doc


def test_report_missing_dir_exits_2(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nope")]) == 2
    assert "no run artifacts" in capsys.readouterr().err


def test_report_requires_some_dir(capsys):
    assert main(["report"]) == 2
    assert "run directory" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [
    ["--out", "X"], ["--jobs", "4"], ["--resume"], ["--no-sim-cache"],
])
def test_analytics_query_rejects_run_flags(flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["analytics", "query", str(tmp_path), *flag])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [
    ["--out", "X"], ["--jobs", "4"], ["--retries", "2"], ["--resume"],
    ["--no-sim-cache"],
])
def test_cache_rejects_run_flags(flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["cache", "stats", "--cache-dir", str(tmp_path), *flag])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# ``--out X`` is argparse's abbreviation of ``report --output X``.
@pytest.mark.parametrize("flag", [
    ["--jobs", "4"], ["--resume"], ["--retries", "2"], ["--cache-dir", "X"],
])
def test_report_rejects_run_flags(flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["report", str(tmp_path), *flag])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
