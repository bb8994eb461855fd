"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.harness import simcache


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


def test_inject_fault_malformed_prob_exits_2(capsys):
    assert main(["run", "gap", "--inject-fault", "worker.run:lots"]) == 2
    assert "expected SITE:prob" in capsys.readouterr().err


def test_resume_without_out_exits_2(capsys):
    assert main(["figure3", "--resume"]) == 2
    assert "--resume requires --out" in capsys.readouterr().err


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
# Microarchitectural tracing (repro trace / --trace-window) and the
# HTML run report (repro report).
# --------------------------------------------------------------------- #


def test_trace_window_without_out_exits_2(capsys):
    assert main(["run", "gap", "--trace-window", "0:1000"]) == 2
    assert "--trace-window requires --out" in capsys.readouterr().err


def test_trace_bad_window_exits_2(tmp_path, capsys):
    out = str(tmp_path / "t")
    assert main(["trace", "gap", "--out", out,
                 "--trace-window", "9:5"]) == 2
    assert "bad trace window" in capsys.readouterr().err


def test_trace_then_report_end_to_end(tmp_path, capsys):
    import json
    import os

    from repro.obs import utrace
    from repro.obs.export import validate_chrome_file

    out = str(tmp_path / "t")
    assert main(["trace", "gap", "--out", out,
                 "--trace-window", "0:3000"]) == 0
    captured = capsys.readouterr()
    assert "speedup_pct" in captured.out
    assert "chrome_trace" in captured.err

    manifest = json.load(open(os.path.join(out, "manifest.json")))
    section = manifest["utrace"]
    assert section["n_files"] == 6  # baseline + optimized, 3 files each
    assert section["config"]["window"] == [0, 3000]
    kinds = {f["kind"] for f in section["files"]}
    assert kinds == {"chrome_trace", "kanata_log", "utrace_summary"}
    for record in section["files"]:
        assert os.path.getsize(record["path"]) == record["bytes"]
        if record["kind"] == "chrome_trace":
            validate_chrome_file(record["path"])
        elif record["kind"] == "utrace_summary":
            summary = json.load(open(record["path"]))
            assert summary["energy_audit"]["ok"] is True

    # tracing configuration must not leak out of main()
    assert not utrace.enabled()

    assert main(["report", out]) == 0
    report_path = capsys.readouterr().out.strip()
    assert report_path == os.path.join(out, "report.html")
    doc = open(report_path).read()
    assert "Top-down stall attribution" in doc
    assert "audit ok" in doc


def test_report_missing_dir_exits_2(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nope")]) == 2
    assert "no run artifacts" in capsys.readouterr().err


def test_report_requires_some_dir(capsys):
    assert main(["report"]) == 2
    assert "run directory" in capsys.readouterr().err
