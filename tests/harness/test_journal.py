"""Tests for the checkpoint/resume journal."""

import base64
import json
import pickle

import pytest

from repro import obs
from repro.errors import JournalError
from repro.harness.journal import JOURNAL_SCHEMA, Journal


def _journal(tmp_path):
    return Journal.for_run_dir(str(tmp_path))


def test_missing_file_is_empty_journal(tmp_path):
    journal = _journal(tmp_path)
    assert journal.load() == {}
    assert list(journal.completed_keys()) == []


def test_record_and_load_roundtrip(tmp_path):
    journal = _journal(tmp_path)
    journal.record("cell-a", {"cycles": 123}, benchmark="gcc")
    journal.record("cell-b", {"cycles": 456}, benchmark="mcf")

    fresh = _journal(tmp_path)
    fresh.load()
    assert set(fresh.completed_keys()) == {"cell-a", "cell-b"}
    assert fresh.result_for("cell-a") == {"cycles": 123}
    assert fresh.result_for("cell-b") == {"cycles": 456}
    assert fresh.result_for("cell-c") is None


def test_records_carry_metadata(tmp_path):
    journal = _journal(tmp_path)
    journal.record("cell-a", 1, benchmark="gcc", attempts=2)
    record = _journal(tmp_path).load()["cell-a"]
    assert record["benchmark"] == "gcc"
    assert record["attempts"] == 2
    assert record["schema"] == JOURNAL_SCHEMA


def test_record_with_trace_id_metadata_still_resumes(tmp_path):
    """CLI journals once carried a ``trace_id`` in each record's
    metadata; such a journal still resumes its cells."""
    line = {"schema": JOURNAL_SCHEMA, "key": "cell-a", "benchmark": "gcc",
            "attempts": 1, "trace_id": "a" * 32}
    line["result_b64"] = base64.b64encode(
        pickle.dumps({"cycles": 123})
    ).decode("ascii")
    (tmp_path / "journal.jsonl").write_text(json.dumps(line) + "\n")
    journal = _journal(tmp_path)
    journal.load()
    assert journal.result_for("cell-a") == {"cycles": 123}


def test_torn_tail_is_ignored_silently(tmp_path):
    journal = _journal(tmp_path)
    journal.record("cell-a", 1)
    with open(journal.path, "a", encoding="utf-8") as fh:
        fh.write('{"schema": 1, "key": "cell-b", "resu')  # crash artifact
    entries = _journal(tmp_path).load()
    assert set(entries) == {"cell-a"}


def test_damaged_interior_line_counted_and_skipped(tmp_path):
    journal = _journal(tmp_path)
    journal.record("cell-a", 1)
    with open(journal.path, "a", encoding="utf-8") as fh:
        fh.write("not json at all\n")
    journal.record("cell-b", 2)

    before = obs.counters.snapshot()
    entries = _journal(tmp_path).load()
    delta = obs.counters.delta_since(before)
    assert set(entries) == {"cell-a", "cell-b"}
    assert delta.get("harness.journal.damaged_lines") == 1


def test_foreign_schema_records_skipped(tmp_path):
    journal = _journal(tmp_path)
    journal.record("cell-a", 1)
    with open(journal.path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"schema": 999, "key": "cell-b"}) + "\n")
    assert set(_journal(tmp_path).load()) == {"cell-a"}


def test_corrupt_payload_treated_as_absent(tmp_path):
    journal = _journal(tmp_path)
    journal.record("cell-a", 1)
    entries = _journal(tmp_path)
    loaded = entries.load()
    loaded["cell-a"]["result_b64"] = "!!!not-base64-pickle!!!"
    assert entries.result_for("cell-a") is None


def test_unreadable_journal_raises(tmp_path, monkeypatch):
    journal = _journal(tmp_path)
    journal.record("cell-a", 1)

    real_open = open

    def deny(path, *args, **kwargs):
        if str(path) == journal.path:
            raise PermissionError("injected EACCES")
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("builtins.open", deny)
    with pytest.raises(JournalError, match="cannot read journal"):
        _journal(tmp_path).load()


def test_write_failure_degrades_once(tmp_path, monkeypatch):
    journal = _journal(tmp_path)
    journal.record("cell-a", 1)

    real_open = open

    def deny(path, *args, **kwargs):
        if str(path) == journal.path and "a" in args[0]:
            raise OSError(28, "injected ENOSPC")
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("builtins.open", deny)
    before = obs.counters.snapshot()
    journal.record("cell-b", 2)  # degrades, does not raise
    journal.record("cell-c", 3)  # already degraded: silent no-op
    delta = obs.counters.delta_since(before)
    assert delta.get("harness.journal.degradations") == 1
    monkeypatch.undo()
    assert set(_journal(tmp_path).load()) == {"cell-a"}


def test_discard_removes_file(tmp_path):
    journal = _journal(tmp_path)
    journal.record("cell-a", 1)
    journal.discard()
    assert _journal(tmp_path).load() == {}
    journal.discard()  # idempotent on a missing file


# --------------------------------------------------------------------- #
# Batched fsync (REPRO_JOURNAL_FSYNC_MS)


def test_batched_mode_fsyncs_at_most_once_per_interval(tmp_path):
    journal = Journal.for_run_dir(
        str(tmp_path), fsync_interval_ms=60_000
    )
    before = obs.counters.snapshot()
    for i in range(5):
        journal.record(f"cell-{i}", i)
    mid = obs.counters.delta_since(before)
    # The interval has not elapsed: no per-record fsync happened.
    assert mid.get("harness.journal.fsyncs", 0) == 0
    journal.close()
    after = obs.counters.delta_since(before)
    assert after.get("harness.journal.fsyncs") == 1  # close syncs once


def test_synced_mode_fsyncs_every_record(tmp_path):
    journal = Journal.for_run_dir(str(tmp_path), fsync_interval_ms=0)
    before = obs.counters.snapshot()
    for i in range(3):
        journal.record(f"cell-{i}", i)
    delta = obs.counters.delta_since(before)
    assert delta.get("harness.journal.fsyncs") == 3


def test_kill9_between_syncs_loses_nothing_flushed(tmp_path):
    """Crash simulation: batched-mode records are flushed per record,
    so a dead *process* (handle never closed, fsync never reached)
    still leaves every record readable -- only the torn tail of a
    mid-write crash may drop, and dropping it is clean."""
    journal = Journal.for_run_dir(
        str(tmp_path), fsync_interval_ms=60_000
    )
    journal.record("cell-a", {"cycles": 1})
    journal.record("cell-b", {"cycles": 2})
    # No close(), no sync(): the handle dies with the "process".  Tear
    # the tail the way a crash mid-append would.
    with open(journal.path, "a", encoding="utf-8") as fh:
        fh.write('{"schema": 1, "key": "cell-c", "resu')

    fresh = Journal.for_run_dir(str(tmp_path))
    loaded = fresh.load()
    assert set(loaded) == {"cell-a", "cell-b"}
    assert fresh.result_for("cell-a") == {"cycles": 1}


def test_fsync_env_var_opts_in(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_JOURNAL_FSYNC_MS", "250")
    journal = Journal.for_run_dir(str(tmp_path))
    assert journal.fsync_interval_s == 0.25
    # An explicit 0 forces per-record fsync regardless of the env.
    forced = Journal.for_run_dir(str(tmp_path), fsync_interval_ms=0)
    assert forced.fsync_interval_s == 0.0


def test_fsync_env_var_garbage_falls_back_to_synced(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_JOURNAL_FSYNC_MS", "soon")
    assert Journal.for_run_dir(str(tmp_path)).fsync_interval_s == 0.0
    monkeypatch.setenv("REPRO_JOURNAL_FSYNC_MS", "-5")
    assert Journal.for_run_dir(str(tmp_path)).fsync_interval_s == 0.0


def test_record_after_close_reopens(tmp_path):
    journal = Journal.for_run_dir(
        str(tmp_path), fsync_interval_ms=60_000
    )
    journal.record("cell-a", 1)
    journal.close()
    journal.record("cell-b", 2)
    journal.close()
    assert set(Journal.for_run_dir(str(tmp_path)).load()) == {
        "cell-a", "cell-b",
    }
