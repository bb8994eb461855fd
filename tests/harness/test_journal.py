"""Tests for the checkpoint/resume journal."""

import base64
import json
import pickle

import pytest

from repro import obs
from repro.errors import JournalError
from repro.harness.journal import JOURNAL_SCHEMA, Journal
from repro.harness.simcache import code_version


def _journal(tmp_path):
    return Journal.for_run_dir(str(tmp_path))


def test_missing_file_is_empty_journal(tmp_path):
    journal = _journal(tmp_path)
    assert journal.load() == {}


def test_record_and_load_roundtrip(tmp_path):
    journal = _journal(tmp_path)
    journal.record("cell-a", {"cycles": 123}, benchmark="gcc")
    journal.record("cell-b", {"cycles": 456}, benchmark="mcf")

    fresh = _journal(tmp_path)
    assert set(fresh.load()) == {"cell-a", "cell-b"}
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
    line = {"schema": JOURNAL_SCHEMA, "code": code_version(),
            "key": "cell-a", "benchmark": "gcc", "attempts": 1,
            "trace_id": "a" * 32}
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
    # A foreign schema, another code version, or none recorded: the
    # cell re-runs instead of serving what other code computed.
    journal = _journal(tmp_path)
    journal.record("cell-a", 1)
    ours = json.loads(open(journal.path, encoding="utf-8").readline())
    foreign = [
        dict(ours, key="cell-b", schema=999),
        dict(ours, key="cell-c", code="0" * len(ours["code"])),
        {k: v for k, v in dict(ours, key="cell-d").items() if k != "code"},
    ]
    with open(journal.path, "a", encoding="utf-8") as fh:
        for record in foreign:
            fh.write(json.dumps(record) + "\n")
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
# Durability: every record is fsynced before record() returns


def test_synced_mode_fsyncs_every_record(tmp_path):
    journal = _journal(tmp_path)
    before = obs.counters.snapshot()
    for i in range(3):
        journal.record(f"cell-{i}", i)
    delta = obs.counters.delta_since(before)
    assert delta.get("harness.journal.fsyncs") == 3


def test_kill9_between_syncs_loses_nothing_flushed(tmp_path):
    """Crash simulation: a record is on disk once record() returns, so
    a dead *process* leaves every recorded cell readable -- only the
    torn tail of a mid-write crash may drop, and dropping it is clean."""
    journal = _journal(tmp_path)
    journal.record("cell-a", {"cycles": 1})
    journal.record("cell-b", {"cycles": 2})
    # Tear the tail the way a crash mid-append would.
    with open(journal.path, "a", encoding="utf-8") as fh:
        fh.write('{"schema": 1, "key": "cell-c", "resu')

    fresh = _journal(tmp_path)
    loaded = fresh.load()
    assert set(loaded) == {"cell-a", "cell-b"}
    assert fresh.result_for("cell-a") == {"cycles": 1}
