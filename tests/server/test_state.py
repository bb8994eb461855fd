"""The accept ledger: fsynced per record, read with the completion
journal's torn-tail tolerant reader, and never degraded silently."""

import json

import pytest

from repro import obs
from repro.errors import JournalError
from repro.server.queue import JobQueue, JobState
from repro.server.state import ACCEPT_SCHEMA, ServerState


def _row(job):
    return {"benchmark": job.benchmark, "target": job.target.label}


def _accept_line(job_id, key, benchmark):
    return json.dumps({
        "schema": ACCEPT_SCHEMA, "op": "accept", "job_id": job_id,
        "key": key, "spec": {"benchmark": benchmark}, "ts": 1.0,
    }) + "\n"


def test_record_accept_and_cancel_fsync_every_record(tmp_path):
    state = ServerState(str(tmp_path / "state"))
    before = obs.counters.snapshot()
    state.record_accept("job-000001", "key-a", {"benchmark": "gcc"})
    state.record_accept("job-000002", "key-b", {"benchmark": "mcf"})
    state.record_cancel("job-000002")
    delta = obs.counters.delta_since(before)
    assert delta.get("harness.journal.fsyncs") == 3


def test_torn_ledger_tail_is_ignored(tmp_path):
    state = ServerState(str(tmp_path / "state"))
    state.record_accept("job-000001", "key-a", {"benchmark": "gcc"})
    with open(state.accepted_path, "a", encoding="utf-8") as fh:
        fh.write('{"schema": 1, "op": "accept", "job_id": "job-0')
    before = obs.counters.snapshot()
    live = ServerState(state.state_dir).load()
    delta = obs.counters.delta_since(before)
    assert [r["job_id"] for r in live] == ["job-000001"]
    assert delta.get("server.state.damaged_lines", 0) == 0


def test_damaged_ledger_line_is_counted_and_does_not_block_resume(tmp_path):
    state_dir = tmp_path / "state"
    state_dir.mkdir()
    with open(state_dir / "accepted.jsonl", "w", encoding="utf-8") as fh:
        fh.write(_accept_line("job-000001", "key-a", "gcc"))
        fh.write("not json at all\n")
        fh.write(json.dumps({"schema": 1, "op": "accept"}) + "\n")
        fh.write(_accept_line("job-000002", "key-b", "mcf"))

    before = obs.counters.snapshot()
    q = JobQueue(ServerState(str(state_dir)), runner=_row, workers=1)
    assert q.recover(resume=True) == 2
    delta = obs.counters.delta_since(before)
    assert delta.get("server.state.damaged_lines") == 2
    q.start()
    try:
        assert q.wait_idle(10.0)
        assert q.get("job-000001").state == JobState.DONE
        assert q.get("job-000002").state == JobState.DONE
        assert q.submit({"benchmark": "gap"}).job_id == "job-000003"
    finally:
        q.close()


def test_ledger_write_failure_refuses_the_accept(tmp_path, monkeypatch):
    state = ServerState(str(tmp_path / "state"))
    real_open = open

    def deny(path, *args, **kwargs):
        if str(path) == state.accepted_path:
            raise OSError(28, "injected ENOSPC")
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("builtins.open", deny)
    with pytest.raises(JournalError, match="cannot persist accept ledger"):
        state.record_accept("job-000001", "key-a", {"benchmark": "gcc"})
    monkeypatch.undo()
    assert ServerState(state.state_dir).load() == []
