"""Job-queue semantics with injectable stub runners: dedup, cancel,
deadlines, breaker feedback, drain, and the exactly-once ledger."""

import json
import threading
import time

import pytest

from repro.errors import (
    AdmissionRejectedError,
    CacheCorruptionError,
    ExecutionError,
    WorkerCrashError,
)
from repro.server.admission import AdmissionController
from repro.server.breaker import CircuitBreaker
from repro.server.jobspec import job_from_spec, normalize_spec
from repro.server.queue import JobQueue, JobState
from repro.server.state import ACCEPT_SCHEMA, ServerState


def _row(job):
    return {"benchmark": job.benchmark, "target": job.target.label}


def _queue(tmp_path, runner=_row, **kwargs):
    state = ServerState(str(tmp_path / "state"))
    q = JobQueue(state, runner=runner, **kwargs)
    q.start()
    return q


def test_submit_runs_to_done(tmp_path):
    q = _queue(tmp_path)
    try:
        record = q.submit({"benchmark": "gcc"})
        assert record.job_id == "job-000001"
        assert q.wait_idle(10.0)
        assert record.state == JobState.DONE
        payload = record.result_payload()
        assert payload["row"] == {"benchmark": "gcc", "target": "L"}
        assert payload["job_id"] == "job-000001"
    finally:
        q.close()


def test_accept_ledger_written_before_submit_returns(tmp_path):
    q = _queue(tmp_path)
    try:
        record = q.submit({"benchmark": "gcc"})
        lines = [
            json.loads(line)
            for line in open(q.state.accepted_path, encoding="utf-8")
        ]
        assert lines[0]["job_id"] == record.job_id
        assert lines[0]["key"] == record.cell_key
        assert lines[0]["spec"] == {"benchmark": "gcc"}
    finally:
        q.close()


def test_identical_inflight_submits_attach(tmp_path):
    gate = threading.Event()

    def runner(job):
        gate.wait(5.0)
        return _row(job)

    q = _queue(tmp_path, runner=runner, workers=1)
    try:
        first = q.submit({"benchmark": "gcc"})
        time.sleep(0.05)  # let the worker pick it up
        second = q.submit({"benchmark": "gcc", "target": "L"})
        assert second.dedup_of == first.job_id
        assert second.job_id in first.attached
        gate.set()
        assert q.wait_idle(10.0)
        assert first.state == JobState.DONE
        assert second.state == JobState.DONE
        assert second.result_payload()["row"] == first.result_payload()["row"]
    finally:
        gate.set()
        q.close()


def test_completed_cell_answers_instantly_from_journal(tmp_path):
    q = _queue(tmp_path)
    try:
        q.submit({"benchmark": "gcc"})
        assert q.wait_idle(10.0)
        repeat = q.submit({"benchmark": "gcc"})
        # No queue round-trip: DONE at submit time.
        assert repeat.state == JobState.DONE
        assert repeat.result_payload()["row"]["benchmark"] == "gcc"
    finally:
        q.close()


def test_cancel_queued_job(tmp_path):
    gate = threading.Event()

    def runner(job):
        gate.wait(5.0)
        return _row(job)

    q = _queue(tmp_path, runner=runner, workers=1)
    try:
        q.submit({"benchmark": "gcc"})
        time.sleep(0.05)
        victim = q.submit({"benchmark": "mcf"})
        cancelled, detail = q.cancel(victim.job_id)
        assert cancelled and detail == "cancelled"
        assert victim.state == JobState.CANCELLED
        gate.set()
        assert q.wait_idle(10.0)
        assert victim.state == JobState.CANCELLED  # never resurrected
    finally:
        gate.set()
        q.close()


def test_cancel_refuses_unknown_running_and_terminal(tmp_path):
    gate = threading.Event()

    def runner(job):
        gate.wait(5.0)
        return _row(job)

    q = _queue(tmp_path, runner=runner, workers=1)
    try:
        running = q.submit({"benchmark": "gcc"})
        time.sleep(0.05)
        assert q.cancel("job-999999") == (False, "unknown job")
        ok, detail = q.cancel(running.job_id)
        assert not ok and "running" in detail
        gate.set()
        assert q.wait_idle(10.0)
        ok, detail = q.cancel(running.job_id)
        assert not ok and "done" in detail
    finally:
        gate.set()
        q.close()


def test_deadline_expires_queued_job(tmp_path):
    gate = threading.Event()

    def runner(job):
        gate.wait(5.0)
        return _row(job)

    q = _queue(tmp_path, runner=runner, workers=1)
    try:
        q.submit({"benchmark": "gcc"})
        time.sleep(0.05)
        late = q.submit({"benchmark": "mcf"}, deadline_s=0.05)
        time.sleep(0.2)  # deadline passes while it waits in the queue
        gate.set()
        assert q.wait_idle(10.0)
        assert late.state == JobState.FAILED
        assert late.error["error"] == "SimulationTimeoutError"
        assert late.error["retryable"] is True
    finally:
        gate.set()
        q.close()


def test_worker_crashes_trip_pool_breaker_then_shed(tmp_path):
    def crash(job):
        raise WorkerCrashError("worker died", benchmark=job.benchmark)

    pool = CircuitBreaker("pool", failure_threshold=2)
    admission = AdmissionController(max_queue_depth=8, pool_breaker=pool)
    q = _queue(
        tmp_path, runner=crash, workers=1,
        pool_breaker=pool, admission=admission,
    )
    try:
        first = q.submit({"benchmark": "gcc"})
        assert q.wait_idle(10.0)
        second = q.submit({"benchmark": "mcf"})
        assert q.wait_idle(10.0)
        assert first.state == JobState.FAILED
        assert second.state == JobState.FAILED
        assert pool.state() == "open"
        with pytest.raises(AdmissionRejectedError) as excinfo:
            q.submit({"benchmark": "parser"})
        assert excinfo.value.context["reason"] == "breaker_open"
    finally:
        q.close()


def test_deterministic_job_error_does_not_trip_pool_breaker(tmp_path):
    def bad_job(job):
        raise ExecutionError("this job is broken, the pool is fine")

    pool = CircuitBreaker("pool", failure_threshold=1)
    q = _queue(tmp_path, runner=bad_job, workers=1, pool_breaker=pool)
    try:
        record = q.submit({"benchmark": "gcc"})
        assert q.wait_idle(10.0)
        assert record.state == JobState.FAILED
        assert record.error["retryable"] is False
        assert pool.state() == "closed"
    finally:
        q.close()


def test_cache_corruption_opens_cache_breaker_and_bypasses(tmp_path):
    calls = []

    def flaky_cache(job):
        calls.append(job.benchmark)
        if len(calls) == 1:
            raise CacheCorruptionError("bad pickle", key="k")
        return _row(job)

    cache = CircuitBreaker("simcache", failure_threshold=1)
    q = _queue(tmp_path, runner=flaky_cache, workers=1, cache_breaker=cache)
    try:
        first = q.submit({"benchmark": "gcc"})
        assert q.wait_idle(10.0)
        assert first.state == JobState.FAILED
        assert cache.state() == "open"
        # Jobs are NOT shed while the cache breaker is open -- they run
        # with the cache bypassed instead.
        second = q.submit({"benchmark": "mcf"})
        assert q.wait_idle(10.0)
        assert second.state == JobState.DONE
    finally:
        q.close()


def test_queue_full_sheds_with_retry_after(tmp_path):
    gate = threading.Event()

    def runner(job):
        gate.wait(5.0)
        return _row(job)

    admission = AdmissionController(max_queue_depth=1, workers=1)
    q = _queue(tmp_path, runner=runner, workers=1, admission=admission)
    try:
        q.submit({"benchmark": "gcc"})
        time.sleep(0.05)
        q.submit({"benchmark": "mcf"})  # depth 1: at the bound now
        with pytest.raises(AdmissionRejectedError) as excinfo:
            q.submit({"benchmark": "parser"})
        assert excinfo.value.context["reason"] == "queue_full"
        assert excinfo.value.context["retry_after_s"] >= 1
    finally:
        gate.set()
        q.close()


def test_shed_submit_leaves_no_ledger_trace(tmp_path):
    admission = AdmissionController(max_queue_depth=1, workers=1)
    gate = threading.Event()

    def runner(job):
        gate.wait(5.0)
        return _row(job)

    q = _queue(tmp_path, runner=runner, workers=1, admission=admission)
    try:
        q.submit({"benchmark": "gcc"})
        time.sleep(0.05)
        q.submit({"benchmark": "mcf"})
        before = open(q.state.accepted_path, encoding="utf-8").read()
        with pytest.raises(AdmissionRejectedError):
            q.submit({"benchmark": "parser"})
        after = open(q.state.accepted_path, encoding="utf-8").read()
        assert before == after
    finally:
        gate.set()
        q.close()


def test_draining_queue_refuses_submits(tmp_path):
    q = _queue(tmp_path)
    q.close()
    with pytest.raises(AdmissionRejectedError) as excinfo:
        q.submit({"benchmark": "gcc"})
    assert excinfo.value.context["reason"] == "draining"


def test_resume_reenqueues_pending_and_registers_done(tmp_path):
    state_dir = str(tmp_path / "state")
    q = JobQueue(ServerState(state_dir), runner=_row, workers=1)
    q.start()
    done = q.submit({"benchmark": "gcc"})
    assert q.wait_idle(10.0)
    assert done.state == JobState.DONE
    q.close()

    # Simulate a crash with one accepted-but-unfinished job: append the
    # ledger record by hand (what a kill -9 mid-run leaves behind).
    crashed = JobQueue(ServerState(state_dir), runner=_row, workers=1)
    crashed.state.load()
    crashed.state.record_accept(
        "job-000002", "some-other-key", {"benchmark": "mcf"}
    )
    crashed.state.close()

    fresh = JobQueue(ServerState(state_dir), runner=_row, workers=1)
    resumed = fresh.recover(resume=True)
    fresh.start()
    try:
        # Only the unfinished job re-enqueued...
        assert resumed == 1
        # ...but the completed one is still addressable, instantly DONE.
        replayed = fresh.get("job-000001")
        assert replayed is not None
        assert replayed.state == JobState.DONE
        assert fresh.wait_idle(10.0)
        assert fresh.get("job-000002").state == JobState.DONE
        # New IDs continue after the highest ledgered ordinal.
        assert fresh.submit({"benchmark": "parser"}).job_id == "job-000003"
    finally:
        fresh.close()


def test_resume_reads_state_with_trace_keys(tmp_path):
    """Servers once stamped a ``"trace"`` context on accept records and a
    ``trace_id`` on completions; such a state directory still resumes,
    and the accept schema did not change (the key was always optional)."""
    assert ACCEPT_SCHEMA == 1
    state_dir = tmp_path / "state"
    state_dir.mkdir()
    done_spec, pending_spec = {"benchmark": "gcc"}, {"benchmark": "mcf"}
    done_key = job_from_spec(normalize_spec(done_spec)).cell_key()
    pending_key = job_from_spec(normalize_spec(pending_spec)).cell_key()
    trace = {"trace_id": "a" * 32, "span_id": "1" * 16,
             "parent_span_id": None}
    with open(state_dir / "accepted.jsonl", "w", encoding="utf-8") as fh:
        for job_id, key, spec in (("job-000001", done_key, done_spec),
                                  ("job-000002", pending_key, pending_spec)):
            fh.write(json.dumps({
                "schema": 1, "op": "accept", "job_id": job_id, "key": key,
                "spec": spec, "ts": 1.0, "trace": trace,
            }) + "\n")
    old = ServerState(str(state_dir))
    old.record_completion(
        done_key, {"benchmark": "gcc", "target": "L"}, benchmark="gcc",
        job_id="job-000001", trace_id="a" * 32,
    )
    old.close()

    ran = []

    def runner(job):
        ran.append(job.benchmark)
        return _row(job)

    fresh = JobQueue(ServerState(str(state_dir)), runner=runner, workers=1)
    assert fresh.recover(resume=True) == 1
    fresh.start()
    try:
        done = fresh.get("job-000001")
        assert done.state == JobState.DONE
        assert done.result_payload()["row"] == {
            "benchmark": "gcc", "target": "L"
        }
        assert fresh.wait_idle(10.0)
        assert fresh.get("job-000002").state == JobState.DONE
        assert ran == ["mcf"]
    finally:
        fresh.close()


def test_no_resume_still_seeds_ids_and_dedup(tmp_path):
    state_dir = str(tmp_path / "state")
    q = JobQueue(ServerState(state_dir), runner=_row, workers=1)
    q.start()
    q.submit({"benchmark": "gcc"})
    assert q.wait_idle(10.0)
    q.close()

    fresh = JobQueue(ServerState(state_dir), runner=_row, workers=1)
    assert fresh.recover(resume=False) == 0
    fresh.start()
    try:
        assert fresh.get("job-000001") is None  # nothing re-registered
        repeat = fresh.submit({"benchmark": "gcc"})
        assert repeat.job_id == "job-000002"  # counter continued
        assert repeat.state == JobState.DONE  # journal still dedups
    finally:
        fresh.close()
