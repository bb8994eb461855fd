"""HTTP front-end end-to-end (in-process server, stub runners) and the
error-taxonomy contract: every error class maps to a stable status, and
``Retry-After`` is present exactly when ``is_retryable`` says so."""

import threading
import time

import pytest

from repro import errors, faults
from repro.errors import (
    AdmissionRejectedError,
    ConfigError,
    JobCancelledError,
    ReproError,
    WorkerCrashError,
    is_retryable,
)
from repro.server.admission import AdmissionController
from repro.server.app import ExperimentServer, status_for_error
from repro.server.client import ServerClient
from repro.server.queue import JobQueue
from repro.server.state import ServerState


def _row(job):
    return {"benchmark": job.benchmark, "target": job.target.label}


class _Server:
    """In-process server + client bound to a stub runner."""

    def __init__(self, tmp_path, runner=_row, **queue_kwargs):
        self.state = ServerState(str(tmp_path / "state"))
        self.queue = JobQueue(self.state, runner=runner, **queue_kwargs)
        self.server = ExperimentServer(self.queue, port=0)
        self.server.start(resume=False)
        self._thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self._thread.start()
        self.client = ServerClient(self.server.url, timeout_s=10.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.server.shutdown_and_drain()
        self._thread.join(timeout=10.0)


# --------------------------------------------------------------------- #
# The taxonomy contract (exhaustive, at the mapping layer).


def _all_error_classes():
    seen = set()
    stack = [ReproError]
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        stack.extend(cls.__subclasses__())
    return sorted(seen, key=lambda cls: cls.__name__)


def test_every_error_class_has_coherent_status_and_retry_after():
    classes = _all_error_classes()
    assert len(classes) > 10  # the walk found the real taxonomy
    for cls in classes:
        exc = cls("boom")
        status, retry = status_for_error(exc)
        # The invariant: Retry-After present iff the error is retryable.
        assert (retry is not None) == is_retryable(exc), cls.__name__
        if is_retryable(exc):
            assert status in (429, 503), cls.__name__
        else:
            assert status in (400, 410, 500), cls.__name__


def test_non_retryable_members_map_to_4xx_5xx_deterministically():
    for cls in errors.NON_RETRYABLE:
        status, retry = status_for_error(cls("boom"))
        assert retry is None, cls.__name__
        # Same class, same request -> same status, every time.
        assert status == status_for_error(cls("boom"))[0]


def test_queue_full_is_429_other_sheds_503():
    full = AdmissionRejectedError(
        "full", reason="queue_full", retry_after_s=7
    )
    assert status_for_error(full) == (429, 7)
    breaker = AdmissionRejectedError(
        "open", reason="breaker_open", retry_after_s=3
    )
    assert status_for_error(breaker) == (503, 3)
    draining = AdmissionRejectedError(
        "draining", reason="draining", retry_after_s=5
    )
    assert status_for_error(draining) == (503, 5)


def test_unknown_exception_is_retryable_503():
    status, retry = status_for_error(RuntimeError("who knows"))
    assert status == 503 and retry is not None


# --------------------------------------------------------------------- #
# End-to-end through real sockets.


def test_submit_status_result_roundtrip(tmp_path):
    with _Server(tmp_path) as srv:
        submit = srv.client.submit({"benchmark": "gcc"})
        assert submit.status == 202
        job_id = submit.body["job_id"]
        assert submit.body["state"] in ("queued", "running", "done")
        final = srv.client.wait(job_id)
        assert final.status == 200
        assert final.body["row"] == {"benchmark": "gcc", "target": "L"}
        status = srv.client.status(job_id)
        assert status.status == 200
        assert status.body["state"] == "done"


def test_health_stats_jobs(tmp_path):
    with _Server(tmp_path) as srv:
        assert srv.client.healthz().status == 200
        ready = srv.client.readyz()
        assert ready.status == 200 and ready.body["ready"] is True
        stats = srv.client.stats()
        assert stats.status == 200
        assert stats.body["breakers"][0]["name"] == "pool"
        srv.client.submit({"benchmark": "gcc"})
        jobs = srv.client.jobs()
        assert jobs.status == 200 and len(jobs.body["jobs"]) == 1


def test_bad_specs_are_400_without_retry_after(tmp_path):
    with _Server(tmp_path) as srv:
        for spec in (
            {"benchmark": "nosuch"},
            {"benchmark": "gcc", "typo_key": 1},
            {"benchmark": "gcc", "target": "Z"},
            "not an object",
        ):
            response = srv.client.submit(spec)
            assert response.status == 400, spec
            assert response.retry_after_s is None, spec
            assert response.body["retryable"] is False, spec


def test_unknown_job_is_404_everywhere(tmp_path):
    with _Server(tmp_path) as srv:
        assert srv.client.status("job-999999").status == 404
        assert srv.client.result("job-999999").status == 404
        assert srv.client.cancel("job-999999").status == 404


def test_cancel_done_job_is_409_cancelled_result_is_410(tmp_path):
    gate = threading.Event()

    def runner(job):
        gate.wait(5.0)
        return _row(job)

    with _Server(tmp_path, runner=runner, workers=1) as srv:
        first = srv.client.submit({"benchmark": "gcc"}).body["job_id"]
        time.sleep(0.05)
        victim = srv.client.submit({"benchmark": "mcf"}).body["job_id"]
        cancelled = srv.client.cancel(victim)
        assert cancelled.status == 200
        result = srv.client.result(victim)
        assert result.status == 410
        assert result.retry_after_s is None
        gate.set()
        srv.client.wait(first)
        again = srv.client.cancel(first)
        assert again.status == 409
        assert again.body["cancelled"] is False


def test_failed_job_result_status_tracks_retryability(tmp_path):
    def crash(job):
        if job.benchmark == "gcc":
            raise WorkerCrashError("pool fell over")  # retryable
        raise ConfigError("deterministically bad")  # not retryable

    with _Server(tmp_path, runner=crash) as srv:
        transient = srv.client.submit({"benchmark": "gcc"}).body["job_id"]
        final = srv.client.wait(transient)
        assert final.status == 503
        assert final.retry_after_s is not None
        permanent = srv.client.submit({"benchmark": "mcf"}).body["job_id"]
        final = srv.client.wait(permanent)
        assert final.status == 500
        assert final.retry_after_s is None


def test_queue_full_sheds_429_with_retry_after_header(tmp_path):
    gate = threading.Event()

    def runner(job):
        gate.wait(5.0)
        return _row(job)

    admission = AdmissionController(max_queue_depth=1, workers=1)
    with _Server(
        tmp_path, runner=runner, workers=1, admission=admission
    ) as srv:
        srv.client.submit({"benchmark": "gcc"})
        time.sleep(0.05)
        srv.client.submit({"benchmark": "mcf"})
        shed = srv.client.submit({"benchmark": "parser"})
        assert shed.status == 429
        assert shed.shed
        assert shed.retry_after_s >= 1
        gate.set()


def test_accept_fault_drops_connection_without_acknowledging(tmp_path):
    with _Server(tmp_path) as srv:
        with faults.active(["server.accept:1"]):
            dropped = srv.client.submit({"benchmark": "gcc"})
        assert dropped.dropped  # transport error, no HTTP status
        assert srv.queue.jobs() == []  # nothing was accepted


def test_respond_fault_is_the_ambiguous_window(tmp_path):
    with _Server(tmp_path) as srv:
        with faults.active(["server.respond:1"]):
            dropped = srv.client.submit({"benchmark": "gcc"})
        assert dropped.dropped
        # The work WAS accepted and ran; a retried submit dedups onto it.
        assert len(srv.queue.jobs()) == 1
        retry = srv.client.submit({"benchmark": "gcc"})
        assert retry.status == 202
        final = srv.client.wait(retry.body["job_id"])
        assert final.status == 200
        assert final.body["row"]["benchmark"] == "gcc"


def test_cancelled_error_through_http_holds_invariant(tmp_path):
    # JobCancelledError is NON_RETRYABLE: 410, no Retry-After.
    status, retry = status_for_error(JobCancelledError("cancelled"))
    assert status == 410 and retry is None


def test_draining_server_sheds_and_reports_not_ready(tmp_path):
    srv = _Server(tmp_path)
    with srv:
        srv.queue._closed = True  # simulate drain without stopping HTTP
        shed = srv.client.submit({"benchmark": "gcc"})
        assert shed.status == 503
        assert shed.retry_after_s is not None
        ready = srv.client.readyz()
        assert ready.status == 503
        assert ready.body["ready"] is False
        assert ready.retry_after_s is not None
        srv.queue._closed = False  # let shutdown drain normally


@pytest.mark.parametrize("deadline", ["soon", [1]])
def test_bad_deadline_is_400(tmp_path, deadline):
    with _Server(tmp_path) as srv:
        response = srv.client.submit(
            {"benchmark": "gcc"}, deadline_s=deadline
        )
        assert response.status == 400
