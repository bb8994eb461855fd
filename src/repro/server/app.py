"""The zero-dependency HTTP/JSON front end for ``repro serve``.

Built on :class:`http.server.ThreadingHTTPServer` (one thread per
connection; the stdlib is the whole dependency footprint).  Endpoints:

========  =============================  ====================================
Method    Path                           Meaning
========  =============================  ====================================
POST      ``/v1/experiments``            Submit a spec; 202 + job snapshot.
GET       ``/v1/experiments/<id>``       Job status snapshot.
GET       ``/v1/experiments/<id>/result``  200 row when done; 202 while
                                         pending; error status when failed.
DELETE    ``/v1/experiments/<id>``       Best-effort cancel.
GET       ``/v1/jobs``                   All job snapshots (no results).
GET       ``/v1/stats``                  Queue and admission snapshot.
GET       ``/healthz``                   Liveness: the process answers.
GET       ``/readyz``                    Readiness: accepting (not draining).
========  =============================  ====================================

**Error contract** (:func:`status_for_error`): every engine/server error
maps to a stable HTTP status with a JSON body carrying the error class,
message, and structured context.  ``Retry-After`` is present *iff*
:func:`repro.errors.is_retryable` says a retry can help -- the header
and the taxonomy are one decision, never two.

**Fault sites**: ``server.accept`` drops the connection before the
request line is parsed (nothing acknowledged); ``server.respond`` drops
it after the job was accepted but before the response bytes reach the
client -- the classic ambiguous-outcome window the accept ledger
resolves.

**Drain**: :meth:`ExperimentServer.shutdown` stops accepting new
connections, lets the queue finish (or journal) in-flight jobs, and
returns whether the backlog fully drained; the CLI exits 0 either way
because anything left is durable and recovers under ``--resume``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro import faults, obs
from repro.errors import (
    AdmissionRejectedError,
    ConfigError,
    JobCancelledError,
    ProgramError,
    ReproError,
    SelectionError,
    WorkloadError,
    is_retryable,
)
from repro.server.queue import JobQueue, JobState

_REQUESTS = obs.counters.counter("server.http.requests")
_DROPPED_ACCEPT = obs.counters.counter("server.http.dropped_accept")
_DROPPED_RESPOND = obs.counters.counter("server.http.dropped_respond")
_ERRORS = obs.counters.counter("server.http.error_responses")

#: Client-caused, deterministic: the request itself is wrong.
_BAD_REQUEST_ERRORS = (
    ConfigError,
    WorkloadError,
    ProgramError,
    SelectionError,
)


def status_for_error(exc: BaseException) -> Tuple[int, Optional[int]]:
    """Map an error to ``(http_status, retry_after_s-or-None)``.

    The invariant the test suite pins: ``retry_after is not None``
    exactly when :func:`is_retryable` is True.  Non-retryable errors are
    4xx (the request can never succeed as posed) except deterministic
    *internal* failures, which are 500 -- still without ``Retry-After``.
    """
    if isinstance(exc, AdmissionRejectedError):
        retry = int(getattr(exc, "retry_after_s", 1) or 1)
        status = 429 if getattr(exc, "reason", "") == "queue_full" else 503
        return status, retry
    if isinstance(exc, _BAD_REQUEST_ERRORS):
        return 400, None
    if isinstance(exc, JobCancelledError):
        return 410, None
    if not is_retryable(exc):
        # ExecutionError, PipelineDeadlockError, ...: deterministic
        # internal failures.
        return 500, None
    # Transients: a retry draws fresh luck (fresh worker, fresh cache
    # read, fresh fault sample).
    return 503, 2


def error_body(exc: BaseException) -> Dict[str, Any]:
    body: Dict[str, Any] = {
        "error": type(exc).__name__,
        "message": str(exc),
        "retryable": is_retryable(exc),
    }
    context = getattr(exc, "context", None)
    if context:
        body["context"] = context
    return body


class _DropConnection(Exception):
    """Internal: the ``server.respond`` fault fired; hang up silently."""


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    #: Per-request I/O deadline: a client that stops sending cannot pin
    #: a handler thread forever.
    timeout = 30.0

    server: "ExperimentServer"  # set by ThreadingHTTPServer machinery

    # ------------------------------------------------------------- #
    # Plumbing

    def log_message(self, format: str, *args: Any) -> None:
        # Route access logs through obs instead of stderr.
        obs.log_event(
            "http_access", level="debug", detail=format % args
        )

    def handle_one_request(self) -> None:
        if faults.should_fault("server.accept"):
            # Drop before parsing: the client sees a reset, the server
            # saw nothing -- no acknowledgement, nothing to recover.
            _DROPPED_ACCEPT.add()
            self.close_connection = True
            try:
                self.connection.close()
            except OSError:
                pass
            return
        super().handle_one_request()

    def _read_json(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ConfigError("request body must be a JSON object")
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise ConfigError(f"request body is not valid JSON: {exc}")

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        retry_after_s: Optional[int] = None,
    ) -> None:
        if faults.should_fault("server.respond"):
            # The ambiguous-outcome window: the work is acknowledged
            # and durable server-side, but this client never hears it.
            _DROPPED_RESPOND.add()
            raise _DropConnection()
        body = json.dumps(payload, default=str).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after_s is not None:
            self.send_header("Retry-After", str(int(retry_after_s)))
        self.end_headers()
        self.wfile.write(body)
        if status >= 400:
            _ERRORS.add()

    def _send_error_for(self, exc: BaseException) -> None:
        status, retry = status_for_error(exc)
        self._send_json(status, error_body(exc), retry_after_s=retry)

    # ------------------------------------------------------------- #
    # Routing

    def do_GET(self) -> None:
        self._route("GET")

    def do_POST(self) -> None:
        self._route("POST")

    def do_DELETE(self) -> None:
        self._route("DELETE")

    def _route(self, method: str) -> None:
        _REQUESTS.add()
        path = self.path.rstrip("/") or "/"
        try:
            handler = self._resolve(method, path)
            if handler is None:
                self._send_json(
                    404, {"error": "NotFound", "path": path}
                )
                return
            handler()
        except _DropConnection:
            self.close_connection = True
            try:
                self.connection.close()
            except OSError:
                pass
        except ReproError as exc:
            try:
                self._send_error_for(exc)
            except _DropConnection:
                self.close_connection = True
        except Exception as exc:  # noqa: BLE001 - last-resort handler
            obs.log_event(
                "http_handler_error",
                level="error",
                error=type(exc).__name__,
                detail=str(exc),
                path=path,
            )
            try:
                # Same mapping as typed errors, so the Retry-After <->
                # is_retryable invariant holds even for bugs.
                self._send_error_for(exc)
            except (OSError, _DropConnection):
                self.close_connection = True

    def _resolve(self, method: str, path: str):
        queue = self.server.queue
        if method == "GET":
            if path == "/healthz":
                return lambda: self._send_json(200, {"ok": True})
            if path == "/readyz":
                return self._readyz
            if path == "/v1/stats":
                return lambda: self._send_json(200, queue.stats())
            if path == "/v1/jobs":
                return lambda: self._send_json(
                    200,
                    {
                        "jobs": [
                            rec.snapshot() for rec in queue.jobs()
                        ]
                    },
                )
            if path.startswith("/v1/experiments/"):
                rest = path[len("/v1/experiments/"):]
                if rest.endswith("/result"):
                    return lambda: self._result(rest[: -len("/result")])
                return lambda: self._status(rest)
        if method == "POST" and path == "/v1/experiments":
            return self._submit
        if method == "DELETE" and path.startswith("/v1/experiments/"):
            return lambda: self._cancel(path[len("/v1/experiments/"):])
        return None

    # ------------------------------------------------------------- #
    # Endpoints

    def _readyz(self) -> None:
        draining = self.server.queue.stats()["draining"]
        ready = not draining
        self._send_json(
            200 if ready else 503,
            {"ready": ready, "draining": draining},
            retry_after_s=None if ready else 5,
        )

    def _submit(self) -> None:
        body = self._read_json()
        if isinstance(body, dict) and "spec" in body:
            spec = body["spec"]
            deadline_s = body.get("deadline_s")
        else:
            spec = body
            deadline_s = None
        if deadline_s is not None:
            try:
                deadline_s = float(deadline_s)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"deadline_s must be a number, got {deadline_s!r}"
                )
        record = self.server.queue.submit(spec, deadline_s=deadline_s)
        self._send_json(202, record.snapshot())

    def _status(self, job_id: str) -> None:
        record = self.server.queue.get(job_id)
        if record is None:
            self._send_json(
                404, {"error": "NotFound", "job_id": job_id}
            )
            return
        self._send_json(200, record.snapshot())

    def _result(self, job_id: str) -> None:
        record = self.server.queue.get(job_id)
        if record is None:
            self._send_json(
                404, {"error": "NotFound", "job_id": job_id}
            )
            return
        if record.state == JobState.DONE:
            self._send_json(200, record.result_payload() or {})
            return
        if record.state == JobState.CANCELLED:
            self._send_error_for(
                JobCancelledError(
                    f"job {job_id} was cancelled", job_id=job_id
                )
            )
            return
        if record.state == JobState.FAILED:
            error = record.error or {}
            status = 503 if error.get("retryable") else 500
            retry = 2 if error.get("retryable") else None
            self._send_json(
                status,
                {"job_id": job_id, "state": record.state, **error},
                retry_after_s=retry,
            )
            return
        # Still queued or running: not an error, not done.
        self._send_json(202, record.snapshot())

    def _cancel(self, job_id: str) -> None:
        cancelled, detail = self.server.queue.cancel(job_id)
        record = self.server.queue.get(job_id)
        if record is None:
            self._send_json(
                404, {"error": "NotFound", "job_id": job_id}
            )
            return
        self._send_json(
            200 if cancelled else 409,
            {
                "job_id": job_id,
                "cancelled": cancelled,
                "detail": detail,
                "state": record.state,
            },
        )


class ExperimentServer(ThreadingHTTPServer):
    """The HTTP server bound to a :class:`JobQueue`.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    construction.  ``serve_forever`` blocks; :meth:`shutdown_and_drain`
    (from a signal handler or another thread) performs the graceful
    drain.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        queue: JobQueue,
        host: str = "127.0.0.1",
        port: int = 0,
        drain_s: float = 30.0,
    ) -> None:
        super().__init__((host, port), _Handler)
        self.queue = queue
        self.drain_s = drain_s
        self._shutdown_lock = threading.Lock()
        self._shut_down = False

    @property
    def host(self) -> str:
        return self.server_address[0]

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self, resume: bool = False) -> int:
        """Recover state, start the queue, and return the number of
        resumed jobs.  (Binding happened in ``__init__``.)"""
        recovered = self.queue.recover(resume=resume)
        self.queue.start()
        obs.log_event(
            "server_started",
            level="info",
            host=self.host,
            port=self.port,
            workers=self.queue.workers,
            resumed_jobs=recovered,
        )
        return recovered

    def shutdown_and_drain(self) -> bool:
        """Stop accepting, drain the queue, release the socket.

        Idempotent; returns True when every in-flight and queued job
        finished inside the drain budget (the rest are journaled and
        recover under ``--resume``).
        """
        with self._shutdown_lock:
            if self._shut_down:
                return True
            self._shut_down = True
        self.shutdown()  # stop serve_forever + close listener loop
        drained = self.queue.close(drain_s=self.drain_s)
        self.server_close()
        obs.log_event(
            "server_drained",
            level="info" if drained else "warning",
            drained=drained,
        )
        return drained
