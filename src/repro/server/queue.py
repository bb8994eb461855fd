"""The async job queue between the HTTP front end and the engine.

Submits become :class:`JobRecord` entries executed by a small pool of
worker threads.  The queue owns the server's correctness-critical
sequencing:

- **Durable-before-acknowledged**: the accept ledger record is fsynced
  (:meth:`ServerState.record_accept`) before :meth:`submit` returns, so
  every job the client ever saw acknowledged survives ``kill -9``.
- **Content-addressed dedup**: a submit whose cell key matches an
  in-flight job attaches to that flight (one simulation, N
  acknowledgements); one whose cell already completed is answered from
  the completion journal immediately.  Deduplication is safe *because*
  the engine is deterministic -- the attached client receives exactly
  the bytes it would have computed.
- **Per-job deadlines**: a job still queued when its deadline passes is
  failed with :class:`SimulationTimeoutError` instead of running late.
  A job that has started runs to completion: it runs on the worker
  thread itself, and an in-thread simulation cannot be preempted, so no
  wall-clock bound applies to the run.
- **No cache policy of its own**: jobs always run with the
  process-wide simcache as configured.  The cache itself turns a
  corrupt entry into an evicted miss and an I/O failure into a
  degraded no-op, so a worker thread never switches it off for the
  others.
"""

from __future__ import annotations

import queue as queue_mod
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import faults, obs
from repro.errors import (
    AdmissionRejectedError,
    SimulationTimeoutError,
    is_retryable,
)
from repro.harness.figures import result_row
from repro.server.admission import AdmissionController
from repro.server.jobspec import job_from_spec, normalize_spec
from repro.server.state import ServerState

_SUBMITTED = obs.counters.counter("server.queue.submitted")
_DEDUP_INFLIGHT = obs.counters.counter("server.queue.dedup_inflight")
_DEDUP_COMPLETED = obs.counters.counter("server.queue.dedup_completed")
_COMPLETED = obs.counters.counter("server.queue.completed")
_FAILED = obs.counters.counter("server.queue.failed")
_CANCELLED = obs.counters.counter("server.queue.cancelled")
_EXPIRED = obs.counters.counter("server.queue.expired")
_RECOVERED = obs.counters.counter("server.queue.jobs_recovered")

_STOP = object()


class JobState:
    """Lifecycle states of a submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    TERMINAL = frozenset({DONE, FAILED, CANCELLED})


@dataclass
class JobRecord:
    """Everything the server knows about one acknowledged job."""

    job_id: str
    spec: Dict[str, Any]
    cell_key: str
    state: str = JobState.QUEUED
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Monotonic clock at enqueue, for deadline math.
    _enqueued_mono: float = 0.0
    deadline_s: Optional[float] = None
    #: Set when this submit attached to an identical in-flight cell.
    dedup_of: Optional[str] = None
    #: Job IDs that attached to *this* flight.
    attached: List[str] = field(default_factory=list)
    error: Optional[Dict[str, Any]] = None
    result: Optional[Any] = None

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe status view (no pickled result payload)."""
        out: Dict[str, Any] = {
            "job_id": self.job_id,
            "state": self.state,
            "spec": self.spec,
            "cell_key": self.cell_key,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "deadline_s": self.deadline_s,
            "dedup_of": self.dedup_of,
        }
        if self.error is not None:
            out["error"] = self.error
        return out

    def result_payload(self) -> Optional[Dict[str, Any]]:
        if self.result is None:
            return None
        # Stub runners (tests) may return plain row dicts directly.
        row = (
            self.result
            if isinstance(self.result, dict)
            else result_row(self.result)
        )
        return {
            "job_id": self.job_id,
            "cell_key": self.cell_key,
            "row": row,
        }


Runner = Callable[[Any], Any]


class JobQueue:
    """Worker threads draining acknowledged jobs into the engine.

    ``runner`` is injectable for tests (default: ``job.run()`` on the
    worker thread, which shares the process-wide baseline memo and the
    persistent simcache exactly like a sequential harness run).
    """

    def __init__(
        self,
        state: ServerState,
        runner: Optional[Runner] = None,
        workers: int = 2,
        admission: Optional[AdmissionController] = None,
        default_deadline_s: Optional[float] = None,
    ) -> None:
        self.state = state
        self._runner: Runner = runner or (lambda job: job.run())
        self.workers = max(1, workers)
        self.admission = admission or AdmissionController(
            workers=self.workers
        )
        self.default_deadline_s = default_deadline_s
        self._tasks: "queue_mod.Queue" = queue_mod.Queue()
        self._jobs: Dict[str, JobRecord] = {}
        self._inflight: Dict[str, str] = {}  # cell_key -> primary job_id
        self._enqueue_tries: Dict[str, int] = {}  # cell_key -> submits
        self._lock = threading.RLock()
        self._next_number = 1
        self._closed = False
        self._threads: List[threading.Thread] = []
        self._idle = threading.Condition(self._lock)
        self._running_count = 0
        #: Jobs put on ``_tasks`` whose ``_run_one`` has not returned:
        #: counts a job a worker has taken off the queue but not yet
        #: started, which neither ``qsize`` nor ``_running_count`` sees.
        self._pending = 0

    # ------------------------------------------------------------- #
    # Lifecycle

    def start(self) -> None:
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-worker-{i}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def recover(self, resume: bool) -> int:
        """Replay the state directory.  With ``resume`` every live
        acknowledged job is re-registered under its original ID --
        already-journaled cells resolve to DONE instantly, the rest
        re-enqueue (deadlines restart: the queue wait already paid
        belongs to the crashed process, not the job).  Returns how many
        actually re-enqueued.  Without ``resume`` the ledger still seeds
        the ID counter and the completion journal still serves dedup,
        but nothing re-runs unasked."""
        live = self.state.load()
        self._next_number = self.state.max_job_number() + 1
        if not resume:
            return 0
        resumed = 0
        with self._lock:
            for record in live:
                job_id = record["job_id"]
                rec = JobRecord(
                    job_id=job_id,
                    spec=record["spec"],
                    cell_key=record["key"],
                    submitted_at=float(record.get("ts", 0.0)),
                    _enqueued_mono=time.monotonic(),
                    deadline_s=self.default_deadline_s,
                )
                self._jobs[job_id] = rec
                self._attach_or_enqueue(rec)
                if rec.state == JobState.QUEUED:
                    resumed += 1
        _RECOVERED.add(resumed)
        return resumed

    def close(self, drain_s: float = 0.0) -> bool:
        """Stop accepting; optionally wait up to ``drain_s`` for the
        backlog to finish; stop workers.  Returns True if
        the queue drained completely (anything left is durable in the
        accept ledger and recovers under ``--resume``)."""
        with self._lock:
            self._closed = True
        drained = self.wait_idle(drain_s) if drain_s > 0 else self.idle()
        for _ in self._threads:
            self._tasks.put(_STOP)
        for thread in self._threads:
            thread.join(timeout=5.0)
        return drained

    def idle(self) -> bool:
        with self._lock:
            return self._pending == 0

    def wait_idle(self, timeout_s: float) -> bool:
        deadline = time.monotonic() + timeout_s
        with self._idle:
            while self._pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(min(remaining, 0.25))
        return True

    # ------------------------------------------------------------- #
    # Submission

    def submit(
        self,
        raw_spec: Any,
        deadline_s: Optional[float] = None,
    ) -> JobRecord:
        """Validate, admit, durably record, and enqueue one job.

        Raises :class:`AdmissionRejectedError` when shed (queue full or
        draining) -- *before* anything was journaled,
        so a shed submit leaves no trace to recover.
        """
        spec = normalize_spec(raw_spec)
        job = job_from_spec(spec)
        cell_key = job.cell_key()
        with self._lock:
            if self._closed:
                raise AdmissionRejectedError(
                    "server is draining",
                    reason="draining",
                    retry_after_s=5,
                    queue_depth=self._tasks.qsize(),
                )
            decision = self.admission.admit(self._tasks.qsize())
            if not decision.admitted:
                raise AdmissionRejectedError(
                    f"admission rejected: {decision.reason}",
                    reason=decision.reason,
                    retry_after_s=decision.retry_after_s,
                    queue_depth=decision.queue_depth,
                )
            # The injectable enqueue failure: fires after admission but
            # before the accept is journaled, so the client's 503 is
            # honest -- nothing was acknowledged, nothing will recover.
            # Each try draws afresh, so a resubmit can get through.
            attempt = self._enqueue_tries.get(cell_key, 0)
            self._enqueue_tries[cell_key] = attempt + 1
            faults.raise_if("queue.enqueue", key=f"{cell_key}:{attempt}")
            job_id = f"job-{self._next_number:06d}"
            self._next_number += 1
            self.state.record_accept(job_id, cell_key, spec)
            record = JobRecord(
                job_id=job_id,
                spec=spec,
                cell_key=cell_key,
                submitted_at=round(time.time(), 3),
                _enqueued_mono=time.monotonic(),
                deadline_s=(
                    deadline_s
                    if deadline_s is not None
                    else self.default_deadline_s
                ),
            )
            self._jobs[job_id] = record
            _SUBMITTED.add()
            self._attach_or_enqueue(record)
            return record

    def _attach_or_enqueue(self, record: JobRecord) -> None:
        """Caller holds the lock."""
        done = self.state.result_for(record.cell_key)
        if done is not None:
            _DEDUP_COMPLETED.add()
            self._complete(record, done)
            return
        primary_id = self._inflight.get(record.cell_key)
        if primary_id is not None and primary_id in self._jobs:
            _DEDUP_INFLIGHT.add()
            record.dedup_of = primary_id
            self._jobs[primary_id].attached.append(record.job_id)
            return
        self._inflight[record.cell_key] = record.job_id
        self._pending += 1
        self._tasks.put(record.job_id)

    # ------------------------------------------------------------- #
    # Introspection

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[JobRecord]:
        with self._lock:
            return list(self._jobs.values())

    def depth(self) -> int:
        return self._tasks.qsize()

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            by_state: Dict[str, int] = {}
            for record in self._jobs.values():
                by_state[record.state] = by_state.get(record.state, 0) + 1
            return {
                "queued_depth": self._tasks.qsize(),
                "running": self._running_count,
                "jobs": by_state,
                "draining": self._closed,
                "admission": self.admission.snapshot(),
            }

    # ------------------------------------------------------------- #
    # Cancellation

    def cancel(self, job_id: str) -> Tuple[bool, str]:
        """Best-effort cancel.  Queued jobs cancel (durably -- the
        ledger records it so ``--resume`` will not resurrect them);
        running jobs cannot be interrupted mid-simulation."""
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                return False, "unknown job"
            if record.state in JobState.TERMINAL:
                return False, f"job already {record.state}"
            if record.state == JobState.RUNNING:
                return False, "job is running and cannot be interrupted"
            self.state.record_cancel(job_id)
            record.state = JobState.CANCELLED
            record.finished_at = round(time.time(), 3)
            _CANCELLED.add()
            if record.dedup_of:
                primary = self._jobs.get(record.dedup_of)
                if primary and job_id in primary.attached:
                    primary.attached.remove(job_id)
            return True, "cancelled"

    # ------------------------------------------------------------- #
    # Worker side

    def _worker_loop(self) -> None:
        while True:
            item = self._tasks.get()
            if item is _STOP:
                return
            try:
                self._run_one(item)
            finally:
                with self._idle:
                    self._pending -= 1
                    self._idle.notify_all()

    def _run_one(self, job_id: str) -> None:
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                return
            # The whole flight (primary + attached) may have cancelled
            # while queued.
            live = [record.job_id] + list(record.attached)
            live = [
                jid
                for jid in live
                if self._jobs[jid].state == JobState.QUEUED
            ]
            if not live:
                self._inflight.pop(record.cell_key, None)
                return
            if (
                record.deadline_s is not None
                and time.monotonic() - record._enqueued_mono
                > record.deadline_s
            ):
                _EXPIRED.add()
                self._fail(
                    record,
                    SimulationTimeoutError(
                        f"job deadline ({record.deadline_s}s) expired "
                        f"before execution",
                        timeout_s=record.deadline_s,
                    ),
                )
                return
            record.state = JobState.RUNNING
            record.started_at = round(time.time(), 3)
            self._running_count += 1
        started = time.monotonic()
        try:
            result = self._runner(job_from_spec(record.spec))
        except Exception as exc:  # noqa: BLE001 - classified in _fail
            with self._lock:
                self._fail(record, exc)
        else:
            self.admission.observe_service_time(time.monotonic() - started)
            self.state.record_completion(
                record.cell_key,
                result,
                benchmark=record.spec.get("benchmark"),
                job_id=record.job_id,
            )
            with self._lock:
                self._complete(record, result)
        finally:
            with self._lock:
                self._running_count -= 1

    # ------------------------------------------------------------- #
    # Completion fan-out (caller holds the lock)

    def _deliveries(self, record: JobRecord) -> List[JobRecord]:
        out = [record]
        for jid in record.attached:
            attached = self._jobs.get(jid)
            if attached is not None:
                out.append(attached)
        self._inflight.pop(record.cell_key, None)
        return out

    def _complete(self, record: JobRecord, result: Any) -> None:
        for rec in self._deliveries(record):
            if rec.state in JobState.TERMINAL:
                continue
            rec.state = JobState.DONE
            rec.result = result
            rec.finished_at = round(time.time(), 3)
            _COMPLETED.add()
        obs.log_event(
            "server_job_done",
            level="info",
            job_id=record.job_id,
            cell_key=record.cell_key,
            attached=len(record.attached),
        )

    def _fail(self, record: JobRecord, exc: Exception) -> None:
        error = {
            "error": type(exc).__name__,
            "message": str(exc),
            "retryable": is_retryable(exc),
        }
        for rec in self._deliveries(record):
            if rec.state in JobState.TERMINAL:
                continue
            rec.state = JobState.FAILED
            rec.error = dict(error)
            rec.finished_at = round(time.time(), 3)
            _FAILED.add()
        obs.log_event(
            "server_job_failed",
            level="warning",
            job_id=record.job_id,
            cell_key=record.cell_key,
            **error,
        )
