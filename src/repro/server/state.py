"""Crash-safe server state: what was promised, and what was delivered.

The exactly-once contract of ``repro serve`` rests on two append-only
files in the state directory:

- ``accepted.jsonl`` -- one record per *acknowledged* submit (and per
  acknowledged cancel).  The record is written, flushed and **fsynced
  before the HTTP 202 goes out**: an acknowledgement the client saw is
  durable by construction, so a ``kill -9`` can never lose an accepted
  job.  Duplicated work is prevented on the other side: completions are
  keyed by cell key, so a job that raced a crash re-runs into the same
  deterministic, bit-identical result.
- ``journal.jsonl`` -- the engine's own completion
  :class:`~repro.harness.journal.Journal`, carrying the pickled
  :class:`ExperimentResult` per cell key.

Both files use the journal's one append path (every record written,
flushed and fsynced before its call returns) and its one torn-tail
tolerant reader.  They differ only in what an I/O failure costs: a
completion that cannot be journaled degrades to recomputing on resume,
while an accept that cannot be made durable refuses the submit.

``load()`` replays both and reports the accepted jobs with no
completion and no cancel -- exactly the set ``--resume`` must
re-enqueue.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional

from repro import obs
from repro.errors import JournalError
from repro.harness.journal import Journal
from repro.obs.jsonl import append_record, read_records

ACCEPT_SCHEMA = 1
ACCEPTED_NAME = "accepted.jsonl"

_ACCEPTS = obs.counters.counter("server.state.accepts")
_CANCELS = obs.counters.counter("server.state.cancels")
_COMPLETIONS = obs.counters.counter("server.state.completions")
_RECOVERED = obs.counters.counter("server.state.jobs_recovered")
_DAMAGED = obs.counters.counter("server.state.damaged_lines")


class ServerState:
    """The durable half of the job queue."""

    def __init__(self, state_dir: str) -> None:
        self.state_dir = state_dir
        os.makedirs(state_dir, exist_ok=True)
        self.accepted_path = os.path.join(state_dir, ACCEPTED_NAME)
        self.completions = Journal.for_run_dir(state_dir)
        self._accepted: Dict[str, Dict[str, Any]] = {}
        self._cancelled: set = set()

    # ------------------------------------------------------------- #
    # Accept ledger

    def _append(self, record: Dict[str, Any]) -> None:
        """Durably append one ledger line.  Unlike the completion
        journal this path must NOT degrade silently: an accept that is
        not durable must not be acknowledged, so I/O failure raises and
        the submit is refused."""
        try:
            append_record(self.accepted_path, record)
        except OSError as exc:
            raise JournalError(
                f"cannot persist accept ledger {self.accepted_path}: "
                f"{exc}",
                path=self.accepted_path,
                reason=str(exc),
            ) from exc

    def record_accept(
        self,
        job_id: str,
        cell_key: str,
        spec: Dict[str, Any],
    ) -> None:
        """Durably remember an accepted job *before* it is acknowledged.

        Ledgers written by older servers may carry extra keys (a
        ``"trace"`` context); replay ignores them.
        """
        record = {
            "schema": ACCEPT_SCHEMA,
            "op": "accept",
            "job_id": job_id,
            "key": cell_key,
            "spec": spec,
            "ts": round(time.time(), 3),
        }
        self._append(record)
        self._accepted[job_id] = record
        _ACCEPTS.add()

    def record_cancel(self, job_id: str) -> None:
        """Durably resolve an accepted job as cancelled (it must not be
        re-enqueued by ``--resume``)."""
        self._append(
            {
                "schema": ACCEPT_SCHEMA,
                "op": "cancel",
                "job_id": job_id,
                "ts": round(time.time(), 3),
            }
        )
        self._cancelled.add(job_id)
        _CANCELS.add()

    # ------------------------------------------------------------- #
    # Completions

    def record_completion(self, cell_key: str, result: Any, **meta: Any) -> None:
        self.completions.record(cell_key, result, **meta)
        _COMPLETIONS.add()

    def result_for(self, cell_key: str) -> Optional[Any]:
        return self.completions.result_for(cell_key)

    # ------------------------------------------------------------- #
    # Recovery

    def load(self) -> List[Dict[str, Any]]:
        """Replay both files; return every live (non-cancelled) accept
        record, in ledger order.  Records whose cell already has a
        journaled completion resolve instantly on re-registration; the
        rest are what ``--resume`` re-enqueues.

        Torn-tail tolerant (:func:`read_records`): a record cut short
        by the crash was never fsynced-then-acknowledged, so dropping it
        breaks no promise.
        """
        self._accepted = {}
        self._cancelled = set()
        for record in read_records(
            self.accepted_path, ("op", "job_id"), _DAMAGED, "accept ledger"
        ):
            if record.get("schema") != ACCEPT_SCHEMA:
                continue
            if record["op"] == "accept":
                self._accepted[record["job_id"]] = record
            elif record["op"] == "cancel":
                self._cancelled.add(record["job_id"])
        self.completions.load()
        live = [
            record
            for job_id, record in self._accepted.items()
            if job_id not in self._cancelled
        ]
        pending = [
            record
            for record in live
            if self.completions.result_for(record["key"]) is None
        ]
        _RECOVERED.add(len(pending))
        if live:
            obs.log_event(
                "server_state_recovered",
                level="info",
                accepted=len(self._accepted),
                cancelled=len(self._cancelled),
                pending=len(pending),
            )
        return live

    def max_job_number(self) -> int:
        """The highest ``job-N`` ordinal in the ledger, so restarted
        servers keep issuing unique, monotonically increasing IDs."""
        best = 0
        for job_id in self._accepted:
            head, _, tail = job_id.rpartition("-")
            if head == "job" and tail.isdigit():
                best = max(best, int(tail))
        return best
