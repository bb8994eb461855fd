"""Checkpoint/resume journal for experiment grids.

A grid run with an output directory appends one JSON line per completed
cell to ``<out>/journal.jsonl`` *as it finishes*, so an interrupted run
(crash, ^C, SIGTERM, power loss) can restart with ``--resume`` and skip
every cell that already completed:

- **Append-only, fsynced per record, torn-tail tolerant**: the
  JSON-lines discipline of :mod:`repro.obs.jsonl`, so a crash can tear
  at most the final line and resuming drops it instead of refusing.
- **Self-describing**: records carry the cell key (a content hash of
  the job's full configuration, :meth:`ExperimentJob.cell_key`), a
  human-readable summary, and the pickled :class:`ExperimentResult`
  payload, so resumed cells are bit-identical to freshly computed ones.
- **Versioned**: each record carries the journal schema
  (:data:`JOURNAL_SCHEMA`) and the simulator code version
  (:func:`repro.harness.simcache.code_version`).  Records written under
  a different schema, or by different (or unrecorded) code, are ignored
  on load (the cell re-runs), never misinterpreted, so ``--resume``
  after editing the simulator recomputes every cell.

Only *successful* cells are journaled; failed cells re-run on resume.
"""

from __future__ import annotations

import base64
import os
import pickle
from typing import Any, Dict, Optional

from repro import obs
from repro.errors import JournalError
from repro.harness.simcache import code_version
from repro.obs.jsonl import append_record, read_records

#: Bump when the record layout changes.
JOURNAL_SCHEMA = 1

JOURNAL_NAME = "journal.jsonl"

_RECORDS = obs.counters.counter("harness.journal.records")
_RESUMED = obs.counters.counter("harness.journal.cells_resumed")
_DAMAGED = obs.counters.counter("harness.journal.damaged_lines")
_DEGRADED = obs.counters.counter("harness.journal.degradations")


class Journal:
    """One append-only journal file of completed grid cells."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._degraded = False

    @classmethod
    def for_run_dir(cls, out_dir: str) -> "Journal":
        return cls(os.path.join(out_dir, JOURNAL_NAME))

    # ----------------------------------------------------------------- #

    def load(self) -> Dict[str, Dict[str, Any]]:
        """Parse the journal into ``{cell_key: record}`` (see
        :func:`read_records`), keeping only records of this schema and
        this code version."""
        self._entries = {}
        for record in read_records(self.path, ("key",), _DAMAGED, "journal"):
            if (
                record.get("schema") == JOURNAL_SCHEMA
                and record.get("code") == code_version()
            ):
                self._entries[record["key"]] = record
        return self._entries

    def result_for(self, key: str) -> Optional[Any]:
        """The journaled result payload for ``key``, or ``None``.

        A record whose payload no longer unpickles is treated as absent
        (the cell simply re-runs).
        """
        record = self._entries.get(key)
        if record is None:
            return None
        try:
            payload = pickle.loads(
                base64.b64decode(record["result_b64"])
            )
        except Exception:
            _DAMAGED.add()
            return None
        _RESUMED.add()
        return payload

    # ----------------------------------------------------------------- #

    def record(self, key: str, result: Any, **meta: Any) -> None:
        """Append one completed cell (write + flush + fsync).

        Journal I/O failure (full disk, read-only dir) degrades to
        not-journaling with a single warning event: losing resumability
        must never abort the grid producing the results.
        """
        if self._degraded:
            return
        record: Dict[str, Any] = {
            "schema": JOURNAL_SCHEMA,
            "code": code_version(),
            "key": key,
            "result_b64": base64.b64encode(
                pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            ).decode("ascii"),
        }
        record.update(meta)
        try:
            append_record(self.path, record)
        except OSError as exc:
            self._degraded = True
            _DEGRADED.add()
            obs.log_event(
                "journal_degraded",
                level="warning",
                path=self.path,
                error=type(exc).__name__,
                detail=str(exc),
            )
            return
        self._entries[key] = record
        _RECORDS.add()

    def discard(self) -> None:
        """Delete the journal file (a fresh, non-resumed run starts clean
        so stale cells from an older grid cannot leak in)."""
        self._entries = {}
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise JournalError(
                f"cannot clear journal {self.path}: {exc}",
                path=self.path,
                reason=str(exc),
            ) from exc
