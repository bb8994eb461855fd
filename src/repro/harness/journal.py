"""Checkpoint/resume journal for experiment grids.

A grid run with an output directory appends one JSON line per completed
cell to ``<out>/journal.jsonl`` *as it finishes*, so an interrupted run
(crash, ^C, SIGTERM, power loss) can restart with ``--resume`` and skip
every cell that already completed:

- **Append-only**: each record is written and flushed in one call; a
  crash can tear at most the final line.  By default every record is
  also fsynced before :meth:`Journal.record` returns; at service
  request rates that per-record fsync is measurably hot, so an opt-in
  batched mode (``REPRO_JOURNAL_FSYNC_MS``, or the
  ``fsync_interval_ms`` constructor argument) keeps the file handle
  open, still flushes per record (a ``kill -9`` loses nothing that was
  flushed), and fsyncs at most once per interval plus once on
  :meth:`Journal.close` -- bounding *power-loss* exposure to the
  interval while keeping torn-tail tolerance unchanged.
- **Torn-tail tolerant**: :meth:`Journal.load` ignores a truncated or
  garbage trailing line (and counts damaged interior lines) instead of
  refusing to resume.
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
import json
import os
import pickle
import time
from typing import Any, Dict, Iterable, Optional

from repro import obs
from repro.errors import JournalError
from repro.harness.simcache import code_version

#: Bump when the record layout changes.
JOURNAL_SCHEMA = 1

JOURNAL_NAME = "journal.jsonl"

#: Environment opt-in for batched fsync (milliseconds between syncs);
#: unset/empty/0 keeps the default fsync-per-record durability.
FSYNC_ENV_VAR = "REPRO_JOURNAL_FSYNC_MS"

_RECORDS = obs.counters.counter("harness.journal.records")
_RESUMED = obs.counters.counter("harness.journal.cells_resumed")
_DAMAGED = obs.counters.counter("harness.journal.damaged_lines")
_DEGRADED = obs.counters.counter("harness.journal.degradations")
_FSYNCS = obs.counters.counter("harness.journal.fsyncs")


def _env_fsync_interval_ms() -> Optional[float]:
    raw = os.environ.get(FSYNC_ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


class Journal:
    """One append-only journal file of completed grid cells.

    ``fsync_interval_ms=None`` (the default) resolves the opt-in
    batched-fsync interval from ``REPRO_JOURNAL_FSYNC_MS``; pass ``0``
    to force fsync-per-record regardless of the environment, or a
    positive interval to batch explicitly (the experiment server does).
    """

    def __init__(
        self, path: str, fsync_interval_ms: Optional[float] = None
    ) -> None:
        self.path = path
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._degraded = False
        if fsync_interval_ms is None:
            fsync_interval_ms = _env_fsync_interval_ms()
        self.fsync_interval_s = (
            fsync_interval_ms / 1000.0
            if fsync_interval_ms and fsync_interval_ms > 0
            else 0.0
        )
        self._fh: Optional[Any] = None
        self._last_sync = 0.0

    @classmethod
    def for_run_dir(
        cls, out_dir: str, fsync_interval_ms: Optional[float] = None
    ) -> "Journal":
        return cls(
            os.path.join(out_dir, JOURNAL_NAME),
            fsync_interval_ms=fsync_interval_ms,
        )

    # ----------------------------------------------------------------- #

    def load(self) -> Dict[str, Dict[str, Any]]:
        """Parse the journal into ``{cell_key: record}``.

        A missing file is an empty journal.  A torn trailing line is
        ignored silently (the expected crash artifact); damaged interior
        lines are counted and skipped.  An unreadable file raises
        :class:`JournalError` -- the caller explicitly asked to resume
        from it, so silent loss would be worse than failing.
        """
        self._entries = {}
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except FileNotFoundError:
            return self._entries
        except OSError as exc:
            raise JournalError(
                f"cannot read journal {self.path}: {exc}",
                path=self.path,
                reason=str(exc),
            ) from exc
        for i, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("journal record is not an object")
                key = record["key"]
            except (ValueError, KeyError):
                if i == len(lines) - 1:
                    continue  # torn tail: the expected crash artifact
                _DAMAGED.add()
                obs.log_event(
                    "journal_damaged_line",
                    level="warning",
                    path=self.path,
                    line=i + 1,
                )
                continue
            if (
                record.get("schema") != JOURNAL_SCHEMA
                or record.get("code") != code_version()
            ):
                continue
            self._entries[key] = record
        return self._entries

    def completed_keys(self) -> Iterable[str]:
        return self._entries.keys()

    def result_for(self, key: str) -> Optional[Any]:
        """The journaled result payload for ``key``, or ``None``.

        A record whose payload no longer unpickles is treated as absent
        (the cell simply re-runs).  Likewise a record whose journaled
        ``trace_artifacts`` no longer exist on disk: a traced cell is
        only "done" if its trace files survived, so a wiped output
        directory re-traces instead of resuming to dangling manifest
        paths.
        """
        record = self._entries.get(key)
        if record is None:
            return None
        for path in record.get("trace_artifacts") or ():
            if not os.path.exists(path):
                obs.log_event(
                    "journal_trace_artifact_missing",
                    level="warning",
                    key=key,
                    path=path,
                )
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
        """Append one completed cell (write + flush [+ fsync]).

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
        line = json.dumps(record, default=str, separators=(",", ":"))
        try:
            if self.fsync_interval_s > 0:
                self._append_batched(line)
            else:
                self._append_synced(line)
        except OSError as exc:
            self._degrade(exc)
            return
        self._entries[key] = record
        _RECORDS.add()

    def _append_synced(self, line: str) -> None:
        """The default durability discipline: one write+flush+fsync."""
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        _FSYNCS.add()

    def _append_batched(self, line: str) -> None:
        """Service-rate discipline: keep the handle open, flush per
        record, fsync at most once per interval.  A killed *process*
        loses nothing flushed; only power loss can cost up to one
        interval of records -- and the torn-tail tolerant loader makes
        that loss clean, never corrupting."""
        if self._fh is None:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
            self._last_sync = time.monotonic()
        self._fh.write(line + "\n")
        self._fh.flush()
        now = time.monotonic()
        if now - self._last_sync >= self.fsync_interval_s:
            os.fsync(self._fh.fileno())
            self._last_sync = now
            _FSYNCS.add()

    def _degrade(self, exc: OSError) -> None:
        self._degraded = True
        _DEGRADED.add()
        obs.log_event(
            "journal_degraded",
            level="warning",
            path=self.path,
            error=type(exc).__name__,
            detail=str(exc),
        )

    def sync(self) -> None:
        """Force any batched records down to disk now."""
        if self._fh is None:
            return
        try:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._last_sync = time.monotonic()
            _FSYNCS.add()
        except OSError as exc:
            self._degrade(exc)

    def close(self) -> None:
        """Sync and release the batched-mode file handle (idempotent;
        the journal can still record afterwards -- it reopens)."""
        if self._fh is None:
            return
        self.sync()
        try:
            self._fh.close()
        except OSError:
            pass
        self._fh = None

    def discard(self) -> None:
        """Delete the journal file (a fresh, non-resumed run starts clean
        so stale cells from an older grid cannot leak in)."""
        self._entries = {}
        self.close()
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
