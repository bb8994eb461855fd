"""Append-only JSON-lines files: one fsynced append, one torn-tail read.

Every JSON-lines file the package keeps shares this discipline: the
grid journal (:mod:`repro.harness.journal`), the server's accept ledger
(:mod:`repro.server.state`) and a run directory's ``results.jsonl``
(:mod:`repro.obs.manifest`).

- **Append-only, fsynced per record**: :func:`append_record` writes,
  flushes and fsyncs one line before it returns, so every record a
  call reported written survives a crash or power loss; a crash can
  tear at most the final line.
- **Torn-tail tolerant**: :func:`read_records` ignores a truncated or
  garbage trailing line (and counts damaged interior lines) instead of
  refusing the file.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Sequence

from repro.errors import JournalError
from repro.obs.log import log_event
from repro.obs.metrics import Counter, counters

_FSYNCS = counters.counter("harness.journal.fsyncs")


def append_record(path: str, record: Dict[str, Any]) -> None:
    """Append ``record`` to ``path`` as one JSON line (keys sorted):
    write, flush and fsync before returning.  I/O failure raises
    :class:`OSError`; each caller decides what a lost record costs."""
    line = json.dumps(record, default=str, sort_keys=True,
                      separators=(",", ":"))
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    _FSYNCS.add()


def read_records(
    path: str,
    required: Sequence[str],
    damaged: Counter,
    what: str,
) -> List[Dict[str, Any]]:
    """Every well-formed record of the JSON-lines file ``path``, in
    file order.

    A record is well-formed when it is a JSON object carrying every key
    in ``required``.  A missing file has no records.  A malformed last
    line is the torn tail a crash mid-append leaves and is dropped
    silently; a malformed line elsewhere is counted on the ``damaged``
    counter, logged and skipped.  An unreadable file raises
    :class:`JournalError` naming ``what`` -- silent loss would be worse
    than failing.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        return []
    except OSError as exc:
        raise JournalError(
            f"cannot read {what} {path}: {exc}",
            path=path,
            reason=str(exc),
        ) from exc
    records: List[Dict[str, Any]] = []
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if isinstance(record, dict) and all(k in record for k in required):
            records.append(record)
        elif i < len(lines) - 1:
            damaged.add()
            log_event(
                "journal_damaged_line",
                level="warning",
                path=path,
                line=i + 1,
            )
    return records
