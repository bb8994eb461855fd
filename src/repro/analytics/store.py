"""Append-only run store: one JSON document per ingest.

One store is a directory of immutable run files plus a JSON index::

    <store>/
      index.json              -- store schema, ingest log, next seq
      runs/run-000001.json    -- one ingest = one run file

A run file is ``{"format": 1, "meta": {...}, "rows": [...]}``: the
ingested rows as plain dicts, each stamped with the reserved keys
``run_seq``, ``run_id``, ``commit``, ``kind``, ``schema`` and
``failed``.  Queries group over the row dicts directly, so a new result
column lands in the store with no format work.

Writes are atomic (temp file + fsync + ``os.replace``) and append-only:
a crash mid-ingest leaves the store exactly as it was.  Ingest is
*lossless for good rows and loud for bad ones*: degraded runs
(``degraded: true`` manifests with :class:`JobFailure` rows) ingest as
flagged rows, torn trailing lines are tolerated (the expected crash
artifact), damaged interior lines and rows stamped with a newer schema
than this code understands are counted, warned about, and skipped --
never silently mis-parsed.
"""

from __future__ import annotations

import glob
import json
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence

from repro import obs
from repro.errors import ConfigError
from repro.obs.manifest import (
    MANIFEST_NAME,
    RESULTS_NAME,
    RESULTS_SCHEMA_VERSION,
)

#: Run-file layout version (``{"format", "meta", "rows"}``).
RUN_FORMAT = 1

#: Store directory layout version (index.json + runs/).  Version 1 was
#: the binary columnar segment layout (``segments/seg-*.rcol``).
STORE_SCHEMA_VERSION = 2

INDEX_NAME = "index.json"
RUN_DIR = "runs"

_ROWS = obs.counters.counter("analytics.ingest.rows")
_FLAGGED = obs.counters.counter("analytics.ingest.flagged_rows")
_DAMAGED = obs.counters.counter("analytics.ingest.damaged_lines")
_REJECTED = obs.counters.counter("analytics.ingest.rejected_rows")
_RUNS = obs.counters.counter("analytics.ingest.runs")


def ingest_enabled() -> bool:
    """Automatic post-run ingest is on unless ``REPRO_ANALYTICS=0``."""
    return os.environ.get("REPRO_ANALYTICS", "").strip() != "0"


def default_store_dir() -> str:
    """``REPRO_ANALYTICS_DIR`` or ``~/.cache/repro-analytics``."""
    env = os.environ.get("REPRO_ANALYTICS_DIR", "").strip()
    if env:
        return env
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro-analytics"
    )


@dataclass
class IngestReport:
    """What one ingest did -- every row accounted for, good or bad."""

    source: str
    run_id: str = ""
    run_seq: int = -1
    rows_ingested: int = 0
    rows_flagged: int = 0
    rows_rejected: int = 0
    lines_damaged: int = 0
    skipped: bool = False
    reason: str = ""
    path: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__)


def _atomic_write(path: str, payload: bytes) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class RunStore:
    """The run store rooted at one directory."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root or default_store_dir()
        self._run_cache: Dict[str, List[Dict[str, Any]]] = {}

    # -- index ---------------------------------------------------------- #

    @property
    def index_path(self) -> str:
        return os.path.join(self.root, INDEX_NAME)

    def _load_index(self) -> Dict[str, Any]:
        try:
            with open(self.index_path, "r", encoding="utf-8") as fh:
                index = json.load(fh)
        except FileNotFoundError:
            return {
                "store_schema": STORE_SCHEMA_VERSION,
                "next_seq": 1,
                "ingests": [],
            }
        except (OSError, ValueError) as exc:
            raise ConfigError(
                f"unreadable analytics store index {self.index_path}: {exc}"
            ) from exc
        schema = index.get("store_schema", 0)
        if schema > STORE_SCHEMA_VERSION:
            raise ConfigError(
                f"analytics store {self.root} has schema {schema}, newer "
                f"than this code ({STORE_SCHEMA_VERSION}); refusing to "
                "touch it"
            )
        if schema < STORE_SCHEMA_VERSION:
            raise ConfigError(
                f"analytics store {self.root} has schema {schema}, the "
                "old columnar segment format this code no longer reads; "
                "use a new --store directory and re-ingest the run "
                "directories"
            )
        return index

    def _save_index(self, index: Dict[str, Any]) -> None:
        payload = json.dumps(index, indent=1, sort_keys=True).encode()
        _atomic_write(self.index_path, payload + b"\n")

    def ingested_run_ids(self) -> Dict[str, int]:
        index = self._load_index()
        return {
            rec["run_id"]: rec["seq"]
            for rec in index.get("ingests", [])
            if rec.get("run_id")
        }

    # -- run files ------------------------------------------------------ #

    def run_paths(self) -> List[str]:
        pattern = os.path.join(self.root, RUN_DIR, "run-*.json")
        return sorted(glob.glob(pattern))

    def rows(self) -> Iterator[Dict[str, Any]]:
        """Every row of every readable run file, in ingest order.

        Run files written by a newer format, or unreadable ones, are
        skipped with a warning.
        """
        self._load_index()  # refuses stores this code cannot read
        for path in self.run_paths():
            yield from self._load_run(path)

    def _load_run(self, path: str) -> List[Dict[str, Any]]:
        cached = self._run_cache.get(path)
        if cached is not None:
            return cached
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict) or not isinstance(
                doc.get("rows"), list
            ):
                raise ValueError("not a run document")
        except (OSError, ValueError) as exc:
            obs.log_event(
                "analytics_run_unreadable",
                level="warning",
                path=path,
                error=str(exc),
            )
            return []
        if doc.get("format", 0) > RUN_FORMAT:
            obs.log_event(
                "analytics_run_skipped",
                level="warning",
                path=path,
                format=doc.get("format"),
            )
            return []
        self._run_cache[path] = doc["rows"]
        return doc["rows"]

    # -- append --------------------------------------------------------- #

    def append_rows(
        self,
        rows: Sequence[Mapping[str, Any]],
        run_id: str,
        commit: Optional[str] = None,
        source: str = "",
        meta: Optional[Mapping[str, Any]] = None,
        force: bool = False,
    ) -> IngestReport:
        """Write ``rows`` as one new run file (the ingest primitive).

        Every row gets the reserved keys; ``run_id`` dedups repeat
        ingests of the same run unless ``force``.  The run file lands
        atomically, then the index records the ingest.
        """
        report = IngestReport(source=source or run_id, run_id=run_id)
        index = self._load_index()
        if not force and run_id in {
            rec.get("run_id") for rec in index.get("ingests", [])
        }:
            report.skipped = True
            report.reason = f"run_id {run_id!r} already ingested"
            return report
        if not rows:
            report.skipped = True
            report.reason = "no rows"
            return report

        seq = int(index.get("next_seq", 1))
        full_rows: List[Dict[str, Any]] = []
        for row in rows:
            # Reserved keys: run_seq is the ingest sequence (the x
            # axis); kind is the row family (result | run);
            # schema is the results.jsonl record's stamped layout
            # version (1 for pre-stamp artifacts); failed is 1 for
            # JobFailure rows, else 0.
            full = {
                "run_seq": seq,
                "run_id": run_id,
                "commit": commit or "",
                "kind": row.get("kind", "result"),
                "schema": row.get("schema", 1),
                "failed": 1 if row.get("failed") else 0,
            }
            for key, value in row.items():
                if key in ("kind", "schema", "failed"):
                    continue
                full[key] = value
            full_rows.append(full)

        doc = {
            "format": RUN_FORMAT,
            "meta": dict(meta or {}, run_id=run_id, run_seq=seq,
                         source=source),
            "rows": full_rows,
        }
        run_path = os.path.join(self.root, RUN_DIR, f"run-{seq:06d}.json")
        _atomic_write(
            run_path,
            json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
            + b"\n",
        )

        n = len(full_rows)
        index["next_seq"] = seq + 1
        index.setdefault("ingests", []).append({
            "seq": seq,
            "run_id": run_id,
            "source": source,
            "commit": commit or "",
            "rows": n,
            "ingested_at": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
        })
        self._save_index(index)
        _RUNS.add()
        _ROWS.add(n)
        report.run_seq = seq
        report.path = run_path
        report.rows_ingested = n
        report.rows_flagged = sum(r["failed"] for r in full_rows)
        _FLAGGED.add(report.rows_flagged)
        return report

    # -- ingest: run directories ---------------------------------------- #

    def ingest_run(self, run_dir: str, force: bool = False) -> IngestReport:
        """Ingest one ``--out`` run directory.

        Reads ``manifest.json`` (optional -- a missing manifest falls
        back to the directory name as run id) and ``results.jsonl``
        (torn-tail tolerant).  Rows stamped with a newer schema than
        this code understands are rejected loudly, never guessed at.
        """
        manifest: Dict[str, Any] = {}
        manifest_path = os.path.join(run_dir, MANIFEST_NAME)
        try:
            with open(manifest_path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            pass
        except (OSError, ValueError) as exc:
            obs.log_event(
                "analytics_manifest_unreadable",
                level="warning",
                path=manifest_path,
                error=str(exc),
            )
        run_id = str(
            manifest.get("run_id")
            or os.path.basename(os.path.normpath(run_dir))
        )
        commit = manifest.get("git_commit")
        report = IngestReport(source=run_dir, run_id=run_id)

        rows, damaged, rejected = self._read_results(
            os.path.join(run_dir, RESULTS_NAME)
        )
        report.lines_damaged = damaged
        report.rows_rejected = rejected

        run_row = self._run_row(manifest)
        if run_row is not None:
            rows.append(run_row)

        if not rows:
            report.skipped = True
            report.reason = f"no ingestable rows in {run_dir}"
            return report
        appended = self.append_rows(
            rows,
            run_id=run_id,
            commit=commit,
            source=run_dir,
            meta={"command": manifest.get("command", "")},
            force=force,
        )
        appended.lines_damaged = damaged
        appended.rows_rejected = rejected
        appended.source = run_dir
        return appended

    def _read_results(self, path: str):
        rows: List[Dict[str, Any]] = []
        damaged = 0
        rejected = 0
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except FileNotFoundError:
            return rows, damaged, rejected
        except OSError as exc:
            obs.log_event(
                "analytics_results_unreadable",
                level="warning",
                path=path,
                error=str(exc),
            )
            return rows, damaged, rejected
        for i, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("record is not an object")
            except ValueError:
                if i == len(lines) - 1:
                    continue  # torn tail: the expected crash artifact
                damaged += 1
                _DAMAGED.add()
                obs.log_event(
                    "analytics_damaged_line",
                    level="warning",
                    path=path,
                    line=i + 1,
                )
                continue
            schema = record.pop("schema", 1)
            try:
                schema = int(schema)
            except (TypeError, ValueError):
                schema = 0
            if schema > RESULTS_SCHEMA_VERSION or schema < 1:
                rejected += 1
                _REJECTED.add()
                obs.log_event(
                    "analytics_row_rejected",
                    level="warning",
                    path=path,
                    line=i + 1,
                    schema=schema,
                    supported=RESULTS_SCHEMA_VERSION,
                )
                continue
            record["schema"] = schema
            record.setdefault("kind", "result")
            rows.append(record)
        return rows, damaged, rejected

    def _run_row(self, manifest: Mapping[str, Any]):
        """One run-level row: wall time, degradation, simcache rates."""
        if not manifest:
            return None
        counters = manifest.get("counters") or {}
        hits = float(counters.get("harness.simcache.hits", 0) or 0)
        misses = float(counters.get("harness.simcache.misses", 0) or 0)
        row: Dict[str, Any] = {
            "kind": "run",
            "command": manifest.get("command", ""),
            "wall_s": manifest.get("wall_s"),
            "n_rows": manifest.get("n_rows"),
            "degraded": bool(manifest.get("degraded")),
            "interrupted": bool(manifest.get("interrupted")),
            "cache_hits": hits,
            "cache_misses": misses,
        }
        if hits + misses:
            row["cache_hit_rate"] = hits / (hits + misses)
        return row

    def ingest_path(self, path: str, force: bool = False) -> IngestReport:
        """Ingest ``path``, which must be an ``--out`` run directory."""
        if not os.path.isdir(path):
            raise ConfigError(
                f"not a run directory: {path!r} (analytics ingests "
                "--out run directories only)"
            )
        return self.ingest_run(path, force=force)

    # -- stats ---------------------------------------------------------- #

    def stats(self) -> Dict[str, Any]:
        index = self._load_index()
        paths = self.run_paths()
        return {
            "dir": self.root,
            "store_schema": index.get("store_schema"),
            "runs": len(paths),
            "ingests": len(index.get("ingests", [])),
            "rows": sum(
                rec.get("rows", 0) for rec in index.get("ingests", [])
            ),
            "bytes": sum(os.path.getsize(p) for p in paths),
        }
