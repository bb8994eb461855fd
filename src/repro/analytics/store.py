"""Append-friendly columnar run store.

One store is a directory of immutable binary *segments* plus a JSON
index::

    <store>/
      index.json                -- store schema, ingest log, next seq
      segments/seg-000001.rcol  -- one ingest = one sealed segment

Each segment holds a batch of result rows as typed columns built on the
general :mod:`repro.frontend.columns` machinery: ``float64`` for every
numeric key, ``int8`` for flags, and dictionary-encoded ``int64`` codes
for strings (the per-segment dictionary lives in the header).  The
on-disk format is a single JSON header line followed by the raw
little-endian bytes of each column, so a segment loads with one
``frombytes`` per column -- no per-row parsing ever happens after
ingest.

Writes are atomic (temp file + ``os.replace``) and append-only: a crash
mid-ingest leaves the store exactly as it was.  Ingest is *lossless for
good rows and loud for bad ones*: degraded runs (``degraded: true``
manifests with :class:`JobFailure` rows) ingest as flagged rows, torn
trailing lines are tolerated (the expected crash artifact), damaged
interior lines and rows stamped with a newer schema than this code
understands are counted, warned about, and skipped -- never silently
mis-parsed.
"""

from __future__ import annotations

import glob
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro import obs
from repro.errors import ConfigError
from repro.frontend import columns as colmod
from repro.obs.manifest import (
    MANIFEST_NAME,
    RESULTS_NAME,
    RESULTS_SCHEMA_VERSION,
)

#: On-disk segment layout version (header + raw column bytes).
SEGMENT_FORMAT = 1

#: Store directory layout version (index.json + segments/).
STORE_SCHEMA_VERSION = 1

INDEX_NAME = "index.json"
SEGMENT_DIR = "segments"
SEGMENT_SUFFIX = ".rcol"
_MAGIC = "rcol"

#: Reserved columns every ingested row carries.
#:   run_seq  -- monotonically increasing ingest sequence (the x axis);
#:   kind     -- row family: result | run | trace;
#:   schema   -- the results.jsonl record's stamped layout version
#:               (1 for pre-stamp artifacts);
#:   failed   -- 1 for JobFailure rows, else 0.
RESERVED_STRING = ("kind", "run_id", "commit")
RESERVED_INT = ("run_seq", "schema")
RESERVED_FLAG = ("failed",)

_ROWS = obs.counters.counter("analytics.ingest.rows")
_FLAGGED = obs.counters.counter("analytics.ingest.flagged_rows")
_DAMAGED = obs.counters.counter("analytics.ingest.damaged_lines")
_REJECTED = obs.counters.counter("analytics.ingest.rejected_rows")
_SEGMENTS = obs.counters.counter("analytics.ingest.segments")


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
    segment: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__)


@dataclass
class Segment:
    """One loaded segment: sealed columns + per-column dictionaries."""

    path: str
    n_rows: int
    meta: Dict[str, Any]
    kinds: Dict[str, str]
    data: Dict[str, Any]
    dicts: Dict[str, List[str]] = field(default_factory=dict)

    def column(self, name: str):
        """The sealed column, or ``None`` when this segment lacks it."""
        return self.data.get(name)

    def strings(self, name: str) -> Optional[List[str]]:
        """Decode a dictionary column into its row-aligned strings."""
        codes = self.data.get(name)
        if codes is None:
            return None
        words = self.dicts.get(name, [])
        return [words[c] if 0 <= c < len(words) else "" for c in codes]


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


def _plan_columns(rows: Sequence[Mapping[str, Any]]) -> Dict[str, str]:
    """Decide each key's column kind from the union of row values.

    Strings dictionary-encode; everything numeric (bool included) is a
    ``float64`` column except the reserved integer/flag columns.  A key
    holding both strings and numbers across rows is a string column
    (the numbers stringify) -- mixed-type keys come from hand-edited
    artifacts and must not silently drop values.
    """
    kinds: Dict[str, str] = {}
    for name in RESERVED_STRING:
        kinds[name] = "str"
    for name in RESERVED_INT:
        kinds[name] = "int64"
    for name in RESERVED_FLAG:
        kinds[name] = "int8"
    for row in rows:
        for key, value in row.items():
            if key in kinds and kinds[key] != "str":
                if isinstance(value, str) and key not in (
                    RESERVED_INT + RESERVED_FLAG
                ):
                    kinds[key] = "str"
                continue
            if key in kinds:
                continue
            if isinstance(value, str):
                kinds[key] = "str"
            elif isinstance(value, bool):
                kinds[key] = "int8"
            elif isinstance(value, (int, float)):
                kinds[key] = "float64"
            elif value is None:
                continue  # decide from a later row that has a value
            else:
                kinds[key] = "str"  # lists/dicts stringify
    return kinds


def _coerce(value: Any, kind: str):
    if kind == "float64":
        if value is None:
            return math.nan
        try:
            return float(value)
        except (TypeError, ValueError):
            return math.nan
    if kind == "int8":
        return 1 if value else 0
    if kind == "int64":
        try:
            return int(value)
        except (TypeError, ValueError):
            return -1
    raise AssertionError(kind)  # pragma: no cover


class RunStore:
    """The columnar run store rooted at one directory."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root or default_store_dir()
        self._segment_cache: Dict[str, Segment] = {}

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
        if index.get("store_schema", 0) > STORE_SCHEMA_VERSION:
            raise ConfigError(
                f"analytics store {self.root} has schema "
                f"{index.get('store_schema')}, newer than this code "
                f"({STORE_SCHEMA_VERSION}); refusing to touch it"
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

    # -- segments ------------------------------------------------------- #

    def segment_paths(self) -> List[str]:
        pattern = os.path.join(
            self.root, SEGMENT_DIR, f"seg-*{SEGMENT_SUFFIX}"
        )
        return sorted(glob.glob(pattern))

    def segments(self) -> Iterable[Segment]:
        """Load every readable segment, skipping (and warning about)
        segments written by a newer format."""
        for path in self.segment_paths():
            seg = self._load_segment(path)
            if seg is not None:
                yield seg

    def _load_segment(self, path: str) -> Optional[Segment]:
        cached = self._segment_cache.get(path)
        if cached is not None:
            return cached
        try:
            with open(path, "rb") as fh:
                header_line = fh.readline()
                header = json.loads(header_line)
                if header.get("magic") != _MAGIC:
                    raise ValueError("bad magic")
                if header.get("format", 0) > SEGMENT_FORMAT:
                    obs.log_event(
                        "analytics_segment_skipped",
                        level="warning",
                        path=path,
                        format=header.get("format"),
                    )
                    return None
                raw = fh.read()
        except (OSError, ValueError) as exc:
            obs.log_event(
                "analytics_segment_unreadable",
                level="warning",
                path=path,
                error=str(exc),
            )
            return None
        data: Dict[str, Any] = {}
        kinds: Dict[str, str] = {}
        offset = 0
        for spec in header.get("columns", []):
            name, kind, nbytes = spec["name"], spec["kind"], spec["nbytes"]
            stored = "int64" if kind == "str" else kind
            data[name] = colmod.column_from_bytes(
                raw[offset:offset + nbytes], stored
            )
            kinds[name] = kind
            offset += nbytes
        seg = Segment(
            path=path,
            n_rows=int(header.get("n_rows", 0)),
            meta=header.get("meta", {}),
            kinds=kinds,
            data=data,
            dicts=header.get("dicts", {}),
        )
        self._segment_cache[path] = seg
        return seg

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
        """Seal ``rows`` into one new segment (the ingest primitive).

        Every row gets the reserved columns; ``run_id`` dedups repeat
        ingests of the same run unless ``force``.  The segment file
        lands atomically, then the index records the ingest.
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

        kinds = _plan_columns(full_rows)
        names = sorted(kinds)
        dicts: Dict[str, List[str]] = {}
        encoders: Dict[str, Dict[str, int]] = {}
        buffers: Dict[str, Any] = {}
        n = len(full_rows)
        for name in names:
            kind = kinds[name]
            if kind == "str":
                dicts[name] = []
                encoders[name] = {}
                buffers[name] = colmod.int64_buffer(n, fill=-1)
            elif kind == "int64":
                buffers[name] = colmod.int64_buffer(n)
            elif kind == "int8":
                buffers[name] = colmod.int8_buffer(n)
            else:
                buffers[name] = colmod.float64_buffer(n, fill=math.nan)
        for i, row in enumerate(full_rows):
            for name in names:
                kind = kinds[name]
                if kind == "str":
                    if name not in row or row[name] is None:
                        continue
                    word = str(row[name])
                    enc = encoders[name]
                    code = enc.get(word)
                    if code is None:
                        code = len(dicts[name])
                        enc[word] = code
                        dicts[name].append(word)
                    buffers[name][i] = code
                elif name in row:
                    buffers[name][i] = _coerce(row[name], kind)

        specs = []
        blobs = []
        for name in names:
            raw = colmod.column_to_bytes(buffers[name])
            specs.append(
                {"name": name, "kind": kinds[name], "nbytes": len(raw)}
            )
            blobs.append(raw)
        header = {
            "magic": _MAGIC,
            "format": SEGMENT_FORMAT,
            "n_rows": n,
            "columns": specs,
            "dicts": dicts,
            "meta": dict(meta or {}, run_id=run_id, run_seq=seq,
                         source=source),
        }
        payload = (
            json.dumps(header, sort_keys=True, separators=(",", ":"))
            .encode() + b"\n" + b"".join(blobs)
        )
        seg_path = os.path.join(
            self.root, SEGMENT_DIR, f"seg-{seq:06d}{SEGMENT_SUFFIX}"
        )
        _atomic_write(seg_path, payload)

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
        _SEGMENTS.add()
        _ROWS.add(n)
        report.run_seq = seq
        report.segment = seg_path
        report.rows_ingested = n
        report.rows_flagged = sum(r["failed"] for r in full_rows)
        _FLAGGED.add(report.rows_flagged)
        return report

    # -- ingest: run directories ---------------------------------------- #

    def ingest_run(self, run_dir: str, force: bool = False) -> IngestReport:
        """Ingest one ``--out`` run directory.

        Reads ``manifest.json`` (optional -- a missing manifest falls
        back to the directory name as run id) and ``results.jsonl``
        (torn-tail tolerant), plus any ``utrace/*.summary.json`` stall
        summaries.  Rows stamped with a newer schema than this code
        understands are rejected loudly, never guessed at.
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

        rows.extend(self._trace_rows(run_dir))
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

    def _trace_rows(self, run_dir: str) -> List[Dict[str, Any]]:
        """Stall-attribution rows from ``utrace/*.summary.json``."""
        rows: List[Dict[str, Any]] = []
        pattern = os.path.join(run_dir, "utrace", "*.summary.json")
        for path in sorted(glob.glob(pattern)):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    summary = json.load(fh)
            except (OSError, ValueError):
                _DAMAGED.add()
                obs.log_event(
                    "analytics_summary_unreadable",
                    level="warning",
                    path=path,
                )
                continue
            label = str(summary.get("label", ""))
            row: Dict[str, Any] = {
                "kind": "trace",
                "label": label,
                "benchmark": label.split(".", 1)[0] if label else "",
                "ipc": summary.get("ipc"),
                "cycles": summary.get("cycles"),
                "committed": summary.get("committed"),
            }
            for name, frac in (summary.get("stall_fractions") or {}).items():
                row[f"stall_{name}"] = frac
            rows.append(row)
        return rows

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
        paths = self.segment_paths()
        return {
            "dir": self.root,
            "store_schema": index.get("store_schema"),
            "segments": len(paths),
            "ingests": len(index.get("ingests", [])),
            "rows": sum(
                rec.get("rows", 0) for rec in index.get("ingests", [])
            ),
            "bytes": sum(os.path.getsize(p) for p in paths),
        }
