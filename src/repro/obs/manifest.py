"""Run manifests and machine-readable result artifacts.

One "run" is a CLI invocation (or any harness driver) writing into an
output directory::

    <out>/manifest.json    -- provenance: command, argv, config
                              fingerprints, package/python versions,
                              timestamps, counters snapshot
    <out>/results.jsonl    -- one JSON object per (benchmark, target),
                              stamped with its run's ``run_id``
    <out>/run_table.csv    -- the same rows, appendable across runs
                              (mubench-style run table: later runs
                              append, widening the header when needed)

Rows are plain dicts -- whatever :meth:`ExperimentResult.summary_row`
plus the phase timings produced.  The CSV keeps the header of an
existing file and rewrites it with the new columns appended when a
later run adds some, so accumulated tables stay rectangular and no
run's columns are lost.

The run directory is the only copy of a run's rows:
:class:`RunWriter` writes them and :func:`read_runs` reads them back
for ``repro analytics query`` and ``repro report``.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import itertools
import json
import os
import platform
import sys
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.errors import ConfigError
from repro.obs.jsonl import append_record, read_records
from repro.obs.log import log_event
from repro.obs.metrics import counters

#: Identity columns always ordered first in ``run_table.csv``.
RUN_TABLE_LEAD_COLUMNS = ("run_id", "command", "benchmark", "target")

MANIFEST_NAME = "manifest.json"
RESULTS_NAME = "results.jsonl"
RUN_TABLE_NAME = "run_table.csv"

#: Layout version of the run artifacts (manifest + results.jsonl rows).
#: Stamped into ``manifest.json`` as ``schema_version`` and into every
#: ``results.jsonl`` record as a ``schema`` header field, so
#: :func:`read_runs` can reject newer layouts instead of mis-parsing
#: them.
#:
#: - 1: the implicit PR 1-5 layout (no stamp anywhere);
#: - 2: stamped records; manifest carries ``schema_version`` and a
#:   best-effort ``git_commit``.
RESULTS_SCHEMA_VERSION = 2

#: Keys :func:`read_runs` stamps on every row it returns.
STAMPED_KEYS = ("run_seq", "run_id", "commit", "kind", "schema", "failed")

#: Per-process sequence number of the default ``run_id``.
_RUN_SEQ = itertools.count(1)

_DAMAGED = counters.counter("results.damaged_lines")
_REJECTED = counters.counter("results.rejected_rows")


def stable_json(obj: Any) -> str:
    """Deterministic JSON used for hashing and manifest payloads."""
    return json.dumps(obj, sort_keys=True, default=str,
                      separators=(",", ":"))


def config_fingerprint(config: Any) -> str:
    """Short stable hash of a (frozen dataclass) configuration object."""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload = stable_json(dataclasses.asdict(config))
    else:
        payload = repr(config)
    digest = hashlib.sha256(
        f"{type(config).__name__}:{payload}".encode()
    ).hexdigest()
    return digest[:16]


def _package_version() -> str:
    try:  # late import: obs must stay importable on its own
        from repro import __version__

        return __version__
    except Exception:  # pragma: no cover - broken install only
        return "unknown"


def _utc(ts: float) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(ts))


def git_commit() -> Optional[str]:
    """Best-effort commit hash for attributing a run to its commit.

    ``GITHUB_SHA`` (CI) wins over asking git; neither being available
    returns ``None`` -- provenance must never fail a run.
    """
    sha = os.environ.get("GITHUB_SHA", "").strip()
    if sha:
        return sha
    try:
        import subprocess

        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
    except Exception:
        return None
    if proc.returncode != 0:
        return None
    out = proc.stdout.strip()
    return out or None


class RunWriter:
    """Accumulates result rows and writes the three artifacts.

    ``out_dir`` is created on construction; ``results.jsonl`` and
    ``run_table.csv`` are appended (repeat runs into the same directory
    accumulate), ``manifest.json`` describes the latest run.  Every
    ``results.jsonl`` record carries the writer's ``run_id``, so a
    reused directory splits back into its runs.
    """

    def __init__(
        self,
        out_dir: str,
        command: str = "",
        argv: Optional[Sequence[str]] = None,
        run_id: Optional[str] = None,
        configs: Optional[Mapping[str, Any]] = None,
        started: Optional[float] = None,
    ) -> None:
        self.out_dir = out_dir
        self.command = command
        self.argv = list(argv) if argv is not None else []
        # Callers that construct the writer only at teardown can pass the
        # command's real start time so manifest wall_s covers the whole run.
        self.started = time.time() if started is None else started
        # The per-process sequence number keeps two runs that one
        # process starts within the same second apart.
        self.run_id = run_id or (
            time.strftime("%Y%m%dT%H%M%S", time.gmtime(self.started))
            + f"-{os.getpid()}-{next(_RUN_SEQ)}"
        )
        self.configs = dict(configs or {})
        self.rows: List[Dict[str, Any]] = []
        os.makedirs(out_dir, exist_ok=True)

    # ----------------------------------------------------------------- #

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.out_dir, MANIFEST_NAME)

    @property
    def results_path(self) -> str:
        return os.path.join(self.out_dir, RESULTS_NAME)

    @property
    def run_table_path(self) -> str:
        return os.path.join(self.out_dir, RUN_TABLE_NAME)

    # ----------------------------------------------------------------- #

    def add_row(self, row: Mapping[str, Any]) -> None:
        """Record one (benchmark, target) result row and append it to
        ``results.jsonl`` immediately (crash-safe partial results)."""
        row = dict(row)
        self.rows.append(row)
        # The JSONL record carries ``schema`` and ``run_id`` header
        # fields the in-memory row does not: run_table.csv and figure
        # rows keep their historical shape, while on-disk records name
        # their layout version and the run that wrote them.
        record = {"schema": RESULTS_SCHEMA_VERSION}
        record.update(row)
        record["run_id"] = self.run_id
        append_record(self.results_path, record)

    def _append_run_table(self) -> None:
        lead = [c for c in RUN_TABLE_LEAD_COLUMNS]
        extra = sorted(
            {k for row in self.rows for k in row} - set(lead)
        )
        columns = lead + extra
        header: List[str] = []
        old_rows: List[List[str]] = []
        if os.path.exists(self.run_table_path):
            with open(self.run_table_path, "r", encoding="utf-8",
                      newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader, [])
                # Keep the accumulated table rectangular: the header's
                # columns keep their order and new ones follow, with the
                # earlier rows padded, so no run's columns are dropped.
                if header:
                    columns = header + [c for c in columns if c not in header]
                    if len(columns) > len(header):
                        old_rows = [row for row in reader if row]
        rewrite = len(columns) > len(header)
        # A widened table is written aside and renamed over the old one,
        # so a crash mid-write leaves the previous table whole.
        path = self.run_table_path + ".tmp" if rewrite else self.run_table_path
        with open(path, "w" if rewrite else "a", encoding="utf-8",
                  newline="") as fh:
            writer = csv.writer(fh)
            if rewrite:
                writer.writerow(columns)
                pad = [""] * (len(columns) - len(header))
                writer.writerows(row + pad for row in old_rows)
            for row in self.rows:
                full = {"run_id": self.run_id, "command": self.command}
                full.update(row)
                writer.writerow([full.get(c, "") for c in columns])
        if rewrite:
            os.replace(path, self.run_table_path)

    def finalize(
        self,
        counters: Optional[Mapping[str, float]] = None,
        **extra: Any,
    ) -> str:
        """Write ``run_table.csv`` rows and ``manifest.json``; returns the
        manifest path."""
        self._append_run_table()
        finished = time.time()
        manifest: Dict[str, Any] = {
            "schema_version": RESULTS_SCHEMA_VERSION,
            "run_id": self.run_id,
            "command": self.command,
            "argv": self.argv,
            "package": "repro",
            "version": _package_version(),
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "started": _utc(self.started),
            "finished": _utc(finished),
            "wall_s": round(finished - self.started, 6),
            "n_rows": len(self.rows),
            "configs": {
                name: {
                    "fingerprint": config_fingerprint(cfg),
                    "values": dataclasses.asdict(cfg)
                    if dataclasses.is_dataclass(cfg)
                    and not isinstance(cfg, type)
                    else repr(cfg),
                }
                for name, cfg in self.configs.items()
            },
        }
        commit = git_commit()
        if commit:
            manifest["git_commit"] = commit
        if counters:
            manifest["counters"] = dict(counters)
        manifest.update(extra)
        with open(self.manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        return self.manifest_path


# --------------------------------------------------------------------- #
# Reading run directories back.
# --------------------------------------------------------------------- #


def read_manifest(run_dir: str) -> Dict[str, Any]:
    """``run_dir``'s manifest, or ``{}`` when it has none.  An
    unreadable manifest is logged and read as none."""
    path = os.path.join(run_dir, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        return {}
    except (OSError, ValueError) as exc:
        log_event("manifest_unreadable", level="warning", path=path,
                  error=str(exc))
        return {}
    return manifest if isinstance(manifest, dict) else {}


def _run_row(manifest: Mapping[str, Any]) -> Dict[str, Any]:
    """The run-level row: wall time, degradation, simcache rates."""
    run_counters = manifest.get("counters") or {}
    hits = float(run_counters.get("harness.simcache.hits", 0) or 0)
    misses = float(run_counters.get("harness.simcache.misses", 0) or 0)
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


def read_runs(run_dirs: Sequence[str]) -> List[Dict[str, Any]]:
    """Every row of the ``--out`` run directories ``run_dirs``, run by
    run.

    Each directory's ``results.jsonl`` is read torn-tail tolerant
    (:func:`~repro.obs.jsonl.read_records`) and split into runs by the
    records' ``run_id``.  A record without one, from an older
    directory, belongs to the manifest's run, or to the directory name
    when there is no manifest.  The manifest's run gets one more row of
    kind ``run`` (:func:`_run_row`).  A record stamped with a schema
    newer than :data:`RESULTS_SCHEMA_VERSION` is counted, logged and
    skipped, never guessed at.

    Every row carries the :data:`STAMPED_KEYS`: ``run_seq`` (the run's
    position among all runs read, from 1), ``run_id``, ``commit`` (the
    manifest's, for its run only), ``kind`` (``result`` or ``run``),
    ``schema`` (1 for unstamped records) and ``failed`` (1 for
    ``JobFailure`` rows, else 0; a load-test summary keeps its count).
    """
    rows: List[Dict[str, Any]] = []
    run_seq = 0
    for run_dir in run_dirs:
        if not os.path.isdir(run_dir):
            raise ConfigError(
                f"not a run directory: {run_dir!r} (expected an --out "
                "directory)"
            )
        manifest = read_manifest(run_dir)
        manifest_run = str(
            manifest.get("run_id")
            or os.path.basename(os.path.normpath(run_dir))
        )
        runs: Dict[str, List[Dict[str, Any]]] = {}
        path = os.path.join(run_dir, RESULTS_NAME)
        for record in read_records(path, (), _DAMAGED, "results"):
            try:
                schema = int(record.get("schema", 1))
            except (TypeError, ValueError):
                schema = 0
            if not 1 <= schema <= RESULTS_SCHEMA_VERSION:
                _REJECTED.add()
                log_event("results_row_rejected", level="warning",
                          path=path, schema=record.get("schema"),
                          supported=RESULTS_SCHEMA_VERSION)
                continue
            record["schema"] = schema
            run_id = str(record.pop("run_id", None) or manifest_run)
            runs.setdefault(run_id, []).append(record)
        if manifest:
            runs.setdefault(manifest_run, []).append(_run_row(manifest))
        for run_id, records in runs.items():
            run_seq += 1
            commit = ""
            if run_id == manifest_run:
                commit = manifest.get("git_commit") or ""
            for record in records:
                failed = record.pop("failed", 0)
                row = {
                    "run_seq": run_seq,
                    "run_id": run_id,
                    "commit": commit,
                    "kind": record.pop("kind", "result"),
                    "schema": record.pop("schema", 1),
                    # A load-test summary's ``failed`` is its count of
                    # failed requests and stays one.
                    "failed": failed if type(failed) is int
                    else int(bool(failed)),
                }
                row.update(record)
                rows.append(row)
    return rows
