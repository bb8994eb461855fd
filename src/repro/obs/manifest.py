"""Run manifests and machine-readable result artifacts.

One "run" is a CLI invocation (or any harness driver) writing into an
output directory::

    <out>/manifest.json    -- provenance: command, argv, config
                              fingerprints, package/python versions,
                              timestamps, counters snapshot
    <out>/results.jsonl    -- one JSON object per (benchmark, target)
    <out>/run_table.csv    -- the same rows, appendable across runs
                              (mubench-style run table: header written
                              once, later runs append)

Rows are plain dicts -- whatever :meth:`ExperimentResult.summary_row`
plus the phase timings produced.  The CSV reuses the header of an
existing file so accumulated tables stay rectangular even when a later
version adds columns.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
import platform
import sys
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence

#: Identity columns always ordered first in ``run_table.csv``.
RUN_TABLE_LEAD_COLUMNS = ("run_id", "command", "benchmark", "target")

MANIFEST_NAME = "manifest.json"
RESULTS_NAME = "results.jsonl"
RUN_TABLE_NAME = "run_table.csv"

#: Layout version of the run artifacts (manifest + results.jsonl rows).
#: Stamped into ``manifest.json`` as ``schema_version`` and into every
#: ``results.jsonl`` record as a ``schema`` header field, so consumers
#: (the :mod:`repro.analytics` ingester first among them) can reject or
#: upgrade old layouts instead of mis-parsing them.
#:
#: - 1: the implicit PR 1-5 layout (no stamp anywhere);
#: - 2: stamped records; manifest carries ``schema_version`` and a
#:   best-effort ``git_commit``.
RESULTS_SCHEMA_VERSION = 2


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
    accumulate), ``manifest.json`` describes the latest run.
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
        self.run_id = run_id or (
            time.strftime("%Y%m%dT%H%M%S", time.gmtime(self.started))
            + f"-{os.getpid()}"
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
        # The JSONL record carries a ``schema`` header field the
        # in-memory row does not: run_table.csv and figure rows keep
        # their historical shape, while on-disk records self-describe
        # their layout version for the analytics ingester.
        record = {"schema": RESULTS_SCHEMA_VERSION}
        record.update(row)
        with open(self.results_path, "a", encoding="utf-8") as fh:
            fh.write(stable_json(record) + "\n")

    def add_rows(self, rows: Sequence[Mapping[str, Any]]) -> None:
        """Record a batch of rows (see :meth:`add_row`)."""
        for row in rows:
            self.add_row(row)

    def _append_run_table(self) -> None:
        lead = [c for c in RUN_TABLE_LEAD_COLUMNS]
        extra = sorted(
            {k for row in self.rows for k in row} - set(lead)
        )
        columns = lead + extra
        write_header = True
        if os.path.exists(self.run_table_path):
            with open(self.run_table_path, "r", encoding="utf-8",
                      newline="") as fh:
                first = fh.readline().strip()
            if first:
                # Keep the accumulated table rectangular: reuse its header.
                columns = next(csv.reader([first]))
                write_header = False
        with open(self.run_table_path, "a", encoding="utf-8",
                  newline="") as fh:
            writer = csv.writer(fh)
            if write_header:
                writer.writerow(columns)
            for row in self.rows:
                full = {"run_id": self.run_id, "command": self.command}
                full.update(row)
                writer.writerow([full.get(c, "") for c in columns])

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
