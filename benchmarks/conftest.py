"""Shared fixtures for the figure/table regeneration benchmarks.

Every module regenerates one of the paper's tables or figures.  The
timing measured by pytest-benchmark is the wall-clock of the full
regeneration (profiling + selection + simulation); each regeneration
also writes its data table to ``benchmarks/results/<name>.txt`` so the
numbers are inspectable after a captured pytest run.
"""

import os
from pathlib import Path

import pytest

from repro.harness.report import format_table

# Benchmarks time the real regeneration work; a warm persistent cache
# would skip it and report meaningless wall-clocks.
os.environ.setdefault("REPRO_CACHE", "0")

RESULTS_DIR = Path(__file__).parent / "results"

#: Per-run columns: phase wall-clocks and cache/memo provenance differ
#: between regenerations, so the committed tables leave them out.
_VOLATILE_PREFIXES = ("t_", "src_")


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def run_once(benchmark):
    """Run a regeneration exactly once under pytest-benchmark timing."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return _run


def write_report(results_dir: Path, name: str, text: str) -> None:
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n[{name}] written to {path}\n{text}")


def row_table(rows) -> str:
    """Result rows as a text table without the ``t_*``/``src_*`` columns,
    so a regeneration rewrites the committed table byte for byte."""
    columns = list(dict.fromkeys(
        c for row in rows for c in row
        if not str(c).startswith(_VOLATILE_PREFIXES)
    ))
    return format_table(rows, columns=columns)
