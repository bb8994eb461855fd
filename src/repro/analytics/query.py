"""Cross-run queries over the columnar run store.

A :class:`Frame` is a column-oriented view of the whole store (or any
``kind`` slice of it): each requested column concatenated across
segments, NaN/empty-filled where a segment lacks it.  Aggregations are
group-by reductions over frames --

- ``gmean``  -- the paper's geometric-mean percentage improvement
  (via :func:`repro.harness.report.geometric_mean_pct` semantics);
- ``mean`` / ``sum`` / ``count`` / ``min`` / ``max``.

The reductions run as one tight loop over factorized group codes.
Failed (flagged) rows and missing (NaN) values never contribute to an aggregate, but they are *counted*, so a
degraded fleet still summarizes honestly.

The canonical fleet questions get named helpers: :func:`gmean_trend`
(gmean ED²/ED/energy per objective per run), :func:`stall_drift`
(stall-mix per workload across runs), :func:`cache_hit_rate`,
:func:`phase_walls` (t_trace/t_analysis/t_sim trajectories).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.frontend import columns as colmod
from repro.analytics.store import RunStore

#: Aggregations supported by :func:`aggregate`.
AGGREGATIONS = ("gmean", "mean", "sum", "count", "min", "max")


@dataclass
class Frame:
    """Columns concatenated across store segments."""

    n_rows: int = 0
    numeric: Dict[str, Any] = field(default_factory=dict)
    strings: Dict[str, List[str]] = field(default_factory=dict)

    @classmethod
    def from_store(
        cls,
        store: RunStore,
        columns: Sequence[str],
        kind: Optional[str] = None,
        where: Optional[Mapping[str, Any]] = None,
    ) -> "Frame":
        """Materialize ``columns`` over the store.

        ``kind`` restricts to one row family (``result``, ``trace``,
        ``run``); ``where`` applies exact-match filters
        (string columns compare decoded values, numeric columns compare
        as floats).  Both filters drop rows *before* concatenation so a
        slice of a huge store only materializes what it selects.
        """
        want = list(dict.fromkeys(columns))
        filters = dict(where or {})
        if kind is not None:
            filters["kind"] = kind
        frame = cls()
        numeric_chunks: Dict[str, List[Any]] = {c: [] for c in want}
        string_chunks: Dict[str, List[List[str]]] = {}
        for seg in store.segments():
            keep = _segment_mask(seg, filters)
            if keep is None:
                continue
            n_keep = len(keep)
            if n_keep == 0:
                continue
            for name in want:
                kind_of = seg.kinds.get(name)
                if kind_of == "str":
                    decoded = seg.strings(name) or []
                    chunk = [decoded[i] for i in keep]
                    string_chunks.setdefault(name, []).append(chunk)
                    continue
                col = seg.column(name)
                if col is None:
                    chunk = _nan_chunk(n_keep)
                else:
                    chunk = _take(col, keep)
                numeric_chunks[name].append(chunk)
            frame.n_rows += n_keep
        for name in want:
            if name in string_chunks:
                merged: List[str] = []
                for chunk in string_chunks[name]:
                    merged.extend(chunk)
                # A column that is a string in one segment must read as
                # a string everywhere; numeric chunks of the same name
                # would mean mixed plans across ingests.
                frame.strings[name] = merged
            else:
                frame.numeric[name] = _concat(numeric_chunks[name])
        return frame

    def column(self, name: str):
        if name in self.strings:
            return self.strings[name]
        return self.numeric.get(name)

    def row(self, i: int, columns: Sequence[str]) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for name in columns:
            col = self.column(name)
            out[name] = col[i] if col is not None else None
        return out


def _segment_mask(seg, filters: Mapping[str, Any]) -> Optional[List[int]]:
    """Row indices of ``seg`` passing every filter (None = no rows)."""
    n = seg.n_rows
    keep = list(range(n))
    for name, wanted in filters.items():
        kind_of = seg.kinds.get(name)
        if kind_of is None:
            return None  # the segment lacks the column entirely
        if kind_of == "str":
            decoded = seg.strings(name) or []
            wanted_s = str(wanted)
            keep = [i for i in keep if decoded[i] == wanted_s]
        else:
            col = seg.column(name)
            wanted_f = float(wanted)
            keep = [i for i in keep if float(col[i]) == wanted_f]
        if not keep:
            return None
    return keep


def _nan_chunk(n: int):
    return colmod.float64_buffer(n, fill=math.nan)


def _take(col, indices: List[int]):
    n = len(col)
    if len(indices) == n:
        out = colmod.float64_buffer(n)
        for i in range(n):
            out[i] = col[i]
        return out
    out = colmod.float64_buffer(len(indices))
    for j, i in enumerate(indices):
        out[j] = col[i]
    return out


def _concat(chunks: List[Any]):
    out = colmod.float64_buffer(0)
    for chunk in chunks:
        out.extend(chunk)
    return out


@dataclass
class QueryResult:
    """Aggregated rows plus accounting of what was excluded."""

    rows: List[Dict[str, Any]] = field(default_factory=list)
    n_input_rows: int = 0
    n_failed_skipped: int = 0
    n_missing_skipped: int = 0

    def to_dicts(self) -> List[Dict[str, Any]]:
        return list(self.rows)


def aggregate(
    store: RunStore,
    metric: str,
    group_by: Sequence[str] = ("run_seq",),
    agg: str = "gmean",
    kind: Optional[str] = "result",
    where: Optional[Mapping[str, Any]] = None,
    include_failed: bool = False,
) -> QueryResult:
    """Group-by reduction of ``metric`` over the store.

    Returns one row per group: the group columns, ``value`` (the
    aggregate), and ``n`` (values that contributed).  Rows flagged
    failed and NaN metric values are skipped-and-counted.
    """
    if agg not in AGGREGATIONS:
        raise ConfigError(
            f"unknown aggregation {agg!r} (choose from "
            f"{', '.join(AGGREGATIONS)})"
        )
    needed = list(group_by) + [metric, "failed"]
    frame = Frame.from_store(store, needed, kind=kind, where=where)
    result = QueryResult(n_input_rows=frame.n_rows)
    if frame.n_rows == 0:
        return result

    values = frame.column(metric)
    failed = frame.column("failed")
    group_cols = [frame.column(g) for g in group_by]
    if values is None or isinstance(values, list):
        raise ConfigError(f"metric {metric!r} is not a numeric column")

    # Factorize group keys -> dense codes.
    key_codes: List[int] = []
    key_index: Dict[Tuple, int] = {}
    keys: List[Tuple] = []
    n = frame.n_rows
    for i in range(n):
        key = tuple(
            col[i] if isinstance(col[i], str) else float(col[i])
            for col in group_cols
        )
        code = key_index.get(key)
        if code is None:
            code = len(keys)
            key_index[key] = code
            keys.append(key)
        key_codes.append(code)

    use_log = agg == "gmean"
    sums = [0.0] * len(keys)
    counts = [0] * len(keys)
    mins = [math.inf] * len(keys)
    maxs = [-math.inf] * len(keys)
    n_failed = 0
    n_missing = 0

    isnan = math.isnan
    log = math.log
    for i in range(n):
        v = values[i]
        if isnan(v):
            n_missing += 1
            continue
        if failed is not None and not include_failed and failed[i]:
            n_failed += 1
            continue
        code = key_codes[i]
        if use_log:
            ratio = 1.0 - v / 100.0
            if ratio <= 0:
                n_missing += 1
                continue
            v = log(ratio)
        sums[code] += v
        counts[code] += 1
        if v < mins[code]:
            mins[code] = v
        if v > maxs[code]:
            maxs[code] = v

    result.n_failed_skipped = n_failed
    result.n_missing_skipped = n_missing
    for code, key in enumerate(keys):
        count = counts[code]
        row = dict(zip(group_by, key))
        if count == 0:
            value = math.nan
        elif agg == "count":
            value = float(count)
        elif agg == "sum":
            value = sums[code]
        elif agg == "mean":
            value = sums[code] / count
        elif agg == "min":
            value = mins[code]
        elif agg == "max":
            value = maxs[code]
        else:  # gmean of percent improvements
            value = 100.0 * (1.0 - math.exp(sums[code] / count))
        row["value"] = value
        row["n"] = count
        result.rows.append(row)
    result.rows.sort(
        key=lambda r: tuple(_sort_key(r[g]) for g in group_by)
    )
    return result


def _sort_key(value: Any):
    if isinstance(value, str):
        return (1, value)
    try:
        return (0, float(value))
    except (TypeError, ValueError):
        return (1, str(value))


# --------------------------------------------------------------------- #
# Named fleet queries.
# --------------------------------------------------------------------- #


def gmean_trend(
    store: RunStore,
    metric: str = "ed2_save_pct",
    group_by: Sequence[str] = ("target",),
    where: Optional[Mapping[str, Any]] = None,
) -> QueryResult:
    """GMean of ``metric`` per objective per run: the headline trend.

    Rows come back ordered by ingest sequence then group, so the
    ``value`` series of one ``target`` is its trajectory across runs.
    """
    return aggregate(
        store,
        metric,
        group_by=("run_seq", *group_by),
        agg="gmean",
        kind="result",
        where=where,
    )


def stall_drift(
    store: RunStore,
    categories: Sequence[str] = (),
    benchmark: Optional[str] = None,
) -> Dict[str, QueryResult]:
    """Mean stall-mix fraction per workload across runs.

    Returns ``{stall_category: series}`` -- one query per category so
    each drifts independently.  With no explicit ``categories``, every
    ``stall_*`` column present in the store is tracked.
    """
    if not categories:
        names = set()
        for seg in store.segments():
            names.update(
                k for k in seg.kinds if k.startswith("stall_")
            )
        categories = sorted(names)
    where = {"benchmark": benchmark} if benchmark else None
    return {
        cat: aggregate(
            store, cat,
            group_by=("run_seq", "benchmark"),
            agg="mean", kind="trace", where=where,
        )
        for cat in categories
    }


def cache_hit_rate(store: RunStore) -> QueryResult:
    """Simulation-cache hit rate per run (from manifest counters)."""
    return aggregate(
        store, "cache_hit_rate",
        group_by=("run_seq",), agg="mean", kind="run",
    )


def phase_walls(
    store: RunStore,
    phases: Sequence[str] = ("t_trace", "t_analysis", "t_sim"),
) -> Dict[str, QueryResult]:
    """Total per-phase wall seconds per run: where fleet time goes."""
    return {
        phase: aggregate(
            store, phase, group_by=("run_seq",), agg="sum",
            kind="result",
        )
        for phase in phases
    }

