"""Cross-run queries over run-directory rows.

Aggregations are group-by reductions over the row dicts
:func:`repro.obs.manifest.read_runs` returns --

- ``gmean``  -- the paper's geometric-mean percentage improvement
  (via :func:`repro.harness.report.geometric_mean_pct` semantics);
- ``mean`` / ``sum`` / ``count`` / ``min`` / ``max``.

Failed (flagged) rows and missing values never contribute to an
aggregate, but they are *counted*, so a degraded run still summarizes
honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from repro.errors import ConfigError

#: Aggregations supported by :func:`aggregate`.
AGGREGATIONS = ("gmean", "mean", "sum", "count", "min", "max")


def _as_float(value: Any) -> Optional[float]:
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def select_rows(
    rows: Iterable[Mapping[str, Any]],
    kind: Optional[str] = None,
    where: Optional[Mapping[str, Any]] = None,
) -> Iterator[Mapping[str, Any]]:
    """The ``rows`` of row family ``kind`` passing every filter.

    A ``where`` filter matches a row when the values are equal as
    numbers (when both parse as numbers) or equal as strings; a row
    lacking the key never matches.
    """
    filters = [
        (name, str(wanted), _as_float(wanted))
        for name, wanted in (where or {}).items()
    ]
    for row in rows:
        if kind is not None and row.get("kind") != kind:
            continue
        for name, wanted_s, wanted_f in filters:
            value = row.get(name)
            if value is None:
                break
            if wanted_f is not None and _as_float(value) == wanted_f:
                continue
            if str(value) != wanted_s:
                break
        else:
            yield row


def _group_value(value: Any):
    """A row value as a group key: numbers as floats, absent as ``""``."""
    if value is None:
        return ""
    if isinstance(value, (int, float)):
        return float(value)
    return str(value)


@dataclass
class QueryResult:
    """Aggregated rows plus accounting of what was excluded."""

    rows: List[Dict[str, Any]] = field(default_factory=list)
    n_input_rows: int = 0
    n_failed_skipped: int = 0
    n_missing_skipped: int = 0


def aggregate(
    rows: Iterable[Mapping[str, Any]],
    metric: str,
    group_by: Sequence[str] = ("run_seq",),
    agg: str = "gmean",
    kind: Optional[str] = "result",
    where: Optional[Mapping[str, Any]] = None,
    include_failed: bool = False,
) -> QueryResult:
    """Group-by reduction of ``metric`` over ``rows``.

    Returns one row per group: the group columns, ``value`` (the
    aggregate), and ``n`` (values that contributed).  Rows flagged
    failed and missing or NaN metric values are skipped-and-counted.
    """
    if agg not in AGGREGATIONS:
        raise ConfigError(
            f"unknown aggregation {agg!r} (choose from "
            f"{', '.join(AGGREGATIONS)})"
        )
    use_log = agg == "gmean"
    result = QueryResult()
    # group key -> [sum, count, min, max], in first-seen order
    groups: Dict[Tuple, List[float]] = {}
    for row in select_rows(rows, kind=kind, where=where):
        result.n_input_rows += 1
        key = tuple(_group_value(row.get(g)) for g in group_by)
        acc = groups.get(key)
        if acc is None:
            acc = groups[key] = [0.0, 0, math.inf, -math.inf]
        v = row.get(metric)
        if v is not None and not isinstance(v, (int, float)):
            raise ConfigError(f"metric {metric!r} is not a numeric column")
        if v is None or math.isnan(v):
            result.n_missing_skipped += 1
            continue
        if row.get("failed") and not include_failed:
            result.n_failed_skipped += 1
            continue
        v = float(v)
        if use_log:
            ratio = 1.0 - v / 100.0
            if ratio <= 0:
                result.n_missing_skipped += 1
                continue
            v = math.log(ratio)
        acc[0] += v
        acc[1] += 1
        acc[2] = min(acc[2], v)
        acc[3] = max(acc[3], v)

    for key, (total, count, low, high) in groups.items():
        row = dict(zip(group_by, key))
        if count == 0:
            value = math.nan
        elif agg == "count":
            value = float(count)
        elif agg == "sum":
            value = total
        elif agg == "mean":
            value = total / count
        elif agg == "min":
            value = low
        elif agg == "max":
            value = high
        else:  # gmean of percent improvements
            value = 100.0 * (1.0 - math.exp(total / count))
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
