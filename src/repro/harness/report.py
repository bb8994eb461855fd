"""Plain-text report formatting for experiment results.

The harness reports tables shaped like the paper's figures: one row per
(benchmark, target) with the latency/energy/ED improvements and the
pre-execution diagnostics, plus stacked-breakdown tables normalized to
the unoptimized run (the paper's 100% bars).
"""

from __future__ import annotations

import json
import math
from typing import Iterable, List, Mapping, Optional, Sequence


def geometric_mean_pct(percent_gains: Iterable[float]) -> float:
    """Geometric mean of percentage *reductions* (the paper's GMean).

    Each gain g% corresponds to a ratio (1 - g/100); the result is the
    percentage reduction of the geometric mean ratio.  Ratios must be
    positive (a >=100% slowdown would be meaningless here).
    """
    ratios = [1.0 - g / 100.0 for g in percent_gains]
    if not ratios:
        return 0.0
    if any(r <= 0 for r in ratios):
        raise ValueError("cannot take the geometric mean through a 100% gain")
    log_sum = sum(math.log(r) for r in ratios)
    return 100.0 * (1.0 - math.exp(log_sum / len(ratios)))


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    float_digits: int = 2,
) -> str:
    """Render dict rows as an aligned plain-text table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        # Union across rows (first-appearance order): degraded grids mix
        # result rows and failure rows of different shapes.
        seen = set()
        union: List[str] = []
        for row in rows:
            for c in row:
                if c not in seen:
                    seen.add(c)
                    union.append(c)
        columns = union

    def cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.{float_digits}f}"
        return str(value)

    rendered = [[cell(row.get(c, "")) for c in columns] for row in rows]
    widths = [
        max(len(c), *(len(r[i]) for r in rendered))
        for i, c in enumerate(columns)
    ]
    header = "  ".join(c.rjust(w) for c, w in zip(columns, widths))
    divider = "-" * len(header)
    lines = [header, divider]
    lines.extend(
        "  ".join(v.rjust(w) for v, w in zip(r, widths)) for r in rendered
    )
    return "\n".join(lines)


def visible_columns(rows: Sequence[Mapping[str, object]]) -> List[str]:
    """Columns for human-facing tables: everything except the ``t_*``
    phase-timing columns that ride along for machine-readable artifacts.

    The union of all rows' keys, in first-appearance order: a degraded
    grid mixes result rows with failure rows of a different shape, and
    both must stay visible (gaps render as empty cells)."""
    columns: List[str] = []
    seen = set()
    for row in rows:
        for c in row:
            if c not in seen and not str(c).startswith("t_"):
                seen.add(c)
                columns.append(c)
    return columns


def render_json_lines(rows: Iterable[Mapping[str, object]]) -> str:
    """Rows as JSON lines (one object per line), for ``--json`` output."""
    return "\n".join(
        json.dumps(dict(row), default=str, sort_keys=False) for row in rows
    )

