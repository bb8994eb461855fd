"""Zero-dependency structured logging and hierarchical phase timing.

Telemetry is **off by default**: until :func:`configure` raises the
level, :func:`log_event` is a single dict lookup plus an integer
comparison, and :class:`Span` never touches the output stream.  Spans
*always* measure wall-clock time (two ``perf_counter`` calls per phase),
so callers can collect per-phase durations for result artifacts even
when nothing is being logged.

Events are emitted as JSON lines, one object per line::

    {"ts": 1722855600.0, "level": "info", "event": "span_end",
     "span": "experiment/simulate", "wall_s": 0.81,
     "cycles": 403121, "cycles_per_sec": 497680}

The ``span`` field is the slash-joined path of enclosing spans on the
current thread, so nested phases are attributable without a tracing
backend.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from typing import Any, Dict, IO, Optional

#: Numeric severity per level name; "off" is above everything.
LEVELS: Dict[str, int] = {
    "debug": 10,
    "info": 20,
    "warning": 30,
    "error": 40,
    "off": 100,
}

LEVEL_NAMES = tuple(LEVELS)


class _State:
    """Process-wide logger state (threshold + sink)."""

    __slots__ = ("threshold", "stream", "lock")

    def __init__(self) -> None:
        self.threshold = LEVELS["off"]
        self.stream: Optional[IO[str]] = None  # None -> sys.stderr
        self.lock = threading.Lock()


_state = _State()
_local = threading.local()  # per-thread span stack


def configure(level: str = "info", stream: Optional[IO[str]] = None) -> None:
    """Enable telemetry at ``level``, optionally redirecting the sink.

    ``stream`` defaults to ``sys.stderr`` (resolved at emit time so
    pytest's capture and late redirection both work).
    """
    if level not in LEVELS:
        raise ValueError(
            f"unknown log level {level!r}; expected one of {LEVEL_NAMES}"
        )
    _state.threshold = LEVELS[level]
    if stream is not None:
        _state.stream = stream


def reset() -> None:
    """Return to the off-by-default state (tests use this)."""
    _state.threshold = LEVELS["off"]
    _state.stream = None
    _local.stack = []


def is_enabled(level: str = "info") -> bool:
    """Would an event at ``level`` be emitted right now?"""
    return LEVELS.get(level, 0) >= _state.threshold


def current_level() -> str:
    """The active threshold's name (worker processes re-apply it)."""
    for name, value in LEVELS.items():
        if value == _state.threshold:
            return name
    return "off"


def current_span_path() -> str:
    """Slash-joined names of the spans open on this thread ('' if none)."""
    stack = getattr(_local, "stack", None)
    if not stack:
        return ""
    return "/".join(s.name for s in stack)


def log_event(event: str, level: str = "info", **fields: Any) -> None:
    """Emit one JSON-lines event if ``level`` clears the threshold."""
    if LEVELS.get(level, 0) < _state.threshold:
        return
    record: Dict[str, Any] = {
        "ts": round(time.time(), 6),
        "level": level,
        "event": event,
    }
    path = current_span_path()
    if path:
        record["span"] = path
    record.update(fields)
    line = json.dumps(record, default=str, separators=(",", ":"))
    stream = _state.stream or sys.stderr
    with _state.lock:
        stream.write(line + "\n")


class Span:
    """A timed phase, usable as a context manager.

    ``wall_s`` is valid after ``__exit__`` regardless of the log level.
    If an annotated field named ``cycles`` is present at exit, the span
    derives ``cycles_per_sec`` so simulator phases report throughput
    for free.
    """

    __slots__ = ("name", "fields", "wall_s", "path", "_t0")

    def __init__(self, name: str, **fields: Any) -> None:
        self.name = name
        self.fields = fields
        self.wall_s = 0.0
        self.path = name
        self._t0 = 0.0

    def annotate(self, **fields: Any) -> "Span":
        """Attach extra fields reported on the span_end event."""
        self.fields.update(fields)
        return self

    def __enter__(self) -> "Span":
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        stack.append(self)
        self.path = "/".join(s.name for s in stack)
        if _state.threshold <= LEVELS["debug"]:
            log_event("span_begin", level="debug", name=self.name,
                      **self.fields)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_s = time.perf_counter() - self._t0
        stack = getattr(_local, "stack", [])
        if stack and stack[-1] is self:
            stack.pop()
        if _state.threshold <= LEVELS["info"]:
            fields = dict(self.fields)
            if exc_type is not None:
                fields["error"] = exc_type.__name__
            cycles = fields.get("cycles")
            if isinstance(cycles, (int, float)) and self.wall_s > 0:
                fields["cycles_per_sec"] = round(cycles / self.wall_s)
            log_event("span_end", level="info", name=self.name,
                      span_path=self.path, wall_s=round(self.wall_s, 6),
                      **fields)
        return False


def span(name: str, **fields: Any) -> Span:
    """Open a hierarchical timed span: ``with span('simulate', bench=b):``."""
    return Span(name, **fields)
