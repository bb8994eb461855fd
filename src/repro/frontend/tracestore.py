"""Per-process trace-artifact memo shared across grid cells.

``interpret()`` is machine-configuration independent: a workload's dynamic
trace depends only on the program and the instruction budget.  A figure
grid therefore re-executes the same interpretation once per *cell* (27
times for the memory-latency grid) when once per *workload* suffices.
This module memoizes built traces per process, keyed by
``(Program.fingerprint(), max_instructions)``, so cells share one trace
object -- including its lazily materialized pc->seqs index, flat-list
view, and consumer-derived columns -- read-only.  Pool workers forked
from a warmed parent inherit the memo for free.

Augmented (p-thread) interpretations pass compiled trigger plans as
``pc_hooks`` and collect spawns per call (on the C interpreter the plans
run in C, see :mod:`repro.frontend.nativeinterp`); they never go through
the memo.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

from repro.frontend.interpreter import interpret
from repro.frontend.trace import Trace
from repro.isa.instruction import Program

#: Retained traces per process; bounded because a session touches a handful
#: of workloads, but evict oldest beyond this to stay safe in long sweeps.
_MAX_ENTRIES = 32

_store: Dict[Tuple[str, int], Trace] = {}
_hits = 0
_misses = 0


def get_trace(program: Program, max_instructions: int) -> Tuple[Trace, float]:
    """The memoized trace for ``(program, max_instructions)``.

    Returns ``(trace, build_seconds)``; ``build_seconds`` is 0.0 on a memo
    hit (nothing was built in this call).
    """
    trace, build_seconds, _ = get_trace_tagged(program, max_instructions)
    return trace, build_seconds


def get_trace_tagged(
    program: Program, max_instructions: int
) -> Tuple[Trace, float, str]:
    """:func:`get_trace` plus where the trace came from.

    Returns ``(trace, build_seconds, src)`` with ``src`` either
    ``"interpreted"`` (this call ran the interpreter; ``build_seconds``
    measures it) or ``"memo"`` (served from the per-process store;
    ``build_seconds`` is 0.0).  The tag is what lets a result row
    explain a ``t_trace`` of zero.
    """
    global _hits, _misses
    key = (program.fingerprint(), max_instructions)
    cached = _store.get(key)
    if cached is not None:
        _hits += 1
        return cached, 0.0, "memo"
    start = time.perf_counter()
    trace = interpret(program, max_instructions=max_instructions)
    build_seconds = time.perf_counter() - start
    _misses += 1
    if len(_store) >= _MAX_ENTRIES:
        _store.pop(next(iter(_store)))
    _store[key] = trace
    return trace, build_seconds, "interpreted"


def clear() -> None:
    """Drop all memoized traces and reset counters (tests)."""
    global _hits, _misses
    _store.clear()
    _hits = 0
    _misses = 0


def stats() -> Dict[str, int]:
    return {"entries": len(_store), "hits": _hits, "misses": _misses}
