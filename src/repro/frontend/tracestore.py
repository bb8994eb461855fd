"""Per-process trace memo: the one in-process memo with a bound.

``interpret()`` is machine-configuration independent: a workload's dynamic
trace depends only on the program and the instruction budget.  A figure
grid therefore re-executes the same interpretation once per *cell* (27
times for the memory-latency grid) when once per *workload* suffices.
This module memoizes built traces per process, keyed by
``(Program.fingerprint(), max_instructions)``, so cells share one trace
object -- including its lazily materialized pc->seqs index, flat-list
view, and consumer-derived columns -- read-only.  Pool workers forked
from a warmed parent inherit the memo for free.

Everything derived from a trace lives on its ``derived`` dict and dies
with it: the classification, cost functions, slice trees and kernel
precomputes, and the harness's baseline stats, augmented programs and
optimized-run stats (:mod:`repro.harness.experiment`).  The store is an
LRU over traces -- a hit re-inserts its entry -- so :func:`clear` is the
one reset of every in-process memo.

Augmented (p-thread) interpretations pass compiled trigger plans as
``pc_hooks`` and collect spawns per call (on the C interpreter the plans
run in C, see :mod:`repro.frontend.nativeinterp`); they never go through
the memo.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from repro.frontend.interpreter import interpret
from repro.frontend.trace import Trace
from repro.isa.instruction import Program

#: Retained traces per process; bounded because a session touches a handful
#: of workloads, but the least recently used goes beyond this to stay safe
#: in long sweeps.
_MAX_ENTRIES = 32

#: Insertion order is recency order: oldest first.
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
    cached = _store.pop(key, None)
    if cached is not None:
        _store[key] = cached
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


def peek(program: Program, max_instructions: int) -> Optional[Trace]:
    """The held trace for ``(program, max_instructions)``, or None.

    Never interprets, and neither counts nor refreshes the entry.
    """
    return _store.get((program.fingerprint(), max_instructions))


def clear() -> None:
    """Drop all memoized traces, with everything derived from them, and
    reset counters."""
    global _hits, _misses
    _store.clear()
    _hits = 0
    _misses = 0


def stats() -> Dict[str, int]:
    return {"entries": len(_store), "hits": _hits, "misses": _misses}
