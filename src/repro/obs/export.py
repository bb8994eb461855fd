"""Trace exporters: Chrome trace-event JSON and Kanata pipeline logs.

Both formats are written from the same :class:`repro.obs.utrace.Collector`
lifecycle records (one ``[tid, pc, fetch, dispatch, issue, complete,
retire]`` row per recorded instruction, ``-1`` marking stages the
instruction never reached -- p-instructions have no retire, NOPs no
issue).

- **Chrome trace-event JSON** loads into Perfetto / ``chrome://tracing``.
  One simulated cycle maps to one microsecond of trace time.  Each
  instruction becomes a chain of async slices (``ph: "b"``/``"e"``,
  ``id`` = instruction uid) named after the pipeline stage occupied, so
  overlapping in-flight instructions render on parallel tracks; replays,
  redirects, and p-thread spawns are instant events.
- **Kanata** (version 0004) loads into the Konata pipeline visualizer.
  Stages are ``F``/``D``/``X``/``C``; retired instructions get ``R ...
  0``, never-retired p-instructions ``R ... 1`` (flushed).

Every Chrome export is validated against the trace-event schema before
it hits disk (:func:`validate_chrome_trace`); a failed validation raises
:class:`~repro.errors.TraceExportError` rather than producing a file
Perfetto would reject.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from repro.errors import TraceExportError

# Lifecycle record slots -- mirrors repro.obs.utrace (kept literal here
# so importing the exporter never pulls in the collector machinery).
_TID, _PC, _FETCH, _DISPATCH, _ISSUE, _COMPLETE, _RETIRE = range(7)

#: (chrome stage name, kanata stage name, record slot) in pipeline order.
STAGES = (
    ("fetch", "F", _FETCH),
    ("dispatch", "D", _DISPATCH),
    ("execute", "X", _ISSUE),
    ("commit", "C", _COMPLETE),
)

KANATA_VERSION = "0004"


def _stage_chain(rec: List[int]) -> List[Tuple[str, str, int]]:
    """The stages this instruction actually reached, in order."""
    return [
        (chrome, kanata, rec[slot])
        for chrome, kanata, slot in STAGES
        if rec[slot] >= 0
    ]


def _thread_name(tid: int) -> str:
    return "main thread" if tid == 0 else f"p-thread ctx {tid - 1}"


# --------------------------------------------------------------------- #
# Chrome trace-event JSON.
# --------------------------------------------------------------------- #


def build_chrome_trace(collector: Any, stats: Any) -> Dict[str, Any]:
    """Assemble the trace-event document (pure; no I/O)."""
    events: List[Dict[str, Any]] = []
    pid = 1
    tids_seen: Dict[int, None] = {}

    for uid in sorted(collector.insts):
        rec = collector.insts[uid]
        tid = rec[_TID]
        tids_seen.setdefault(tid, None)
        chain = _stage_chain(rec)
        if not chain:
            continue
        retire = rec[_RETIRE]
        args = {"uid": uid}
        if rec[_PC] >= 0:
            args["pc"] = f"0x{rec[_PC]:x}"
        for i, (name, _, start) in enumerate(chain):
            end = chain[i + 1][2] if i + 1 < len(chain) else (
                retire if retire >= 0 else start + 1
            )
            end = max(end, start)
            common = {
                "cat": "inst",
                "id": str(uid),
                "name": name,
                "pid": pid,
                "tid": tid,
            }
            events.append({"ph": "b", "ts": start, "args": args, **common})
            events.append({"ph": "e", "ts": end, **common})

    for cycle, uid in collector.replays:
        events.append({
            "ph": "i", "s": "t", "cat": "hazard", "name": "replay",
            "ts": cycle, "pid": pid, "tid": 0, "args": {"uid": uid},
        })
    for cycle, seq in collector.redirects:
        events.append({
            "ph": "i", "s": "p", "cat": "hazard", "name": "branch-redirect",
            "ts": cycle, "pid": pid, "tid": 0, "args": {"branch_seq": seq},
        })
    for cycle, static_id, trigger in collector.spawn_events:
        events.append({
            "ph": "i", "s": "p", "cat": "pthread", "name": "spawn",
            "ts": cycle, "pid": pid, "tid": 0,
            "args": {"static_id": static_id, "trigger_seq": trigger},
        })

    # Stable sort by timestamp only: per-instruction events are emitted
    # in b/e chain order, and stability keeps every same-cycle pair
    # (including zero-length spans) correctly begin-before-end.
    events.sort(key=lambda e: e["ts"])

    meta: List[Dict[str, Any]] = [{
        "ph": "M", "name": "process_name", "pid": pid, "ts": 0,
        "args": {"name": f"repro-sim {collector.label}"},
    }]
    for tid in sorted(tids_seen):
        meta.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "ts": 0, "args": {"name": _thread_name(tid)},
        })
        meta.append({
            "ph": "M", "name": "thread_sort_index", "pid": pid, "tid": tid,
            "ts": 0, "args": {"sort_index": tid},
        })

    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "label": collector.label,
            "cycles": stats.cycles,
            "committed": stats.committed,
            "clock": "1 cycle = 1us of trace time",
        },
    }


#: Required numeric/string fields per event phase (beyond "ph"/"name").
_PHASE_FIELDS = {
    "X": ("ts", "dur", "pid", "tid"),
    "B": ("ts", "pid", "tid"),
    "E": ("ts", "pid", "tid"),
    "b": ("ts", "pid", "tid", "id", "cat"),
    "e": ("ts", "pid", "tid", "id", "cat"),
    "i": ("ts", "pid", "tid"),
    "M": ("pid",),
    "C": ("ts", "pid", "tid"),
}


def validate_chrome_trace(doc: Any) -> List[str]:
    """Check a document against the trace-event schema (zero-dep).

    Returns a list of human-readable problems; empty means valid.  Checks
    the JSON-object-format envelope, per-event required fields by phase,
    numeric timestamps, and balanced async begin/end pairs.
    """
    errors: List[str] = []
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-array 'traceEvents'"]
    async_depth: Dict[Tuple[str, str], int] = {}
    for i, ev in enumerate(events):
        if len(errors) >= 20:
            errors.append("... further errors suppressed")
            break
        if not isinstance(ev, dict):
            errors.append(f"event[{i}]: not an object")
            continue
        ph = ev.get("ph")
        if not isinstance(ph, str) or not ph:
            errors.append(f"event[{i}]: missing 'ph'")
            continue
        if "name" not in ev:
            errors.append(f"event[{i}] ph={ph!r}: missing 'name'")
        for fld in _PHASE_FIELDS.get(ph, ("ts",)):
            if fld not in ev:
                errors.append(f"event[{i}] ph={ph!r}: missing {fld!r}")
            elif fld in ("ts", "dur", "pid", "tid") and not isinstance(
                ev[fld], (int, float)
            ):
                errors.append(
                    f"event[{i}] ph={ph!r}: {fld!r} must be numeric"
                )
        if ph in ("b", "e") and "id" in ev and "cat" in ev:
            key = (str(ev["cat"]), str(ev["id"]))
            depth = async_depth.get(key, 0) + (1 if ph == "b" else -1)
            if depth < 0:
                errors.append(
                    f"event[{i}]: async end without begin for id "
                    f"{ev['id']!r}"
                )
                depth = 0
            async_depth[key] = depth
    for (cat, id_), depth in async_depth.items():
        if depth > 0:
            errors.append(
                f"unbalanced async events: {depth} unclosed 'b' for "
                f"cat={cat!r} id={id_!r}"
            )
            if len(errors) >= 25:
                break
    return errors


def write_chrome_trace(path: str, collector: Any, stats: Any) -> None:
    """Build, validate, and write the Chrome trace; loud on failure."""
    doc = build_chrome_trace(collector, stats)
    problems = validate_chrome_trace(doc)
    if problems:
        raise TraceExportError(
            f"refusing to write invalid Chrome trace {path}: "
            + "; ".join(problems[:5]),
            path=path,
            reason="schema validation failed",
        )
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
    except OSError as exc:
        raise TraceExportError(
            f"could not write Chrome trace {path}: {exc}",
            path=path, reason=str(exc),
        ) from exc


def validate_chrome_file(path: str) -> None:
    """Load a written trace and re-validate it (CI gate); loud on failure."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise TraceExportError(
            f"could not load Chrome trace {path}: {exc}",
            path=path, reason=str(exc),
        ) from exc
    problems = validate_chrome_trace(doc)
    if problems:
        raise TraceExportError(
            f"Chrome trace {path} fails schema validation: "
            + "; ".join(problems[:5]),
            path=path,
            reason="schema validation failed",
        )


# --------------------------------------------------------------------- #
# Kanata.
# --------------------------------------------------------------------- #


def build_kanata(collector: Any, stats: Any) -> str:
    """Assemble the Kanata 0004 log text (pure; no I/O)."""
    # Konata expects instruction ids in appearance order; renumber uids
    # by (fetch cycle, uid).
    order = sorted(
        collector.insts.items(), key=lambda kv: (kv[1][_FETCH], kv[0])
    )
    # (cycle, priority, line) -- E before S before R at equal cycles so a
    # stage handoff on one cycle parses as end-then-begin.
    lines: List[Tuple[int, int, str]] = []
    retire_id = 0
    for kid, (uid, rec) in enumerate(order):
        tid = rec[_TID]
        chain = _stage_chain(rec)
        if not chain:
            continue
        fetch = chain[0][2]
        label = f"uid={uid} tid={tid}"
        if rec[_PC] >= 0:
            label += f" pc=0x{rec[_PC]:x}"
        lines.append((fetch, 0, f"I\t{kid}\t{uid}\t{tid}"))
        lines.append((fetch, 1, f"L\t{kid}\t0\t{label}"))
        for i, (_, stage, start) in enumerate(chain):
            end = chain[i + 1][2] if i + 1 < len(chain) else (
                rec[_RETIRE] if rec[_RETIRE] >= 0 else start + 1
            )
            end = max(end, start)
            lines.append((start, 3, f"S\t{kid}\t0\t{stage}"))
            lines.append((end, 2, f"E\t{kid}\t0\t{stage}"))
        if rec[_RETIRE] >= 0:
            lines.append((rec[_RETIRE], 4, f"R\t{kid}\t{retire_id}\t0"))
            retire_id += 1
        else:  # p-instructions complete but never retire: mark flushed
            last_end = max(rec[_RETIRE], chain[-1][2] + 1)
            lines.append((last_end, 4, f"R\t{kid}\t{retire_id}\t1"))

    lines.sort(key=lambda item: (item[0], item[1]))
    out: List[str] = [f"Kanata\t{KANATA_VERSION}"]
    cycle = lines[0][0] if lines else 0
    out.append(f"C=\t{cycle}")
    for at, _, line in lines:
        if at > cycle:
            out.append(f"C\t{at - cycle}")
            cycle = at
        out.append(line)
    return "\n".join(out) + "\n"


def write_kanata(path: str, collector: Any, stats: Any) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(build_kanata(collector, stats))
    except OSError as exc:
        raise TraceExportError(
            f"could not write Kanata log {path}: {exc}",
            path=path, reason=str(exc),
        ) from exc
