"""Dependence-graph forward pass over a trace window.

A lightweight instantiation of the Fields et al. critical-path model with
three events per instruction -- dispatch (D), execute-start (E), commit
(C) -- and edges for:

- in-order fetch/dispatch bandwidth (1/width cycle per instruction),
- branch misprediction (dispatch of post-branch instructions waits for
  the branch to resolve plus a front-end refill),
- dataflow (execute waits for producers' completions),
- finite ROB (dispatch waits for the commit of the instruction ROB-size
  earlier),
- in-order commit at commit-width bandwidth.

The pass is O(window length) and is re-run with modified load latencies
to answer the "what if this load were faster" questions the load cost
model asks (Section 4.1 of the paper).

:meth:`ForwardPass.run` runs the compiled pass (``_critpath.c``, loaded
through :mod:`repro.cpu.nativebuild` the first time a pass runs)
whenever it loads, and the pure-Python loop otherwise.  The Python loop
is also the golden oracle the compiled pass is tested against: both
take the same adds and maxes in the same order, so they return the same
bits.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional

from repro.config import MachineConfig
from repro.critpath.classify import L1, L2, MEM, LoadClassification
from repro.frontend.trace import NO_PRODUCER, Trace
from repro.isa.opcodes import CLASS_BY_CODE, LD_CODE, OpClass


def service_latency(level: str, config: MachineConfig) -> int:
    """Load-to-use latency for a service level."""
    if level == MEM:
        return (
            config.dcache.hit_latency
            + config.l2.hit_latency
            + config.memory_latency
        )
    if level == L2:
        return config.dcache.hit_latency + config.l2.hit_latency
    return config.dcache.hit_latency


class ForwardPass:
    """Reusable forward-pass engine over one trace window.

    The compiled pass writes into scratch buffers owned by the instance,
    so one instance runs one pass at a time.
    """

    def __init__(
        self,
        trace: Trace,
        config: Optional[MachineConfig] = None,
        classification: Optional[LoadClassification] = None,
        start: int = 0,
        end: Optional[int] = None,
    ) -> None:
        self.trace = trace
        self.config = config or MachineConfig()
        self.start = start
        self.end = len(trace) if end is None else min(end, len(trace))

        cfg = self.config
        # Pre-extract per-instruction static latencies for speed (a
        # column sweep over the trace's shared lists rather than
        # per-object attribute walks); load latencies are replaced per
        # run() call.
        start, end = self.start, self.end
        L = trace.as_lists()
        codes = L.op_code
        # code -> fixed latency for non-load instructions.
        lat_by_code = [
            float(cfg.mul_latency) if cls is OpClass.MUL
            else 0.0 if cls in (OpClass.NOP, OpClass.HALT, OpClass.JUMP)
            else 1.0
            for cls in CLASS_BY_CODE
        ]
        lat_by_level = {
            level: float(service_latency(level, cfg))
            for level in (L1, L2, MEM)
        }
        service_get = classification.service.get if classification else None
        l1_lat = lat_by_level[L1]

        base_latency: List[float] = []
        is_load: List[bool] = []
        ld_code = LD_CODE
        for seq in range(start, end):
            code = codes[seq]
            if code == ld_code:
                is_load.append(True)
                if service_get is not None:
                    base_latency.append(lat_by_level[service_get(seq, L1)])
                else:
                    base_latency.append(l1_lat)
            else:
                is_load.append(False)
                base_latency.append(lat_by_code[code])
        self._base_latency = array("d", base_latency)
        self._is_load = is_load

        n = end - start
        mispred = bytearray(n)
        if classification is not None:
            for seq in classification.mispredicted:
                if start <= seq < end:
                    mispred[seq - start] = 1
        self._mispredicted = bytes(mispred)
        # The compiled pass's completion and commit times.
        self._comp = array("d", bytes(8 * n))
        self._commit = array("d", bytes(8 * n))

    def __len__(self) -> int:
        return self.end - self.start

    def run(self, latency_override: Optional[Dict[int, float]] = None) -> float:
        """Execute the forward pass; return the window's execution time.

        ``latency_override`` maps dynamic sequence numbers to replacement
        latencies (the what-if knob of the load cost model); seqs outside
        the window are ignored.  Runs the compiled pass when
        ``nativebuild.load("critpath")`` returns a library (building it on
        the first call), the Python loop otherwise; the times are equal.
        """
        from repro.cpu import nativebuild

        return self._run(latency_override, nativebuild.load("critpath"))

    def _run(self, latency_override: Optional[Dict[int, float]], lib) -> float:
        """:meth:`run` on the compiled pass ``lib``, or on the Python loop
        when ``lib`` is None."""
        n = len(self)
        if n == 0:
            return 0.0
        # Apply the override once up front; the inner loop then reads a
        # plain latency array instead of probing a dict per instruction.
        latency = self._base_latency
        if latency_override:
            latency = latency[:]
            start = self.start
            for seq, lat in latency_override.items():
                i = seq - start
                if 0 <= i < n:
                    latency[i] = lat
        cfg = self.config
        inv_width = 1.0 / cfg.width
        inv_commit = 1.0 / cfg.commit_width
        rob = cfg.rob_entries
        refill = float(cfg.frontend_depth)
        if lib is None:
            return self._run_python(
                latency, inv_width, inv_commit, rob, refill
            )
        # The trace's producer columns are read in place; the completion
        # and commit times land in the instance's scratch buffers.
        from repro.cpu.nativebuild import float64_ptr, int64_ptr

        cols = self.trace.columns
        return lib.repro_critpath_run(
            n, self.start, int64_ptr(cols.src1), int64_ptr(cols.src2),
            float64_ptr(latency), self._mispredicted, inv_width,
            inv_commit, rob, refill, float64_ptr(self._comp),
            float64_ptr(self._commit),
        )

    def _run_python(
        self,
        latency: array,
        inv_width: float,
        inv_commit: float,
        rob: int,
        refill: float,
    ) -> float:
        """The pure-Python loop (the golden oracle)."""
        n = len(self)
        start, end = self.start, self.end
        L = self.trace.as_lists()
        src1 = L.src1[start:end]
        src2 = L.src2[start:end]
        latency = latency.tolist()
        mispred = self._mispredicted

        comp: List[float] = [0.0] * n  # completion time of local index i
        commit: List[float] = [0.0] * n
        d_prev = 0.0
        c_prev = 0.0
        redirect_ready = 0.0

        for i in range(n):
            d = d_prev + inv_width
            if redirect_ready > d:
                d = redirect_ready
            if i >= rob:
                rob_limit = commit[i - rob]
                if rob_limit > d:
                    d = rob_limit
            e = d + 1.0
            p = src1[i]
            if p != NO_PRODUCER and p >= start:
                t = comp[p - start]
                if t > e:
                    e = t
            p = src2[i]
            if p != NO_PRODUCER and p >= start:
                t = comp[p - start]
                if t > e:
                    e = t
            done = e + latency[i]
            comp[i] = done
            c = c_prev + inv_commit
            if done > c:
                c = done
            commit[i] = c
            c_prev = c
            d_prev = d
            if mispred[i]:
                redirect_ready = done + refill

        return commit[n - 1]

    def load_seqs(self) -> List[int]:
        """Sequence numbers of loads inside this window."""
        return [
            self.start + i for i, is_ld in enumerate(self._is_load) if is_ld
        ]
