"""Load generation against the experiment server (``repro loadtest``).

Two classic load models, mubench-style reporting:

- **closed-loop**: ``concurrency`` workers each keep exactly one request
  outstanding (submit, wait for the terminal result, repeat).  Offered
  load adapts to service time, so this measures best-case latency at a
  given multiprogramming level.
- **open-loop**: submits arrive on a fixed schedule at ``rate_rps``
  regardless of completions -- the model that actually exposes queueing
  collapse, because offered load does not politely back off when the
  server slows down.

Every request is classified exactly once: ``ok`` (terminal result
delivered), ``shed`` (an explicit 429/503 refusal carrying
``Retry-After`` -- the server keeping its promises under overload, not
a failure), ``dropped`` (transport-level loss: connection refused or
reset), or ``failed`` (anything else -- the number the resilience
layer must keep bounded).  The summary row lands in the standard
``run_table.csv`` via :class:`~repro.obs.manifest.RunWriter`, with the
latency-budget arithmetic (``max_concurrent = budget / p95``) computed
from the published, rounded ``p95_latency_ms``.

When no server URL is given the harness self-hosts: it boots a real
:class:`~repro.server.app.ExperimentServer` on an ephemeral port with a
temporary state directory and drains it afterwards, so ``repro
loadtest`` is one command with no prior setup.
"""

from __future__ import annotations

import itertools
import os
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

from repro import obs
from repro.obs.metrics import percentile
from repro.server.client import Response, ServerClient

#: Spec mix for --quick (single benchmark: dedup keeps CI cheap).
QUICK_BENCHMARKS = ("gcc",)
QUICK_REQUESTS = 6
QUICK_CONCURRENCY = 3

#: Default response-time budget for the report's concurrency math.
DEFAULT_LATENCY_BUDGET_S = 60.0


class _SelfHostedServer:
    """Context manager owning an in-process server for the test."""

    def __init__(self, workers: int = 2):
        self.workers = workers
        self.server = None
        self._thread: Optional[threading.Thread] = None
        self._tmp: Optional[tempfile.TemporaryDirectory] = None

    def __enter__(self) -> str:
        from repro.server.app import ExperimentServer
        from repro.server.queue import JobQueue
        from repro.server.state import ServerState

        self._tmp = tempfile.TemporaryDirectory(prefix="repro-serve-")
        state = ServerState(os.path.join(self._tmp.name, "state"))
        queue = JobQueue(state, workers=self.workers)
        self.server = ExperimentServer(queue, port=0)
        self.server.start(resume=False)
        self._thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self._thread.start()
        return self.server.url

    def __exit__(self, *exc_info: Any) -> None:
        if self.server is not None:
            self.server.shutdown_and_drain()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        if self._tmp is not None:
            self._tmp.cleanup()


def _classify(final: Response, submit: Response) -> str:
    if submit.shed:
        return "shed"
    if submit.dropped or final.dropped:
        return "dropped"
    # A request still pending (202) when the wait timed out is not a
    # success -- the latency budget was blown.
    if final.ok and final.status != 202:
        return "ok"
    return "failed"


def _one_request(
    client: ServerClient,
    spec: Dict[str, Any],
    wait_timeout_s: float,
) -> Dict[str, Any]:
    """Submit one experiment and ride it to a terminal state."""
    started = time.monotonic()
    submit = client.submit(spec)
    if submit.status != 202:
        final = submit
    else:
        job_id = submit.body.get("job_id", "")
        final = client.wait(job_id, timeout_s=wait_timeout_s)
    latency_s = time.monotonic() - started
    return {
        "outcome": _classify(final, submit),
        "benchmark": spec.get("benchmark"),
        "latency_s": latency_s,
        "submit_status": submit.status,
        "final_status": final.status,
    }


def run_loadtest(
    server_url: Optional[str] = None,
    mode: str = "closed",
    benchmarks: Sequence[str] = QUICK_BENCHMARKS,
    requests: int = QUICK_REQUESTS,
    concurrency: int = QUICK_CONCURRENCY,
    rate_rps: float = 2.0,
    wait_timeout_s: float = 180.0,
    latency_budget_s: float = DEFAULT_LATENCY_BUDGET_S,
    target: str = "L",
) -> Dict[str, Any]:
    """Drive the load model and return the summary report.

    ``server_url=None`` self-hosts an in-process server for the run.
    """
    if mode not in ("closed", "open"):
        from repro.errors import ConfigError

        raise ConfigError(
            f"loadtest mode must be 'closed' or 'open', got {mode!r}"
        )
    if server_url is None:
        with _SelfHostedServer() as url:
            return run_loadtest(
                server_url=url,
                mode=mode,
                benchmarks=benchmarks,
                requests=requests,
                concurrency=concurrency,
                rate_rps=rate_rps,
                wait_timeout_s=wait_timeout_s,
                latency_budget_s=latency_budget_s,
                target=target,
            )

    client = ServerClient(server_url)
    specs = [
        {"benchmark": benchmark, "target": target}
        for benchmark in benchmarks
    ]
    spec_cycle = itertools.cycle(specs)
    samples: List[Dict[str, Any]] = []
    samples_lock = threading.Lock()

    started = time.monotonic()
    if mode == "closed":
        counter = itertools.count()

        def worker() -> None:
            while True:
                i = next(counter)
                if i >= requests:
                    return
                with samples_lock:
                    spec = next(spec_cycle)
                sample = _one_request(client, spec, wait_timeout_s)
                with samples_lock:
                    samples.append(sample)

        threads = [
            threading.Thread(target=worker, daemon=True)
            for _ in range(max(1, concurrency))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    else:
        interval = 1.0 / max(rate_rps, 1e-6)
        threads = []
        for i in range(requests):
            # Fixed arrival schedule anchored at t0: late completions
            # never delay the next arrival.
            wake = started + i * interval
            delay = wake - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            spec = next(spec_cycle)

            def fire(spec: Dict[str, Any] = spec) -> None:
                sample = _one_request(client, spec, wait_timeout_s)
                with samples_lock:
                    samples.append(sample)

            thread = threading.Thread(target=fire, daemon=True)
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join(timeout=wait_timeout_s)
    elapsed_s = max(time.monotonic() - started, 1e-9)

    outcomes = {"ok": 0, "shed": 0, "dropped": 0, "failed": 0}
    for sample in samples:
        outcomes[sample["outcome"]] += 1
    ok_latencies = [
        s["latency_s"] for s in samples if s["outcome"] == "ok"
    ]
    p50_s = percentile(ok_latencies, 50.0)
    # The budget column is derived from the published (rounded) p95, so
    # the row is self-consistent: budget / p95_latency_ms reproduces it.
    p95_ms = round(percentile(ok_latencies, 95.0) * 1000.0, 1)
    issued = len(samples)
    row: Dict[str, Any] = {
        "benchmark": "+".join(benchmarks),
        "target": target,
        "mode": mode,
        "requests": issued,
        "concurrency": concurrency if mode == "closed" else None,
        "rate_rps": rate_rps if mode == "open" else None,
        "ok": outcomes["ok"],
        "shed": outcomes["shed"],
        "dropped": outcomes["dropped"],
        "failed": outcomes["failed"],
        "elapsed_s": round(elapsed_s, 3),
        "throughput_rps": round(outcomes["ok"] / elapsed_s, 4),
        "p50_latency_ms": round(p50_s * 1000.0, 1),
        "p95_latency_ms": p95_ms,
        "failure_rate": round(outcomes["failed"] / max(1, issued), 4),
        "shed_rate": round(outcomes["shed"] / max(1, issued), 4),
        "latency_budget_s": latency_budget_s,
        "max_concurrent_in_budget": (
            int(latency_budget_s / (p95_ms / 1000.0)) if p95_ms > 0 else None
        ),
    }
    row = {k: v for k, v in row.items() if v is not None}
    report = {
        "server": server_url,
        "row": row,
        "samples": samples,
    }
    obs.log_event(
        "loadtest_done",
        level="info",
        **{
            k: row[k]
            for k in (
                "mode",
                "requests",
                "ok",
                "shed",
                "dropped",
                "failed",
                "throughput_rps",
                "p95_latency_ms",
            )
            if k in row
        },
    )
    return report
