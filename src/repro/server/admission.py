"""Admission control: accept what the engine can finish, shed the rest.

The server must degrade by *refusing* work (fast, explicit, retryable)
rather than by timing out accepted work (slow, ambiguous, wasteful).
:class:`AdmissionController` makes that decision per submit:

- **Bounded queue depth**: beyond ``max_queue_depth`` waiting jobs the
  submit is shed with HTTP 429.
- **Honest Retry-After**: derived from the observed p95 service time
  and the current backlog -- ``retry_after = p95 * (depth + 1) /
  workers`` (ProjectScylla's latency-budget discipline,
  ``max_concurrent = budget / p95``, read backwards: the backlog *is*
  the budget a new request would have to wait out), clamped to
  [1s, 120s].  Before any completion has been observed the estimate
  falls back to ``default_service_s``.

Every shed increments ``server.admission.shed_*`` counters so load
tests and chaos reports can account for the 429s they see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro import obs

_SHED_QUEUE_FULL = obs.counters.counter("server.admission.shed_queue_full")
_ADMITTED = obs.counters.counter("server.admission.admitted")

#: Clamp bounds for the Retry-After hint.
MIN_RETRY_AFTER_S = 1.0
MAX_RETRY_AFTER_S = 120.0


@dataclass(frozen=True)
class AdmissionDecision:
    """The verdict for one submit."""

    admitted: bool
    #: ``queue_full`` when shed, '' when admitted.
    reason: str = ""
    #: Populated when shed: the honest wait hint (whole seconds).
    retry_after_s: int = 0
    queue_depth: int = 0


class AdmissionController:
    """Decides, per submit, whether the queue may take another job."""

    def __init__(
        self,
        max_queue_depth: int = 64,
        workers: int = 1,
        default_service_s: float = 5.0,
        latency_window: Optional[obs.LatencyWindow] = None,
    ) -> None:
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        self.max_queue_depth = max_queue_depth
        self.workers = max(1, workers)
        self.default_service_s = default_service_s
        #: Observed per-job service times (seconds); fed by the queue on
        #: every completion, read here for the Retry-After estimate.
        self.latencies = latency_window or obs.LatencyWindow(256)

    # ----------------------------------------------------------------- #

    def observe_service_time(self, seconds: float) -> None:
        self.latencies.observe(seconds)

    def p95_service_s(self) -> float:
        p95 = self.latencies.p95()
        return p95 if p95 > 0.0 else self.default_service_s

    def retry_after_s(self, queue_depth: int) -> int:
        estimate = self.p95_service_s() * (queue_depth + 1) / self.workers
        return int(round(
            min(MAX_RETRY_AFTER_S, max(MIN_RETRY_AFTER_S, estimate))
        ))

    # ----------------------------------------------------------------- #

    def admit(self, queue_depth: int) -> AdmissionDecision:
        """The verdict for a submit arriving with ``queue_depth`` jobs
        already waiting."""
        if queue_depth >= self.max_queue_depth:
            _SHED_QUEUE_FULL.add()
            retry = self.retry_after_s(queue_depth)
            obs.log_event(
                "admission_shed",
                level="warning",
                reason="queue_full",
                retry_after_s=retry,
                queue_depth=queue_depth,
            )
            return AdmissionDecision(
                admitted=False,
                reason="queue_full",
                retry_after_s=retry,
                queue_depth=queue_depth,
            )
        _ADMITTED.add()
        return AdmissionDecision(admitted=True, queue_depth=queue_depth)

    def snapshot(self) -> Dict[str, object]:
        return {
            "max_queue_depth": self.max_queue_depth,
            "workers": self.workers,
            "p95_service_s": round(self.p95_service_s(), 4),
            "observed_completions": len(self.latencies),
        }
