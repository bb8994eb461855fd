"""Deterministic, seeded fault injection for robustness testing.

The harness's recovery paths (retry/backoff, pool rebuilds, cache
degradation, checkpoint/resume) have to be *provable*, not hopeful, so
this registry lets a run inject failures at named sites with a seeded,
reproducible schedule:

- ``simcache.read`` / ``simcache.write``  -- the persistent simulation
  cache raises ``OSError`` (exercises the degrade-to-no-cache path);
- ``worker.run``      -- an experiment job crashes in its worker process
  (exercises retry with backoff);
- ``worker.start``    -- a pool's worker initializer crashes, breaking
  the whole pool (exercises ``BrokenProcessPool`` rebuild + resubmit);
- ``worker.hang``     -- an experiment job sleeps forever (exercises
  per-job wall-clock timeouts);
- ``manifest.write``  -- writing run artifacts raises ``OSError``;
- ``server.accept`` / ``queue.enqueue`` / ``server.respond`` -- the
  experiment server drops a connection before parsing, fails an enqueue
  before acknowledging, or drops the connection mid-response
  (exercises admission control, exactly-once accept journaling, and
  client retry behavior).

A fault *draw* is a pure function of ``(seed, site, key)`` -- SHA-256
hashed to a uniform sample in [0, 1) -- so the same plan over the same
grid injects the same faults, and a retried job (whose key includes the
attempt number) draws a fresh, independent sample: recovery converges
instead of permafailing.

Plans come from ``REPRO_FAULTS`` (comma-separated ``SITE:prob[:seed]``
specs) or the CLI ``--inject-fault`` flag; :func:`encode_plan` ships the
active plan to pool workers.  Every injection increments the
``faults.injected.<site>`` counter and emits a telemetry event, so the
chaos report can account for every fault fired anywhere in the tree.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import os
import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro import obs
from repro.errors import ConfigError, FaultInjectedError

#: Every named injection site the stack consults.
SITES = (
    "simcache.read",
    "simcache.write",
    "worker.run",
    "worker.start",
    "worker.hang",
    "manifest.write",
    # Experiment-server sites (repro serve): drop the connection before
    # the request is parsed, fail the enqueue after admission but before
    # the accept is acknowledged, and drop the connection while writing
    # the response (the client never learns its request's fate).
    "server.accept",
    "queue.enqueue",
    "server.respond",
)

ENV_VAR = "REPRO_FAULTS"


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: fire at ``site`` with ``probability``."""

    site: str
    probability: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ConfigError(
                f"unknown fault site {self.site!r}; expected one of "
                f"{', '.join(SITES)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError(
                f"fault probability for {self.site} must be in [0, 1], "
                f"got {self.probability}"
            )

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse ``SITE:prob[:seed]`` (the CLI / env spec syntax)."""
        parts = text.strip().split(":")
        if len(parts) not in (2, 3):
            raise ConfigError(
                f"bad fault spec {text!r}; expected SITE:prob[:seed]"
            )
        site = parts[0]
        try:
            probability = float(parts[1])
            seed = int(parts[2]) if len(parts) == 3 else 0
        except ValueError:
            raise ConfigError(
                f"bad fault spec {text!r}; expected SITE:prob[:seed] "
                f"with a float probability and integer seed"
            ) from None
        return cls(site=site, probability=probability, seed=seed)

    def encode(self) -> str:
        return f"{self.site}:{self.probability}:{self.seed}"


def unit(material: str) -> float:
    """A deterministic uniform sample in [0, 1) from ``material``.

    The single source of pseudo-randomness for every robustness
    mechanism that must replay identically across processes, retries,
    and ``--resume``: fault draws here, retry-backoff jitter in
    :class:`repro.harness.parallel.RetryPolicy`.
    """
    digest = hashlib.sha256(material.encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def draw(spec: FaultSpec, key: object) -> bool:
    """The pure Bernoulli sample for ``(spec, key)``.

    Deterministic across processes and runs: hash the seed, site, and
    key to a uniform float and compare against the probability.
    """
    return unit(f"{spec.seed}|{spec.site}|{key}") < spec.probability


class FaultPlan:
    """An active set of fault specs plus per-site injection bookkeeping."""

    def __init__(self, specs: Sequence[FaultSpec]) -> None:
        self.by_site: Dict[str, FaultSpec] = {}
        for spec in specs:
            if spec.site in self.by_site:
                raise ConfigError(
                    f"duplicate fault spec for site {spec.site!r}"
                )
            self.by_site[spec.site] = spec
        self._sequence: Dict[str, int] = {}

    @property
    def specs(self) -> List[FaultSpec]:
        return list(self.by_site.values())

    def encode(self) -> List[str]:
        return [spec.encode() for spec in self.specs]

    def site_active(self, site: str) -> bool:
        spec = self.by_site.get(site)
        return spec is not None and spec.probability > 0.0

    def should_fault(self, site: str, key: object = None) -> bool:
        """Sample the site; on injection, count it and emit an event.

        ``key`` defaults to a per-site sequence number (deterministic
        within one process's lifetime); pass an explicit key -- e.g.
        ``"<cell>:<attempt>"`` -- for draws that must be reproducible
        across processes and retries.  The ambient :func:`scoped` scope
        (set by workers to ``"<cell>:<attempt>"``) is mixed into every
        key, so a deterministic replay under retry -- e.g. the cache
        re-reading the same key -- draws a fresh sample and converges.
        """
        spec = self.by_site.get(site)
        if spec is None or spec.probability <= 0.0:
            return False
        if key is None:
            seq = self._sequence.get(site, 0)
            self._sequence[site] = seq + 1
            key = seq
        scope = current_scope()
        if scope is not None:
            key = f"{scope}|{key}"
        if not draw(spec, key):
            return False
        obs.counters.counter(f"faults.injected.{site}").add()
        obs.log_event(
            "fault_injected",
            level="warning",
            site=site,
            key=str(key),
            probability=spec.probability,
            seed=spec.seed,
        )
        return True


# --------------------------------------------------------------------- #
# Process-wide plan.  ``None`` means "not yet resolved": the first use
# reads REPRO_FAULTS.  An explicitly configured empty plan disables
# injection regardless of the environment.
# --------------------------------------------------------------------- #

_plan: Optional[FaultPlan] = None
_resolved = False
#: Per-thread draw scope: the experiment server runs jobs on worker
#: threads, so a process-global scope would let concurrent jobs clobber
#: each other's draw keys.  Pool worker *processes* each set their own.
_scope_local = threading.local()


def current_scope() -> Optional[str]:
    return getattr(_scope_local, "scope", None)


@contextlib.contextmanager
def scoped(scope: Optional[str]) -> Iterator[None]:
    """Mix ``scope`` into every draw key while the context is active.

    The parallel engine's workers scope each job to
    ``"<cell_key>:<attempt>"`` so that faults inside deterministic replays
    (the cache re-reading the same key) re-draw on retry instead of
    permafailing.  The scope is thread-local: concurrent server worker
    threads each carry their own."""
    previous = current_scope()
    _scope_local.scope = scope
    try:
        yield
    finally:
        _scope_local.scope = previous

SpecLike = Union[FaultSpec, str]


def _to_specs(specs: Sequence[SpecLike]) -> List[FaultSpec]:
    return [
        spec if isinstance(spec, FaultSpec) else FaultSpec.parse(spec)
        for spec in specs
    ]


def configure(specs: Sequence[SpecLike]) -> FaultPlan:
    """Install a fault plan process-wide (pass ``[]`` to disable)."""
    global _plan, _resolved
    _plan = FaultPlan(_to_specs(specs))
    _resolved = True
    return _plan


def reset() -> None:
    """Back to the unresolved default (environment-controlled)."""
    global _plan, _resolved
    _plan = None
    _resolved = False


def current_plan() -> Optional[FaultPlan]:
    """The active plan, resolving ``REPRO_FAULTS`` on first use."""
    global _plan, _resolved
    if not _resolved:
        _resolved = True
        env = os.environ.get(ENV_VAR, "").strip()
        if env:
            _plan = FaultPlan(
                [FaultSpec.parse(part) for part in env.split(",") if part]
            )
    return _plan


def encode_plan() -> List[str]:
    """The active plan as spec strings (worker-process transport)."""
    plan = current_plan()
    return plan.encode() if plan is not None else []


@contextlib.contextmanager
def active(specs: Sequence[SpecLike]) -> Iterator[FaultPlan]:
    """Temporarily install a plan (chaos runs and tests).

    This is the *only* supported way for library callers (the chaos
    harness, the server test suite) to run under injected faults: the
    previous plan -- including the unresolved environment-controlled
    default -- is restored on exit, so a plan can never leak across
    cases.  Plain :func:`configure` is for process setup (CLI, pool
    worker initializers), which pairs it with :func:`reset`.
    """
    global _plan, _resolved
    previous, previous_resolved = _plan, _resolved
    plan = configure(specs)
    try:
        yield plan
    finally:
        _plan, _resolved = previous, previous_resolved


@contextlib.contextmanager
def pristine() -> Iterator[None]:
    """No injection while active, whatever the ambient plan or
    environment says.  Chaos harnesses run their fault-free reference
    grids under this, so a CLI ``--inject-fault`` (or a leaked test
    plan) cannot poison the reference."""
    with active([]):
        yield


# --------------------------------------------------------------------- #
# Call-site helpers.
# --------------------------------------------------------------------- #


def site_active(site: str) -> bool:
    """Whether ``site`` is armed with a nonzero probability (no draw)."""
    plan = current_plan()
    return plan is not None and plan.site_active(site)


def should_fault(site: str, key: object = None) -> bool:
    """Sample ``site``; True means the caller must now fail."""
    plan = current_plan()
    return plan is not None and plan.should_fault(site, key)


def raise_if(site: str, key: object = None) -> None:
    """Raise :class:`FaultInjectedError` when the site fires."""
    if should_fault(site, key):
        raise FaultInjectedError(
            f"injected fault at {site} (key={key!r})", site=site,
            key=str(key),
        )


def raise_os_if(site: str, key: object = None) -> None:
    """Raise ``OSError(EIO)`` when the site fires (I/O fault sites)."""
    if should_fault(site, key):
        raise OSError(
            errno.EIO, f"injected fault at {site} (key={key!r})"
        )


def injected_counts() -> Dict[str, int]:
    """Injections recorded in this process's counters, per site."""
    snapshot = obs.counters.snapshot()
    prefix = "faults.injected."
    return {
        name[len(prefix):]: int(value)
        for name, value in snapshot.items()
        if name.startswith(prefix) and value
    }
