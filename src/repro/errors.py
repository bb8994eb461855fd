"""Exception hierarchy for the repro package.

Robustness-path errors derive from :class:`StructuredError` and carry a
machine-readable ``context`` dict (mirrored as attributes) so telemetry
events, ``JobFailure`` rows, and chaos reports can record *why* something
failed without parsing message strings.
"""

from typing import Any, Dict


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ProgramError(ReproError):
    """A program is malformed (bad operands, unresolved label, ...)."""


class ExecutionError(ReproError):
    """Functional execution failed (bad memory access, runaway loop, ...)."""


class ConfigError(ReproError):
    """A configuration value is out of its legal range."""


class SelectionError(ReproError):
    """P-thread selection was asked to do something impossible."""


class WorkloadError(ReproError):
    """An unknown workload or input set was requested."""


# --------------------------------------------------------------------- #
# Structured failure taxonomy (harness robustness paths).
# --------------------------------------------------------------------- #


class StructuredError(ReproError):
    """An error carrying structured context for telemetry and reports.

    ``context`` holds JSON-serializable diagnostics; every key is also
    set as an attribute, so call sites read ``exc.cycle`` while the
    failure row records ``exc.context`` wholesale.
    """

    def __init__(self, message: str, **context: Any) -> None:
        super().__init__(message)
        self.context: Dict[str, Any] = context
        for key, value in context.items():
            setattr(self, key, value)


class SimulationTimeoutError(StructuredError):
    """A simulation job exceeded its per-job wall-clock timeout.

    Context: ``benchmark``, ``target``, ``timeout_s``, ``attempt``.
    """


class WorkerCrashError(StructuredError):
    """A worker process died (or its pool broke) mid-job.

    Context: ``benchmark``, ``target``, ``attempt``, ``cause``.
    """


class JournalError(StructuredError):
    """A run journal could not be opened, appended, or parsed.

    Context: ``path``, ``reason``.
    """


class FaultInjectedError(StructuredError):
    """A deterministic injected fault fired (``repro.faults``).

    Context: ``site``, ``key``.  Always retryable: the retry draws a
    fresh Bernoulli sample, so recovery paths converge.
    """


class AdmissionRejectedError(StructuredError):
    """The experiment server shed this request (queue full or
    draining).  Maps to HTTP 429/503 with a ``Retry-After`` header;
    retryable by definition -- that is what the header promises.

    Context: ``reason``, ``retry_after_s``, ``queue_depth``.
    """


class JobCancelledError(StructuredError):
    """A queued server job was cancelled before it ran.

    Deterministically final: retrying a cancellation reproduces it.
    Context: ``job_id``.
    """


class PipelineDeadlockError(ExecutionError):
    """The timing simulator can make no further progress.

    Carries the diagnostic state of the stalled machine: ``cycle``,
    ``committed``/``total`` main instructions, ``rob_head`` (a dict
    describing the ROB head op, or ``None`` when the ROB is empty), and
    ``fetch_state`` (one dict per live p-thread fetch context).
    """

    def __init__(self, message: str, **context: Any) -> None:
        super().__init__(message)
        self.context: Dict[str, Any] = context
        for key, value in context.items():
            setattr(self, key, value)


#: Error classes whose failures are deterministic: retrying the same job
#: can only reproduce them, so the engine fails fast instead.
NON_RETRYABLE = (
    ProgramError,
    ExecutionError,
    ConfigError,
    SelectionError,
    WorkloadError,
    # A cancellation is an explicit, final decision about that job.
    JobCancelledError,
)


def is_retryable(exc: BaseException) -> bool:
    """Whether the parallel engine should retry a job that raised ``exc``."""
    if isinstance(exc, (KeyboardInterrupt, SystemExit)):
        return False
    return not isinstance(exc, NON_RETRYABLE)
