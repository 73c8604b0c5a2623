"""Structured error hierarchy for the reproduction.

Every error the package raises at a *boundary* — the experiment runner,
the CLI, trace serialization, the machine-model entry points, and the
fault-tolerant runtime — derives from :class:`ReproError`, so callers can
catch one type and the CLI can turn any failure into a clean one-line
message instead of a traceback.

Most concrete classes *also* inherit from the builtin the code used to
raise (``ValueError``, ``TimeoutError``), so pre-existing callers that
catch builtins keep working; new code should catch the structured types.

Hierarchy::

    ReproError
    ├── ConfigError(ValueError)          bad user-supplied configuration
    │   ├── UnknownAppError
    │   └── UnknownPlatformError
    ├── MetricError(ValueError)          undefined derived metric
    ├── SimulationInputError(ValueError) bad input to a machine model
    ├── MissingDependencyError(ImportError) a required package is absent
    ├── TraceCorruptError(ValueError)    unreadable/garbled trace file
    │   ├── TraceVersionError            wrong on-disk format version
    │   └── CacheMismatchError           cache entry does not match its key
    ├── WorkerError                      fault-tolerant executor failures
    │   ├── WorkerCrashError             worker died without a result
    │   ├── WorkerTimeoutError(TimeoutError)
    │   └── RetryExhaustedError          all attempts (and fallback) failed
    └── ServiceError                     sweep job service failures
        ├── JournalCorruptError(TraceCorruptError)
        ├── LeaseError                   invalid lease claim/heartbeat
        └── JobNotFoundError(KeyError)   unknown job id

The ``repro`` CLI maps these onto distinct exit codes
(:func:`exit_code_for`): configuration errors exit 2, corrupt on-disk
data exits 3, worker failures exit 4, service failures exit 5, and any
other structured error exits 1.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "UnknownAppError",
    "UnknownPlatformError",
    "MetricError",
    "SimulationInputError",
    "MissingDependencyError",
    "TraceCorruptError",
    "TraceVersionError",
    "CacheMismatchError",
    "WorkerError",
    "WorkerCrashError",
    "WorkerTimeoutError",
    "RetryExhaustedError",
    "ServiceError",
    "JournalCorruptError",
    "LeaseError",
    "JobNotFoundError",
    "EXIT_FAILURE",
    "EXIT_CONFIG",
    "EXIT_CORRUPT",
    "EXIT_WORKER",
    "EXIT_SERVICE",
    "exit_code_for",
]


class ReproError(Exception):
    """Base class for every structured error the package raises."""


class ConfigError(ReproError, ValueError):
    """User-supplied configuration is invalid (sizes, names, flags)."""


class UnknownAppError(ConfigError):
    """An application name is not in the registry."""


class UnknownPlatformError(ConfigError):
    """A platform name is not one of origin/treadmarks/hlrc."""


class MetricError(ReproError, ValueError):
    """A derived metric (e.g. speedup) is undefined for this record."""


class SimulationInputError(ReproError, ValueError):
    """A machine model was handed an input it cannot simulate."""


class MissingDependencyError(ReproError, ImportError):
    """A package the code needs (e.g. scipy) cannot be imported."""


class TraceCorruptError(ReproError, ValueError):
    """A trace file is unreadable, truncated, or internally inconsistent."""


class TraceVersionError(TraceCorruptError):
    """A trace file has an unsupported on-disk format version."""


class CacheMismatchError(TraceCorruptError):
    """A persistent-cache entry does not match the key it was looked up by."""


class WorkerError(ReproError):
    """Base class for fault-tolerant executor failures."""


class WorkerCrashError(WorkerError):
    """A worker process died without delivering a result."""

    def __init__(self, message: str, exitcode: int | None = None):
        super().__init__(message)
        self.exitcode = exitcode


class WorkerTimeoutError(WorkerError, TimeoutError):
    """A worker exceeded its wall-clock budget and was terminated."""


class RetryExhaustedError(WorkerError):
    """A task failed on every attempt (including any serial fallback)."""

    def __init__(self, message: str, *, key: str = "", attempts: int = 0,
                 last_error: BaseException | str | None = None):
        super().__init__(message)
        self.key = key
        self.attempts = attempts
        self.last_error = last_error


class ServiceError(ReproError):
    """Base class for sweep job service failures (server, client, state)."""


class JournalCorruptError(ServiceError, TraceCorruptError):
    """The service journal or snapshot is damaged beyond safe recovery.

    A torn *tail* (interrupted append) is self-healed by recovery and does
    not raise; this error means damage that cannot be attributed to an
    interrupted write, e.g. a checksum-mismatched snapshot.
    """


class LeaseError(ServiceError):
    """A lease operation was invalid (double claim, foreign heartbeat)."""


class JobNotFoundError(ServiceError, KeyError):
    """A job id is unknown to the service."""

    def __str__(self) -> str:  # KeyError quotes its repr; keep the message
        return self.args[0] if self.args else ""


# ---- CLI exit-code contract --------------------------------------------

EXIT_FAILURE = 1   #: any other structured failure
EXIT_CONFIG = 2    #: bad user-supplied configuration (also argparse usage)
EXIT_CORRUPT = 3   #: corrupt on-disk data (traces, cache, journal)
EXIT_WORKER = 4    #: worker crash/timeout/retry exhaustion
EXIT_SERVICE = 5   #: job-service failure (connect, protocol, lease, job)


def exit_code_for(exc: BaseException) -> int:
    """Map a structured error onto the CLI's exit-code contract.

    Order matters: ``JournalCorruptError`` is both a ``ServiceError`` and
    a ``TraceCorruptError`` — it reports as corrupt data, the more
    actionable diagnosis.
    """
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, TraceCorruptError):
        return EXIT_CORRUPT
    if isinstance(exc, WorkerError):
        return EXIT_WORKER
    if isinstance(exc, ServiceError):
        return EXIT_SERVICE
    return EXIT_FAILURE
