"""Deterministic fault injection for the resilient runtime.

Two families of faults, both fully deterministic so tests can assert exact
degradation paths:

* **process faults** — a :class:`FaultPlan` maps a task key to the fault
  each *attempt* should suffer (``"crash"``: hard exit without a result;
  ``"hang"``: sleep past any timeout; ``"error"``: raise inside the
  worker).  The executor consults the plan and the worker wrapper applies
  it.  ``interrupt_after=k`` makes the *parent* raise ``KeyboardInterrupt``
  after ``k`` tasks have completed — the "kill a run mid-matrix" scenario
  the resume tests exercise.

* **file faults** — helpers that damage a packed ``.npt`` trace bundle in
  the ways a real crash or bad disk would:
  :func:`truncate_file` (partial write), :func:`garble_file` (bit rot in
  the payload), :func:`corrupt_header` (structurally intact container,
  unparseable JSON header), and :func:`write_with_version` (a well-formed
  file claiming a different format version).

* **service faults** — :class:`FaultPlan` fields consumed by
  :mod:`repro.service`: ``worker`` doubles as "kill the worker holding a
  group's lease" (keyed by group key, indexed by lease attempt);
  ``torn_journal_appends`` tears the journal append with that sequence
  number mid-write and raises :class:`InjectedServiceCrash` (a modelled
  server crash — the chaos harness restarts the engine and recovery must
  truncate the torn tail); ``corrupt_checkpoints`` garbles a group's
  ``sweeps/*.json`` checkpoint right after it is written (silent damage
  that only the next recovery can notice); ``delayed_heartbeats`` maps a
  group key to the lease attempt whose heartbeat is suppressed, so the
  lease expires under a healthy worker and its late result arrives stale.

Service faults are *incarnation-scoped*: a chaos script passes each
engine incarnation its own plan slice, so a fault fires exactly once even
though the replayed journal re-runs the same logical operations.
"""

from __future__ import annotations

import os
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..trace.io import _write_bundle

__all__ = [
    "FaultPlan",
    "InjectedServiceCrash",
    "WORKER_FAULT_KINDS",
    "inject_worker_fault",
    "truncate_file",
    "garble_file",
    "corrupt_header",
    "write_with_version",
]

WORKER_FAULT_KINDS = ("crash", "hang", "error")

#: Exit code used by an injected crash, distinctive in test output.
CRASH_EXIT_CODE = 23


class InjectedServiceCrash(BaseException):
    """A modelled server crash raised by a service-level fault.

    Derives from ``BaseException`` (like ``KeyboardInterrupt``) so that no
    ordinary ``except Exception`` retry loop can swallow it — the chaos
    harness alone catches it and restarts the engine, exactly as a real
    crash would force a restart.
    """


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected failures.

    ``worker`` maps a task key to the sequence of faults for attempts
    1, 2, ... (``None`` or running off the end means the attempt runs
    cleanly).  ``interrupt_after`` fires a ``KeyboardInterrupt`` in the
    parent once that many tasks have completed successfully.
    """

    worker: Mapping[str, Sequence[str | None]] = field(default_factory=dict)
    interrupt_after: int | None = None
    #: Journal sequence numbers whose append is torn mid-write; the tear
    #: raises :class:`InjectedServiceCrash` (the server "died" mid-append).
    torn_journal_appends: tuple[int, ...] = ()
    #: Group keys whose checkpoint file is garbled right after writing.
    corrupt_checkpoints: tuple[str, ...] = ()
    #: Group key -> lease attempt (1-based) whose heartbeat is suppressed.
    delayed_heartbeats: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key, seq in self.worker.items():
            for kind in seq:
                if kind is not None and kind not in WORKER_FAULT_KINDS:
                    raise ValueError(
                        f"unknown worker fault {kind!r} for task {key!r};"
                        f" expected one of {WORKER_FAULT_KINDS}"
                    )
        for seq in self.torn_journal_appends:
            if not isinstance(seq, int) or seq < 1:
                raise ValueError(
                    f"torn_journal_appends entries must be positive journal"
                    f" sequence numbers, got {seq!r}"
                )
        for key, attempt in self.delayed_heartbeats.items():
            if not isinstance(attempt, int) or attempt < 1:
                raise ValueError(
                    f"delayed_heartbeats[{key!r}] must be a 1-based lease"
                    f" attempt, got {attempt!r}"
                )

    def worker_fault(self, key: str, attempt: int) -> str | None:
        """Fault to inject for ``key``'s ``attempt``-th try (1-based)."""
        seq = self.worker.get(key)
        if seq is None or attempt > len(seq):
            return None
        return seq[attempt - 1]

    # ---- service-level fault queries ----------------------------------
    def journal_torn(self, seq: int) -> bool:
        """Whether the append of journal record ``seq`` should tear."""
        return seq in self.torn_journal_appends

    def checkpoint_corrupt(self, key: str) -> bool:
        """Whether ``key``'s checkpoint should be garbled after writing."""
        return key in self.corrupt_checkpoints

    def heartbeat_delayed(self, key: str, attempt: int) -> bool:
        """Whether ``key``'s lease ``attempt`` loses its heartbeats."""
        return self.delayed_heartbeats.get(key) == attempt


def inject_worker_fault(kind: str, *, in_process: bool = False) -> None:
    """Apply a process fault.  Runs inside the worker.

    In ``in_process`` (serial-fallback) mode a ``crash`` cannot take the
    host process down, so it degrades to a raised error; a ``hang`` becomes
    a no-op (there is no supervisor to time it out).
    """
    if kind == "crash":
        if in_process:
            raise RuntimeError("injected fault: crash (serial mode)")
        os._exit(CRASH_EXIT_CODE)
    elif kind == "hang":
        if not in_process:
            time.sleep(86400.0)
    elif kind == "error":
        raise RuntimeError("injected fault: error")
    elif kind is not None:
        raise ValueError(f"unknown worker fault {kind!r}")


# ---- file faults -------------------------------------------------------


def truncate_file(path, keep_fraction: float = 0.5) -> None:
    """Cut a file to a prefix — what a non-atomic interrupted write leaves."""
    size = os.path.getsize(path)
    keep = max(1, int(size * keep_fraction))
    with open(path, "r+b") as fh:
        fh.truncate(keep)


def garble_file(path, seed: int = 0, nbytes: int = 64) -> None:
    """Overwrite bytes in the middle of a file with deterministic noise."""
    rng = np.random.default_rng(seed)
    size = os.path.getsize(path)
    start = size // 3
    noise = rng.integers(0, 256, size=min(nbytes, max(1, size - start)),
                         dtype=np.uint8).tobytes()
    with open(path, "r+b") as fh:
        fh.seek(start)
        fh.write(noise)


def corrupt_header(path) -> None:
    """Rewrite the bundle so its JSON header is unparseable.

    The magic and preamble stay intact — this models logical corruption
    rather than byte rot, and must still be caught as ``TraceCorruptError``.
    """
    # Scribble into the JSON header region (preamble = 8-byte magic +
    # 8-byte header length, header follows).
    with open(path, "r+b") as fh:
        fh.seek(16)
        fh.write(b"{not json!")


def write_with_version(path, version: int, nprocs: int = 1) -> None:
    """Write a minimal well-formed bundle preamble claiming ``version``."""
    header = {"version": version, "nprocs": nprocs, "regions": [], "labels": []}
    with open(path, "wb") as fh:
        _write_bundle(fh, header)
