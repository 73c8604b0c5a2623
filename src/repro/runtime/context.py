"""The runtime context: one object that switches resilience on.

The experiment runner consults the *installed* :class:`RuntimeContext`
(module-level, like the runner's own memoization cache) for a persistent
trace cache, executor settings for parallel trace prefetch, and an
optional fault plan (tests only).  Nothing is installed by default, so the
library behaves exactly as before unless the CLI (``--jobs``,
``--cache-dir``, ...), the benchmark harness (``REPRO_CACHE_DIR``,
``REPRO_JOBS``), or a test installs one.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

from .cache import TraceCache
from .executor import ExecutorConfig
from .faults import FaultPlan

__all__ = ["RuntimeContext", "get_runtime", "set_runtime", "use_runtime"]


@dataclass
class RuntimeContext:
    """Resilience settings for experiment runs.

    Every trace goes through one path,
    :func:`repro.runtime.worker.load_or_generate`: a cache hit, or a
    fresh run stored back.  ``cache=None`` disables persistence;
    ``resume=False`` never reads an entry written before this run — each
    one the run needs is regenerated and rewritten once, then read back
    by the rest of the run; ``executor.jobs > 1`` prefetches the traces
    in parallel and runs independent cells in worker processes
    (:func:`repro.experiments.runner.run_cells`).

    ``replay_jobs > 1`` additionally fans the *machine models* out: the
    Origin replay runs through
    :func:`repro.machines.replay.simulate_hardware_parallel` and the DSM
    interval build through
    :func:`repro.machines.replay.build_intervals_parallel`, both attaching
    to the cached ``.npt`` by path (zero-copy mapped pages, byte-identical
    results).  It only applies to cells whose trace is on disk — cells
    generated in-process replay serially.

    ``trace_compression`` selects the on-disk codec for cache stores:
    ``"none"`` writes mmap-friendly v2 bundles, ``"zlib"`` writes
    chunked compressed v3 bundles (~10-50x smaller, lazily decoded).
    Compressed entries carry format version 3 in their cache key, so
    toggling the codec never mixes formats under one filename.  Runs,
    matrix workers, prefetch and sweeps all key their traces with it.
    """

    cache: TraceCache | None = None
    executor: ExecutorConfig = field(default_factory=ExecutorConfig)
    resume: bool = True
    fault_plan: FaultPlan | None = None
    replay_jobs: int | None = None
    trace_compression: str = "none"


_current: RuntimeContext | None = None


def get_runtime() -> RuntimeContext | None:
    """The installed context, or ``None`` (plain in-process behaviour)."""
    return _current


def set_runtime(ctx: RuntimeContext | None) -> RuntimeContext | None:
    """Install ``ctx`` (or clear with ``None``); returns the previous one."""
    global _current
    previous = _current
    _current = ctx
    return previous


@contextlib.contextmanager
def use_runtime(ctx: RuntimeContext | None):
    """Temporarily install ``ctx`` (tests and one-shot scripts)."""
    previous = set_runtime(ctx)
    try:
        yield ctx
    finally:
        set_runtime(previous)
