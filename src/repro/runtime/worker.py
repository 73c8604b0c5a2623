"""The one trace path: load a trace from the cache, or generate and store it.

Every site that needs a cell's trace — the runner's in-process memo, the
matrix and sweep workers, and the parallel prefetch — goes through
:func:`load_or_generate` with the trace's :class:`CacheKey`.  The key
holds every input of the app (``app, version, n, iterations, nprocs,
seed``), so generation needs nothing else; ``compression`` picks the
codec a store writes (the key's format version already follows it), and
``resume=False`` skips the load so the entry is regenerated and
rewritten.

Workers never ship a trace back over the result pipe — traces are large
and the pipe is a failure surface.  :func:`generate_trace_into_cache`
writes its result into the persistent
:class:`repro.runtime.cache.TraceCache` (atomically) and returns the
cache filename as a small token; the parent then *mmaps* the packed
bundle out of the cache.  A run killed between worker completion and
parent bookkeeping therefore loses nothing: the cell is already on disk.
"""

from __future__ import annotations

import logging
import time

from .cache import CacheKey, TraceCache

__all__ = ["generate_trace_into_cache", "load_or_generate"]

log = logging.getLogger("repro.runtime")


def load_or_generate(
    cache: TraceCache | None,
    key: CacheKey,
    compression: str = "none",
    resume: bool = True,
):
    """The trace named by ``key``: a cache hit, or a fresh run stored back.

    With ``cache=None`` the trace is generated and nothing is stored.
    With ``resume=False`` the cache is never read, only written.
    """
    if cache is not None and resume:
        trace = cache.load(key)
        if trace is not None:
            log.info("trace %s: cache hit", key.filename())
            return trace
    # Imported here so the module stays cheap to import in spawn-started
    # workers (and free of an import cycle with the runner).
    from ..apps import AppConfig
    from ..experiments.runner import make_app

    started = time.perf_counter()
    config = AppConfig(n=key.n, nprocs=key.nprocs, iterations=key.iterations,
                       seed=key.seed)
    trace = make_app(key.app, config, key.version).run()
    log.info(
        "trace %s/%s p=%d n=%d: generated in %.2fs (cache miss)",
        key.app, key.version, key.nprocs, key.n, time.perf_counter() - started,
    )
    if cache is not None:
        cache.store(key, trace, compression=compression)
    return trace


def generate_trace_into_cache(
    cache_root: str, key: CacheKey, compression: str = "none",
    resume: bool = True,
) -> str:
    """Executor task: make sure ``key``'s entry is in the cache at
    ``cache_root``; returns its filename."""
    load_or_generate(TraceCache(cache_root), key, compression, resume)
    return key.filename()
