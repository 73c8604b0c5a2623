"""The one trace path: load a trace from the cache, or generate and store it.

Every site that needs a cell's trace — the runner's in-process memo, the
matrix and sweep workers, and the parallel prefetch — goes through
:func:`load_or_generate` with the trace's :class:`CacheKey`.  The key
holds every input of the app (``app, version, n, iterations, nprocs,
seed``), so generation needs nothing else; ``compression`` picks the
codec a store writes (the key's format version already follows it), and
``resume=False`` skips the load so the entry is regenerated and
rewritten.

A call takes a *sibling group* — keys that differ only in ``nprocs``
(:func:`sibling_groups`) — because the physics of a run does not depend
on the processor count: the missing members come out of one app pass,
one trace builder per count.

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
from dataclasses import replace

from .cache import CacheKey, TraceCache

__all__ = ["generate_trace_into_cache", "load_or_generate", "sibling_groups"]

log = logging.getLogger("repro.runtime")


def sibling_groups(keys) -> list[list[CacheKey]]:
    """``keys`` (deduplicated) grouped into siblings: keys that differ
    only in ``nprocs``, so one app pass emits them all.  Groups and their
    members keep first-seen order."""
    groups: dict[CacheKey, list[CacheKey]] = {}
    for key in dict.fromkeys(keys):
        groups.setdefault(replace(key, nprocs=0), []).append(key)
    return list(groups.values())


def load_or_generate(
    cache: TraceCache | None,
    keys: list[CacheKey],
    compression: str = "none",
    resume: bool = True,
) -> list:
    """The traces named by the sibling ``keys``: cache hits, and one app
    pass for the rest, each stored back.  Aligned with ``keys``.

    The pass runs at the first missing key's ``nprocs`` and emits the
    other missing counts as its siblings (see
    :meth:`repro.apps.base.Application.run`).  With ``cache=None`` the
    traces are generated and nothing is stored.  With ``resume=False``
    the cache is never read, only written.
    """
    if len(sibling_groups(keys)) != 1:
        raise ValueError(f"not a sibling group: {keys!r}")
    traces: dict[CacheKey, object] = {}
    if cache is not None and resume:
        for key in keys:
            trace = cache.load(key)
            if trace is not None:
                log.info("trace %s: cache hit", key.filename())
                traces[key] = trace
    missing = [k for k in keys if k not in traces]
    if missing:
        # Imported here so the module stays cheap to import in
        # spawn-started workers (and free of an import cycle with the
        # runner).
        from ..apps import AppConfig
        from ..experiments.runner import make_app

        started = time.perf_counter()
        key = missing[0]
        config = AppConfig(n=key.n, nprocs=key.nprocs,
                           iterations=key.iterations, seed=key.seed)
        app = make_app(key.app, config, key.version)
        traces[key] = app.run(siblings=[k.nprocs for k in missing[1:]])
        for k in missing[1:]:
            traces[k] = app.sibling_traces[k.nprocs]
        log.info(
            "trace %s/%s p=%s n=%d: generated in %.2fs (cache miss)",
            key.app, key.version, ",".join(str(k.nprocs) for k in missing),
            key.n, time.perf_counter() - started,
        )
        if cache is not None:
            for k in missing:
                cache.store(k, traces[k], compression=compression)
    return [traces[k] for k in keys]


def generate_trace_into_cache(
    cache_root: str, keys: list[CacheKey], compression: str = "none",
    resume: bool = True,
) -> list[str]:
    """Executor task: make sure the sibling ``keys``' entries are in the
    cache at ``cache_root``; returns their filenames."""
    load_or_generate(TraceCache(cache_root), keys, compression, resume)
    return [k.filename() for k in keys]
