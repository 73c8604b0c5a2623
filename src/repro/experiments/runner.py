"""Experiment runner: app x version x platform -> paper metrics.

One :func:`run_suite` call executes an application once per data-ordering
version (sharing the trace across all three platforms, which are pure
functions of it) and once sequentially (the speedup baseline — "all
speedups are computed relative to the single-processor version of the
original benchmark").  Results are memoized in-process so that e.g. the
Figure 7 bench and the Table 2 bench do not re-run the same simulations.

When a :class:`repro.runtime.RuntimeContext` is installed (CLI ``--jobs``/
``--cache-dir``, benchmark env vars, or tests), trace generation gains two
resilience layers: a **persistent cache** under the in-process memo — so a
run killed mid-matrix resumes from the cells already on disk — and an
optional **parallel prefetch** (:func:`prefetch_traces`) that fans the
distinct traces of the evaluation matrix out across worker processes with
timeouts and retries.  Per-cell progress (cache hit/miss, generation
duration) is logged on the ``repro.runtime`` logger.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

from ..apps import APP_REGISTRY, AppConfig, reorder_cycles
from ..errors import ConfigError, MetricError, UnknownAppError, UnknownPlatformError
from ..machines.dsm import simulate_hlrc, simulate_treadmarks
from ..machines.hardware import simulate_hardware
from ..machines.params import (
    CLUSTER_16,
    ClusterParams,
    HardwareParams,
    origin2000_scaled,
)
from ..machines.replay import build_intervals_parallel, simulate_hardware_parallel
from ..runtime.cache import CacheKey, format_version_for
from ..runtime.context import get_runtime
from ..runtime.executor import Task, run_tasks
from ..runtime.worker import generate_trace_into_cache

__all__ = [
    "Scale",
    "RunRecord",
    "run_suite",
    "make_app",
    "clear_cache",
    "prefetch_traces",
]

log = logging.getLogger("repro.runtime")

PLATFORMS = ("origin", "treadmarks", "hlrc")

#: The paper's measured iteration counts (Table 1) — used to amortize the
#: one-time reordering cost when a scaled run uses fewer iterations: the
#: paper charges one reorder against a full-length run, so a run with k of
#: the paper's K iterations is charged k/K of the cost.
PAPER_ITERATIONS = {
    "barnes-hut": 6,
    "fmm": 3,
    "water-spatial": 10,
    "moldyn": 40,
    "unstructured": 40,
}


@dataclass(frozen=True)
class Scale:
    """Problem scaling for the whole evaluation.

    The paper runs 32-65 K objects for tens of iterations on real hardware;
    the pure-Python default is ~8x smaller with the cache/TLB reach of the
    simulated Origin shrunk by ``hw_scale`` to preserve working-set ratios
    (see DESIGN.md section 5).  ``paper()`` returns the full-size
    configuration.

    Inputs are validated at construction: sizes and iteration counts must
    be positive, app names must be registered, ``nprocs >= 1``.
    """

    n: dict[str, int] = field(
        default_factory=lambda: {
            "barnes-hut": 4096,
            "fmm": 4096,
            "water-spatial": 4096,
            "moldyn": 4096,
            "unstructured": 4096,
        }
    )
    iterations: dict[str, int] = field(
        default_factory=lambda: {
            "barnes-hut": 2,
            "fmm": 2,
            "water-spatial": 3,
            "moldyn": 5,
            "unstructured": 5,
        }
    )
    nprocs: int = 16
    seed: int = 42
    hw_scale: float = 16.0

    def __post_init__(self) -> None:
        unknown = (set(self.n) | set(self.iterations)) - set(APP_REGISTRY)
        if unknown:
            raise ConfigError(
                f"unknown application(s) in Scale: {sorted(unknown)};"
                f" expected names from {sorted(APP_REGISTRY)}"
            )
        for app, value in self.n.items():
            if value <= 0:
                raise ConfigError(f"Scale.n[{app!r}] must be positive, got {value}")
        for app, value in self.iterations.items():
            if value < 1:
                raise ConfigError(
                    f"Scale.iterations[{app!r}] must be >= 1, got {value}"
                )
        if self.nprocs < 1:
            raise ConfigError(f"Scale.nprocs must be >= 1, got {self.nprocs}")
        if self.hw_scale <= 0:
            raise ConfigError(
                f"Scale.hw_scale must be positive, got {self.hw_scale}"
            )

    @classmethod
    def paper(cls) -> "Scale":
        """The paper's Table 1 sizes and iteration counts (slow in Python)."""
        return cls(
            n={
                "barnes-hut": 65536,
                "fmm": 65536,
                "water-spatial": 32768,
                "moldyn": 32000,
                "unstructured": 10000,
            },
            iterations={
                "barnes-hut": 6,
                "fmm": 3,
                "water-spatial": 10,
                "moldyn": 40,
                "unstructured": 40,
            },
            hw_scale=1.0,
        )

    @classmethod
    def tiny(cls) -> "Scale":
        """Test-suite scale: seconds, not minutes."""
        return cls(
            n={k: 512 for k in APP_REGISTRY},
            iterations={k: 2 for k in APP_REGISTRY},
            hw_scale=128.0,
        )

    def config(self, app: str, nprocs: int | None = None) -> AppConfig:
        return AppConfig(
            n=self.n[app],
            nprocs=self.nprocs if nprocs is None else nprocs,
            iterations=self.iterations[app],
            seed=self.seed,
        )

    def hardware(self, nprocs: int | None = None) -> HardwareParams:
        return origin2000_scaled(
            max(self.hw_scale, 1.0), self.nprocs if nprocs is None else nprocs
        )

    def cluster(self) -> ClusterParams:
        return CLUSTER_16


@dataclass
class RunRecord:
    """Metrics for one (app, version, platform) cell of the evaluation."""

    app: str
    version: str
    platform: str
    nprocs: int
    time: float  # parallel execution time, excluding reordering
    reorder_time: float  # 0 for the original version
    seq_time: float  # single-processor original baseline
    messages: int = 0
    data_mbytes: float = 0.0
    l2_misses: int = 0
    tlb_misses: int = 0
    phase_times: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Speedup including the reordering cost, as the paper computes it."""
        denom = self.time + self.reorder_time
        if denom <= 0.0:
            raise MetricError(
                f"speedup undefined for {self.app}/{self.version} on"
                f" {self.platform}: parallel time + reorder time is"
                f" {denom!r} (expected > 0)"
            )
        return self.seq_time / denom


def make_app(name: str, config: AppConfig, version: str = "original"):
    """Instantiate an application and apply a data-ordering version."""
    try:
        cls = APP_REGISTRY[name]
    except KeyError:
        raise UnknownAppError(
            f"unknown application {name!r}; expected one of {sorted(APP_REGISTRY)}"
        ) from None
    app = cls(config)
    if version != "original":
        app.reorder(version)
    return app


_cache: dict = {}


def clear_cache() -> None:
    """Drop memoized runs (tests use this to control memory).

    Only the in-process memo is dropped; an installed persistent cache
    keeps its files (that is its whole point).
    """
    _cache.clear()


def _cache_key_for(
    name: str, version: str, scale: Scale, nprocs: int, compression: str = "none"
) -> CacheKey:
    return CacheKey(
        app=name,
        version=version,
        n=scale.n[name],
        iterations=scale.iterations[name],
        nprocs=nprocs,
        seed=scale.seed,
        format_version=format_version_for(compression),
    )


def _trace_memo_key(name: str, version: str, scale: Scale, nprocs: int) -> tuple:
    """In-process memo key of one cell's trace: the :class:`CacheKey`
    fields, i.e. every :class:`Scale` input that reaches the app."""
    return ("trace", name, version, scale.n[name], scale.iterations[name],
            nprocs, scale.seed)


def _run_memo_key(name: str, version: str, platform: str, scale: Scale) -> tuple:
    """In-process memo key of one cell's record: the trace's inputs plus
    the platform and the machine scaling."""
    return ("run", name, version, platform, scale.n[name],
            scale.iterations[name], scale.nprocs, scale.seed, scale.hw_scale)


def _trace_compression(rt) -> str:
    return getattr(rt, "trace_compression", "none") if rt is not None else "none"


def _trace_for(name: str, version: str, scale: Scale, nprocs: int):
    """Memoized trace for one cell; records its cache path when on disk.

    The on-disk path (stashed in the memo under a ``"tracepath"`` key) is
    what lets the parallel replay backend attach workers to the same file
    instead of pickling columns.
    """
    key = _trace_memo_key(name, version, scale, nprocs)
    if key in _cache:
        return _cache[key]
    rt = get_runtime()
    ck = None
    if rt is not None and rt.cache is not None:
        ck = _cache_key_for(name, version, scale, nprocs, _trace_compression(rt))
        if rt.resume:
            trace = rt.cache.load(ck)
            if trace is not None:
                log.info("trace %s: cache hit", ck.filename())
                _cache[key] = trace
                _cache[("tracepath",) + key[1:]] = str(rt.cache.path(ck))
                return trace
    started = time.perf_counter()
    app = make_app(name, scale.config(name, nprocs), version)
    trace = app.run()
    log.info(
        "trace %s/%s p=%d n=%d: generated in %.2fs (cache miss)",
        name, version, nprocs, scale.n[name], time.perf_counter() - started,
    )
    if ck is not None:
        rt.cache.store(ck, trace, compression=_trace_compression(rt))
        _cache[("tracepath",) + key[1:]] = str(rt.cache.path(ck))
    _cache[key] = trace
    return trace


def _trace_path_for(name: str, version: str, scale: Scale, nprocs: int) -> str | None:
    """The on-disk cache path of a memoized trace, if it has one."""
    return _cache.get(("tracepath",) + _trace_memo_key(name, version, scale, nprocs)[1:])


def _reorder_time(name: str, version: str, scale: Scale, cycle_time: float) -> float:
    """Modelled cost of the one-time reordering call, amortized to the
    scaled run's share of the paper's iteration count."""
    if version == "original":
        return 0.0
    cycles = reorder_cycles(
        scale.n[name], APP_REGISTRY[name].object_size, version
    )
    amortize = min(1.0, scale.iterations[name] / PAPER_ITERATIONS[name])
    return cycles * cycle_time * amortize


def _seq_time(name: str, platform: str, scale: Scale) -> float:
    """Single-processor original run time on the given platform."""
    key = ("seq", name, platform, scale.n[name], scale.iterations[name], scale.seed)
    if key not in _cache:
        trace = _trace_for(name, "original", scale, nprocs=1)
        if platform == "origin":
            params = scale.hardware(nprocs=1)
            _cache[key] = simulate_hardware(trace, params).time
        else:
            # Uniprocessor run on a cluster node: compute only.
            params = scale.cluster()
            _cache[key] = float(trace.total_work) * params.work_cycles * params.cycle_time
    return _cache[key]


def _cell_record(
    name: str,
    version: str,
    platform: str,
    scale: Scale,
    trace,
    seq_time: float,
    trace_path: str | None = None,
) -> RunRecord:
    """Build one cell's record from an already-materialized trace.

    Pure function of its inputs — :func:`run_one` calls it with the
    memoized trace and baseline, executor workers
    (:func:`run_matrix_cell`) with cache-loaded ones; both paths produce
    identical records.  When ``trace_path`` names the cell's on-disk
    bundle and the installed runtime sets ``replay_jobs > 1``, the
    machine models fan out across worker processes
    (:mod:`repro.machines.replay`) — results are byte-identical either
    way, so the record does not depend on which path ran.
    """
    rt = get_runtime()
    replay_jobs = getattr(rt, "replay_jobs", None) if rt is not None else None
    fan_out = trace_path is not None and replay_jobs is not None and replay_jobs > 1
    if platform == "origin":
        params = scale.hardware()
        if fan_out:
            res = simulate_hardware_parallel(trace_path, params, jobs=replay_jobs)
        else:
            res = simulate_hardware(trace, params)
        return RunRecord(
            app=name,
            version=version,
            platform=platform,
            nprocs=scale.nprocs,
            time=res.time,
            reorder_time=_reorder_time(name, version, scale, params.cycle_time),
            seq_time=seq_time,
            l2_misses=res.total_l2_misses,
            tlb_misses=res.total_tlb_misses,
            phase_times=dict(res.phase_times),
        )
    params = scale.cluster()
    sim = simulate_treadmarks if platform == "treadmarks" else simulate_hlrc
    if fan_out:
        # Pre-build the interval summaries across workers; the protocol
        # model below finds them installed in the trace's decode memo.
        build_intervals_parallel(
            trace_path, params.page_size, jobs=replay_jobs, trace=trace
        )
    res = sim(trace, params)
    return RunRecord(
        app=name,
        version=version,
        platform=platform,
        nprocs=scale.nprocs,
        time=res.time,
        reorder_time=_reorder_time(name, version, scale, params.cycle_time),
        seq_time=seq_time,
        messages=res.messages,
        data_mbytes=res.data_mbytes,
        phase_times=dict(res.phase_times),
    )


def run_one(
    name: str, version: str, platform: str, scale: Scale
) -> RunRecord:
    """Run one cell of the evaluation matrix (memoized)."""
    if platform not in PLATFORMS:
        raise UnknownPlatformError(
            f"unknown platform {platform!r}; expected one of {PLATFORMS}"
        )
    key = _run_memo_key(name, version, platform, scale)
    if key in _cache:
        return _cache[key]
    started = time.perf_counter()
    trace = _trace_for(name, version, scale, scale.nprocs)
    rec = _cell_record(
        name, version, platform, scale, trace, _seq_time(name, platform, scale),
        trace_path=_trace_path_for(name, version, scale, scale.nprocs),
    )
    _cache[key] = rec
    log.info(
        "cell %s/%s/%s p=%d: done in %.2fs",
        name, version, platform, scale.nprocs, time.perf_counter() - started,
    )
    return rec


def versions_for(name: str) -> tuple[str, ...]:
    """Orderings the paper evaluates for an app, plus the original.

    Category 2 apps get both Hilbert and column; Category 1 apps get
    Hilbert (the paper's choice).
    """
    if name not in APP_REGISTRY:
        raise UnknownAppError(
            f"unknown application {name!r}; expected one of {sorted(APP_REGISTRY)}"
        )
    cls = APP_REGISTRY[name]
    if cls.category == 2:
        return ("original", "hilbert", "column")
    return ("original", "hilbert")


def _matrix_trace_cells(
    apps: tuple[str, ...], scale: Scale
) -> list[tuple[str, str, int]]:
    """Distinct (app, version, nprocs) traces the evaluation matrix needs,
    including each app's 1-processor original baseline."""
    cells: list[tuple[str, str, int]] = []
    for name in apps:
        for version in versions_for(name):
            cells.append((name, version, scale.nprocs))
        cells.append((name, "original", 1))
    seen: set[tuple[str, str, int]] = set()
    out = []
    for cell in cells:
        if cell not in seen:
            seen.add(cell)
            out.append(cell)
    return out


def prefetch_traces(
    apps: tuple[str, ...] | None = None,
    scale: Scale | None = None,
) -> int:
    """Generate the matrix's traces in parallel into the persistent cache.

    Requires an installed runtime with a cache; a no-op (returns 0)
    otherwise.  Cells already cached (or memoized in-process) are skipped
    when resuming.  Returns the number of traces generated.  Worker
    crashes, hangs, and timeouts follow the executor's retry/serial-
    fallback policy; results land in the cache file-by-file, so an
    interrupt loses at most the cells in flight.
    """
    rt = get_runtime()
    if rt is None or rt.cache is None:
        return 0
    scale = scale or Scale()
    apps = tuple(APP_REGISTRY) if apps is None else apps
    compression = _trace_compression(rt)
    tasks = []
    for name, version, nprocs in _matrix_trace_cells(apps, scale):
        memo_key = _trace_memo_key(name, version, scale, nprocs)
        ck = _cache_key_for(name, version, scale, nprocs, compression)
        if memo_key in _cache:
            continue
        if rt.resume and rt.cache.contains(ck):
            continue
        tasks.append(
            Task(
                key=ck.filename(),
                fn=generate_trace_into_cache,
                args=(str(rt.cache.root), name, version, scale.n[name],
                      scale.iterations[name], nprocs, scale.seed, compression),
            )
        )
    if not tasks:
        return 0
    log.info("prefetch: generating %d trace(s) with %d job(s)",
             len(tasks), rt.executor.jobs)
    run_tasks(tasks, rt.executor, fault_plan=rt.fault_plan)
    return len(tasks)


def run_matrix_cell(
    cache_root: str,
    name: str,
    version: str,
    platforms: tuple[str, ...],
    scale: Scale,
    seq_times: dict[str, float],
    compression: str = "none",
) -> tuple[list[RunRecord], tuple[int, int]]:
    """Executor worker: every platform cell for one (app, version) trace.

    The trace is mmap-loaded from the persistent ``.npt`` cache (falling
    back to in-place generation if prefetch was skipped); the sequential
    baselines arrive precomputed from the parent, which memoizes them
    across versions.  Returns records aligned with ``platforms``, plus
    the worker-side cache (hits, misses) so the parent can fold them
    into its own counters — the load happens in this process, invisible
    to the parent's ``TraceCache`` otherwise.
    """
    from ..runtime.cache import TraceCache

    cache = TraceCache(cache_root)
    ck = _cache_key_for(name, version, scale, scale.nprocs, compression)
    trace = cache.load(ck)
    if trace is None:
        app = make_app(name, scale.config(name), version)
        trace = app.run()
        cache.store(ck, trace, compression=compression)
    records = [
        _cell_record(name, version, p, scale, trace, seq_times[p],
                     trace_path=str(cache.path(ck)))
        for p in platforms
    ]
    return records, (cache.hits, cache.misses)


def _run_cells_parallel(
    cells: list[tuple[str, str, str, Scale]]
) -> list[RunRecord]:
    """Run (app, version, platform, scale) cells through the executor.

    This is the sweep planner's cell-batch path: cells are grouped by
    trace — one task per (app, version, scale), covering all its
    platforms — so independent traces run in parallel while each trace
    is still decoded once per group.  Requires an installed runtime with
    a cache.  Memoized cells are returned directly and never
    re-dispatched; fresh records land in the same memo ``run_one`` uses,
    with identical contents (same simulators, same parameters).
    """
    rt = get_runtime()
    records: dict[int, RunRecord] = {}
    groups: dict[tuple, dict] = {}
    for i, (name, version, platform, scale) in enumerate(cells):
        if platform not in PLATFORMS:
            raise UnknownPlatformError(
                f"unknown platform {platform!r}; expected one of {PLATFORMS}"
            )
        key = _run_memo_key(name, version, platform, scale)
        if key in _cache:
            records[i] = _cache[key]
            continue
        gkey = key[1:3] + key[4:]  # drop platform: one group per trace
        g = groups.setdefault(
            gkey, {"name": name, "version": version, "scale": scale, "cells": []}
        )
        g["cells"].append((i, platform, key))

    if groups:
        # Fan out the distinct traces first (matrix cells and their
        # 1-processor baselines), then one batched task per group.
        compression = _trace_compression(rt)
        tasks, seen = [], set()
        for g in groups.values():
            name, scale = g["name"], g["scale"]
            for version, nprocs in ((g["version"], scale.nprocs), ("original", 1)):
                ck = _cache_key_for(name, version, scale, nprocs, compression)
                fn = ck.filename()
                if fn in seen or (rt.resume and rt.cache.contains(ck)):
                    continue
                seen.add(fn)
                tasks.append(Task(
                    key=fn,
                    fn=generate_trace_into_cache,
                    args=(str(rt.cache.root), name, version, scale.n[name],
                          scale.iterations[name], nprocs, scale.seed,
                          compression),
                ))
        if tasks:
            log.info("prefetch: generating %d trace(s) with %d job(s)",
                     len(tasks), rt.executor.jobs)
            run_tasks(tasks, rt.executor, fault_plan=rt.fault_plan)

        tasks = []
        for gkey, g in groups.items():
            name, scale = g["name"], g["scale"]
            platforms = tuple(dict.fromkeys(p for _, p, _ in g["cells"]))
            seq_times = {p: _seq_time(name, p, scale) for p in platforms}
            g["platforms"] = platforms
            g["task_key"] = f"cells_{name}_{g['version']}_p{scale.nprocs}_n{scale.n[name]}"
            tasks.append(Task(
                key=g["task_key"],
                fn=run_matrix_cell,
                args=(str(rt.cache.root), name, g["version"], platforms,
                      scale, seq_times, compression),
            ))
        log.info("matrix: %d cell group(s) with %d job(s)",
                 len(tasks), rt.executor.jobs)
        results = run_tasks(tasks, rt.executor, fault_plan=rt.fault_plan)
        for g in groups.values():
            recs, (hits, misses) = results[g["task_key"]]
            rt.cache.hits += hits
            rt.cache.misses += misses
            by_platform = dict(zip(g["platforms"], recs))
            for i, platform, key in g["cells"]:
                rec = by_platform[platform]
                _cache[key] = rec
                records[i] = rec
    return [records[i] for i in range(len(cells))]


def run_suite(
    apps: tuple[str, ...] | None = None,
    platforms: tuple[str, ...] = PLATFORMS,
    scale: Scale | None = None,
) -> list[RunRecord]:
    """Run the full evaluation matrix; returns one record per cell.

    With a runtime installed (cache + ``jobs > 1``), the matrix routes
    through the sweep planner's cell-batch path: distinct traces are
    prefetched in parallel, then the machine models for independent
    traces run concurrently (one batched task per trace, all platforms).
    Serial and parallel paths produce identical records.
    """
    scale = scale or Scale()
    apps = tuple(APP_REGISTRY) if apps is None else apps
    cells = [
        (name, version, platform, scale)
        for name in apps
        for version in versions_for(name)
        for platform in platforms
    ]
    rt = get_runtime()
    if rt is not None and rt.cache is not None and rt.executor.jobs > 1:
        return _run_cells_parallel(cells)
    return [run_one(*cell) for cell in cells]
