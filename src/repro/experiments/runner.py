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

There is one trace path: a trace is named by :func:`_trace_key` (its
:class:`CacheKey`, also the memo key) and obtained through
:func:`repro.runtime.worker.load_or_generate`, in this process or in a
worker; :func:`_generate_missing` is the one prefetch and
:func:`run_cells` the one serial-or-executor dispatch.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

from ..apps import APP_REGISTRY, AppConfig, reorder_cycles
from ..apps.unstructured import base_mesh
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
from ..runtime.cache import CacheKey, TraceCache, format_version_for
from ..runtime.context import RuntimeContext, get_runtime
from ..runtime.executor import Task, run_tasks
from ..runtime.worker import generate_trace_into_cache, load_or_generate

__all__ = [
    "Scale",
    "RunRecord",
    "run_suite",
    "run_cells",
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
    """Drop memoized runs and meshes (tests use this to control memory).

    Only the in-process memos are dropped; an installed persistent cache
    keeps its files (that is its whole point).
    """
    _cache.clear()
    base_mesh.cache_clear()


def _may_read(rt: RuntimeContext, key: CacheKey) -> bool:
    """Whether ``rt``'s cache may serve ``key``: always when resuming,
    otherwise only once this run has rewritten the entry."""
    return rt.resume or rt.cache is None or key.filename() in rt.cache.written


def _trace_key(
    name: str, version: str, scale: Scale, nprocs: int,
    compression: str | None = None,
) -> CacheKey:
    """The one name of a cell's trace: its cache key and in-process memo key.

    It holds every :class:`Scale` input that reaches the app, plus the
    format version that ``compression`` writes — the installed runtime's
    codec when ``compression`` is ``None``.
    """
    if compression is None:
        rt = get_runtime()
        compression = rt.trace_compression if rt is not None else "none"
    return CacheKey(
        app=name,
        version=version,
        n=scale.n[name],
        iterations=scale.iterations[name],
        nprocs=nprocs,
        seed=scale.seed,
        format_version=format_version_for(compression),
    )


def _run_memo_key(name: str, version: str, platform: str, scale: Scale) -> tuple:
    """In-process memo key of one cell's record: the trace's inputs plus
    the platform and the machine scaling."""
    return ("run", name, version, platform, scale.n[name],
            scale.iterations[name], scale.nprocs, scale.seed, scale.hw_scale)


def _trace_for(key: CacheKey):
    """Memoized trace named by ``key``, through the installed runtime's
    cache."""
    if key not in _cache:
        rt = get_runtime() or RuntimeContext()
        _cache[key] = load_or_generate(
            rt.cache, key, rt.trace_compression, _may_read(rt, key)
        )
    return _cache[key]


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
        trace = _trace_for(_trace_key(name, "original", scale, 1))
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
    replay_jobs = (rt.replay_jobs if rt is not None else None) or 0
    fan_out = trace_path is not None and replay_jobs > 1
    if platform == "origin":
        params = scale.hardware()
        if fan_out:
            res = simulate_hardware_parallel(trace_path, params, jobs=replay_jobs)
        else:
            res = simulate_hardware(trace, params)
        counters = {"l2_misses": res.total_l2_misses,
                    "tlb_misses": res.total_tlb_misses}
    else:
        params = scale.cluster()
        if fan_out:
            # Pre-build the interval summaries across workers; the protocol
            # model below finds them installed in the trace's decode memo.
            build_intervals_parallel(
                trace_path, params.page_size, jobs=replay_jobs, trace=trace
            )
        sim = simulate_treadmarks if platform == "treadmarks" else simulate_hlrc
        res = sim(trace, params)
        counters = {"messages": res.messages, "data_mbytes": res.data_mbytes}
    return RunRecord(
        app=name,
        version=version,
        platform=platform,
        nprocs=scale.nprocs,
        time=res.time,
        reorder_time=_reorder_time(name, version, scale, params.cycle_time),
        seq_time=seq_time,
        phase_times=dict(res.phase_times),
        **counters,
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
    tkey = _trace_key(name, version, scale, scale.nprocs)
    trace = _trace_for(tkey)
    rt = get_runtime()
    on_disk = rt is not None and rt.cache is not None and rt.cache.contains(tkey)
    rec = _cell_record(
        name, version, platform, scale, trace, _seq_time(name, platform, scale),
        trace_path=str(rt.cache.path(tkey)) if on_disk else None,
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


def _generate_missing(keys) -> int:
    """The one prefetch: generate ``keys`` into the installed runtime's cache.

    One executor task per distinct filename, run under the runtime's fault
    plan.  Entries the cache already holds are skipped when resuming;
    with ``resume=False`` every entry not yet rewritten in this run is
    regenerated.  Returns the number of traces generated.
    """
    rt = get_runtime()
    tasks: dict[str, Task] = {}
    for key in keys:
        name = key.filename()
        if name in tasks or (_may_read(rt, key) and rt.cache.contains(key)):
            continue
        tasks[name] = Task(
            key=name,
            fn=generate_trace_into_cache,
            args=(str(rt.cache.root), key, rt.trace_compression, rt.resume),
        )
    if tasks:
        log.info("prefetch: generating %d trace(s) with %d job(s)",
                 len(tasks), rt.executor.jobs)
        run_tasks(list(tasks.values()), rt.executor, fault_plan=rt.fault_plan)
        rt.cache.written.update(tasks)
    return len(tasks)


def prefetch_traces(
    apps: tuple[str, ...] | None = None,
    scale: Scale | None = None,
) -> int:
    """Generate the matrix's traces in parallel into the persistent cache.

    The matrix's traces are every app's orderings at ``scale.nprocs`` and
    at one processor (Table 2's 1p column, whose original is also every
    platform's sequential baseline).  Requires an installed runtime with a cache; a
    no-op (returns 0) otherwise.  Traces memoized in-process are skipped,
    and so are cached ones when resuming.  Returns the number of traces
    generated.  Worker crashes, hangs, and timeouts follow the executor's
    retry/serial-fallback policy; results land in the cache file-by-file,
    so an interrupt loses at most the cells in flight.
    """
    rt = get_runtime()
    if rt is None or rt.cache is None:
        return 0
    scale = scale or Scale()
    apps = tuple(APP_REGISTRY) if apps is None else apps
    keys = []
    for name in apps:
        keys += [
            _trace_key(name, v, scale, nprocs)
            for nprocs in (scale.nprocs, 1)
            for v in versions_for(name)
        ]
    return _generate_missing(k for k in keys if k not in _cache)


def run_matrix_cell(
    cache_root: str,
    key: CacheKey,
    compression: str,
    platforms: tuple[str, ...],
    scale: Scale,
    seq_times: dict[str, float],
) -> tuple[list[RunRecord], tuple[int, int]]:
    """Executor worker: every platform cell for one trace.

    The trace is mmap-loaded from the persistent ``.npt`` cache (falling
    back to in-place generation if prefetch was skipped); the sequential
    baselines arrive precomputed from the parent, which memoizes them
    across versions.  Returns records aligned with ``platforms``, plus
    the worker-side cache (hits, misses) so the parent can fold them
    into its own counters — the load happens in this process, invisible
    to the parent's ``TraceCache`` otherwise.
    """
    cache = TraceCache(cache_root)
    trace = load_or_generate(cache, key, compression)
    records = [
        _cell_record(key.app, key.version, p, scale, trace, seq_times[p],
                     trace_path=str(cache.path(key)))
        for p in platforms
    ]
    return records, (cache.hits, cache.misses)


def run_cells(cells: list[tuple[str, str, str, Scale]]) -> list[RunRecord]:
    """Run (app, version, platform, scale) cells; one record per cell.

    Serially through :func:`run_one`, unless the installed runtime has a
    cache and ``jobs > 1``.  Then cells are grouped by trace — one
    executor task per (app, version, scale), covering all its platforms —
    so independent traces run in parallel while each trace is still
    decoded once per group.  Memoized cells are returned directly and
    never re-dispatched; fresh records land in the same memo ``run_one``
    uses, with identical contents (same simulators, same parameters).
    """
    rt = get_runtime()
    if not (rt is not None and rt.cache is not None and rt.executor.jobs > 1):
        return [run_one(*cell) for cell in cells]
    records: dict[int, RunRecord] = {}
    groups: dict[tuple, tuple[Scale, list]] = {}  # (trace, hw_scale) -> cells
    for i, (name, version, platform, scale) in enumerate(cells):
        if platform not in PLATFORMS:
            raise UnknownPlatformError(
                f"unknown platform {platform!r}; expected one of {PLATFORMS}"
            )
        key = _run_memo_key(name, version, platform, scale)
        if key in _cache:
            records[i] = _cache[key]
            continue
        tkey = _trace_key(name, version, scale, scale.nprocs)
        groups.setdefault((tkey, scale.hw_scale), (scale, []))[1].append(
            (i, platform, key)
        )

    # Fan out the distinct traces first (matrix cells and their
    # 1-processor baselines), then one batched task per group.
    _generate_missing(
        k for (tkey, _), (scale, _) in groups.items()
        for k in (tkey, _trace_key(tkey.app, "original", scale, 1))
    )
    tasks = []
    for (tkey, _), (scale, group) in groups.items():
        platforms = tuple(dict.fromkeys(p for _, p, _ in group))
        seq_times = {p: _seq_time(tkey.app, p, scale) for p in platforms}
        tasks.append((group, platforms, Task(
            key=f"cells_{tkey.app}_{tkey.version}_p{tkey.nprocs}_n{tkey.n}",
            fn=run_matrix_cell,
            args=(str(rt.cache.root), tkey, rt.trace_compression, platforms,
                  scale, seq_times),
        )))
    if tasks:
        log.info("matrix: %d cell group(s) with %d job(s)",
                 len(tasks), rt.executor.jobs)
        results = run_tasks([t for _, _, t in tasks], rt.executor,
                            fault_plan=rt.fault_plan)
    for group, platforms, task in tasks:
        recs, (hits, misses) = results[task.key]
        rt.cache.hits += hits
        rt.cache.misses += misses
        by_platform = dict(zip(platforms, recs))
        for i, platform, key in group:
            records[i] = _cache[key] = by_platform[platform]
    return [records[i] for i in range(len(cells))]


def run_suite(
    apps: tuple[str, ...] | None = None,
    platforms: tuple[str, ...] = PLATFORMS,
    scale: Scale | None = None,
) -> list[RunRecord]:
    """Run the full evaluation matrix; returns one record per cell.

    Cells go through :func:`run_cells`, so with a runtime installed
    (cache + ``jobs > 1``) distinct traces are prefetched in parallel and
    the machine models for independent traces run concurrently.  Serial
    and parallel paths produce identical records.
    """
    scale = scale or Scale()
    apps = tuple(APP_REGISTRY) if apps is None else apps
    return run_cells([
        (name, version, platform, scale)
        for name in apps
        for version in versions_for(name)
        for platform in platforms
    ])
