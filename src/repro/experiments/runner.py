"""Experiment runner: app x version x platform -> paper metrics.

A cell's record is assembled from memoized machine outcomes: each
(trace, platform, machine params) pair is simulated once per process by
:func:`_simulate`, the one platform dispatch.  The speedup baseline ("all
speedups are computed relative to the single-processor version of the
original benchmark") is on the Origin the outcome of Table 2's P=1
original cell, and on a DSM the compute-only time of the same trace.

A trace is named by :func:`_trace_key` (its :class:`CacheKey`, also the
trace memo key) and obtained through
:func:`repro.runtime.worker.load_or_generate`, in this process or in a
worker.  Traces that must be generated go in sibling groups (keys that
differ only in ``nprocs``), one app pass per group, since the physics does
not depend on the processor count: a P=16 cell's generation also yields
its P=1 sibling, which Table 2 and every speedup baseline read.  With a
:class:`repro.runtime.RuntimeContext` installed (CLI
``--jobs``/``--cache-dir``, benchmark env vars, or tests), a persistent
cache lies under the memo, so a run killed mid-matrix resumes from the
traces already on disk; :func:`_generate_missing` is the one parallel
trace prefetch, :func:`prefetch_outcomes` the one parallel replay
prefetch and :func:`run_cells` the one serial-or-executor dispatch.
Per-cell progress is logged on the ``repro.runtime`` logger.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

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
from ..runtime.worker import (
    generate_trace_into_cache,
    load_or_generate,
    sibling_groups,
)

__all__ = [
    "Scale",
    "RunRecord",
    "run_suite",
    "run_cells",
    "make_app",
    "clear_cache",
    "prefetch_outcomes",
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


_cache: dict = {}  # trace memo: CacheKey -> Trace
_outcomes: dict = {}  # outcome memo: see _outcome_key


def clear_cache() -> None:
    """Drop the memoized traces, outcomes and meshes.

    Only the in-process memos are dropped; an installed persistent cache
    keeps its files (that is its whole point).
    """
    _cache.clear()
    _outcomes.clear()
    base_mesh.cache_clear()


def _may_read(rt: RuntimeContext, key: CacheKey) -> bool:
    """Whether ``rt``'s cache may serve ``key``: always when resuming,
    otherwise only once this run has rewritten the entry."""
    return rt.resume or rt.cache is None or key.filename() in rt.cache.written


def _readable(rt: RuntimeContext, key: CacheKey) -> bool:
    """Whether ``rt``'s cache holds ``key`` and may serve it."""
    return rt.cache is not None and _may_read(rt, key) and rt.cache.contains(key)


def _fans_out(rt: RuntimeContext | None) -> bool:
    """Whether cells run on the executor: a cache and ``jobs > 1``."""
    return rt is not None and rt.cache is not None and rt.executor.jobs > 1


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


def _memoize(keys) -> list:
    """The traces named by ``keys``, memoized through the installed
    runtime's cache: each readable entry on its own, and one app pass per
    sibling group of the rest.  Brings no sibling along that ``keys``
    does not name (see :func:`_trace_for`)."""
    keys = list(keys)
    rt = get_runtime() or RuntimeContext()
    todo = [k for k in dict.fromkeys(keys) if k not in _cache]
    hits = [k for k in todo if _readable(rt, k)]
    groups = [[k] for k in hits]
    groups += sibling_groups(k for k in todo if k not in hits)
    for group in groups:
        traces = load_or_generate(
            rt.cache, group, rt.trace_compression, _may_read(rt, group[0])
        )
        _cache.update(zip(group, traces))
    return [_cache[k] for k in keys]


def _trace_for(key: CacheKey):
    """Memoized trace named by ``key``, through the installed runtime's
    cache.  Generating a trace at ``nprocs > 1`` also yields its P=1
    sibling, unless that one is memoized or readable already."""
    if key not in _cache:
        rt = get_runtime() or RuntimeContext()
        group = [key]
        base = replace(key, nprocs=1)
        if not (key.nprocs == 1 or _readable(rt, key) or base in _cache
                or _readable(rt, base)):
            group.append(base)
        _memoize(group)
    return _cache[key]


def _check_platform(platform: str) -> None:
    if platform not in PLATFORMS:
        raise UnknownPlatformError(
            f"unknown platform {platform!r}; expected one of {PLATFORMS}"
        )


class Outcome(NamedTuple):
    """What a record reads of one machine run; small, so memoizing every
    run keeps no result arrays."""

    time: float
    phase_times: dict
    counters: dict  # l2/tlb_misses (Origin) or messages/data_mbytes (DSM)


def _simulate(trace, platform: str, params, trace_path: str | None = None) -> Outcome:
    """Run ``trace`` on ``platform`` under ``params``.

    With ``trace_path`` (the trace's on-disk bundle) and a runtime with
    ``replay_jobs > 1``, the models fan out across worker processes
    (:mod:`repro.machines.replay`); the outcome is byte-identical.
    """
    _check_platform(platform)
    rt = get_runtime()
    replay_jobs = (rt.replay_jobs if rt is not None else None) or 0
    fan_out = trace_path is not None and replay_jobs > 1
    if platform == "origin":
        if fan_out:
            res = simulate_hardware_parallel(trace_path, params, jobs=replay_jobs)
        else:
            res = simulate_hardware(trace, params)
        counters = {"l2_misses": res.total_l2_misses,
                    "tlb_misses": res.total_tlb_misses}
    else:
        if fan_out:
            # Pre-build the interval summaries across workers; the protocol
            # model below finds them installed in the trace's decode memo.
            build_intervals_parallel(
                trace_path, params.page_size, jobs=replay_jobs, trace=trace
            )
        sim = simulate_treadmarks if platform == "treadmarks" else simulate_hlrc
        res = sim(trace, params)
        counters = {"messages": res.messages, "data_mbytes": res.data_mbytes}
    return Outcome(res.time, dict(res.phase_times), counters)


def _outcome_key(key: CacheKey, platform: str, params) -> tuple:
    """Memo key of one outcome: the trace's inputs, the platform and its
    frozen machine params.  The codec is left out (every codec decodes to
    the same trace), so it is normalized to the uncompressed format."""
    return (replace(key, format_version=format_version_for("none")),
            platform, params)


def _outcome(key: CacheKey, platform: str, params) -> Outcome:
    """Memoized outcome of the trace named by ``key`` on ``platform``."""
    okey = _outcome_key(key, platform, params)
    if okey not in _outcomes:
        trace = _trace_for(key)  # stores the trace first, so it may fan out
        rt = get_runtime()
        on_disk = rt is not None and rt.cache is not None and rt.cache.contains(key)
        _outcomes[okey] = _simulate(
            trace, platform, params,
            trace_path=str(rt.cache.path(key)) if on_disk else None,
        )
    return _outcomes[okey]


def _params(platform: str, scale: Scale):
    """The machine a ``scale`` cell runs on."""
    _check_platform(platform)
    return scale.hardware() if platform == "origin" else scale.cluster()


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


def _origin_baseline(name: str, scale: Scale) -> tuple[CacheKey, HardwareParams]:
    """Trace and params of the Origin speedup baseline: the P=1 original
    cell, which is also Table 2's 1p original cell."""
    return _trace_key(name, "original", scale, 1), scale.hardware(nprocs=1)


def _seq_time(name: str, platform: str, scale: Scale) -> float:
    """Single-processor original run time on the given platform."""
    key, hw = _origin_baseline(name, scale)
    if platform == "origin":
        return _outcome(key, platform, hw).time
    # Uniprocessor run on a cluster node: compute only.
    params = scale.cluster()
    return float(_trace_for(key).total_work) * params.work_cycles * params.cycle_time


def run_one(
    name: str, version: str, platform: str, scale: Scale
) -> RunRecord:
    """Run one cell of the evaluation matrix from memoized outcomes."""
    started = time.perf_counter()
    params = _params(platform, scale)
    out = _outcome(_trace_key(name, version, scale, scale.nprocs), platform, params)
    rec = RunRecord(
        app=name,
        version=version,
        platform=platform,
        nprocs=scale.nprocs,
        time=out.time,
        reorder_time=_reorder_time(name, version, scale, params.cycle_time),
        seq_time=_seq_time(name, platform, scale),
        phase_times=dict(out.phase_times),
        **out.counters,
    )
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

    One executor task per sibling group, run under the runtime's fault
    plan.  Entries the cache already holds are skipped when resuming;
    with ``resume=False`` every entry not yet rewritten in this run is
    regenerated.  Returns the number of traces generated.
    """
    rt = get_runtime()
    todo = [k for k in dict.fromkeys(keys) if not _readable(rt, k)]
    tasks = [
        Task(key=group[0].filename(), fn=generate_trace_into_cache,
             args=(str(rt.cache.root), group, rt.trace_compression, rt.resume))
        for group in sibling_groups(todo)
    ]
    if tasks:
        log.info("prefetch: generating %d trace(s) in %d task(s) with %d job(s)",
                 len(todo), len(tasks), rt.executor.jobs)
        results = run_tasks(tasks, rt.executor, fault_plan=rt.fault_plan)
        for names in results.values():
            rt.cache.written.update(names)
    return len(todo)


def prefetch_traces(
    apps: tuple[str, ...] | None = None,
    scale: Scale | None = None,
) -> int:
    """Generate the matrix's traces in parallel into the persistent cache.

    The matrix's traces are every app's orderings at ``scale.nprocs`` and
    at one processor (Table 2's 1p column, whose original is also every
    platform's sequential baseline); each ordering's two are one task and
    one physics pass.  Requires an installed runtime with a
    cache; a no-op (returns 0) otherwise.  Traces memoized in-process are skipped,
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
    keys = (_trace_key(name, v, scale, nprocs) for name in apps
            for nprocs in (scale.nprocs, 1) for v in versions_for(name))
    return _generate_missing(k for k in keys if k not in _cache)


def run_matrix_cell(
    cache_root: str,
    key: CacheKey,
    compression: str,
    runs: tuple[tuple[str, object], ...],
) -> tuple[list[Outcome], tuple[int, int]]:
    """Executor worker: the outcome of every (platform, params) run of one
    trace.

    The trace is mmap-loaded from the persistent ``.npt`` cache (falling
    back to in-place generation if prefetch was skipped).  Returns
    outcomes aligned with ``runs``, plus the worker-side cache (hits,
    misses) so the parent can fold them into its own counters — the load
    happens in this process, invisible to the parent's ``TraceCache``
    otherwise.
    """
    cache = TraceCache(cache_root)
    (trace,) = load_or_generate(cache, [key], compression)
    path = str(cache.path(key))
    outcomes = [_simulate(trace, platform, params, trace_path=path)
                for platform, params in runs]
    return outcomes, (cache.hits, cache.misses)


def _cell_traces(cells) -> list[CacheKey]:
    """Every trace the cells read: their own, and the P=1 original of
    their speedup baselines."""
    keys = []
    for name, version, _platform, scale in cells:
        keys += [_trace_key(name, version, scale, scale.nprocs),
                 _origin_baseline(name, scale)[0]]
    return keys


def prefetch_outcomes(cells: list[tuple[str, str, str, Scale]]) -> None:
    """Compute on the executor every outcome the cells need and do not
    have memoized — their own and their Origin baselines'.

    A no-op unless the installed runtime has a cache and ``jobs > 1``.
    Missing traces are generated first (one task per sibling group); then
    the outcomes are grouped by trace, one executor task per trace key, so
    independent traces run in parallel while each is decoded once.  The
    outcomes land in the memo :func:`run_one` reads, so a record built
    after this call is identical to a serial one and replays nothing in
    this process.
    """
    rt = get_runtime()
    if not _fans_out(rt):
        return
    runs: dict[CacheKey, dict[tuple, None]] = {}  # trace -> (platform, params)
    for name, version, platform, scale in cells:
        base, hw = _origin_baseline(name, scale)
        wanted = [(_trace_key(name, version, scale, scale.nprocs), platform,
                   _params(platform, scale))]
        if platform == "origin":
            wanted.append((base, platform, hw))
        for k, p, params in wanted:
            if _outcome_key(k, p, params) not in _outcomes:
                runs.setdefault(k, {})[(p, params)] = None

    # The DSM baseline reads the P=1 trace, so every cell lists it.
    _generate_missing(k for k in _cell_traces(cells) if k not in _cache)
    tasks = [
        Task(key=f"cells_{key.filename()}", fn=run_matrix_cell,
             args=(str(rt.cache.root), key, rt.trace_compression, tuple(want)))
        for key, want in runs.items()
    ]
    if not tasks:
        return
    log.info("matrix: %d trace task(s) with %d job(s)",
             len(tasks), rt.executor.jobs)
    results = run_tasks(tasks, rt.executor, fault_plan=rt.fault_plan)
    for task in tasks:
        outcomes, (hits, misses) = results[task.key]
        rt.cache.hits += hits
        rt.cache.misses += misses
        _, key, _, want = task.args
        for (platform, params), out in zip(want, outcomes):
            _outcomes[_outcome_key(key, platform, params)] = out


def run_cells(cells: list[tuple[str, str, str, Scale]]) -> list[RunRecord]:
    """Run (app, version, platform, scale) cells; one record per cell.

    With a cache and ``jobs > 1``, :func:`prefetch_outcomes` computes the
    outcomes on the executor first.  Otherwise the traces the cells read
    are memoized up front, one app pass per sibling group, so a curve over
    processor counts runs each version's physics once.  Every record is
    then assembled by :func:`run_one` from the memo: serial and parallel
    records are identical.
    """
    if _fans_out(get_runtime()):
        prefetch_outcomes(cells)
    else:
        _memoize(_cell_traces(cells))
    return [run_one(*cell) for cell in cells]


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
