"""Batched multi-configuration sweep planner.

A parameter-grid sweep (L2 capacities, line sizes, DSM page sizes across
apps and orderings) naively costs one full trace replay per grid point.
The machine layer already collapses each *geometry family* to one pass:

* :func:`repro.machines.hardware.simulate_hardware_sweep` reads every L2
  capacity off a stack-distance miss curve, decoding each line-size
  geometry once;
* :func:`repro.machines.dsm.simulate_dsm_sweep` builds interval
  summaries at the finest page size and folds them up the 2x ladder.

This module plans the remaining dimension: :class:`SweepPlan` takes a
:class:`SweepGrid`, groups grid points by (trace, geometry family) —
all points sharing a trace and a sweepable axis become one
:class:`SweepGroup` — and dispatches each group as one batched task
through the :mod:`repro.runtime` executor.  Workers load traces from the
persistent cache (mmap-backed ``.npt`` columns, so the fan-out does not
re-pickle multi-million-event traces) and return compact per-point row
dicts over the pipe.  Completed groups checkpoint as JSON under the
cache root; ``--resume`` skips them on the next run.

Without an installed runtime the plan runs serially in-process, sharing
:mod:`repro.experiments.runner`'s trace memo — results are identical
either way, and identical to per-point ``simulate_*`` calls (asserted in
``tests/experiments/test_sweep_plan.py`` and
``benchmarks/bench_sweep_engine.py``).
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..apps import APP_REGISTRY
from ..errors import ConfigError, UnknownAppError, UnknownPlatformError
from ..runtime.cache import CacheKey, TraceCache, atomic_write_text, quarantine_file
from ..runtime.context import get_runtime
from ..runtime.executor import Task, run_tasks
from ..runtime.worker import load_or_generate
from .runner import Scale, _generate_missing, _memoize, _trace_key, versions_for

__all__ = [
    "SweepGrid",
    "SweepGroup",
    "SweepPlan",
    "grid_from_dict",
    "grid_to_dict",
    "load_group_checkpoint",
    "parse_grid",
    "run_sweep_group",
    "write_group_checkpoint",
]

log = logging.getLogger("repro.runtime")

_DSM_PLATFORMS = ("treadmarks", "hlrc")
_PLATFORMS = ("origin",) + _DSM_PLATFORMS

#: Row keys in output order (rows only carry the keys that apply to
#: their platform; the CLI renders the union of what is present).
ROW_KEYS = (
    "app", "version", "platform", "nprocs",
    "line_size", "l2_bytes", "l2_assoc", "page_size",
    "time", "l2_misses", "tlb_misses", "invalidations",
    "cold_misses", "coherence_misses", "capacity_misses",
    "messages", "data_mbytes", "page_fetches", "diff_fetches",
)


def _as_sizes(name: str, values) -> tuple[int, ...] | None:
    if values is None:
        return None
    out = tuple(int(v) for v in values)
    if not out or any(v <= 0 for v in out):
        raise ConfigError(f"SweepGrid.{name} must be positive, got {values!r}")
    return out


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian parameter grid for a sweep.

    ``l2_bytes``/``line_sizes`` apply to the ``origin`` platform (one
    family per line size, capacities read off its miss curve);
    ``page_sizes`` applies to the DSM platforms (one folded interval
    ladder per trace).  ``versions=None`` means each app's paper
    orderings (:func:`repro.experiments.runner.versions_for`).  An axis
    left ``None`` sweeps just the platform's default geometry.
    """

    apps: tuple[str, ...] = ("barnes-hut",)
    versions: tuple[str, ...] | None = None
    platforms: tuple[str, ...] = ("origin",)
    l2_bytes: tuple[int, ...] | None = None
    line_sizes: tuple[int, ...] | None = None
    page_sizes: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        unknown = set(self.apps) - set(APP_REGISTRY)
        if unknown:
            raise UnknownAppError(
                f"unknown application(s) in SweepGrid: {sorted(unknown)};"
                f" expected names from {sorted(APP_REGISTRY)}"
            )
        bad = set(self.platforms) - set(_PLATFORMS)
        if bad:
            raise UnknownPlatformError(
                f"unknown platform(s) in SweepGrid: {sorted(bad)};"
                f" expected names from {_PLATFORMS}"
            )
        if not self.apps or not self.platforms:
            raise ConfigError("SweepGrid needs at least one app and platform")
        for name in ("l2_bytes", "line_sizes", "page_sizes"):
            object.__setattr__(self, name, _as_sizes(name, getattr(self, name)))
        odd = [s for s in self.page_sizes or () if s & (s - 1)]
        if odd:
            raise ConfigError(
                f"SweepGrid.page_sizes must be powers of two, got {odd}"
            )


def grid_to_dict(grid: SweepGrid) -> dict:
    """JSON-safe grid spec for the job-service protocol and journal."""
    return asdict(grid)


def grid_from_dict(data: dict) -> SweepGrid:
    """Rebuild a validated :class:`SweepGrid` from :func:`grid_to_dict`.

    Raises :class:`repro.errors.ConfigError` (via the SweepGrid
    constructor) on bad axes, unknown apps, or unknown platforms — the
    service returns these to the submitting client verbatim.
    """
    def names(field_name, default=None):
        v = data.get(field_name, default)
        return None if v is None else tuple(str(x) for x in v)

    def axis(field_name):
        v = data.get(field_name)
        return None if v is None else tuple(v)

    return SweepGrid(
        apps=names("apps", ("barnes-hut",)),
        versions=names("versions"),
        platforms=names("platforms", ("origin",)),
        l2_bytes=axis("l2_bytes"),
        line_sizes=axis("line_sizes"),
        page_sizes=axis("page_sizes"),
    )


# ---- group checkpoints -------------------------------------------------
#
# A completed group's rows persist as ``sweeps/<group-key>.json`` under
# the cache root.  Both the ``--resume`` path here and the job service
# treat these files as the source of result truth, so reads are
# *validated*: a torn or garbled checkpoint is moved aside (to
# ``sweeps/quarantine/``) and reported as missing, which makes resume
# regenerate exactly the damaged group and nothing else.


def write_group_checkpoint(path: Path, rows: list[dict]) -> None:
    """Atomically persist one group's result rows."""
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(path, json.dumps(rows))


def load_group_checkpoint(path: Path) -> list[dict] | None:
    """Validated checkpoint read: rows, or ``None`` if absent/damaged.

    Damage (unparseable JSON, or a payload that is not a list of row
    dicts) quarantines the file rather than deleting it, through the
    same :func:`repro.runtime.cache.quarantine_file` as damaged trace
    entries, concurrent movers included.
    """
    path = Path(path)
    try:
        rows = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except (OSError, ValueError, UnicodeDecodeError) as exc:
        _quarantine_checkpoint(path, f"unreadable checkpoint: {exc}")
        return None
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        _quarantine_checkpoint(path, "checkpoint payload is not a row list")
        return None
    return rows


def _quarantine_checkpoint(path: Path, reason: str) -> None:
    if quarantine_file(path, path.parent / "quarantine", reason) is not None:
        log.warning("sweep checkpoint %s quarantined (%s)", path.name, reason)


@dataclass(frozen=True)
class SweepGroup:
    """One (trace, geometry family) batch: a single worker task.

    The whole group replays its trace once per line-size family
    (``origin``) or once per protocol (DSM) regardless of how many grid
    points it covers.  ``compression`` is the codec of the trace's cache
    entry; rows do not depend on it, so it is not part of :meth:`key`.
    """

    app: str
    version: str
    platform: str
    l2_bytes: tuple[int, ...] | None = None
    line_sizes: tuple[int, ...] | None = None
    page_sizes: tuple[int, ...] | None = None
    compression: str = "none"

    def points(self) -> int:
        if self.platform == "origin":
            return len(self.l2_bytes or (0,)) * len(self.line_sizes or (0,))
        return len(self.page_sizes or (0,))

    def key(self, scale: Scale) -> str:
        """Stable id for executor task keys and resume checkpoints.

        ``hw_scale`` shapes only the Origin's caches, so only an
        ``origin`` group's key holds it.
        """
        inputs = {
            "axes": [self.l2_bytes, self.line_sizes, self.page_sizes],
            "n": scale.n[self.app],
            "iterations": scale.iterations[self.app],
            "nprocs": scale.nprocs,
            "seed": scale.seed,
        }
        if self.platform == "origin":
            inputs["hw_scale"] = scale.hw_scale
        blob = json.dumps(inputs, sort_keys=True)
        digest = hashlib.sha1(blob.encode()).hexdigest()[:10]
        return f"{self.app}_{self.version}_{self.platform}_{digest}"

    def trace_key(self, scale: Scale) -> CacheKey:
        """The cache key of the trace this group replays."""
        return _trace_key(self.app, self.version, scale, scale.nprocs,
                          self.compression)

    def to_dict(self) -> dict:
        """JSON-safe spec (tuples become lists; inverse of from_dict)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepGroup":
        def axis(name):
            v = data.get(name)
            return None if v is None else tuple(int(x) for x in v)

        return cls(
            app=data["app"], version=data["version"],
            platform=data["platform"],
            l2_bytes=axis("l2_bytes"), line_sizes=axis("line_sizes"),
            page_sizes=axis("page_sizes"),
            compression=data.get("compression", "none"),
        )


def _group_rows(trace, group: SweepGroup, scale: Scale) -> list[dict]:
    """All grid-point rows for one group, from batched one-pass sweeps."""
    from ..machines.dsm import simulate_dsm_sweep
    from ..machines.hardware import simulate_hardware_sweep
    from ..machines.params import cluster_scaled

    head = {
        "app": group.app,
        "version": group.version,
        "platform": group.platform,
        "nprocs": scale.nprocs,
    }
    rows = []
    if group.platform == "origin":
        base = scale.hardware()
        results = simulate_hardware_sweep(
            trace, base, l2_bytes=group.l2_bytes, line_sizes=group.line_sizes
        )
        for res in results:
            rows.append({
                **head,
                "line_size": res.params.line_size,
                "l2_bytes": res.params.l2_bytes,
                "l2_assoc": res.params.l2_assoc,
                "time": res.time,
                "l2_misses": res.total_l2_misses,
                "tlb_misses": res.total_tlb_misses,
                "invalidations": int(res.invalidations.sum()),
                "cold_misses": int(res.cold_misses.sum()),
                "coherence_misses": int(res.coherence_misses.sum()),
                "capacity_misses": int(res.capacity_misses.sum()),
            })
    else:
        base = cluster_scaled(nprocs=scale.nprocs)
        sizes = group.page_sizes or (base.page_size,)
        out = simulate_dsm_sweep(
            trace, base, sizes, protocols=(group.platform,)
        )[group.platform]
        for size in sizes:
            res = out[size]
            rows.append({
                **head,
                "page_size": size,
                "time": res.time,
                "messages": res.messages,
                "data_mbytes": res.data_mbytes,
                "page_fetches": int(res.page_fetches.sum()),
                "diff_fetches": int(res.diff_fetches.sum()),
            })
    return rows


def run_sweep_group(
    cache_root: str, group: SweepGroup, scale: Scale
) -> tuple[list[dict], tuple[int, int]]:
    """Executor worker: run one (trace, geometry family) batch.

    The trace is mmap-loaded from the persistent ``.npt`` cache (workers
    never receive traces over the pipe); a cache miss — prefetch skipped
    or cache cleared underneath us — falls back to generating in place,
    so the task stays idempotent.  Returns small per-point row dicts,
    plus the worker-side cache (hits, misses) for the parent's counters.
    """
    cache = TraceCache(cache_root)
    (trace,) = load_or_generate(cache, [group.trace_key(scale)], group.compression)
    return _group_rows(trace, group, scale), (cache.hits, cache.misses)


@dataclass
class SweepPlan:
    """Plan and execute a parameter-grid sweep.

    ``run()`` returns one row dict per grid point, ordered by
    (app, version, platform) then row-major over the geometry axes —
    independent of how many workers ran the groups.
    """

    grid: SweepGrid
    scale: Scale = field(default_factory=Scale)

    def groups(self, compression: str = "none") -> list[SweepGroup]:
        """The plan's groups, each reading a trace stored with
        ``compression``."""
        out = []
        for app in self.grid.apps:
            for version in self.grid.versions or versions_for(app):
                for platform in self.grid.platforms:
                    if platform == "origin":
                        axes = {"l2_bytes": self.grid.l2_bytes,
                                "line_sizes": self.grid.line_sizes}
                    else:
                        axes = {"page_sizes": self.grid.page_sizes}
                    out.append(SweepGroup(app, version, platform,
                                          compression=compression, **axes))
        return out

    def run(self) -> list[dict]:
        rt = get_runtime()
        groups = self.groups(rt.trace_compression if rt is not None else "none")
        if rt is None or rt.cache is None:
            traces = _memoize(g.trace_key(self.scale) for g in groups)
            return [row for g, trace in zip(groups, traces)
                    for row in _group_rows(trace, g, self.scale)]

        sweep_dir = Path(rt.cache.root) / "sweeps"
        keys = {g: g.key(self.scale) for g in groups}
        done: dict[str, list[dict]] = {}
        todo: list[SweepGroup] = []
        for g, key in keys.items():
            rows = (load_group_checkpoint(sweep_dir / f"{key}.json")
                    if rt.resume else None)
            if rows is not None:
                done[key] = rows
                log.info("sweep group %s: checkpoint hit", key)
            else:
                todo.append(g)

        if todo:
            _generate_missing(g.trace_key(self.scale) for g in todo)
            tasks = [
                Task(key=keys[g], fn=run_sweep_group,
                     args=(str(rt.cache.root), g, self.scale))
                for g in todo
            ]
            log.info("sweep: %d group(s) covering %d point(s) with %d job(s)",
                     len(tasks), sum(g.points() for g in todo), rt.executor.jobs)
            results = run_tasks(tasks, rt.executor, fault_plan=rt.fault_plan)
            for g in todo:
                rows, (hits, misses) = results[keys[g]]
                rt.cache.hits += hits
                rt.cache.misses += misses
                write_group_checkpoint(sweep_dir / f"{keys[g]}.json", rows)
                done[keys[g]] = rows
        return [row for g in groups for row in done[keys[g]]]


_AXIS_NAMES = {
    "l2_bytes": "l2_bytes",
    "l2": "l2_bytes",
    "line_size": "line_sizes",
    "line_sizes": "line_sizes",
    "page_size": "page_sizes",
    "page_sizes": "page_sizes",
}

_SUFFIX = {"": 1, "k": 1024, "m": 1024 * 1024}


def _parse_size(text: str) -> int:
    t = text.strip().lower()
    mult = 1
    if t and t[-1] in ("k", "m"):
        mult = _SUFFIX[t[-1]]
        t = t[:-1]
    try:
        return int(t) * mult
    except ValueError:
        raise ConfigError(
            f"bad grid value {text!r}; expected an integer with optional"
            " K/M suffix"
        ) from None


def parse_grid(specs: list[str]) -> dict[str, tuple[int, ...]]:
    """Parse CLI ``--grid AXIS=V1,V2,...`` specs into SweepGrid axes.

    Axes: ``l2_bytes`` (alias ``l2``), ``line_size``, ``page_size``.
    Values accept ``K``/``M`` suffixes: ``--grid l2=256K,1M``.
    """
    axes: dict[str, tuple[int, ...]] = {}
    for spec in specs:
        name, sep, values = spec.partition("=")
        key = _AXIS_NAMES.get(name.strip().lower())
        if not sep or key is None:
            raise ConfigError(
                f"bad grid spec {spec!r}; expected AXIS=V1,V2,... with AXIS"
                f" one of {sorted(set(_AXIS_NAMES))}"
            )
        axes[key] = tuple(_parse_size(v) for v in values.split(","))
    return axes
