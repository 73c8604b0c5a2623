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
:class:`SweepGrid` and groups grid points by trace — every platform and
point that reads one trace becomes one :class:`SweepGroup` — and
dispatches each group as one batched task through the
:mod:`repro.runtime` executor.  A task loads its trace once, runs the
Origin families, and then builds one interval ladder that TreadMarks
and HLRC both replay.  Workers load traces from
the persistent cache (mmap-backed ``.npt`` columns, so the fan-out does
not re-pickle multi-million-event traces) and return compact per-point
row dicts over the pipe.  Each (trace, platform) checkpoints as JSON
under the cache root; ``--resume`` skips it on the next run, and a task
carries only the platforms whose checkpoints are missing.

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
import numbers
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from ..apps import APP_REGISTRY
from ..errors import (
    ConfigError,
    SimulationInputError,
    UnknownAppError,
    UnknownPlatformError,
)
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
    if (not isinstance(values, (list, tuple))
            or not all(isinstance(v, numbers.Integral)
                       and not isinstance(v, bool) for v in values)):
        raise ConfigError(
            f"SweepGrid.{name} must be a list of integers, got {values!r}"
        )
    out = tuple(int(v) for v in values)
    if not out or any(v <= 0 for v in out):
        raise ConfigError(f"SweepGrid.{name} must be positive, got {values!r}")
    odd = [v for v in out if v & (v - 1)]
    if odd:
        raise ConfigError(f"SweepGrid.{name} must be powers of two, got {odd}")
    return out


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian parameter grid for a sweep.

    ``l2_bytes``/``line_sizes`` apply to the ``origin`` platform (one
    family per line size, capacities read off its miss curve);
    ``page_sizes`` applies to the DSM platforms (one folded interval
    ladder per trace).  ``versions=None`` means each app's paper
    orderings (:func:`repro.experiments.runner.versions_for`).  An axis
    left ``None`` sweeps just the platform's default geometry.  Every
    size must be a power of two; a platform named twice counts once.
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
        object.__setattr__(self, "platforms", tuple(dict.fromkeys(self.platforms)))
        for name in ("l2_bytes", "line_sizes", "page_sizes"):
            object.__setattr__(self, name, _as_sizes(name, getattr(self, name)))


def grid_to_dict(grid: SweepGrid) -> dict:
    """JSON-safe grid spec for the job-service protocol and journal."""
    return asdict(grid)


_GRID_FIELDS = tuple(f.name for f in fields(SweepGrid))


def grid_from_dict(data) -> SweepGrid:
    """Rebuild a validated :class:`SweepGrid` from :func:`grid_to_dict`.

    Accepts only an object whose keys are SweepGrid fields, with lists
    of names for ``apps``/``versions``/``platforms`` and lists of
    integers for the axes (a missing or ``null`` field takes its
    default).  Anything else, and every SweepGrid check, raises
    :class:`repro.errors.ConfigError`, which the service returns to the
    submitting client verbatim.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"grid must be an object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(_GRID_FIELDS))
    if unknown:
        raise ConfigError(
            f"unknown grid key(s) {unknown}; expected keys from"
            f" {list(_GRID_FIELDS)}"
        )
    spec = {k: v for k, v in data.items() if v is not None}
    for name in ("apps", "versions", "platforms"):
        v = spec.get(name)
        if v is None:
            continue
        if not isinstance(v, list) or not all(isinstance(x, str) for x in v):
            raise ConfigError(f"grid.{name} must be a list of names, got {v!r}")
        spec[name] = tuple(v)
    return SweepGrid(**spec)


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
    """One trace and the platforms it serves: a single worker task.

    ``platform`` names the group's platforms joined by ``+`` (e.g.
    ``origin+treadmarks+hlrc``; a single name for a one-platform group).
    The group loads its trace once, replays it once per line-size family
    for ``origin``, and builds one interval ladder for all its DSM
    protocols, however many grid points it covers.  Results checkpoint
    per platform, under the keys of :meth:`per_platform`.
    ``compression`` is the codec of the trace's cache entry; rows do not
    depend on it, so it is not part of :meth:`key`.
    """

    app: str
    version: str
    platform: str
    l2_bytes: tuple[int, ...] | None = None
    line_sizes: tuple[int, ...] | None = None
    page_sizes: tuple[int, ...] | None = None
    compression: str = "none"

    @property
    def platforms(self) -> tuple[str, ...]:
        return tuple(self.platform.split("+"))

    def with_platforms(self, platforms) -> "SweepGroup":
        """This trace's group narrowed to ``platforms``, carrying only
        the axes they sweep, so a one-platform group's key covers just
        its own axes."""
        platforms = tuple(platforms)
        origin = "origin" in platforms
        dsm = any(p != "origin" for p in platforms)
        return replace(
            self, platform="+".join(platforms),
            l2_bytes=self.l2_bytes if origin else None,
            line_sizes=self.line_sizes if origin else None,
            page_sizes=self.page_sizes if dsm else None,
        )

    def per_platform(self) -> list["SweepGroup"]:
        """One single-platform group per platform: the checkpoint units."""
        return [self.with_platforms((p,)) for p in self.platforms]

    def points(self) -> int:
        total = 0
        for p in self.platforms:
            if p == "origin":
                total += len(self.l2_bytes or (0,)) * len(self.line_sizes or (0,))
            else:
                total += len(self.page_sizes or (0,))
        return total

    def key(self, scale: Scale) -> str:
        """Stable id for executor task keys and resume checkpoints.

        ``hw_scale`` shapes only the Origin's caches, so only the key of
        a group with ``origin`` holds it.
        """
        inputs = {
            "axes": [self.l2_bytes, self.line_sizes, self.page_sizes],
            "n": scale.n[self.app],
            "iterations": scale.iterations[self.app],
            "nprocs": scale.nprocs,
            "seed": scale.seed,
        }
        if "origin" in self.platforms:
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
    """All grid-point rows for one group, from batched one-pass sweeps,
    in the order of ``group.platforms``."""
    from ..machines.dsm import simulate_dsm_sweep
    from ..machines.hardware import simulate_hardware_sweep
    from ..machines.params import cluster_scaled

    def head(platform):
        return {
            "app": group.app,
            "version": group.version,
            "platform": platform,
            "nprocs": scale.nprocs,
        }

    rows: dict[str, list[dict]] = {p: [] for p in group.platforms}
    if "origin" in rows:
        base = scale.hardware()
        results = simulate_hardware_sweep(
            trace, base, l2_bytes=group.l2_bytes, line_sizes=group.line_sizes
        )
        for res in results:
            rows["origin"].append({
                **head("origin"),
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
    protocols = [p for p in group.platforms if p != "origin"]
    if protocols:
        base = cluster_scaled(nprocs=scale.nprocs)
        sizes = group.page_sizes or (base.page_size,)
        out = simulate_dsm_sweep(trace, base, sizes, protocols=protocols)
        for name in protocols:
            for size in sizes:
                res = out[name][size]
                rows[name].append({
                    **head(name),
                    "page_size": size,
                    "time": res.time,
                    "messages": res.messages,
                    "data_mbytes": res.data_mbytes,
                    "page_fetches": int(res.page_fetches.sum()),
                    "diff_fetches": int(res.diff_fetches.sum()),
                })
    return [row for p in group.platforms for row in rows[p]]


def run_sweep_group(
    cache_root: str, group: SweepGroup, scale: Scale
) -> tuple[list[dict], tuple[int, int]]:
    """Executor worker: run one trace's batch for every platform of
    ``group``.

    The trace is mmap-loaded once from the persistent ``.npt`` cache
    (workers never receive traces over the pipe); a cache miss —
    prefetch skipped or cache cleared underneath us — falls back to
    generating in place, so the task stays idempotent.  Returns small
    per-point row dicts in the order of ``group.platforms``, plus the
    worker-side cache (hits, misses) for the parent's counters.
    """
    cache = TraceCache(cache_root)
    (trace,) = load_or_generate(cache, [group.trace_key(scale)], group.compression)
    return _group_rows(trace, group, scale), (cache.hits, cache.misses)


@dataclass
class SweepPlan:
    """Plan and execute a parameter-grid sweep.

    ``run()`` returns one row dict per grid point, ordered by
    (app, version, platform) then row-major over the geometry axes —
    independent of how many workers ran the groups.  Construction checks
    every Origin (L2 capacity, line size) point against
    ``scale.hardware()``, so a grid the one-pass L2 sweep cannot serve
    raises :class:`repro.errors.ConfigError` before any trace is
    generated.
    """

    grid: SweepGrid
    scale: Scale = field(default_factory=Scale)

    def __post_init__(self) -> None:
        if "origin" not in self.grid.platforms:
            return
        from ..machines.hardware import sweep_family

        base = self.scale.hardware()
        for line_size in self.grid.line_sizes or (base.line_size,):
            try:
                sweep_family(base, line_size,
                             self.grid.l2_bytes or (base.l2_bytes,))
            except SimulationInputError as exc:
                raise ConfigError(f"bad Origin sweep axes: {exc}") from None

    def groups(self, compression: str = "none") -> list[SweepGroup]:
        """The plan's tasks, one per trace, each reading a trace stored
        with ``compression`` and carrying every platform of the grid."""
        return [
            SweepGroup(app, version, "+".join(self.grid.platforms),
                       l2_bytes=self.grid.l2_bytes,
                       line_sizes=self.grid.line_sizes,
                       page_sizes=self.grid.page_sizes,
                       compression=compression
                       ).with_platforms(self.grid.platforms)
            for app in self.grid.apps
            for version in self.grid.versions or versions_for(app)
        ]

    def run(self) -> list[dict]:
        rt = get_runtime()
        groups = self.groups(rt.trace_compression if rt is not None else "none")
        if rt is None or rt.cache is None:
            traces = _memoize(g.trace_key(self.scale) for g in groups)
            return [row for g, trace in zip(groups, traces)
                    for row in _group_rows(trace, g, self.scale)]

        sweep_dir = Path(rt.cache.root) / "sweeps"
        done: dict[SweepGroup, list[dict]] = {}
        todo: list[SweepGroup] = []
        for g in groups:
            missing = []
            for part in g.per_platform():
                key = part.key(self.scale)
                rows = (load_group_checkpoint(sweep_dir / f"{key}.json")
                        if rt.resume else None)
                if rows is not None:
                    done[part] = rows
                    log.info("sweep group %s: checkpoint hit", key)
                else:
                    missing.append(part.platform)
            if missing:
                todo.append(g.with_platforms(missing))

        if todo:
            _generate_missing(g.trace_key(self.scale) for g in todo)
            tasks = [
                Task(key=g.key(self.scale), fn=run_sweep_group,
                     args=(str(rt.cache.root), g, self.scale))
                for g in todo
            ]
            log.info("sweep: %d task(s) covering %d point(s) with %d job(s)",
                     len(tasks), sum(g.points() for g in todo), rt.executor.jobs)
            results = run_tasks(tasks, rt.executor, fault_plan=rt.fault_plan)
            for g, task in zip(todo, tasks):
                rows, (hits, misses) = results[task.key]
                rt.cache.hits += hits
                rt.cache.misses += misses
                for part in g.per_platform():
                    done[part] = [r for r in rows
                                  if r["platform"] == part.platform]
                    write_group_checkpoint(
                        sweep_dir / f"{part.key(self.scale)}.json", done[part])
        return [row for g in groups for part in g.per_platform()
                for row in done[part]]


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
