"""Ablation studies for the design choices the paper argues informally.

* :func:`page_size_sweep` — the Hilbert/column crossover versus coherence
  unit size (sections 3.4 and 5.3.2): column ordering wins at page
  granularity, Hilbert at cache-line granularity.
* :func:`object_size_sweep` — the Water-Spatial rationale (section 5.1):
  once an object is much larger than the consistency unit there is no false
  sharing for reordering to remove.
* :func:`curve_quality` — Hilbert vs Morton vs column locality of spatial
  neighbours in the reordered array.
* :func:`sequential_locality` — single-processor TLB/L2 behaviour of
  traversal order vs memory order (the Table 2 single-processor columns).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..apps import AppConfig
from ..apps.moldyn import Moldyn
from ..apps.barnes_hut import BarnesHut
from ..machines.dsm import simulate_dsm_sweep
from ..machines.kernels import lru_kernel
from ..machines.params import cluster_scaled
from ..runtime.context import get_runtime
from .runner import Scale
from .sweep import SweepGrid, SweepPlan

__all__ = [
    "page_size_sweep",
    "object_size_sweep",
    "curve_quality",
    "sequential_locality",
]


def page_size_sweep(
    n: int = 2048,
    nprocs: int = 16,
    page_sizes: tuple[int, ...] = (128, 512, 2048, 8192),
    *,
    seed: int = 42,
    iterations: int = 3,
) -> list[dict]:
    """Moldyn TreadMarks traffic vs consistency-unit size, per ordering.

    The paper's crossover: with large units column ordering beats Hilbert
    (slab boundaries land on few pages); with cache-line-sized units the
    slab's larger surface loses to the Hilbert cube.

    Each ordering's trace is replayed once: interval summaries are built
    at the finest page size and folded up the 2x ladder, so adding sweep
    points costs protocol replay only.  With a runtime installed the two
    orderings run as parallel :class:`repro.experiments.sweep.SweepPlan`
    groups; per-point numbers are identical either way.
    """
    versions = ("column", "hilbert")
    sizes = tuple(int(p) for p in page_sizes)
    rt = get_runtime()
    if rt is not None and rt.cache is not None:
        # Sweep-planner path: one batched (trace, page-ladder) group per
        # ordering, dispatched through the executor with checkpointing.
        base = Scale()
        scale = replace(
            base,
            n={**base.n, "moldyn": n},
            iterations={**base.iterations, "moldyn": iterations},
            nprocs=nprocs,
            seed=seed,
        )
        grid = SweepGrid(
            apps=("moldyn",), versions=versions,
            platforms=("treadmarks",), page_sizes=sizes,
        )
        cells = {
            (r["version"], r["page_size"]): r
            for r in SweepPlan(grid, scale).run()
        }
        rows = []
        for page in sizes:
            row = {"page_size": page}
            for version in versions:
                row[f"{version}_messages"] = cells[(version, page)]["messages"]
                row[f"{version}_mbytes"] = cells[(version, page)]["data_mbytes"]
            rows.append(row)
        return rows
    # No runtime installed: build the two traces in-process; one folded
    # interval ladder per ordering still serves every page size.
    params = cluster_scaled(nprocs=nprocs)
    sweeps = {}
    for version in versions:
        app = Moldyn(AppConfig(n=n, nprocs=nprocs, iterations=iterations, seed=seed))
        app.reorder(version)
        sweeps[version] = simulate_dsm_sweep(
            app.run(), params, sizes, protocols=("treadmarks",)
        )["treadmarks"]
    rows = []
    for page in sizes:
        row = {"page_size": page}
        for version in versions:
            res = sweeps[version][page]
            row[f"{version}_messages"] = res.messages
            row[f"{version}_mbytes"] = res.data_mbytes
        rows.append(row)
    return rows


def object_size_sweep(
    n: int = 2048,
    nprocs: int = 16,
    object_sizes: tuple[int, ...] = (32, 72, 128, 256, 680),
    *,
    line_size: int = 128,
    seed: int = 42,
) -> list[dict]:
    """False-sharing exposure vs object size at fixed line size.

    Counts, for the Barnes-Hut update pattern, the cache lines written by
    more than one processor: as the object grows past the line size the
    count collapses regardless of ordering — the paper's explanation for
    Water-Spatial's insensitivity on the Origin.
    """
    from .figures import barnes_update_pages

    rows = []
    for osize in object_sizes:
        row = {"object_size": osize}
        for version in ("original", "hilbert"):
            line, owner = barnes_update_pages(
                n, nprocs, seed=seed, version=version, object_size=osize, page_size=line_size
            )
            nlines = int(line.max()) + 1
            # A line is falsely shared when >1 distinct owner writes it:
            # dedup (line, owner) pairs in one pass and count lines with
            # more than one surviving pair.
            span = np.int64(owner.max()) + 1
            pairs = np.unique(line.astype(np.int64) * span + owner)
            per_line = np.bincount(pairs // span, minlength=nlines)
            row[f"{version}_shared_lines"] = int(np.count_nonzero(per_line > 1))
            row[f"{version}_lines"] = nlines
        rows.append(row)
    return rows


@dataclass(frozen=True)
class CurveQuality:
    ordering: str
    mean_neighbor_gap: float  # mean |rank difference| of spatial neighbours
    page_spread: float  # mean distinct pages holding a molecule's partners


def curve_quality(
    n: int = 2048,
    *,
    seed: int = 42,
    object_size: int = 72,
    page_size: int = 4096,
) -> list[CurveQuality]:
    """Locality quality of each ordering over Moldyn's neighbour structure.

    A thin wrapper over :func:`repro.core.metrics.ordering_report` bound to
    the Moldyn interaction list (the structure behind the paper's Figure 6).
    """
    from ..core.metrics import ordering_report

    app = Moldyn(AppConfig(n=n, nprocs=1, iterations=1, seed=seed))
    rows = ordering_report(
        app.positions(),
        app.pairs,
        object_size=object_size,
        page_size=page_size,
        include_original=False,
    )
    return [
        CurveQuality(
            ordering=r.ordering,
            mean_neighbor_gap=r.neighbor_rank_gap,
            page_spread=r.partner_page_spread,
        )
        for r in rows
    ]


def sequential_locality(
    n: int = 2048,
    *,
    seed: int = 42,
    tlb_entries: int = 64,
    page_size: int = 16384,
    iterations: int = 1,
) -> dict[str, dict[str, int]]:
    """Single-processor traversal locality, original vs Hilbert order.

    Replays the one-processor Barnes-Hut trace through a standalone TLB —
    the isolated mechanism behind Table 2's single-processor TLB column.
    """
    out: dict[str, dict[str, int]] = {}
    for version in ("original", "hilbert"):
        app = BarnesHut(AppConfig(n=n, nprocs=1, iterations=iterations, seed=seed))
        if version != "original":
            app.reorder(version)
        trace = app.run()
        from ..trace.layout import Layout

        layout = Layout.for_trace(trace, align=page_size)
        streams = [np.empty(0, dtype=np.int64)]
        for epoch in trace.epochs:
            # One batched unit conversion per epoch over the column views;
            # runs are collapsed within each burst, never across bursts.
            regs, idx, _ = epoch.flat(0)
            if regs.shape[0] == 0:
                continue
            b0, b1 = int(epoch.burst_offsets[0]), int(epoch.burst_offsets[1])
            lens = np.asarray(epoch.burst_length[b0:b1], dtype=np.int64)
            pages, counts = layout.units_batch(
                regs, idx, page_size, return_counts=True
            )
            bid = np.repeat(np.repeat(np.arange(lens.shape[0]), lens), counts)
            keep = np.empty(pages.shape[0], dtype=bool)
            keep[0] = True
            np.logical_or(
                pages[1:] != pages[:-1], bid[1:] != bid[:-1], out=keep[1:]
            )
            streams.append(pages[keep])
        # The TLB is never invalidated, so the epochs replay as one stream.
        stream = np.concatenate(streams)
        misses = lru_kernel(stream, tlb_entries).misses
        accesses = stream.shape[0]
        out[version] = {"tlb_misses": misses, "accesses": accesses}
    return out
