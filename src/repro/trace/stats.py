"""Trace statistics: page sharing, footprints, access breakdowns.

These implement the paper's diagnostic figures directly:

* Figure 1 / Figure 4 — which pages each processor *updates* (the particle
  update map, before and after Hilbert reordering);
* Figure 2 / Figure 5 — the number of processors sharing (updating) each
  page of the particle array, before and after reordering;

plus generic helpers reused by the machine models.

All helpers consume traces through ``epoch.flat(proc)`` — an O(1) view —
and the trace-level accumulators share decoded unit streams with the
simulators through the per-trace decode memo
(:func:`repro.trace.layout.decode_memo`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import PackedEpoch, Trace
from .layout import Layout, decode_memo

__all__ = [
    "page_write_sets",
    "page_read_sets",
    "page_sharers",
    "mean_sharers",
    "update_map",
    "footprint",
    "access_counts",
    "proc_unit_sets",
]


def proc_unit_sets(
    epoch: PackedEpoch,
    layout: Layout,
    unit: int,
    *,
    writes_only: bool = False,
    reads_only: bool = False,
) -> list[np.ndarray]:
    """Per-processor sorted unique consistency-unit ids touched in ``epoch``.

    The workhorse behind both the statistics and the DSM interval models.
    """
    if writes_only and reads_only:
        raise ValueError("writes_only and reads_only are mutually exclusive")
    out: list[np.ndarray] = []
    for p in range(epoch.nprocs):
        regs, idx, writes = epoch.flat(p)
        if writes_only or reads_only:
            sel = writes if writes_only else ~writes
            regs = regs[sel]
            idx = idx[sel]
        if idx.shape[0]:
            out.append(np.unique(layout.units_batch(regs, idx, unit)))
        else:
            out.append(np.empty(0, dtype=np.int64))
    return out


def _accumulate_sharers(
    trace: Trace, layout: Layout, page_size: int, writes_only: bool
) -> dict[int, set[int]]:
    # Reuse the memoized full-stream decode (shared with the simulators)
    # and filter writes on the expanded stream.
    memo = decode_memo(trace)
    sharers: dict[int, set[int]] = {}
    for ei, epoch in enumerate(trace.epochs):
        decoded = memo.epoch(layout, page_size, ei)
        for p in range(trace.nprocs):
            units = decoded.units[p]
            if writes_only and units.shape[0]:
                units = units[decoded.expand(p, epoch.write_flags(p))]
            for pg in np.unique(units).tolist():
                sharers.setdefault(pg, set()).add(p)
    return sharers


def page_write_sets(trace: Trace, layout: Layout, page_size: int) -> dict[int, set[int]]:
    """Map page id -> set of processors that *write* it anywhere in the run."""
    return _accumulate_sharers(trace, layout, page_size, writes_only=True)


def page_read_sets(trace: Trace, layout: Layout, page_size: int) -> dict[int, set[int]]:
    """Map page id -> set of processors that access it anywhere in the run."""
    return _accumulate_sharers(trace, layout, page_size, writes_only=False)


def page_sharers(
    trace: Trace,
    layout: Layout,
    region: str | int,
    page_size: int,
    *,
    writes_only: bool = True,
) -> np.ndarray:
    """Processors sharing each page of a region (paper Figures 2 and 5).

    Returns one count per page of ``region``, in address order.  With
    ``writes_only`` (default) a processor counts as sharing a page if it
    *updates* any object on it — the quantity plotted by the paper, where
    false sharing is caused by concurrent writers.
    """
    if isinstance(region, str):
        region = trace.region_id(region)
    sets = (page_write_sets if writes_only else page_read_sets)(trace, layout, page_size)
    pages = layout.region_pages(region, page_size)
    return np.array([len(sets.get(int(pg), ())) for pg in pages], dtype=np.int64)


def mean_sharers(counts: np.ndarray) -> float:
    """Average sharers per page, over pages that are touched at all."""
    counts = np.asarray(counts)
    touched = counts[counts > 0]
    return float(touched.mean()) if touched.size else 0.0


def update_map(
    trace: Trace, layout: Layout, region: str | int
) -> np.ndarray:
    """Which processor updates each object of a region (paper Figures 1/4).

    Returns an ``(num_objects,)`` int array: the processor that writes each
    object (-1 if never written; if several write it, the lowest-numbered —
    in the paper's benchmarks object ownership is unique per iteration).
    """
    if isinstance(region, str):
        region = trace.region_id(region)
    n = trace.regions[region].num_objects
    owner = np.full(n, -1, dtype=np.int64)
    for epoch in trace.epochs:
        # Descending processor order so the lowest-numbered writer wins.
        for p in range(trace.nprocs - 1, -1, -1):
            regs, idx, writes = epoch.flat(p)
            sel = writes & (regs == region)
            if sel.any():
                owner[idx[sel]] = p
    return owner


def footprint(
    trace: Trace, layout: Layout, unit: int, proc: int | None = None
) -> int:
    """Number of distinct consistency units touched (by one proc or all)."""
    chunks: list[np.ndarray] = []
    for epoch in trace.epochs:
        procs = range(trace.nprocs) if proc is None else [proc]
        for p in procs:
            regs, idx, _writes = epoch.flat(p)
            if idx.shape[0]:
                chunks.append(np.unique(layout.units_batch(regs, idx, unit)))
    if not chunks:
        return 0
    return int(np.unique(np.concatenate(chunks)).shape[0])


@dataclass(frozen=True)
class AccessCounts:
    """Read/write access totals per processor."""

    reads: np.ndarray
    writes: np.ndarray

    @property
    def total(self) -> int:
        return int(self.reads.sum() + self.writes.sum())


def access_counts(trace: Trace) -> AccessCounts:
    """Count object-granularity reads and writes per processor."""
    reads = np.zeros(trace.nprocs, dtype=np.int64)
    writes = np.zeros(trace.nprocs, dtype=np.int64)
    for epoch in trace.epochs:
        for p in range(trace.nprocs):
            _regs, _idx, wflags = epoch.flat(p)
            w = int(np.count_nonzero(wflags))
            writes[p] += w
            reads[p] += wflags.shape[0] - w
    return AccessCounts(reads=reads, writes=writes)
