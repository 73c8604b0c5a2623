"""Interval (epoch) page-access summaries for the DSM protocol models.

Lazy release consistency lets the protocol models work from per-interval
page-level summaries instead of full access streams: between two barriers
what matters is *which pages* each processor read or wrote and *how many
bytes* of each page it dirtied (the diff payload).  This module reduces a
:class:`repro.trace.Trace` to exactly that.

Page ids here are global page indices within the trace's :class:`Layout`
(which places regions from address zero), so they index dense per-page state
arrays in the protocol models.

All processors are summarized at once, as sorted proc-major keys
``proc << pbits | page`` built per block of whole processors.  An
:class:`EpochPageInfo` keeps them as flat read-only proc-major columns
with per-processor bounds, which the protocol folds read directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ...errors import ConfigError, SimulationInputError
from ...trace.events import PackedEpoch, Trace
from ...trace.layout import DecodedEpoch, DecodeMemo, Layout, decode_memo
from ...trace.layout import _expand_units, epoch_blocks

__all__ = ["EpochPageInfo", "build_intervals", "build_interval_ladder", "total_pages"]


@dataclass
class EpochPageInfo:
    """Page-level summary of one epoch, as flat proc-major columns.

    * ``acc_pages`` — pages touched (read or write), each processor's run
      sorted and unique; processor ``p``'s run is
      ``acc_pages[acc_bounds[p]:acc_bounds[p + 1]]``;
    * ``wr_pages`` — pages written, split by ``wr_bounds`` the same way;
    * ``wr_bytes`` — dirtied bytes per written page, aligned with
      ``wr_pages`` (distinct objects written x object size, capped at the
      page size — a run-length-encoded diff cannot exceed the page);
    * ``npages`` — pages in the layout the summary was built on, at its
      page size; every page id is below it;
    * ``label`` — the phase label of the epoch;
    * ``work``, ``lock_acquires`` — carried through for the timing model.

    ``accesses``, ``writes`` and ``write_bytes`` are the same columns as
    per-processor lists of read-only views.
    """

    acc_pages: np.ndarray
    acc_bounds: tuple[int, ...]
    wr_pages: np.ndarray
    wr_bytes: np.ndarray
    wr_bounds: tuple[int, ...]
    npages: int
    label: str
    work: np.ndarray
    lock_acquires: np.ndarray

    @property
    def nprocs(self) -> int:
        return len(self.acc_bounds) - 1

    @property
    def accesses(self) -> list[np.ndarray]:
        return _split(self.acc_pages, self.acc_bounds)

    @property
    def writes(self) -> list[np.ndarray]:
        return _split(self.wr_pages, self.wr_bounds)

    @property
    def write_bytes(self) -> list[np.ndarray]:
        return _split(self.wr_bytes, self.wr_bounds)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _split(values: np.ndarray, bounds: tuple[int, ...]) -> list[np.ndarray]:
    return [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def total_pages(layout: Layout, page_size: int) -> int:
    """Number of pages the layout's address space spans."""
    return -(-max(layout.total_bytes, 1) // page_size)


def build_intervals(
    trace: Trace, layout: Layout | None = None, page_size: int = 4096
) -> tuple[list[EpochPageInfo], Layout]:
    """Summarize every epoch of ``trace`` at ``page_size`` granularity.

    The summaries are built vectorized from the memoized page decode and
    cached on the trace's decode memo keyed by geometry — so running
    TreadMarks and HLRC (or repeating a sweep point) builds the intervals
    once.
    """
    if layout is None:
        layout = Layout.for_trace(trace, align=page_size)
    memo = decode_memo(trace)
    key = ("intervals", DecodeMemo.geometry_key(layout, page_size))

    def _build() -> list[EpochPageInfo]:
        return [
            _epoch_info_packed(
                epoch, memo.epoch(layout, page_size, ei), layout, page_size
            )
            for ei, epoch in enumerate(trace.epochs)
        ]

    return memo.derived(key, _build), layout


# ---------------------------------------------------------------------------
# Page-size ladders: intervals at every size from one finest-level pass
# ---------------------------------------------------------------------------
#
# Pages at size ``2s`` are pairs of size-``s`` pages, so every per-epoch
# summary folds upward instead of being rebuilt per sweep point.  Page sets
# fold by ``page -> page >> 1`` inside the proc-major key, which keeps the
# keys sorted.  The capped ``write_bytes`` do NOT fold (an object straddling
# the sibling boundary is counted in both children, and ``min(., s)`` would
# apply at the wrong level), so each written page carries two *uncapped*
# columns: ``ub``, its distinct-object byte sum, and ``cross``, the bytes of
# written objects crossing its left boundary.  By inclusion–exclusion over
# the sibling boundary (objects are contiguous byte runs, so an object
# touches both children iff it crosses the left boundary of ``2P+1``):
#
#     ub2[P] = ub[2P] + ub[2P+1] - cross[2P+1],    cross2[P] = cross[2P]
#
# The page-size cap is applied only when a level is materialized.


_EMPTY = np.empty(0, dtype=np.int64)


def _key_bits(nprocs: int, extent: int, what: str) -> int:
    """Width of ``x`` in proc-major keys ``proc << bits | x``, ``x < extent``."""
    bits = extent.bit_length()
    if nprocs << bits > np.iinfo(np.int64).max:
        msg = f"keys of {nprocs} processors over {extent} {what} overflow int64"
        raise SimulationInputError(msg)
    return bits


class _Level(NamedTuple):
    """One ladder level of an epoch: sorted unique proc-major keys
    ``proc << pbits | page`` of the accessed (``acc``) and written (``wr``)
    pages, with ``ub``/``cross`` aligned to ``wr``.  All read-only."""

    acc: np.ndarray
    wr: np.ndarray
    ub: np.ndarray
    cross: np.ndarray
    pbits: int


def _level(columns: list[np.ndarray], pbits: int) -> _Level:
    return _Level(*map(_read_only, columns), pbits)


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Start positions of the runs of equal keys in a sorted array."""
    fresh = np.empty(keys.shape[0], dtype=bool)
    fresh[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    return np.flatnonzero(fresh)


def _epoch_ladder_packed(
    epoch: PackedEpoch, decoded: DecodedEpoch, layout: Layout, page_size: int
) -> _Level:
    """Ladder level at ``page_size``, one block of processors at a time:
    accessed pages are deduplicated through one boolean ``(proc, page)``
    table per block, written objects by one ``np.unique`` over
    ``proc << abits | start_byte`` (regions are disjoint, so an object is
    its start byte)."""
    shift = page_size.bit_length() - 1
    pbits = _key_bits(epoch.nprocs, total_pages(layout, page_size), "pages")
    abits = _key_bits(epoch.nprocs, layout.total_bytes, "bytes")
    bases = np.asarray(layout.bases, dtype=np.int64)
    osizes = layout._object_sizes()
    offsets = np.asarray(epoch.offsets, dtype=np.int64)
    boffs = np.asarray(epoch.burst_offsets, dtype=np.int64)
    acc, wr, ub, cross = [], [], [], []
    for lo, hi in epoch_blocks(epoch):
        a0, a1 = int(offsets[lo]), int(offsets[hi])
        if a1 == a0:
            continue
        units = decoded.units[lo:hi]
        lens = np.fromiter((u.shape[0] for u in units), np.int64, hi - lo)
        slot = np.concatenate(units)
        slot += np.repeat(np.arange(hi - lo, dtype=np.int64) << pbits, lens)
        table = np.zeros((hi - lo) << pbits, dtype=bool)
        table[slot] = True
        acc.append(np.flatnonzero(table) + (lo << pbits))

        b0, b1 = int(boffs[lo]), int(boffs[hi])
        bw = np.asarray(epoch.burst_write[b0:b1], dtype=bool)
        if not bw.any():
            continue
        blen = np.asarray(epoch.burst_length[b0:b1], dtype=np.int64)
        bproc = np.arange(lo, hi, dtype=np.int64)
        bproc = np.repeat(bproc, np.diff(boffs[lo : hi + 1]))[bw]
        breg = np.asarray(epoch.burst_region[b0:b1], dtype=np.int64)[bw]
        wlen = blen[bw]
        widx = np.asarray(epoch.index[a0:a1])[np.repeat(bw, blen)]
        objs = np.repeat((bproc << abits) + bases[breg], wlen)
        objs += widx * np.repeat(osizes[breg], wlen)
        objs = np.unique(objs)
        start = objs & ((1 << abits) - 1)
        size = osizes[np.searchsorted(bases, start, side="right") - 1]
        first = start >> shift
        span = ((start + size - 1) >> shift) - first
        first += (objs >> abits) << pbits
        # Distinct objects are disjoint byte runs in (proc, start) order, so
        # their expanded page keys come out sorted: no sort is needed to sum
        # ``ub`` and ``cross`` over runs of equal keys.
        keys, npages = _expand_units(first, span, return_counts=True)
        starts = _run_starts(keys)
        sizes = np.repeat(size, npages)
        wr.append(keys[starts])
        ub.append(np.add.reduceat(sizes, starts))
        sizes[np.cumsum(npages) - npages] = 0  # an object's first page
        cross.append(np.add.reduceat(sizes, starts))
    return _level([np.concatenate([_EMPTY, *c]) for c in (acc, wr, ub, cross)], pbits)


def _page_info(
    epoch: PackedEpoch, level: _Level, layout: Layout, page_size: int
) -> EpochPageInfo:
    """Materialize one ladder level: strip the processor bits from the
    proc-major keys, cap the dirty bytes at the page size and find each
    processor's bounds.  The bounds are kept as tuples: small numpy
    buffers that live as long as the memo pin the malloc heap between
    the large transient arrays of a sweep (with them, the peak RSS of a
    warm perfbench ``geometry_sweep`` run was ~6 MB higher)."""
    pmask = (1 << level.pbits) - 1
    procs = np.arange(epoch.nprocs + 1, dtype=np.int64) << level.pbits
    return EpochPageInfo(
        acc_pages=_read_only(level.acc & pmask),
        acc_bounds=tuple(np.searchsorted(level.acc, procs).tolist()),
        wr_pages=_read_only(level.wr & pmask),
        wr_bytes=_read_only(np.minimum(level.ub, page_size)),
        wr_bounds=tuple(np.searchsorted(level.wr, procs).tolist()),
        npages=total_pages(layout, page_size),
        label=epoch.label,
        work=np.asarray(epoch.work, dtype=np.float64).copy(),
        lock_acquires=np.asarray(epoch.lock_acquires, dtype=np.int64).copy(),
    )


def _epoch_info_packed(
    epoch: PackedEpoch, decoded: DecodedEpoch, layout: Layout, page_size: int
) -> EpochPageInfo:
    """Page-level summary of one epoch (one ladder level, materialized)."""
    level = _epoch_ladder_packed(epoch, decoded, layout, page_size)
    return _page_info(epoch, level, layout, page_size)


def _fold_ladder(level: _Level) -> _Level:
    """One 2x fold of a ladder level (size s -> 2s), sort-free: halving
    the page inside the key keeps the keys sorted, so each new page is a
    run of at most two old ones."""
    pmask = (1 << level.pbits) - 1
    # page - ceil(page / 2) == page >> 1, leaving the processor bits alone.
    acc = level.acc - ((level.acc & pmask) + 1 >> 1)
    wr = level.wr - ((level.wr & pmask) + 1 >> 1)
    starts = _run_starts(wr)
    odd = (level.wr & 1).astype(bool)
    ub = np.add.reduceat(level.ub - np.where(odd, level.cross, 0), starts)
    cross = np.where(odd[starts], 0, level.cross[starts])  # the even child's
    return _level([acc[_run_starts(acc)], wr[starts], ub, cross], level.pbits)


def build_interval_ladder(
    trace: Trace,
    page_sizes,
    layout: Layout | None = None,
) -> tuple[dict[int, list[EpochPageInfo]], Layout]:
    """Summaries for every page size in ``page_sizes`` from one pass.

    ``page_sizes`` must be powers of two; the trace is summarized once at
    the finest size and folded upward through the 2x hierarchy, emitting
    an :func:`build_intervals`-identical list at each requested size.
    All sizes share one :class:`Layout` (aligned to the largest size —
    region bases are then aligned at *every* swept size, so per-page
    counters match what a per-size default layout would produce).  Each
    materialized level is registered in the trace's decode memo under the
    same key :func:`build_intervals` uses, so later per-size calls with
    this layout are cache hits, and a later ladder whose sizes are all
    memoized skips the finest-level pass.
    """
    sizes = sorted({int(s) for s in page_sizes})
    if not sizes:
        raise ConfigError("page_sizes must be non-empty")
    for s in sizes:
        if s < 1 or s & (s - 1):
            raise ConfigError(f"page sizes must be powers of two, got {s}")
    if layout is None:
        layout = Layout.for_trace(trace, align=sizes[-1])
    memo = decode_memo(trace)
    keys = {s: ("intervals", DecodeMemo.geometry_key(layout, s)) for s in sizes}
    if all(k in memo for k in keys.values()):
        return {s: memo.derived(k, None) for s, k in keys.items()}, layout
    finest = sizes[0]
    levels = [
        _epoch_ladder_packed(epoch, memo.epoch(layout, finest, ei), layout, finest)
        for ei, epoch in enumerate(trace.epochs)
    ]
    out: dict[int, list[EpochPageInfo]] = {}
    size = finest
    while True:
        if size in sizes:
            def _materialize(levels=levels, cap=size) -> list[EpochPageInfo]:
                return [
                    _page_info(epoch, level, layout, cap)
                    for epoch, level in zip(trace.epochs, levels)
                ]

            out[size] = memo.derived(keys[size], _materialize)
        if size >= sizes[-1]:
            break
        levels = [_fold_ladder(level) for level in levels]
        size *= 2
    return out, layout
