"""Per-processor reference for the batched DSM front end.

:func:`repro.trace.layout.decode_epoch` decodes blocks of whole
processors with one unit conversion each, and
:mod:`repro.machines.dsm.intervals` builds every ladder level over flat
proc-major keys ``proc << pbits | page``.  These are the direct
statements they batch: one decode call per processor, and per processor
one ``np.unique`` for the accessed pages, one 3-key ``lexsort`` to
deduplicate the written ``(page, region, object)`` triples, and one
``np.unique`` per fold.  Ladder levels come back as per-processor lists
``(accesses, writes, ub, cross)``.
"""

from __future__ import annotations

import numpy as np

from repro.machines.dsm.intervals import EpochPageInfo
from repro.trace.layout import DecodedEpoch, Layout


def decode_epoch(epoch, layout: Layout, unit: int) -> DecodedEpoch:
    """One ``units_batch_bursts`` call per processor."""
    units: list[np.ndarray] = []
    counts: list[np.ndarray | None] = []
    for p in range(epoch.nprocs):
        lo, hi = int(epoch.offsets[p]), int(epoch.offsets[p + 1])
        if hi == lo:
            units.append(np.empty(0, dtype=np.int64))
            counts.append(None)
            continue
        b0, b1 = int(epoch.burst_offsets[p]), int(epoch.burst_offsets[p + 1])
        u, c = layout.units_batch_bursts(
            epoch.burst_region[b0:b1],
            epoch.burst_length[b0:b1],
            epoch.index[lo:hi],
            unit,
            return_counts=True,
        )
        units.append(u)
        counts.append(None if u.shape[0] == hi - lo else c)
    return DecodedEpoch(units=units, counts=counts)


def _write_accesses(epoch, p: int) -> tuple[np.ndarray, np.ndarray] | None:
    """``(region, index)`` of ``p``'s written accesses, or ``None``."""
    b0, b1 = int(epoch.burst_offsets[p]), int(epoch.burst_offsets[p + 1])
    bw = np.asarray(epoch.burst_write[b0:b1])
    if not bw.any():
        return None
    blen = epoch.burst_length[b0:b1]
    lo, hi = int(epoch.offsets[p]), int(epoch.offsets[p + 1])
    widx = np.asarray(epoch.index[lo:hi])[np.repeat(bw, blen)]
    wregs = np.repeat(
        np.asarray(epoch.burst_region[b0:b1], dtype=np.int64)[bw],
        np.asarray(blen)[bw],
    )
    return wregs, widx


def epoch_ladder(
    epoch, decoded: DecodedEpoch, layout: Layout, page_size: int
) -> tuple[list, list, list, list]:
    """Ladder columns at ``page_size``: (accesses, writes, ub, cross) per proc."""
    shift = page_size.bit_length() - 1
    bases = np.asarray(layout.bases, dtype=np.int64)
    osizes = np.fromiter(
        (r.object_size for r in layout.regions),
        dtype=np.int64,
        count=len(layout.regions),
    )
    empty = np.empty(0, np.int64)
    acc, wr, ub, cross = [], [], [], []
    for p in range(epoch.nprocs):
        units = decoded.units[p]
        acc.append(np.unique(units) if units.shape[0] else empty)
        wacc = _write_accesses(epoch, p)
        if wacc is None:
            wr.append(empty)
            ub.append(empty)
            cross.append(empty)
            continue
        wregs, widx = wacc
        sizes = osizes[wregs]
        start = bases[wregs] + widx * sizes
        first = start >> shift
        counts = ((start + sizes - 1) >> shift) - first + 1
        pages_e = np.repeat(first, counts)
        run_start = np.repeat(np.cumsum(counts) - counts, counts)
        pages_e += np.arange(pages_e.shape[0], dtype=np.int64) - run_start
        regs_e = np.repeat(wregs, counts)
        objs_e = np.repeat(widx, counts)
        order = np.lexsort((objs_e, regs_e, pages_e))
        pg, rg, ob = pages_e[order], regs_e[order], objs_e[order]
        fresh = np.empty(pg.shape[0], dtype=bool)
        fresh[0] = True
        fresh[1:] = (pg[1:] != pg[:-1]) | (rg[1:] != rg[:-1]) | (ob[1:] != ob[:-1])
        pg, rg, ob = pg[fresh], rg[fresh], ob[fresh]
        wpages, inverse = np.unique(pg, return_inverse=True)
        sz = osizes[rg]
        wb = np.bincount(inverse, weights=sz).astype(np.int64)
        crossing = ((bases[rg] + ob * sz) >> shift) < pg
        cx = np.bincount(
            inverse[crossing], weights=sz[crossing], minlength=wpages.shape[0]
        ).astype(np.int64)
        wr.append(wpages)
        ub.append(wb)
        cross.append(cx)
    return acc, wr, ub, cross


def fold_ladder(
    acc: list, wr: list, ub: list, cross: list
) -> tuple[list, list, list, list]:
    """One 2x fold of per-proc ladder columns (size s -> 2s)."""
    acc2 = [np.unique(a >> 1) if a.shape[0] else a for a in acc]
    wr2, ub2, cx2 = [], [], []
    for wp, b, cx in zip(wr, ub, cross):
        if wp.shape[0] == 0:
            wr2.append(wp)
            ub2.append(b)
            cx2.append(cx)
            continue
        u2, inverse = np.unique(wp >> 1, return_inverse=True)
        odd = (wp & 1).astype(bool)
        adj = b - np.where(odd, cx, 0)
        nb = np.bincount(inverse, weights=adj, minlength=u2.shape[0]).astype(
            np.int64
        )
        ncx = np.zeros(u2.shape[0], dtype=np.int64)
        even = ~odd
        ncx[inverse[even]] = cx[even]
        wr2.append(u2)
        ub2.append(nb)
        cx2.append(ncx)
    return acc2, wr2, ub2, cx2


def page_info(epoch, acc: list, wr: list, ub: list, page_size: int) -> EpochPageInfo:
    """Materialize one ladder level: cap the dirty bytes at the page size."""
    return EpochPageInfo(
        accesses=acc,
        writes=wr,
        write_bytes=[np.minimum(b, page_size) for b in ub],
        label=epoch.label,
        work=np.asarray(epoch.work, dtype=np.float64).copy(),
        lock_acquires=np.asarray(epoch.lock_acquires, dtype=np.int64).copy(),
    )


def build_intervals(trace, layout: Layout, page_size: int) -> list[EpochPageInfo]:
    """Per-epoch summaries from the per-processor decode and ladder."""
    out = []
    for epoch in trace.epochs:
        decoded = decode_epoch(epoch, layout, page_size)
        acc, wr, ub, _cross = epoch_ladder(epoch, decoded, layout, page_size)
        out.append(page_info(epoch, acc, wr, ub, page_size))
    return out
