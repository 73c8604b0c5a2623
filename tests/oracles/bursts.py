"""Per-burst reference decoders for the columnar trace fast paths.

The production decoders (the decode memo, read per processor through
:func:`oracles.hardware._proc_streams_packed`, and
:func:`repro.machines.dsm.intervals._epoch_ladder_packed`) work on whole
column slices at once.  These oracles restate the same
quantities one burst and one object at a time, straight from the
definitions: an object of ``size`` bytes at ``base + index * size`` covers
every unit from its first byte's to its last byte's.  They are slow and
only meant for the small randomized programs of the property tests.
"""

from __future__ import annotations

import numpy as np
from oracles.intervals import from_lists

from repro.machines.dsm.intervals import EpochPageInfo, total_pages


def bursts(epoch, proc: int) -> list[tuple[int, bool, np.ndarray]]:
    """``proc``'s bursts in program order as ``(region, is_write, indices)``."""
    b0, b1 = int(epoch.burst_offsets[proc]), int(epoch.burst_offsets[proc + 1])
    pos = int(epoch.offsets[proc])
    out = []
    for j in range(b0, b1):
        n = int(epoch.burst_length[j])
        idx = np.asarray(epoch.index[pos : pos + n], dtype=np.int64)
        out.append((int(epoch.burst_region[j]), bool(epoch.burst_write[j]), idx))
        pos += n
    return out


def object_units(layout, region: int, obj: int, unit: int) -> range:
    """Units covered by one object, first byte to last byte."""
    size = layout.regions[region].object_size
    start = layout.bases[region] + obj * size
    return range(start // unit, (start + size - 1) // unit + 1)


def burst_units(layout, region: int, indices, unit: int) -> np.ndarray:
    """Unit stream of one burst: every object's units, in access order."""
    out = [u for obj in np.asarray(indices).tolist()
           for u in object_units(layout, region, obj, unit)]
    return np.array(out, dtype=np.int64)


def proc_streams(epoch, layout, line_size: int, page_size: int, proc: int):
    """Line stream, page stream and sorted written-line set of one processor."""
    lines: list[int] = []
    written: set[int] = set()
    for region, write, idx in bursts(epoch, proc):
        units = burst_units(layout, region, idx, line_size).tolist()
        lines.extend(units)
        if write:
            written.update(units)
    line_arr = np.array(lines, dtype=np.int64)
    return (
        line_arr,
        line_arr * line_size // page_size,
        np.array(sorted(written), dtype=np.int64),
    )


def epoch_info(epoch, layout, page_size: int) -> EpochPageInfo:
    """Page-level summary of one epoch.

    Dirty bytes of a written page = distinct objects written on it times
    their object size, capped at the page size.
    """
    accesses, writes, write_bytes = [], [], []
    for p in range(epoch.nprocs):
        touched: set[int] = set()
        dirty: dict[int, set[tuple[int, int]]] = {}
        for region, write, idx in bursts(epoch, p):
            for obj in idx.tolist():
                pages = object_units(layout, region, obj, page_size)
                touched.update(pages)
                if write:
                    for pg in pages:
                        dirty.setdefault(pg, set()).add((region, obj))
        wpages = sorted(dirty)
        accesses.append(np.array(sorted(touched), dtype=np.int64))
        writes.append(np.array(wpages, dtype=np.int64))
        write_bytes.append(
            np.array(
                [
                    min(
                        sum(layout.regions[r].object_size for r, _ in dirty[pg]),
                        page_size,
                    )
                    for pg in wpages
                ],
                dtype=np.int64,
            )
        )
    return from_lists(
        accesses=accesses,
        writes=writes,
        write_bytes=write_bytes,
        npages=total_pages(layout, page_size),
        label=epoch.label,
        work=np.asarray(epoch.work, dtype=np.float64).copy(),
        lock_acquires=np.asarray(epoch.lock_acquires, dtype=np.int64).copy(),
    )
