"""Exact MESI directory-coherence simulator over an interleaved trace.

The production hardware model (:mod:`repro.machines.hardware`) applies
invalidations at barrier boundaries — exact for data-race-free programs and
fast.  This module is the reference implementation it is validated against:
a per-access MESI protocol over a *globally interleaved* access stream,
with full state bookkeeping (Modified / Exclusive / Shared / Invalid per
cache per line, plus an infinite-capacity directory).

Within an epoch the per-processor streams are interleaved round-robin,
which is one legal execution; for data-race-free traces (no two processors
touching the same line conflictingly within an epoch) every legal
interleaving yields the same miss/invalidation counts, which is what the
cross-validation test asserts against the epoch-boundary engine.

Capacity is modelled the same way as the production engine (per-processor
LRU over lines); coherence state lives beside it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.machines.params import HardwareParams
from repro.trace.events import Trace
from repro.trace.layout import Layout, decode_epoch

__all__ = ["MESIResult", "simulate_mesi"]

M, E, S = "M", "E", "S"  # absent from the dict means Invalid


@dataclass
class MESIResult:
    """Counters from the exact MESI replay."""

    nprocs: int
    misses: np.ndarray  # per proc: read+write misses (line not present)
    upgrades: np.ndarray  # per proc: writes hitting a Shared line
    invalidations: np.ndarray  # per proc: lines invalidated *from* its cache
    writebacks: np.ndarray  # per proc: dirty lines written back

    @property
    def total_misses(self) -> int:
        return int(self.misses.sum())


class _Cache:
    """LRU cache with a MESI state per resident line."""

    __slots__ = ("capacity", "lines")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.lines: OrderedDict[int, str] = OrderedDict()

    def get(self, line: int) -> str | None:
        state = self.lines.get(line)
        if state is not None:
            self.lines.move_to_end(line)
        return state

    def put(self, line: int, state: str) -> tuple[int, str] | None:
        """Insert/overwrite; returns an evicted (line, state) or None."""
        if line in self.lines:
            self.lines[line] = state
            self.lines.move_to_end(line)
            return None
        self.lines[line] = state
        if len(self.lines) > self.capacity:
            return self.lines.popitem(last=False)
        return None

    def drop(self, line: int) -> str | None:
        return self.lines.pop(line, None)


def _interleave(
    epoch,
    layout: Layout,
    line_size: int,
    nprocs: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Round-robin interleaving of the epoch's per-processor line streams.

    Returns the merged ``(procs, lines, writes)`` *columns* — int64,
    int64, bool — in interleaved order; no per-access Python tuples are
    built.  The epoch decodes with one :func:`decode_epoch` call, and the
    round-robin order — position ``i`` of every live stream,
    processors in index order — is exactly a stable sort by (stream
    position, processor), materialized with one ``lexsort``.
    ``tests/oracles/interleave.py`` holds the cursor-walk reference this
    must match.
    """
    decoded = decode_epoch(epoch, layout, line_size)
    lines, writes, procs, pos = [], [], [], []
    for p in range(nprocs):
        u = decoded.units[p]
        if u.shape[0] == 0:
            continue
        lines.append(u)
        writes.append(decoded.expand(p, epoch.write_flags(p)))
        procs.append(np.full(u.shape[0], p, dtype=np.int64))
        pos.append(np.arange(u.shape[0], dtype=np.int64))
    if not lines:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=np.bool_)
    procs = np.concatenate(procs)
    order = np.lexsort((procs, np.concatenate(pos)))
    return (
        procs[order],
        np.concatenate(lines)[order],
        np.concatenate(writes)[order],
    )


def simulate_mesi(
    trace: Trace,
    params: HardwareParams = HardwareParams(),
    layout: Layout | None = None,
) -> MESIResult:
    """Replay a trace through the exact MESI protocol."""
    if layout is None:
        layout = Layout.for_trace(trace, align=params.page_size)
    nprocs = trace.nprocs
    capacity = max(params.l2_lines, 1)
    caches = [_Cache(capacity) for _ in range(nprocs)]
    # Directory: line -> set of procs with a copy (owner states live in
    # the caches themselves).
    directory: dict[int, set[int]] = {}

    misses = np.zeros(nprocs, dtype=np.int64)
    upgrades = np.zeros(nprocs, dtype=np.int64)
    invalidations = np.zeros(nprocs, dtype=np.int64)
    writebacks = np.zeros(nprocs, dtype=np.int64)

    def evicted(p: int, ev: tuple[int, str] | None) -> None:
        if ev is None:
            return
        line, state = ev
        if state == M:
            writebacks[p] += 1
        sharers = directory.get(line)
        if sharers is not None:
            sharers.discard(p)
            if not sharers:
                del directory[line]

    def invalidate_others(line: int, me: int) -> None:
        sharers = directory.get(line)
        if not sharers:
            return
        for q in list(sharers):
            if q != me:
                state = caches[q].drop(line)
                if state is not None:
                    if state == M:
                        writebacks[q] += 1
                    invalidations[q] += 1
                sharers.discard(q)

    for epoch in trace.epochs:
        procs_col, lines_col, writes_col = _interleave(
            epoch, layout, params.line_size, nprocs
        )
        for p, line, is_write in zip(
            procs_col.tolist(), lines_col.tolist(), writes_col.tolist()
        ):
            state = caches[p].get(line)
            if is_write:
                if state == M:
                    continue
                if state == E:
                    caches[p].put(line, M)
                    continue
                if state == S:
                    upgrades[p] += 1
                else:
                    misses[p] += 1
                invalidate_others(line, p)
                evicted(p, caches[p].put(line, M))
                directory.setdefault(line, set()).add(p)
            else:
                if state is not None:
                    continue
                misses[p] += 1
                sharers = directory.setdefault(line, set())
                # A remote Modified/Exclusive copy degrades to Shared.
                for q in list(sharers):
                    qs = caches[q].get(line)
                    if qs in (M, E):
                        if qs == M:
                            writebacks[q] += 1
                        caches[q].put(line, S)
                new_state = E if not sharers else S
                evicted(p, caches[p].put(line, new_state))
                sharers.add(p)

    return MESIResult(
        nprocs=nprocs,
        misses=misses,
        upgrades=upgrades,
        invalidations=invalidations,
        writebacks=writebacks,
    )
