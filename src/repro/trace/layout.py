"""Mapping object accesses to bytes, cache lines, and pages.

Traces are object-granularity (see :mod:`repro.trace.events`); the machine
models think in *consistency units* — 128-byte cache lines on the Origin
2000, 4/8/16 KB pages on the software DSMs.  A :class:`Layout` fixes the
byte address of every object and converts index arrays to unit ids, expanding
objects that straddle unit boundaries (a 680-byte Water-Spatial molecule
covers six 128-byte lines; a 96-byte Barnes-Hut body can straddle two).

Regions are placed back to back, each aligned to the *largest* unit of
interest (page-aligned), mirroring separate shared-memory allocations in the
original benchmarks.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .events import PackedEpoch, RegionSpec, Trace

__all__ = ["Layout", "DecodedEpoch", "DecodeMemo", "batch_blocks", "decode_epoch",
           "decode_memo", "epoch_blocks"]


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class Layout:
    """Byte placement of a trace's regions in one shared address space."""

    regions: tuple[RegionSpec, ...]
    bases: tuple[int, ...]
    align: int

    @classmethod
    def for_trace(cls, trace: Trace, align: int = 16384) -> "Layout":
        """Place each region of ``trace`` at the next ``align`` boundary."""
        return cls.for_regions(trace.regions, align=align)

    @classmethod
    def for_regions(
        cls, regions: list[RegionSpec] | tuple[RegionSpec, ...], align: int = 16384
    ) -> "Layout":
        if not _is_pow2(align):
            raise ValueError("align must be a power of two")
        bases = []
        cursor = 0
        for r in regions:
            bases.append(cursor)
            cursor += -(-r.nbytes // align) * align  # round up to alignment
        return cls(regions=tuple(regions), bases=tuple(bases), align=align)

    @property
    def total_bytes(self) -> int:
        if not self.regions:
            return 0
        last = len(self.regions) - 1
        return self.bases[last] + -(-self.regions[last].nbytes // self.align) * self.align

    def _object_sizes(self) -> np.ndarray:
        return np.fromiter(
            (r.object_size for r in self.regions),
            dtype=np.int64,
            count=len(self.regions),
        )

    def units_batch(
        self,
        regions: np.ndarray,
        indices: np.ndarray,
        unit: int,
        return_counts: bool = False,
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Consistency-unit ids for a mixed-region access stream, vectorized.

        ``regions`` gives each access's region id.  Order is preserved; an
        object spanning ``k`` units contributes ``k`` consecutive entries
        (a 680-byte molecule covers six 128-byte lines).
        With ``return_counts=True`` also returns how many units each
        access expanded to, so callers can propagate per-access metadata
        (e.g. write flags) onto the expanded stream.
        """
        if not _is_pow2(unit):
            raise ValueError("unit must be a power of two")
        shift = unit.bit_length() - 1
        regions = np.asarray(regions, dtype=np.int64)
        bases = np.asarray(self.bases, dtype=np.int64)[regions]
        sizes = self._object_sizes()[regions]
        # ``indices`` may be a narrow on-disk column (int32 mmap view);
        # the multiply upcasts element-wise, so no widened copy is made.
        start = bases + np.asarray(indices) * sizes
        first = start >> shift
        span = ((start + sizes - 1) >> shift) - first
        return _expand_units(first, span, return_counts)

    def units_batch_bursts(
        self,
        burst_region: np.ndarray,
        burst_length: np.ndarray,
        indices: np.ndarray,
        unit: int,
        return_counts: bool = False,
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Unit ids for a CSR burst-run stream, without a per-access region
        column.

        Equivalent to ``units_batch(np.repeat(burst_region, burst_length),
        indices, unit)`` but the region attributes are gathered at burst
        granularity and repeated, so an epoch's per-access ``region``
        column never has to be materialized.
        """
        if not _is_pow2(unit):
            raise ValueError("unit must be a power of two")
        shift = unit.bit_length() - 1
        breg = np.asarray(burst_region, dtype=np.int64)
        bases = np.asarray(self.bases, dtype=np.int64)[breg]
        sizes = np.repeat(self._object_sizes()[breg], burst_length)
        start = np.repeat(bases, burst_length)
        start += np.asarray(indices) * sizes
        first = start >> shift
        # Reuse ``start`` as scratch for the last-unit computation.
        np.add(start, sizes, out=start)
        start -= 1
        start >>= shift
        span = start - first
        return _expand_units(first, span, return_counts)

    def region_pages(self, region: int, page_size: int) -> np.ndarray:
        """All page ids covered by a region, in address order."""
        spec = self.regions[region]
        base = self.bases[region]
        first = base // page_size
        last = (base + max(spec.nbytes, 1) - 1) // page_size
        return np.arange(first, last + 1, dtype=np.int64)


def _expand_units(
    first: np.ndarray, span: np.ndarray, return_counts: bool
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Expand per-access first units over their spans, order-preserving.

    An access with span ``k`` contributes units ``first..first+k``.  The
    expansion is fused: the run-start offset is folded into ``first``
    *before* the repeat, so only one full-length repeat plus one arange
    pass touch the expanded stream.
    """
    if not span.any():
        if return_counts:
            return first, np.ones(first.shape[0], dtype=np.int64)
        return first
    counts = span + 1
    # first - run_start, computed at access granularity then repeated.
    base = np.cumsum(counts)
    base -= counts
    np.subtract(first, base, out=base)
    out = np.repeat(base, counts)
    out += np.arange(out.shape[0], dtype=np.int64)
    if return_counts:
        return out, counts
    return out


# --------------------------------------------------------------------------
# Per-trace decode memo
# --------------------------------------------------------------------------
#
# Decoding object accesses into consistency-unit streams (``units_batch``)
# is the shared front end of every consumer: the hardware simulator decodes
# into cache lines, the DSM interval builder into pages, ``trace.stats``
# into whatever unit the caller asks.  A sweep over page sizes, or simply
# running all three platforms on one trace, used to re-decode the same
# epochs once per call.  The memo below caches decodings *per trace*, keyed
# by the decode geometry — the region table, region placement, alignment,
# and unit size — so total decoding work is O(distinct geometries), not
# O(simulator calls).  The ``decodes``/``hits`` counters make that property
# testable.


@dataclass
class DecodedEpoch:
    """One epoch decoded to per-proc consistency-unit streams.

    ``units[p]`` is the expanded unit-id stream for processor ``p``;
    ``counts[p]`` is how many units each original access expanded to
    (``None`` when no object straddled a unit boundary, i.e. the stream is
    access-aligned).  :meth:`expand` propagates per-access metadata (write
    flags, say) onto the expanded stream.  Both are read-only views into
    the arrays of the processor block they were decoded in, which
    neighbouring processors share.  A decode of a processor range leaves
    ``units[p]`` ``None`` for the processors outside it.
    """

    units: list[np.ndarray | None]
    counts: list[np.ndarray | None]

    def expand(self, proc: int, values: np.ndarray) -> np.ndarray:
        c = self.counts[proc]
        return values if c is None else np.repeat(values, c)


def batch_blocks(sizes: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """Contiguous processor blocks ``[lo, hi)`` of at most ``budget`` items
    each (a single processor over the budget forms its own block)."""
    blocks, lo, total = [], 0, 0
    for p, size in enumerate(sizes.tolist()):
        if total and total + size > budget:
            blocks.append((lo, p))
            lo, total = p, 0
        total += size
    blocks.append((lo, len(sizes)))
    return blocks


#: Accesses per processor block that decoding and the DSM interval build
#: work on at once.  Bigger blocks only add O(block) temporaries: on the
#: 343k-access epoch of Barnes-Hut n=1024 P=16 at 1 KB pages, the decode
#: peak (tracemalloc) is 7.7 MB at 2^16, 15.2 MB at 2^18, 21.4 MB unblocked
#: and 6.3 MB one processor at a time.
DECODE_BLOCK = 1 << 16


def epoch_blocks(
    epoch: PackedEpoch, lo: int = 0, hi: int | None = None
) -> list[tuple[int, int]]:
    """The epoch's processors ``[lo, hi)`` (all by default) in blocks of
    ~:data:`DECODE_BLOCK` accesses."""
    hi = epoch.nprocs if hi is None else hi
    sizes = np.diff(np.asarray(epoch.offsets[lo : hi + 1], dtype=np.int64))
    return [(a + lo, b + lo) for a, b in batch_blocks(sizes, DECODE_BLOCK)]


def decode_epoch(
    epoch: PackedEpoch, layout: Layout, unit: int, lo: int = 0, hi: int | None = None
) -> DecodedEpoch:
    """Decode processors ``[lo, hi)``'s access streams of one epoch to unit
    ids (every processor by default).

    One :meth:`Layout.units_batch_bursts` call per block of whole
    processors (:func:`epoch_blocks`), at burst granularity over zero-copy
    column slices — the derived per-access ``region`` and ``is_write``
    columns are never materialized.  ``units[p]`` and ``counts[p]`` are
    read-only views into the block's arrays: a consumer writing in place
    fails instead of corrupting a neighbour's stream.  Processors outside
    ``[lo, hi)`` get ``None`` in ``units``.
    """
    offsets = np.asarray(epoch.offsets, dtype=np.int64)
    hi = epoch.nprocs if hi is None else hi
    units: list[np.ndarray | None] = [None] * lo
    counts: list[np.ndarray | None] = [None] * lo
    for blo, bhi in epoch_blocks(epoch, lo, hi):
        a0, a1 = int(offsets[blo]), int(offsets[bhi])
        b0, b1 = int(epoch.burst_offsets[blo]), int(epoch.burst_offsets[bhi])
        u, c = layout.units_batch_bursts(
            epoch.burst_region[b0:b1],
            epoch.burst_length[b0:b1],
            epoch.index[a0:a1],
            unit,
            return_counts=True,
        )
        u.flags.writeable = c.flags.writeable = False
        acc = offsets[blo : bhi + 1] - a0
        ends = acc if u.shape[0] == a1 - a0 else np.cumsum(np.append(0, c))[acc]
        acc, ends = acc.tolist(), ends.tolist()
        for i in range(bhi - blo):
            units.append(u[ends[i] : ends[i + 1]])
            # A processor whose units match its accesses one to one is
            # access-aligned; ``None`` lets ``expand`` skip the repeat.
            aligned = ends[i + 1] - ends[i] == acc[i + 1] - acc[i]
            counts.append(None if aligned else c[acc[i] : acc[i + 1]])
    units += [None] * (epoch.nprocs - hi)
    counts += [None] * (epoch.nprocs - hi)
    return DecodedEpoch(units=units, counts=counts)


class DecodeMemo:
    """Per-trace cache of epoch decodings, keyed by decode geometry.

    Geometry = ``(layout.regions, layout.bases, layout.align, unit)``.  Two
    simulator calls that agree on all four share every decoded stream; a
    page-size sweep pays one decode per distinct page size.

    ``derived(key, build)`` additionally caches arbitrary per-geometry
    derived products (the DSM interval builder stores its per-epoch page
    summaries there, so TreadMarks and HLRC share one interval build).

    Counters: ``decodes`` = epoch decodings actually performed, ``hits`` =
    requests served from cache; ``distinct_geometries`` = geometry keys
    seen.  Traces are sealed after construction, so entries never go
    stale; if you do mutate a trace in place, call :meth:`clear`.

    ``max_epochs`` bounds how many decoded epochs are retained at once
    (LRU across all geometries); ``None`` — the default — retains
    everything, which is what the sweep engines rely on.  Lazily decoded
    compressed traces set a bound so a long replay does not hold every
    epoch's expanded streams in memory.

    The memo holds its trace weakly: the trace owns the memo
    (:func:`decode_memo`), so a strong back-reference would make a cycle
    that keeps every decode of a dropped trace alive until the cyclic
    collector runs.
    """

    def __init__(self, trace: Trace, max_epochs: int | None = None):
        self._trace = weakref.proxy(trace)
        self._geometries: dict[tuple, dict[int, DecodedEpoch]] = {}
        self._derived: dict[tuple, object] = {}
        self._lru: OrderedDict[tuple, None] = OrderedDict()
        self.max_epochs = max_epochs
        self.decodes = 0
        self.hits = 0
        self.evictions = 0

    @property
    def distinct_geometries(self) -> int:
        return len(self._geometries)

    @staticmethod
    def geometry_key(layout: Layout, unit: int) -> tuple:
        return (layout.regions, layout.bases, layout.align, unit)

    def epoch(
        self, layout: Layout, unit: int, index: int, lo: int = 0, hi: int | None = None
    ) -> DecodedEpoch:
        """Decoded streams for ``trace.epochs[index]`` under this geometry.

        A request for only processors ``[lo, hi)`` is served from the
        cached whole-epoch decode if there is one; otherwise just those
        processors are decoded, and not retained (a parallel replay
        worker reads each epoch of its block once).
        """
        gkey = self.geometry_key(layout, unit)
        per_geometry = self._geometries.setdefault(gkey, {})
        decoded = per_geometry.get(index)
        if decoded is None:
            self.decodes += 1
            epoch = self._trace.epochs[index]
            if lo > 0 or (hi is not None and hi < epoch.nprocs):
                return decode_epoch(epoch, layout, unit, lo, hi)
            decoded = decode_epoch(epoch, layout, unit)
            per_geometry[index] = decoded
            if self.max_epochs is not None:
                self._lru[(gkey, index)] = None
                while len(self._lru) > self.max_epochs:
                    (old_gkey, old_index), _ = self._lru.popitem(last=False)
                    self._geometries[old_gkey].pop(old_index, None)
                    self.evictions += 1
        else:
            self.hits += 1
            if self.max_epochs is not None:
                self._lru.move_to_end((gkey, index))
        return decoded

    def __contains__(self, key: tuple) -> bool:
        """Whether a derived product is cached under ``key``."""
        return key in self._derived

    def derived(self, key: tuple, build):
        """Get-or-build an arbitrary derived product cached on this trace."""
        try:
            value = self._derived[key]
        except KeyError:
            value = self._derived[key] = build()
        else:
            self.hits += 1
        return value

    def drop_decodes(self, units) -> None:
        """Forget the decoded epochs of every geometry whose unit is in
        ``units`` (derived products stay), so a caller done with one
        geometry family frees its streams before decoding the next."""
        units = set(units)
        for gkey in [g for g in self._geometries if g[3] in units]:
            del self._geometries[gkey]
        for key in [k for k in self._lru if k[0][3] in units]:
            del self._lru[key]

    def clear(self) -> None:
        self._geometries.clear()
        self._derived.clear()
        self._lru.clear()


def decode_memo(trace: Trace) -> DecodeMemo:
    """The decode memo attached to ``trace`` (created on first use).

    Traces may declare ``decode_memo_max_epochs`` (lazily decoded
    compressed traces do) to bound the memo's retention; everything else
    gets the unbounded memo the sweep engines rely on.
    """
    memo = getattr(trace, "_decode_memo", None)
    if memo is None:
        memo = DecodeMemo(
            trace, max_epochs=getattr(trace, "decode_memo_max_epochs", None)
        )
        trace._decode_memo = memo
    return memo
