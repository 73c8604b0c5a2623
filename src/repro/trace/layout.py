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
# Decoding epochs to unit streams
# --------------------------------------------------------------------------
#
# Decoding object accesses into consistency-unit streams (``units_batch``)
# is the shared front end of every consumer: the hardware simulator decodes
# into cache lines, the DSM interval builder into pages, ``trace.stats``
# into whatever unit the caller asks.  Each consumer decodes an epoch,
# uses it and drops it: no workload reads a decode twice, so decodes are
# never cached.  What is cached, per trace, is the small product a decode
# pass reduces to — the DSM interval summaries — in :class:`DecodeMemo`.


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
    """Per-trace cache of products derived from decoding, keyed by the
    caller.

    ``derived(key, build)`` gets or builds one product: the DSM interval
    builder stores its per-epoch page summaries under
    ``("intervals", geometry_key(layout, page_size))``, so TreadMarks and
    HLRC on one trace and page size share one interval build.  Geometry =
    ``(layout.regions, layout.bases, layout.align, unit)``.  Traces are
    sealed after construction, so entries never go stale; if you do
    mutate a trace in place, call :meth:`clear`.

    The memo holds no reference to its trace: the trace owns the memo
    (:func:`decode_memo`), so a dropped trace frees its products at once.
    """

    def __init__(self):
        self._derived: dict[tuple, object] = {}

    @staticmethod
    def geometry_key(layout: Layout, unit: int) -> tuple:
        return (layout.regions, layout.bases, layout.align, unit)

    def __contains__(self, key: tuple) -> bool:
        """Whether a derived product is cached under ``key``."""
        return key in self._derived

    def derived(self, key: tuple, build):
        """Get-or-build an arbitrary derived product cached on this trace."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    def clear(self) -> None:
        self._derived.clear()


def decode_memo(trace: Trace) -> DecodeMemo:
    """The memo of derived products attached to ``trace`` (created on
    first use)."""
    memo = getattr(trace, "_decode_memo", None)
    if memo is None:
        memo = trace._decode_memo = DecodeMemo()
    return memo
