"""Hardware cache-coherent shared-memory simulator (Origin-2000-style).

Replays a :class:`repro.trace.Trace` on per-processor L2 caches and TLBs
with directory-style write-invalidate coherence:

* within an epoch, each processor's access stream runs through its own
  set-associative L2 (and fully-associative TLB) in program order;
* at every barrier, lines written by processor ``q`` during the epoch are
  invalidated from every other processor's cache — the next access by a
  sharer misses (a coherence miss).  Applying invalidations at epoch
  granularity is exact for data-race-free programs, which synchronize all
  conflicting accesses through the same barriers.

The replay is batched across processors, so its numpy call count does not
grow with epochs x processors.  Processor ``p``'s line ``l`` becomes the
encoded key ``l << b | p`` (``b = (P-1).bit_length()``), whose set index
``(line_set << b) | p`` gives every processor its own segments of one
kernel stream:

* the L2 is one :func:`repro.machines.kernels.setassoc_replay` call per
  epoch over all processors, with one encoded resident array carrying
  every cache's state;
* the barrier invalidation is one vectorized test of that array against
  per-line writer counts, and cold/coherence classification runs over
  flat ``(proc, line)`` tables;
* the TLB is never invalidated, so each processor's TLB sees one stream
  over all epochs: one ``_miss_mask`` pass over the trace's encoded page
  keys, counted back to (epoch, processor).

Epochs (or TLB streams) past ``_BATCH_KEYS`` accesses run in blocks of
whole processors, which bounds memory on paper-size traces.  The timing
model then runs epoch by epoch with fixed float operations, so ``time``
and ``phase_times`` do not depend on the batching.  A parallel replay
worker (:mod:`repro.machines.replay`) runs this same replay over one
range of processors.

:func:`simulate_hardware_sweep` batches the same way: every L2 capacity
of a line size is read off one :class:`SetAssocSweep` over ``nsets x P``
sets, in which each processor owns a contiguous range of sets, fed an
epoch at a time in blocks of whole processors, with the barrier drop one
mask over its tracked keys.  The per-processor replay and sweep these
batches are checked against live in ``tests/oracles/hardware.py``.

False sharing appears naturally: two processors writing *different* objects
on the same 128-byte line invalidate each other, which is precisely the
effect data reordering removes.

Validation: on line-granularity data-race-free traces this engine's miss
counts equal the exact per-access MESI reference
(``tests/oracles/coherence.py``) exactly; on the real benchmark traces —
which write-share lines within an epoch — the counts agree within ~10-20%
and the original/reordered miss *ratios* within a few percent (see
``tests/machines/test_coherence.py``).

The TLB model charges misses per processor over its own access stream —
TLB reach (64 entries x 16 KB) is tiny compared to the particle arrays, so
a random traversal order thrashes it while a memory-order traversal does
not; this reproduces the paper's Table 2 single-processor TLB contrast
(e.g. a factor of 9.15 for Barnes-Hut).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import SimulationInputError
from ..trace.events import PackedEpoch, Trace
from ..trace.layout import DecodedEpoch, Layout, batch_blocks, decode_epoch
from .kernels import (
    SetAssocSweep,
    _miss_mask,
    _prev_occurrence,
    collapse_runs,
    setassoc_replay,
)
from .params import HardwareParams

__all__ = ["HardwareResult", "simulate_hardware", "simulate_hardware_sweep"]


@dataclass
class HardwareResult:
    """Counters and derived timing from a hardware simulation run."""

    params: HardwareParams
    nprocs: int
    l2_misses: np.ndarray  # per proc
    tlb_misses: np.ndarray  # per proc
    invalidations: np.ndarray  # lines invalidated out of each proc's cache
    work: np.ndarray  # abstract compute units per proc
    lock_acquires: np.ndarray
    barriers: int
    time: float  # modelled parallel execution time (seconds)
    phase_times: dict[str, float] = field(default_factory=dict)
    # Miss classification (per proc): first-ever touches, re-misses on
    # invalidated lines, and everything else (capacity/conflict evictions).
    # ``capacity_misses`` is the exact residual ``l2 - cold - coherence``;
    # if classification ever over-counts (cold + coherence > total), the
    # excess is surfaced in ``classification_overcount`` (per proc, >= 0)
    # and a RuntimeWarning is emitted — never silently clamped away.
    cold_misses: np.ndarray = field(default=None)  # type: ignore[assignment]
    coherence_misses: np.ndarray = field(default=None)  # type: ignore[assignment]
    capacity_misses: np.ndarray = field(default=None)  # type: ignore[assignment]
    classification_overcount: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        z = lambda: np.zeros(self.nprocs, dtype=np.int64)  # noqa: E731
        if self.cold_misses is None:
            self.cold_misses = z()
        if self.coherence_misses is None:
            self.coherence_misses = z()
        if self.capacity_misses is None:
            self.capacity_misses = z()
        if self.classification_overcount is None:
            self.classification_overcount = z()

    @property
    def total_l2_misses(self) -> int:
        return int(self.l2_misses.sum())

    @property
    def total_tlb_misses(self) -> int:
        return int(self.tlb_misses.sum())

    def summary(self) -> dict[str, float]:
        return {
            "time": self.time,
            "l2_misses": self.total_l2_misses,
            "tlb_misses": self.total_tlb_misses,
            "invalidations": int(self.invalidations.sum()),
            "barriers": self.barriers,
        }


def _key_dtype(max_key: int) -> type:
    """Narrowest unsigned dtype holding encoded keys up to ``max_key``."""
    for dt in (np.uint16, np.uint32):
        if max_key <= np.iinfo(dt).max:
            return dt
    return np.int64


def _encode_epoch(
    units: list[np.ndarray], bits: int, dtype: type, first: int = 0, low: int = 0
) -> np.ndarray:
    """Concatenate the streams of processors ``first, first+1, ...`` as
    encoded keys: processor ``p``'s unit ``u`` with ``p`` inserted above
    its ``low`` low bits, ``(u >> low) << (low + bits) | p << low | u mod
    2**low`` — ``u << bits | p`` at the default ``low=0``."""
    keys = np.empty(sum(u.shape[0] for u in units), dtype=dtype)
    lo = 0
    for p, u in enumerate(units, start=first):
        seg = keys[lo : lo + u.shape[0]]
        if low:
            np.right_shift(u, low, out=seg, casting="unsafe")
            seg <<= low + bits
            np.bitwise_or(seg, u & ((1 << low) - 1), out=seg, casting="unsafe")
        else:
            np.left_shift(u, bits, out=seg, casting="unsafe")
        if p:
            seg |= dtype(p << low)
        lo += u.shape[0]
    return keys


def _write_flags(
    epoch: PackedEpoch, decoded: DecodedEpoch, lo: int, hi: int
) -> np.ndarray | None:
    """Write flags over processors ``[lo, hi)``'s decoded line streams, or
    ``None`` if they wrote nothing this epoch."""
    b0, b1 = int(epoch.burst_offsets[lo]), int(epoch.burst_offsets[hi])
    bw = epoch.burst_write[b0:b1]
    if not bw.any():
        return None
    wflags = np.repeat(bw, epoch.burst_length[b0:b1])
    if all(c is None for c in decoded.counts[lo:hi]):
        return wflags
    offs = epoch.offsets - epoch.offsets[lo]
    return np.concatenate(
        [decoded.expand(p, wflags[offs[p] : offs[p + 1]]) for p in range(lo, hi)]
    )


#: Accesses per batched pass.  Processors' segments are independent, so an
#: epoch (or, for the TLB, a trace) longer than this is replayed in blocks
#: of whole processors: exact, and it bounds the kernels' O(n) temporaries
#: on large traces, where per-call overhead no longer matters, without
#: changing the one-call-per-epoch shape of small ones.
_BATCH_KEYS = 1 << 18


def _tlb_epoch_misses(
    chunks: list[np.ndarray], nprocs: int, entries: int
) -> np.ndarray:
    """Per-(epoch, processor) TLB misses of a whole trace in one replay.

    ``chunks[e]`` holds epoch ``e``'s run-collapsed page stream of every
    processor, encoded ``page << bits | proc`` and in processor order.
    The TLB is never invalidated, so each processor's TLB sees one
    continuous stream over all epochs: the chunks are regrouped
    processor-major (epoch order inside), one segment per processor, and a
    single :func:`_miss_mask` pass over the encoded stream decides every
    access (one pass per block of processors past ``_BATCH_KEYS``).  The
    miss flags are then counted back to ``(epoch, proc)``.  Encoding the
    processor keeps two processors' pages from ever sharing a reuse window.
    """
    nepochs = len(chunks)
    out = np.zeros((nepochs, nprocs), dtype=np.int64)
    bits = (nprocs - 1).bit_length()
    lens = np.zeros((nepochs, nprocs), dtype=np.int64)
    for e, c in enumerate(chunks):
        if c.shape[0]:
            lens[e] = np.bincount(c & ((1 << bits) - 1), minlength=nprocs)
    offs = np.zeros((nepochs, nprocs + 1), dtype=np.int64)
    np.cumsum(lens, axis=1, out=offs[:, 1:])
    seg_len = lens.sum(axis=0)
    for lo, hi in batch_blocks(seg_len, _BATCH_KEYS):
        if not seg_len[lo:hi].any():
            continue
        stream = np.concatenate([
            chunks[e][offs[e, p] : offs[e, p + 1]]
            for p in range(lo, hi)
            for e in range(nepochs)
        ])
        seg_end = np.repeat(np.cumsum(seg_len[lo:hi]).astype(np.int32), seg_len[lo:hi])
        miss = _miss_mask(_prev_occurrence(stream), seg_end, entries)
        # Chunk c = (p - lo) * nepochs + e holds [bounds[c-1], bounds[c]).
        bounds = np.cumsum(lens[:, lo:hi].T.ravel())
        chunk = np.searchsorted(bounds, np.flatnonzero(miss), side="right")
        counts = np.bincount(chunk, minlength=(hi - lo) * nepochs)
        out[:, lo:hi] = counts.reshape(hi - lo, nepochs).T
    return out


def _l2_epoch_misses(
    keys: np.ndarray,
    resident: np.ndarray,
    nsets: int,
    assoc: int,
    nprocs: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One epoch of many processors' L2s, replayed in one kernel call.

    ``keys`` are the epoch's run-collapsed line accesses encoded
    ``line << bits | proc``; ``resident`` is the encoded content of the
    same processors' caches.  The encoded key's set index ``key & ((nsets
    << bits) - 1)`` is ``(line_set << bits) | proc``, so each processor's
    sets are their own segments of one :func:`setassoc_replay` and never
    interact.  Returns per-processor miss counts (length ``nprocs``) and
    the new encoded resident array.
    """
    bits = (nprocs - 1).bit_length()
    pmask = (1 << bits) - 1
    grouped, miss, resident_out = setassoc_replay(keys, nsets << bits, assoc, resident)
    misses = np.bincount(grouped[miss] & pmask, minlength=nprocs)
    if resident.shape[0]:
        # The uncharged resident prefix is all first occurrences (misses).
        misses -= np.bincount(resident & pmask, minlength=nprocs)
    return misses, resident_out


def _mark_outside_writes(
    epoch: PackedEpoch,
    layout: Layout,
    line_size: int,
    bits: int,
    lo: int,
    hi: int,
    wrote: np.ndarray,
) -> bool:
    """Mark the written ``line << bits | proc`` keys of the processors
    outside ``[lo, hi)`` in ``wrote``; returns whether any were written.

    A replay of processors ``[lo, hi)`` needs the others only for the
    barrier's per-line writer counts, so their write bursts are decoded
    alone, a small fraction of the epoch.  Both ranges are empty when
    ``[lo, hi)`` covers every processor.
    """
    any_write = False
    for a, b in ((0, lo), (hi, epoch.nprocs)):
        b0, b1 = int(epoch.burst_offsets[a]), int(epoch.burst_offsets[b])
        bw = np.asarray(epoch.burst_write[b0:b1])
        if not bw.any():
            continue
        any_write = True
        lens = np.asarray(epoch.burst_length[b0:b1])
        blen = lens[bw]
        a0, a1 = int(epoch.offsets[a]), int(epoch.offsets[b])
        idx = np.asarray(epoch.index[a0:a1])[np.repeat(bw, lens)]
        lines, counts = layout.units_batch_bursts(
            epoch.burst_region[b0:b1][bw], blen, idx, line_size, return_counts=True
        )
        procs = np.repeat(np.arange(a, b), np.diff(epoch.burst_offsets[a : b + 1]))
        wrote[(lines << bits) | np.repeat(np.repeat(procs[bw], blen), counts)] = True
    return any_write


def _replay_counters(
    trace: Trace, params: HardwareParams, layout: Layout, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched replay of processors ``[lo, hi)``'s L2s and TLBs.

    Returns ``(epoch_l2, epoch_tlb, invalidations, cold, coherence)``:
    per-(epoch, proc) L2 and TLB miss matrices and per-proc totals, over
    all ``trace.nprocs`` processors with zeros outside ``[lo, hi)``.
    Every processor's line ``l`` is the encoded key ``l << bits | p``, so
    one key space serves the L2 (one :func:`_l2_epoch_misses` call per
    epoch), the classification tables and, as ``page << bits | p``, the
    TLB (one :func:`_tlb_epoch_misses` pass for the whole trace).

    Processors interact only through the barrier's per-line writer
    counts, which the processors outside ``[lo, hi)`` feed from their
    write bursts (:func:`_mark_outside_writes`).  So a replay of
    ``[0, nprocs)`` is the whole serial replay, and a parallel worker is
    one processor block of it.
    """
    nprocs = trace.nprocs
    nepochs = len(trace.epochs)
    bits = (nprocs - 1).bit_length()
    pmask = (1 << bits) - 1
    shift = params.line_size.bit_length() - 1
    pshift = params.page_size.bit_length() - 1
    nlines = (layout.total_bytes >> shift) + 1
    npages = (((nlines - 1) << shift) >> pshift) + 1
    nkeys = max(nlines, npages) << bits
    kdt = _key_dtype(nkeys - 1)
    pdt = _key_dtype((npages << bits) - 1)

    epoch_l2 = np.zeros((nepochs, nprocs), dtype=np.int64)
    invalidations = np.zeros(nprocs, dtype=np.int64)
    cold = np.zeros(nprocs, dtype=np.int64)
    coherence = np.zeros(nprocs, dtype=np.int64)
    resident = np.empty(0, dtype=kdt)
    page_chunks: list[np.ndarray] = []
    # Classification state over encoded (proc, line) keys: lines each proc
    # has ever touched, and lines invalidated out of its cache and not yet
    # re-touched.  Line ids are dense (bounded by the layout's extent), so
    # flat boolean tables make the per-epoch set algebra scatter/mask work
    # over all processors at once.
    seen = np.zeros(nkeys, dtype=bool)
    pending_inval = np.zeros(nkeys, dtype=bool)
    touched = np.zeros(nkeys, dtype=bool)
    wrote = np.zeros(nkeys, dtype=bool)

    # A block replay decodes only its block.
    for ei, epoch in enumerate(trace.epochs):
        decoded = decode_epoch(epoch, layout, params.line_size, lo, hi)
        lens = np.array([u.shape[0] for u in decoded.units[lo:hi]], dtype=np.int64)
        blocks = [(a + lo, b + lo) for a, b in batch_blocks(lens, _BATCH_KEYS)]
        if len(blocks) > 1:
            owners = resident & pmask
        residents, page_parts = [], []
        any_write = _mark_outside_writes(
            epoch, layout, params.line_size, bits, lo, hi, wrote
        )
        for blo, bhi in blocks:
            block_resident = (
                resident if len(blocks) == 1
                else resident[(owners >= blo) & (owners < bhi)]
            )
            keys = _encode_epoch(decoded.units[blo:bhi], bits, kdt, blo)
            if not keys.shape[0]:
                residents.append(block_resident)
                continue
            # Run-collapse per processor (owner bits keep runs from
            # spanning processors); the page stream derives from the
            # collapsed lines, since collapsing commutes with any per-key
            # map.
            ckeys = collapse_runs(keys)
            if pshift >= shift:
                pkeys = (ckeys >> (bits + pshift - shift)) << bits
            else:
                pkeys = (ckeys >> bits) << (bits + shift - pshift)
            if bits:
                pkeys |= ckeys & kdt(pmask)
            page_parts.append(collapse_runs(pkeys).astype(pdt, copy=False))
            misses, block_resident = _l2_epoch_misses(
                ckeys, block_resident, params.l2_sets, params.l2_assoc, nprocs
            )
            epoch_l2[ei] += misses
            residents.append(block_resident)
            # Classify: first-ever touches are cold; re-touches of
            # invalidated lines are coherence; the remainder of the LRU's
            # miss count is capacity/conflict.
            touched[ckeys] = True
            u = np.flatnonzero(touched)
            touched[u] = False
            fresh = u[~seen[u]]
            seen[fresh] = True
            cold += np.bincount(fresh & pmask, minlength=nprocs)
            again = u[pending_inval[u]]
            pending_inval[again] = False
            coherence += np.bincount(again & pmask, minlength=nprocs)
            # Written (proc, line) keys, for the barrier below.
            wflags = _write_flags(epoch, decoded, blo, bhi)
            if wflags is not None:
                any_write = True
                wrote[keys[wflags]] = True
        # Only a set's entries' relative order matters in the resident
        # array, so the blocks' results concatenate.
        resident = residents[0] if len(residents) == 1 else np.concatenate(residents)
        page_chunks.append(
            np.concatenate(page_parts) if page_parts else np.empty(0, dtype=pdt)
        )
        # Directory invalidation at the barrier: every line written by q is
        # purged from all other caches (and its TLB entry is unaffected —
        # TLBs cache translations, not data).  A resident (proc, line)
        # entry goes iff some *other* processor wrote the line: one gather
        # of per-line writer counts over the encoded resident array.
        if not any_write:
            continue
        wkeys = np.flatnonzero(wrote)
        writers = np.bincount(wkeys >> bits, minlength=nlines)
        hit = writers[resident >> bits] > wrote[resident]
        wrote[wkeys] = False
        if hit.any():
            removed = resident[hit]
            resident = resident[~hit]
            invalidations += np.bincount(removed & pmask, minlength=nprocs)
            pending_inval[removed] = True

    epoch_tlb = _tlb_epoch_misses(page_chunks, nprocs, params.tlb_entries)
    return epoch_l2, epoch_tlb, invalidations, cold, coherence


def _hardware_result(
    trace: Trace,
    params: HardwareParams,
    epoch_l2: np.ndarray,
    epoch_tlb: np.ndarray,
    invalidations: np.ndarray,
    cold: np.ndarray,
    coherence: np.ndarray,
) -> HardwareResult:
    """Fold per-(epoch, proc) miss counts into a :class:`HardwareResult`.

    The timing model runs epoch by epoch in trace order with the same
    float operations whichever replay produced the counts, so ``time``
    and ``phase_times`` are bit-identical across replay paths.
    """
    nprocs = trace.nprocs
    miss_time = params.l2_miss_time()
    work_time = params.work_cycles * params.cycle_time
    barrier = params.barrier_time if nprocs > 1 else 0.0
    work = np.zeros(nprocs, dtype=np.float64)
    locks = np.zeros(nprocs, dtype=np.int64)
    total_time = 0.0
    phase_times: dict[str, float] = {}
    for ei, epoch in enumerate(trace.epochs):
        work += epoch.work
        locks += epoch.lock_acquires
        proc_time = (
            epoch.work * work_time
            + epoch_l2[ei] * miss_time
            + epoch_tlb[ei] * params.tlb_miss_time
            + epoch.lock_acquires * params.lock_time
        )
        epoch_time = float(proc_time.max()) + barrier
        total_time += epoch_time
        if epoch.label:
            phase_times[epoch.label] = phase_times.get(epoch.label, 0.0) + epoch_time

    # Capacity/conflict misses are the exact residual.  A negative value
    # means cold + coherence over-counted the simulator's misses — that is
    # classification drift, and it is surfaced, not floored away.
    l2_misses = epoch_l2.sum(axis=0)
    residual = l2_misses - cold - coherence
    overcount = np.maximum(-residual, 0)
    if overcount.any():
        warnings.warn(
            "miss classification drift: cold + coherence exceed total L2"
            f" misses by {overcount.tolist()} per processor (total"
            f" {int(overcount.sum())}); capacity_misses carries the exact"
            " (negative) residual and classification_overcount the excess",
            RuntimeWarning,
            stacklevel=3,
        )
    return HardwareResult(
        params=params,
        nprocs=nprocs,
        l2_misses=l2_misses,
        tlb_misses=epoch_tlb.sum(axis=0),
        invalidations=invalidations,
        work=work,
        lock_acquires=locks,
        barriers=len(trace.epochs),
        time=total_time,
        phase_times=phase_times,
        cold_misses=cold,
        coherence_misses=coherence,
        capacity_misses=residual,
        classification_overcount=overcount,
    )


def simulate_hardware(
    trace: Trace,
    params: HardwareParams = HardwareParams(),
    layout: Layout | None = None,
) -> HardwareResult:
    """Run a trace through the hardware machine model.

    The trace may use fewer processors than ``params.nprocs`` (e.g. the
    single-processor runs of Table 2); idle processors contribute nothing.
    """
    if not isinstance(trace, Trace):
        raise SimulationInputError(
            f"simulate_hardware expects a Trace, got {type(trace).__name__}"
        )
    if layout is None:
        layout = Layout.for_trace(trace, align=params.page_size)
    counters = _replay_counters(trace, params, layout, 0, trace.nprocs)
    return _hardware_result(trace, params, *counters)


#: Keys per block of the L2 sweep.  A sweep call costs several passes over
#: its block plus the state of the sets it touches, so blocks small enough
#: to stay in the CPU cache beat one call per epoch.
_SWEEP_KEYS = 1 << 16


def sweep_family(
    base: HardwareParams, line_size: int, l2_list
) -> tuple[int, list[int]]:
    """The set count and each capacity's associativity of the L2 sweep
    family at ``line_size``: the set count is pinned to the base cache's
    geometry, so every capacity must be a multiple of the family's set
    span.  Raises :class:`SimulationInputError` for a point the one-pass
    sweep cannot serve."""
    span = line_size * base.l2_assoc
    if base.l2_bytes % span:
        raise SimulationInputError(
            f"line_size={line_size} does not divide the base geometry:"
            f" l2_bytes={base.l2_bytes} is not a multiple of"
            f" line_size*assoc={span}"
        )
    nsets = base.l2_bytes // span
    if nsets & (nsets - 1):
        raise SimulationInputError(
            f"line_size={line_size} gives a non-power-of-two set count"
            f" {nsets} for the base geometry"
        )
    set_span = nsets * line_size
    assocs = []
    for nbytes in l2_list:
        if nbytes < set_span or nbytes % set_span:
            raise SimulationInputError(
                f"l2_bytes={nbytes} is not a positive multiple of the"
                f" family's set span {set_span} (line_size={line_size},"
                f" {nsets} sets)"
            )
        assocs.append(nbytes // set_span)
    return nsets, assocs


def _sweep_line_family(
    trace: Trace,
    base: HardwareParams,
    line_size: int,
    l2_list: list[int],
    layout: Layout,
) -> list[HardwareResult]:
    """Sweep L2 capacities at one line size with a single replay.

    Holding ``line_size`` fixed pins the set count to the base cache's
    geometry (``base.l2_bytes / (line_size * base.l2_assoc)`` sets), so
    the capacity points differ only in associativity — a stack family:
    one :class:`SetAssocSweep` pass yields the exact per-epoch miss
    counts of every point, and the invalidation/coherence/cold counters
    come from capacity thresholds accumulated alongside.  The TLB is
    keyed by page, not line, so one replay serves the whole family too.

    The replay is batched across processors like :func:`_replay_counters`.
    Processor ``p``'s line ``l`` is the key with ``p`` inserted above the
    set bits, so its set index ``p << log2(nsets) | (l mod nsets)`` gives
    every processor a contiguous range of sets of one sweep over ``nsets
    << bits`` sets.  An epoch then goes through the sweep in blocks of
    whole processors (about ``_SWEEP_KEYS`` keys each), each call
    returning per-processor histograms, and the blocks' states are
    slices of the sweep's state.  At the barrier a tracked key is dropped
    iff another processor wrote its line, and the cold and coherence
    thresholds live in flat ``(proc, line)`` tables.
    """
    nsets, assocs = sweep_family(base, line_size, l2_list)
    cmax = max(assocs)
    nprocs = trace.nprocs
    nepochs = len(trace.epochs)
    bits = (nprocs - 1).bit_length()
    pmask = (1 << bits) - 1
    low = nsets.bit_length() - 1
    shift = line_size.bit_length() - 1
    pshift = base.page_size.bit_length() - 1
    nlines = (layout.total_bytes >> shift) + 1
    npages = (((nlines - 1) << shift) >> pshift) + 1
    nkeys = (((nlines - 1) >> low) + 1) << (low + bits)
    kdt = _key_dtype(nkeys - 1)
    pdt = _key_dtype((npages << bits) - 1)

    def owner(k: np.ndarray) -> np.ndarray:
        return (k >> low) & pmask

    def line(k: np.ndarray) -> np.ndarray:
        return ((k >> (low + bits)) << low) | (k & (nsets - 1))

    sweep = SetAssocSweep(nsets << bits, cmax)
    g_hists = np.zeros((nepochs, nprocs, cmax + 1), dtype=np.int64)
    inval_hist = np.zeros(nprocs * cmax, dtype=np.int64)
    coh_hist = np.zeros(nprocs * cmax, dtype=np.int64)
    cold = np.zeros(nprocs, dtype=np.int64)
    page_chunks: list[np.ndarray] = []
    # Flat tables over encoded (proc, line) keys.  pend_thr[k] < a: the
    # key awaits a coherence re-miss at associativity ``a`` (it was
    # resident there when invalidated); ``cmax`` means none pending.
    seen = np.zeros(nkeys, dtype=bool)
    touched = np.zeros(nkeys, dtype=bool)
    wrote = np.zeros(nkeys, dtype=bool)
    pend_thr = np.full(nkeys, cmax, dtype=np.int64)

    for ei, epoch in enumerate(trace.epochs):
        decoded = decode_epoch(epoch, layout, line_size)
        lens = np.array([u.shape[0] for u in decoded.units], dtype=np.int64)
        page_parts = []
        any_write = False
        for blo, bhi in batch_blocks(lens, _SWEEP_KEYS):
            keys = _encode_epoch(decoded.units[blo:bhi], bits, kdt, blo, low)
            if not keys.shape[0]:
                continue
            ckeys = collapse_runs(keys)
            g_hists[ei] += sweep.access_stream(ckeys, owner_bits=bits)[:nprocs]
            touched[ckeys] = True
            # Pages from the collapsed lines: collapsing commutes with any
            # per-key map.
            pkeys = (line(ckeys.astype(np.int64)) << shift) >> pshift
            pkeys = (pkeys << bits) | owner(ckeys)
            page_parts.append(collapse_runs(pkeys).astype(pdt, copy=False))
            wflags = _write_flags(epoch, decoded, blo, bhi)
            if wflags is not None:
                any_write = True
                wrote[keys[wflags]] = True
        page_chunks.append(
            np.concatenate(page_parts) if page_parts else np.empty(0, dtype=pdt)
        )
        # Classify: first-ever touches are cold; re-touches of keys
        # invalidated at associativity ``a`` are coherence misses there.
        u = np.flatnonzero(touched)
        touched[u] = False
        fresh = u[~seen[u]]
        seen[fresh] = True
        cold += np.bincount(owner(fresh), minlength=nprocs)
        thr = pend_thr[u]
        pend = thr < cmax
        if pend.any():
            coh_hist += np.bincount(
                owner(u[pend]) * cmax + thr[pend], minlength=nprocs * cmax
            )
            pend_thr[u[pend]] = cmax
        # Barrier: drop every tracked key whose line another processor
        # wrote, recording the associativities it was resident at.
        if not any_write:
            continue
        wkeys = np.flatnonzero(wrote)
        writers = np.bincount(line(wkeys), minlength=nlines)
        tracked = sweep.keys
        removed, thr = sweep.drop(writers[line(tracked)] > wrote[tracked])
        wrote[wkeys] = False
        if thr.shape[0]:
            inval_hist += np.bincount(
                owner(removed) * cmax + thr, minlength=nprocs * cmax
            )
            pend_thr[removed] = thr

    epoch_tlb = _tlb_epoch_misses(page_chunks, nprocs, base.tlb_entries)
    inval_hist = inval_hist.reshape(nprocs, cmax)
    coh_hist = coh_hist.reshape(nprocs, cmax)
    return [
        _hardware_result(
            trace,
            replace(base, line_size=line_size, l2_bytes=nbytes, l2_assoc=assoc),
            g_hists[:, :, assoc:].sum(axis=2),
            epoch_tlb,
            inval_hist[:, :assoc].sum(axis=1),
            cold.copy(),
            coh_hist[:, :assoc].sum(axis=1),
        )
        for nbytes, assoc in zip(l2_list, assocs)
    ]


def simulate_hardware_sweep(
    trace: Trace,
    base: HardwareParams = HardwareParams(),
    l2_bytes: "list[int] | None" = None,
    line_sizes: "list[int] | None" = None,
    layout: Layout | None = None,
) -> list[HardwareResult]:
    """Sweep L2 capacity (and line size) in one replay per line size.

    Returns one :class:`HardwareResult` per grid point, row-major over
    ``line_sizes x l2_bytes``, each byte-for-byte identical to
    ``simulate_hardware(trace, point_params)`` for::

        point_params = replace(base, line_size=s, l2_bytes=b,
                               l2_assoc=b // (nsets * s))

    where ``nsets = base.l2_bytes // (s * base.l2_assoc)`` — the set
    count is pinned per line size so capacity points form an LRU stack
    family (capacity grows by adding ways), which is what makes the
    one-pass miss curve exact; see ``DESIGN.md``.  The base point
    ``(base.line_size, base.l2_bytes)`` reproduces ``base`` itself.

    Each distinct line size decodes the trace once; every ``l2_bytes``
    point at that line size is then read off the stack-distance curve
    instead of re-replaying.
    """
    if not isinstance(trace, Trace):
        raise SimulationInputError(
            f"simulate_hardware_sweep expects a Trace, got {type(trace).__name__}"
        )
    l2_list = [base.l2_bytes] if l2_bytes is None else [int(b) for b in l2_bytes]
    line_list = (
        [base.line_size] if line_sizes is None else [int(s) for s in line_sizes]
    )
    if not l2_list or not line_list:
        raise SimulationInputError("sweep axes must be non-empty")
    if layout is None:
        layout = Layout.for_trace(trace, align=base.page_size)
    results: list[HardwareResult] = []
    for line_size in line_list:
        results.extend(_sweep_line_family(trace, base, line_size, l2_list, layout))
    return results
