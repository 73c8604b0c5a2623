"""Per-processor reference replays for the batched Origin simulator.

:func:`repro.machines.hardware.simulate_hardware` replays every
processor's L2 in one kernel call per epoch and every processor's TLB in
one pass per trace, over encoded ``(proc, key)`` streams.
:func:`simulate_hardware` here is the direct statement of the model it
batches: one per-access :class:`oracles.cache.SetAssocCache` and one
:class:`oracles.cache.LRUCache` per processor, each fed its own stream
epoch by epoch, barrier invalidations applied cache by cache, and the
cold/coherence classification run processor by processor.  It returns
the per-(epoch, processor) miss matrices alongside the result so tests can
compare counts at that grain.

:func:`simulate_hardware_sweep` is the same per-processor statement of
:func:`repro.machines.hardware.simulate_hardware_sweep`: one
:class:`repro.machines.kernels.SetAssocSweep` per processor, fed and
invalidated processor by processor, against which the batched sweep is
held.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
from oracles.cache import LRUCache, SetAssocCache

from repro.machines.hardware import HardwareResult, _tlb_epoch_misses
from repro.machines.kernels import SetAssocSweep, collapse_runs
from repro.trace.layout import Layout, decode_epoch


def _proc_streams_packed(epoch, decoded, proc, line_size, page_size, nlines):
    """Line stream, page stream and written-line set for one processor.

    The line stream comes straight from the (memoized) decoded epoch.
    Write flags are expanded from the burst columns for this processor
    only (``epoch.write_flags``), and the written-line set is collected
    through a dense line mask.
    """
    lines = decoded.units[proc]
    empty = np.empty(0, dtype=np.int64)
    if lines.shape[0] == 0:
        return empty, empty, empty
    b0 = int(epoch.burst_offsets[proc])
    b1 = int(epoch.burst_offsets[proc + 1])
    if epoch.burst_write[b0:b1].any():
        wflags = epoch.write_flags(proc)
        wmask = np.zeros(nlines, dtype=bool)
        wmask[lines[decoded.expand(proc, wflags)]] = True
        written = np.flatnonzero(wmask)
    else:
        written = empty
    shift = line_size.bit_length() - 1
    pshift = page_size.bit_length() - 1
    pages = (lines << shift) >> pshift
    return lines, pages, written


def _invalidation_targets(epoch_written):
    """Per-processor invalidation target sets for one barrier.

    Processor ``p`` must drop every line written by any *other* processor
    this epoch: the union of the written sets (each sorted-unique) with
    multiplicity, of which ``p`` takes the lines written by >= 2
    processors or by exactly one processor that is not ``p``.  ``None``
    means nothing to drop.
    """
    nprocs = len(epoch_written)
    writers = [q for q in range(nprocs) if epoch_written[q].shape[0]]
    if not writers:
        return [None] * nprocs
    if len(writers) == 1:
        q = writers[0]
        wq = epoch_written[q]
        return [None if p == q else wq for p in range(nprocs)]
    uniq, cnt = np.unique(
        np.concatenate([epoch_written[q] for q in writers]), return_counts=True
    )
    shared = cnt >= 2
    targets = []
    for p in range(nprocs):
        wp = epoch_written[p]
        if wp.shape[0] == 0:
            targets.append(uniq)
        else:
            mine = np.isin(uniq, wp, assume_unique=True)
            targets.append(uniq[shared | ~mine])
    return targets


def simulate_hardware(trace, params, layout=None):
    """Reference replay: ``(result, epoch_l2, epoch_tlb)``.

    ``epoch_l2`` and ``epoch_tlb`` are ``(epochs, nprocs)`` miss matrices.
    """
    if layout is None:
        layout = Layout.for_trace(trace, align=params.page_size)
    nprocs = trace.nprocs
    nepochs = len(trace.epochs)
    caches = [SetAssocCache(params.l2_sets, params.l2_assoc) for _ in range(nprocs)]
    tlbs = [LRUCache(params.tlb_entries) for _ in range(nprocs)]

    epoch_l2 = np.zeros((nepochs, nprocs), dtype=np.int64)
    epoch_tlb = np.zeros((nepochs, nprocs), dtype=np.int64)
    invalidations = np.zeros(nprocs, dtype=np.int64)
    cold = np.zeros(nprocs, dtype=np.int64)
    coherence = np.zeros(nprocs, dtype=np.int64)
    shift = params.line_size.bit_length() - 1
    nlines = (layout.total_bytes >> shift) + 1
    seen = np.zeros((nprocs, nlines), dtype=bool)
    pending_inval = np.zeros((nprocs, nlines), dtype=bool)
    touched = np.zeros(nlines, dtype=bool)

    for ei, epoch in enumerate(trace.epochs):
        epoch_written: list[np.ndarray] = []
        decoded = decode_epoch(epoch, layout, params.line_size)
        for p in range(nprocs):
            lines, pages, written = _proc_streams_packed(
                epoch, decoded, p, params.line_size, params.page_size, nlines
            )
            epoch_written.append(written)
            if lines.shape[0]:
                epoch_l2[ei, p] = caches[p].access_stream(lines)
                epoch_tlb[ei, p] = tlbs[p].access_stream(pages)
                touched[lines] = True
                fresh = touched & ~seen[p]
                cold[p] += int(np.count_nonzero(fresh))
                seen[p] |= fresh
                coherence[p] += int(np.count_nonzero(touched & pending_inval[p]))
                pending_inval[p] &= ~touched
                touched.fill(False)
        for p, w in enumerate(_invalidation_targets(epoch_written)):
            if w is None:
                continue
            removed = caches[p].invalidate_present(w)
            if removed.shape[0]:
                invalidations[p] += removed.shape[0]
                pending_inval[p][removed] = True

    result = _fold(
        trace, params, epoch_l2, epoch_tlb, invalidations, cold, coherence
    )
    return result, epoch_l2, epoch_tlb


def _fold(trace, params, epoch_l2, epoch_tlb, invalidations, cold, coherence):
    """Counters to a :class:`HardwareResult`: the timing model epoch by
    epoch and the capacity residual."""
    nprocs = trace.nprocs
    miss_time = params.l2_miss_time()
    work_time = params.work_cycles * params.cycle_time
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
        epoch_time = float(proc_time.max()) + (
            params.barrier_time if nprocs > 1 else 0.0
        )
        total_time += epoch_time
        if epoch.label:
            phase_times[epoch.label] = phase_times.get(epoch.label, 0.0) + epoch_time

    l2_misses = epoch_l2.sum(axis=0)
    residual = l2_misses - cold - coherence
    overcount = np.maximum(-residual, 0)
    if overcount.any():
        warnings.warn("miss classification drift", RuntimeWarning, stacklevel=2)
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


def simulate_hardware_sweep(trace, base, l2_bytes, line_size=None, layout=None):
    """Per-processor reference sweep of one line-size family.

    Returns one :class:`HardwareResult` per ``l2_bytes`` point (set count
    pinned at the base geometry, as in the production sweep), with the
    timing fold done by the same float operations as :func:`simulate_hardware`.
    """
    line_size = base.line_size if line_size is None else line_size
    if layout is None:
        layout = Layout.for_trace(trace, align=base.page_size)
    nsets = base.l2_bytes // (line_size * base.l2_assoc)
    assocs = [b // (nsets * line_size) for b in l2_bytes]
    cmax = max(assocs)
    nprocs = trace.nprocs
    nepochs = len(trace.epochs)
    shift = line_size.bit_length() - 1
    nlines = (layout.total_bytes >> shift) + 1
    bits = (nprocs - 1).bit_length()
    sweeps = [SetAssocSweep(nsets, cmax) for _ in range(nprocs)]
    g_hists = np.zeros((nepochs, nprocs, cmax + 1), dtype=np.int64)
    inval_hist = np.zeros((nprocs, cmax), dtype=np.int64)
    coh_hist = np.zeros((nprocs, cmax), dtype=np.int64)
    cold = np.zeros(nprocs, dtype=np.int64)
    seen = np.zeros((nprocs, nlines), dtype=bool)
    # pend_thr[p, line] < a: awaiting a coherence re-miss at associativity
    # ``a``; ``cmax`` means no pending invalidation at any capacity.
    pend_thr = np.full((nprocs, nlines), cmax, dtype=np.int64)
    touched = np.zeros(nlines, dtype=bool)
    page_chunks = []
    for ei, epoch in enumerate(trace.epochs):
        decoded = decode_epoch(epoch, layout, line_size)
        epoch_written, epoch_pages = [], []
        for p in range(nprocs):
            lines, pages, written = _proc_streams_packed(
                epoch, decoded, p, line_size, base.page_size, nlines
            )
            epoch_written.append(written)
            if lines.shape[0]:
                g_hists[ei, p] = sweeps[p].access_stream(lines)
                epoch_pages.append((collapse_runs(pages) << bits) | p)
                touched[lines] = True
                fresh = touched & ~seen[p]
                cold[p] += int(np.count_nonzero(fresh))
                seen[p] |= fresh
                tl = np.flatnonzero(touched)
                thr = pend_thr[p, tl]
                pend = thr < cmax
                coh_hist[p] += np.bincount(thr[pend], minlength=cmax)
                pend_thr[p, tl[pend]] = cmax
                touched.fill(False)
        for p, w in enumerate(_invalidation_targets(epoch_written)):
            if w is None or w.shape[0] == 0:
                continue
            removed, thr = sweeps[p].invalidate_present(w, assume_unique=True)
            inval_hist[p] += np.bincount(thr, minlength=cmax)
            pend_thr[p, removed] = thr
        page_chunks.append(
            np.concatenate(epoch_pages) if epoch_pages
            else np.empty(0, dtype=np.int64)
        )
    epoch_tlb = _tlb_epoch_misses(page_chunks, nprocs, base.tlb_entries)
    results = []
    for nbytes, assoc in zip(l2_bytes, assocs):
        params = replace(base, line_size=line_size, l2_bytes=nbytes, l2_assoc=assoc)
        results.append(_fold(
            trace, params, g_hists[:, :, assoc:].sum(axis=2), epoch_tlb,
            inval_hist[:, :assoc].sum(axis=1), cold.copy(),
            coh_hist[:, :assoc].sum(axis=1),
        ))
    return results
