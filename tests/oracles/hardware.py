"""Per-processor reference replay for the batched Origin simulator.

:func:`repro.machines.hardware.simulate_hardware` replays every
processor's L2 in one kernel call per epoch and every processor's TLB in
one pass per trace, over encoded ``(proc, key)`` streams.  This oracle is
the direct statement of the model it batches: one per-access
:class:`oracles.cache.SetAssocCache` and one :class:`oracles.cache.LRUCache`
per processor, each fed its own stream epoch by epoch, barrier
invalidations applied cache by cache, and the cold/coherence
classification run processor by processor.  It returns
the per-(epoch, processor) miss matrices alongside the result so tests can
compare counts at that grain.
"""

from __future__ import annotations

import warnings

import numpy as np
from oracles.cache import LRUCache, SetAssocCache

from repro.machines.hardware import (
    HardwareResult,
    _invalidation_targets,
    _proc_streams_packed,
)
from repro.trace.layout import Layout, decode_memo


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
    work = np.zeros(nprocs, dtype=np.float64)
    locks = np.zeros(nprocs, dtype=np.int64)
    phase_times: dict[str, float] = {}
    shift = params.line_size.bit_length() - 1
    nlines = (layout.total_bytes >> shift) + 1
    seen = np.zeros((nprocs, nlines), dtype=bool)
    pending_inval = np.zeros((nprocs, nlines), dtype=bool)
    touched = np.zeros(nlines, dtype=bool)

    miss_time = params.l2_miss_time()
    work_time = params.work_cycles * params.cycle_time
    total_time = 0.0
    memo = decode_memo(trace)

    for ei, epoch in enumerate(trace.epochs):
        epoch_written: list[np.ndarray] = []
        decoded = memo.epoch(layout, params.line_size, ei)
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
    result = HardwareResult(
        params=params,
        nprocs=nprocs,
        l2_misses=l2_misses,
        tlb_misses=epoch_tlb.sum(axis=0),
        invalidations=invalidations,
        work=work,
        lock_acquires=locks,
        barriers=nepochs,
        time=total_time,
        phase_times=phase_times,
        cold_misses=cold,
        coherence_misses=coherence,
        capacity_misses=residual,
        classification_overcount=overcount,
    )
    return result, epoch_l2, epoch_tlb
