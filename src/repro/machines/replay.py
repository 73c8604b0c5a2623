"""Parallel replay backend: per-processor fan-out over worker processes.

``simulate_hardware`` replays each processor's private L2/TLB stream
independently — the only cross-processor coupling is the barrier
invalidation, and the *target* line sets of those invalidations are a pure
function of the trace (every processor's per-epoch written lines), not of
any cache's state.  That makes the whole replay embarrassingly parallel at
processor granularity:

* the parent partitions processors into contiguous blocks, one worker per
  block, fanned out through :func:`repro.runtime.executor.run_tasks`
  (process-per-attempt, timeouts, retries, serial degradation);
* each worker attaches to the *same* on-disk ``.npt`` bundle by path.
  For uncompressed (v2) bundles that is an ``np.memmap`` of the file, so
  all workers share the kernel's read-only page cache — the index columns
  are mapped, never copied, and never pickled;
* a worker derives every processor's per-epoch written-line sets from the
  write bursts alone (cheap: write bursts are a small fraction of the
  trace), then replays its own processors proc-major — replay epoch,
  apply that epoch's invalidation targets, next epoch — which visits each
  cache in exactly the order the serial epoch-major loop does;
* workers return compact counter blocks (per-epoch L2/TLB miss matrices,
  per-proc invalidation/cold/coherence totals — a few KB), and the parent
  folds them into a :class:`~repro.machines.hardware.HardwareResult`,
  recomputing the timing model epoch-by-epoch in the same order and with
  the same float operations as the serial engine.

The fold is **byte-identical** to ``simulate_hardware`` — same counters,
same float ``time``/``phase_times`` — which the equivalence tests assert
field by field.

:func:`build_intervals_parallel` does the same for the DSM front end at
*epoch* granularity (interval summaries are per-epoch independent), and
installs the folded summaries into the trace's decode memo under the same
derived key :func:`repro.machines.dsm.intervals.build_intervals` uses, so
the TreadMarks/HLRC protocol models transparently consume the parallel
build.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from ..errors import SimulationInputError
from ..runtime.executor import ExecutorConfig, Task, run_tasks
from ..trace.io import load_trace
from ..trace.layout import DecodeMemo, Layout, decode_memo
from .cache import LRUCache, SetAssocCache
from .hardware import HardwareResult, _invalidation_targets, simulate_hardware
from .params import HardwareParams

__all__ = ["simulate_hardware_parallel", "build_intervals_parallel"]


def _proc_blocks(nprocs: int, jobs: int) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` processor blocks, one per worker."""
    jobs = max(1, min(jobs, nprocs))
    bounds = np.linspace(0, nprocs, jobs + 1).astype(np.int64)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(jobs)]


def _written_line_sets(trace, layout: Layout, line_size: int, nlines: int):
    """Per-epoch, per-proc sorted-unique written-line sets, trace-only.

    Decodes *write bursts only* — identical sets to what the serial
    engine's full-stream write mask produces, at a fraction of the decode
    cost, and computable by every worker without any cross-worker state.
    """
    wmask = np.zeros(nlines, dtype=bool)
    empty = np.empty(0, dtype=np.int64)
    per_epoch: list[list[np.ndarray]] = []
    for epoch in trace.epochs:
        sets: list[np.ndarray] = []
        for q in range(epoch.nprocs):
            b0, b1 = int(epoch.burst_offsets[q]), int(epoch.burst_offsets[q + 1])
            bw = np.asarray(epoch.burst_write[b0:b1])
            if not bw.any():
                sets.append(empty)
                continue
            blen = np.asarray(epoch.burst_length[b0:b1])
            lo, hi = int(epoch.offsets[q]), int(epoch.offsets[q + 1])
            idx_w = np.asarray(epoch.index[lo:hi])[np.repeat(bw, blen)]
            units = layout.units_batch_bursts(
                epoch.burst_region[b0:b1][bw], blen[bw], idx_w, line_size
            )
            wmask[units] = True
            sets.append(np.flatnonzero(wmask))
            wmask.fill(False)
        per_epoch.append(sets)
    return per_epoch


def _replay_block(
    trace_path: str,
    proc_lo: int,
    proc_hi: int,
    params: HardwareParams,
) -> dict[str, np.ndarray]:
    """Worker: replay processors ``[proc_lo, proc_hi)`` of the trace.

    Loads the bundle by path (mmap for v2 — shared read-only pages across
    workers; lazy chunk decode for v3) and returns compact counter blocks.
    Runs in a forked/spawned process via the runtime executor, but is a
    plain function: calling it in-process (the executor's serial fallback,
    or ``jobs=1``) produces the same numbers.
    """
    trace = load_trace(trace_path, mmap=True, validate=False)
    layout = Layout.for_trace(trace, align=params.page_size)
    nprocs = trace.nprocs
    E = len(trace.epochs)
    block = proc_hi - proc_lo
    shift = params.line_size.bit_length() - 1
    pshift = params.page_size.bit_length() - 1
    nlines = (layout.total_bytes >> shift) + 1

    written = _written_line_sets(trace, layout, params.line_size, nlines)
    targets = [_invalidation_targets(sets) for sets in written]

    epoch_l2 = np.zeros((E, block), dtype=np.int64)
    epoch_tlb = np.zeros((E, block), dtype=np.int64)
    invalidations = np.zeros(block, dtype=np.int64)
    cold = np.zeros(block, dtype=np.int64)
    coherence = np.zeros(block, dtype=np.int64)

    touched = np.zeros(nlines, dtype=bool)
    seen = np.zeros(nlines, dtype=bool)
    pending_inval = np.zeros(nlines, dtype=bool)
    for j, p in enumerate(range(proc_lo, proc_hi)):
        cache = SetAssocCache(params.l2_sets, params.l2_assoc)
        tlb = LRUCache(params.tlb_entries)
        seen.fill(False)
        pending_inval.fill(False)
        for ei, epoch in enumerate(trace.epochs):
            lo, hi = int(epoch.offsets[p]), int(epoch.offsets[p + 1])
            if hi > lo:
                b0 = int(epoch.burst_offsets[p])
                b1 = int(epoch.burst_offsets[p + 1])
                lines = layout.units_batch_bursts(
                    epoch.burst_region[b0:b1],
                    epoch.burst_length[b0:b1],
                    epoch.index[lo:hi],
                    params.line_size,
                )
                pages = (lines << shift) >> pshift
                epoch_l2[ei, j] = cache.access_stream(lines)
                epoch_tlb[ei, j] = tlb.access_stream(pages)
                touched[lines] = True
                fresh = touched & ~seen
                cold[j] += int(np.count_nonzero(fresh))
                seen |= fresh
                coherence[j] += int(np.count_nonzero(touched & pending_inval))
                pending_inval &= ~touched
                touched.fill(False)
            w = targets[ei][p]
            if w is not None and w.shape[0]:
                removed = cache.invalidate_present(w, assume_unique=True)
                if removed.shape[0]:
                    invalidations[j] += removed.shape[0]
                    pending_inval[removed] = True
    return {
        "proc_lo": proc_lo,
        "proc_hi": proc_hi,
        "epoch_l2": epoch_l2,
        "epoch_tlb": epoch_tlb,
        "invalidations": invalidations,
        "cold": cold,
        "coherence": coherence,
    }


def simulate_hardware_parallel(
    trace_path,
    params: HardwareParams = HardwareParams(),
    jobs: int = 4,
    *,
    executor: ExecutorConfig | None = None,
) -> HardwareResult:
    """Replay an on-disk trace across ``jobs`` worker processes.

    Byte-identical to ``simulate_hardware(load_trace(trace_path), params)``
    — every counter array, the float ``time``, and ``phase_times`` — with
    wall-clock divided across workers (the per-proc kernel replay is ~90%
    of the serial engine's time on the pipeline bench).

    ``trace_path`` must name a saved ``.npt`` bundle: workers attach by
    path, sharing read-only mapped pages instead of pickling columns.
    ``jobs <= 1`` simply runs the serial engine.  The executor config
    controls timeouts/retries; worker failures degrade to in-process
    replay of the failed block rather than failing the run.
    """
    trace_path = os.fspath(trace_path)
    trace = load_trace(trace_path, mmap=True, validate=False)
    nprocs = trace.nprocs
    if jobs <= 1 or nprocs == 1:
        return simulate_hardware(trace, params)

    blocks = _proc_blocks(nprocs, jobs)
    config = executor or ExecutorConfig(jobs=len(blocks), task_timeout=None)
    tasks = [
        Task(
            key=f"replay:{lo}-{hi}",
            fn=_replay_block,
            args=(trace_path, lo, hi, params),
        )
        for lo, hi in blocks
    ]
    results = run_tasks(tasks, config)

    E = len(trace.epochs)
    epoch_l2 = np.zeros((E, nprocs), dtype=np.int64)
    epoch_tlb = np.zeros((E, nprocs), dtype=np.int64)
    invalidations = np.zeros(nprocs, dtype=np.int64)
    cold = np.zeros(nprocs, dtype=np.int64)
    coherence = np.zeros(nprocs, dtype=np.int64)
    for block in results.values():
        lo, hi = int(block["proc_lo"]), int(block["proc_hi"])
        epoch_l2[:, lo:hi] = block["epoch_l2"]
        epoch_tlb[:, lo:hi] = block["epoch_tlb"]
        invalidations[lo:hi] = block["invalidations"]
        cold[lo:hi] = block["cold"]
        coherence[lo:hi] = block["coherence"]

    # Fold the timing model in epoch order with the exact operations the
    # serial loop performs, so the float results are bit-identical.
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
            stacklevel=2,
        )
    return HardwareResult(
        params=params,
        nprocs=nprocs,
        l2_misses=l2_misses,
        tlb_misses=epoch_tlb.sum(axis=0),
        invalidations=invalidations,
        work=work,
        lock_acquires=locks,
        barriers=E,
        time=total_time,
        phase_times=phase_times,
        cold_misses=cold,
        coherence_misses=coherence,
        capacity_misses=residual,
        classification_overcount=overcount,
    )


# ---------------------------------------------------------------------------
# Parallel DSM interval build (epoch granularity)
# ---------------------------------------------------------------------------


def _intervals_block(trace_path: str, ei_lo: int, ei_hi: int, page_size: int):
    """Worker: interval summaries for epochs ``[ei_lo, ei_hi)``."""
    from .dsm.intervals import _epoch_info_packed

    trace = load_trace(trace_path, mmap=True, validate=False)
    layout = Layout.for_trace(trace, align=page_size)
    memo = decode_memo(trace)
    return [
        _epoch_info_packed(
            trace.epochs[ei], memo.epoch(layout, page_size, ei), layout, page_size
        )
        for ei in range(ei_lo, ei_hi)
    ]


def build_intervals_parallel(
    trace_path,
    page_size: int = 4096,
    jobs: int = 4,
    *,
    trace=None,
    executor: ExecutorConfig | None = None,
):
    """Build DSM interval summaries across ``jobs`` workers, epoch-major.

    Returns ``(infos, layout)`` exactly like
    :func:`repro.machines.dsm.intervals.build_intervals`, and installs the
    folded list into the decode memo of ``trace`` (pass the already-loaded
    instance the protocol models will run on; loaded fresh from
    ``trace_path`` otherwise) under the same derived key — so a subsequent
    ``simulate_treadmarks``/``simulate_hlrc`` call on that trace reuses
    the parallel build instead of re-summarizing serially.
    """
    from .dsm.intervals import build_intervals

    trace_path = os.fspath(trace_path)
    if trace is None:
        trace = load_trace(trace_path, mmap=True, validate=False)
    E = len(trace.epochs)
    if jobs <= 1 or E <= 1:
        return build_intervals(trace, None, page_size)

    layout = Layout.for_trace(trace, align=page_size)
    jobs = max(1, min(jobs, E))
    bounds = np.linspace(0, E, jobs + 1).astype(np.int64)
    tasks = [
        Task(
            key=f"intervals:{int(bounds[i])}-{int(bounds[i + 1])}",
            fn=_intervals_block,
            args=(trace_path, int(bounds[i]), int(bounds[i + 1]), page_size),
        )
        for i in range(jobs)
        if bounds[i + 1] > bounds[i]
    ]
    config = executor or ExecutorConfig(jobs=len(tasks), task_timeout=None)
    results = run_tasks(tasks, config)
    infos = []
    for task in tasks:  # fold in epoch order, not completion order
        infos.extend(results[task.key])
    if len(infos) != E:
        raise SimulationInputError(
            f"parallel interval build returned {len(infos)} summaries for"
            f" {E} epochs"
        )
    memo = decode_memo(trace)
    key = ("intervals", DecodeMemo.geometry_key(layout, page_size))
    installed = memo.derived(key, lambda: infos)
    return installed, layout
