"""Per-processor reference folds for the batched DSM protocol models.

:func:`repro.machines.dsm.treadmarks.simulate_treadmarks` and
:func:`repro.machines.dsm.hlrc.simulate_hlrc` fold each interval for all
processors at once, over flat ``(proc, page)`` pairs.  The two functions
here are the direct statement of the models they batch: every interval is
walked one processor at a time, faults first, then the interval-end
writes writer by writer.  The batched folds are held to them on every
:class:`repro.machines.dsm.DSMResult` field, ``time`` and
``phase_times`` bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationInputError
from repro.machines.dsm.common import DSMResult
from repro.machines.dsm.hlrc import block_homes
from repro.machines.dsm.intervals import EpochPageInfo, build_intervals, total_pages
from repro.machines.params import CLUSTER_16, ClusterParams
from repro.trace.events import Trace
from repro.trace.layout import Layout


def simulate_treadmarks(
    trace: Trace,
    params: ClusterParams = CLUSTER_16,
    layout: Layout | None = None,
    *,
    intervals: list[EpochPageInfo] | None = None,
) -> DSMResult:
    """Run a trace through the TreadMarks protocol model."""
    if not isinstance(trace, Trace):
        raise SimulationInputError(
            f"simulate_treadmarks expects a Trace, got {type(trace).__name__}"
        )
    if intervals is None:
        intervals, layout = build_intervals(trace, layout, params.page_size)
    assert layout is not None
    nprocs = trace.nprocs
    npages = total_pages(layout, params.page_size)

    # cum_count[g, w]  — diffs writer w has created for page g so far.
    # cum_bytes[g, w]  — their cumulative payload bytes.
    # seen_count[g, p, w] — diffs of w on g that processor p has applied.
    cum_count = np.zeros((npages, nprocs), dtype=np.int64)
    cum_bytes = np.zeros((npages, nprocs), dtype=np.int64)
    seen_count = np.zeros((npages, nprocs, nprocs), dtype=np.int64)
    seen_bytes = np.zeros((npages, nprocs, nprocs), dtype=np.int64)
    touched = np.zeros((npages, nprocs), dtype=bool)  # p has a copy of g

    messages = 0
    data_bytes = 0
    page_fetches = np.zeros(nprocs, dtype=np.int64)
    diff_fetches = np.zeros(nprocs, dtype=np.int64)
    diff_bytes_moved = np.zeros(nprocs, dtype=np.int64)
    lock_total = 0
    time = 0.0
    phase_times: dict[str, float] = {}

    work_time = params.work_cycles * params.cycle_time
    hdr = params.msg_header_bytes

    for info in intervals:
        proc_time = np.zeros(nprocs, dtype=np.float64)
        for p in range(nprocs):
            acc = info.accesses[p]
            if acc.shape[0] == 0:
                continue
            first = ~touched[acc, p]
            # --- First faults: whole-page fetch from the last writer (or
            # the initializing processor).  Pages nobody ever wrote are
            # replicated read-only copies of the initial data; TreadMarks
            # still faults them in once.
            n_first = int(first.sum())
            if n_first:
                page_fetches[p] += n_first
                messages += 2 * n_first
                data_bytes += n_first * (params.page_size + 2 * hdr)
                proc_time[p] += n_first * params.page_fetch_time
                fp = acc[first]
                # The fetched copy is current: mark all diffs applied.
                seen_count[fp, p, :] = cum_count[fp, :]
                seen_bytes[fp, p, :] = cum_bytes[fp, :]
                touched[fp, p] = True
            # --- Re-faults: fetch pending diffs, one per lagging writer.
            old = acc[~first]
            if old.shape[0]:
                pend = cum_count[old, :] - seen_count[old, p, :]  # (k, W)
                pend[:, p] = 0  # own diffs are already local
                lagging = pend > 0
                n_diffs = int(lagging.sum())
                if n_diffs:
                    payload = int(
                        (cum_bytes[old, :] - seen_bytes[old, p, :])[lagging].sum()
                    )
                    diff_fetches[p] += n_diffs
                    diff_bytes_moved[p] += payload
                    messages += 2 * n_diffs
                    data_bytes += payload + n_diffs * (
                        params.diff_overhead_bytes + 2 * hdr
                    )
                    # One request round per faulting page (requests to all
                    # writers go out in parallel), plus per-message software
                    # overhead for every diff reply, plus wire time.
                    faulting_pages = int(lagging.any(axis=1).sum())
                    proc_time[p] += (
                        faulting_pages * params.diff_request_time
                        + n_diffs * params.msg_overhead_time
                        + payload / params.bandwidth
                    )
                    seen_count[old, p, :] = cum_count[old, :]
                    seen_bytes[old, p, :] = cum_bytes[old, :]

        # --- End of interval: writers create diffs (visible from the next
        # interval on); write notices are piggybacked on the barrier.
        notice_count = 0
        for w in range(nprocs):
            wp = info.writes[w]
            if wp.shape[0] == 0:
                continue
            cum_count[wp, w] += 1
            cum_bytes[wp, w] += info.write_bytes[w]
            notice_count += wp.shape[0]
        data_bytes += notice_count * params.write_notice_bytes

        # --- Locks and barrier.
        locks_here = int(info.lock_acquires.sum())
        lock_total += locks_here
        messages += 2 * locks_here
        data_bytes += locks_here * 2 * hdr
        proc_time += info.lock_acquires * params.lock_time
        proc_time += info.work * work_time
        if nprocs > 1:
            messages += 2 * (nprocs - 1)
            data_bytes += 2 * (nprocs - 1) * hdr
            barrier_cost = params.barrier_time
        else:
            barrier_cost = 0.0
        epoch_time = float(proc_time.max()) + barrier_cost
        time += epoch_time
        if info.label:
            phase_times[info.label] = phase_times.get(info.label, 0.0) + epoch_time

    return DSMResult(
        protocol="treadmarks",
        params=params,
        nprocs=nprocs,
        messages=messages,
        data_bytes=data_bytes,
        page_fetches=page_fetches,
        diff_fetches=diff_fetches,
        diff_bytes=diff_bytes_moved,
        barriers=len(intervals),
        lock_acquires=lock_total,
        time=time,
        phase_times=phase_times,
    )


def simulate_hlrc(
    trace: Trace,
    params: ClusterParams = CLUSTER_16,
    layout: Layout | None = None,
    *,
    homes: np.ndarray | None = None,
    intervals: list[EpochPageInfo] | None = None,
) -> DSMResult:
    """Run a trace through the HLRC protocol model."""
    if not isinstance(trace, Trace):
        raise SimulationInputError(
            f"simulate_hlrc expects a Trace, got {type(trace).__name__}"
        )
    if intervals is None:
        intervals, layout = build_intervals(trace, layout, params.page_size)
    assert layout is not None
    nprocs = trace.nprocs
    npages = total_pages(layout, params.page_size)
    if homes is None:
        homes = block_homes(layout, params.page_size, nprocs)
    homes = np.asarray(homes, dtype=np.int64)
    if homes.shape[0] != npages:
        raise SimulationInputError("homes array does not cover the address space")

    # valid[g, p]: p's copy of g is current. Homes are always valid.
    valid = np.zeros((npages, nprocs), dtype=bool)
    valid[np.arange(npages), homes] = True

    messages = 0
    data_bytes = 0
    page_fetches = np.zeros(nprocs, dtype=np.int64)
    diffs_to_home = np.zeros(nprocs, dtype=np.int64)
    diff_bytes_moved = np.zeros(nprocs, dtype=np.int64)
    lock_total = 0
    time = 0.0
    phase_times: dict[str, float] = {}

    work_time = params.work_cycles * params.cycle_time
    hdr = params.msg_header_bytes

    for info in intervals:
        proc_time = np.zeros(nprocs, dtype=np.float64)
        # --- Faults: any access to an invalid page fetches it from home.
        for p in range(nprocs):
            acc = info.accesses[p]
            if acc.shape[0] == 0:
                continue
            faulting = acc[~valid[acc, p]]
            n = int(faulting.shape[0])
            if n:
                page_fetches[p] += n
                messages += 2 * n
                data_bytes += n * (params.page_size + 2 * hdr)
                proc_time[p] += n * params.page_fetch_time
                valid[faulting, p] = True

        # --- Release: non-home writers push diffs to the homes; everyone's
        # non-home copy of a written page is invalidated (unless the sole
        # writer is that processor itself — its own writes don't invalidate
        # its copy, but *remote* writes do).
        writer_count = np.zeros(npages, dtype=np.int64)
        for w in range(nprocs):
            wp = info.writes[w]
            if wp.shape[0] == 0:
                continue
            writer_count[wp] += 1
            remote = wp[homes[wp] != w]
            n = int(remote.shape[0])
            if n:
                sel = homes[wp] != w
                payload = int(info.write_bytes[w][sel].sum())
                diffs_to_home[w] += n
                diff_bytes_moved[w] += payload
                messages += n  # one diff message per page (ack piggybacked)
                data_bytes += payload + n * (params.diff_overhead_bytes + hdr)
                proc_time[w] += (
                    n * params.msg_overhead_time + payload / params.bandwidth
                )
        written_pages = np.nonzero(writer_count)[0]
        for w in range(nprocs):
            wp = info.writes[w]
            if wp.shape[0]:
                # Invalidate every non-home copy...
                valid[wp, :] = False
        if written_pages.shape[0]:
            # ...except the home's (always current)...
            valid[written_pages, homes[written_pages]] = True
            # ...and the sole writer's own copy when nobody else wrote.
            for w in range(nprocs):
                wp = info.writes[w]
                if wp.shape[0]:
                    sole = wp[writer_count[wp] == 1]
                    valid[sole, w] = True

        # --- Locks and barrier.
        locks_here = int(info.lock_acquires.sum())
        lock_total += locks_here
        messages += 2 * locks_here
        data_bytes += locks_here * 2 * hdr
        proc_time += info.lock_acquires * params.lock_time
        proc_time += info.work * work_time
        if nprocs > 1:
            messages += 2 * (nprocs - 1)
            data_bytes += 2 * (nprocs - 1) * hdr
            barrier_cost = params.barrier_time
        else:
            barrier_cost = 0.0
        epoch_time = float(proc_time.max()) + barrier_cost
        time += epoch_time
        if info.label:
            phase_times[info.label] = phase_times.get(info.label, 0.0) + epoch_time

    return DSMResult(
        protocol="hlrc",
        params=params,
        nprocs=nprocs,
        messages=messages,
        data_bytes=data_bytes,
        page_fetches=page_fetches,
        diff_fetches=diffs_to_home,
        diff_bytes=diff_bytes_moved,
        barriers=len(intervals),
        lock_acquires=lock_total,
        time=time,
        phase_times=phase_times,
    )
