"""Shared result type, input checks and interval fold for the DSM
protocol models."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...errors import SimulationInputError
from ...trace.events import Trace
from ..params import ClusterParams
from .intervals import EpochPageInfo, total_pages

__all__ = ["DSMResult"]


@dataclass
class DSMResult:
    """Counters and modelled timing from a DSM protocol simulation.

    ``messages`` and ``data_bytes`` correspond to the paper's Table 3
    columns ("number of messages, and amount of data on 16 processors");
    ``time`` is the modelled parallel execution time that Figures 8/9's
    speedups derive from.
    """

    protocol: str
    params: ClusterParams
    nprocs: int
    messages: int
    data_bytes: int
    page_fetches: np.ndarray  # per proc
    diff_fetches: np.ndarray  # per proc (TreadMarks) / diffs-to-home (HLRC)
    diff_bytes: np.ndarray  # per proc payload bytes moved for diffs
    barriers: int
    lock_acquires: int
    time: float
    phase_times: dict[str, float] = field(default_factory=dict)

    @property
    def data_mbytes(self) -> float:
        return self.data_bytes / 1e6

    def summary(self) -> dict[str, float]:
        return {
            "time": self.time,
            "messages": self.messages,
            "data_mbytes": round(self.data_mbytes, 3),
            "page_fetches": int(self.page_fetches.sum()),
            "diff_fetches": int(self.diff_fetches.sum()),
            "barriers": self.barriers,
            "locks": self.lock_acquires,
        }


def protocol_inputs(name, trace, params, layout, intervals, build):
    """Check a protocol model's inputs; summarize ``trace`` with
    ``build`` unless ``intervals`` are given.  Returns the intervals,
    their layout and the number of pages it spans."""
    if not isinstance(trace, Trace):
        raise SimulationInputError(
            f"{name} expects a Trace, got {type(trace).__name__}"
        )
    if intervals is None:
        intervals, layout = build(trace, layout, params.page_size)
    elif layout is None:
        raise SimulationInputError(
            f"{name}: intervals= needs the layout they were built on"
        )
    return intervals, layout, total_pages(layout, params.page_size)


def proc_sums(values: np.ndarray, bounds) -> np.ndarray:
    """Integer sums of ``values`` over each processor's run
    ``[bounds[p], bounds[p + 1])``; an empty run sums to zero."""
    bounds = np.asarray(bounds)
    out = np.zeros(bounds.shape[0] - 1, dtype=np.int64)
    full = np.nonzero(bounds[1:] > bounds[:-1])[0]
    if full.shape[0]:
        out[full] = np.add.reduceat(values, bounds[full], dtype=np.int64)
    return out


def _check_interval(info: EpochPageInfo, nprocs: int, npages: int) -> None:
    if info.nprocs != nprocs:
        raise SimulationInputError(
            f"an interval of {info.nprocs} processors in a {nprocs}-processor trace"
        )
    if info.npages != npages:
        raise SimulationInputError(
            f"an interval over {info.npages} pages for a layout of {npages}"
            " (built at another page size or on another layout?)"
        )


def fold_intervals(protocol, params, nprocs, npages, intervals, interval) -> DSMResult:
    """Fold the intervals in order through ``interval``, then charge each
    one's locks and closing barrier.

    ``interval(info, acc_procs, wr_procs)`` gets the processor of every
    accessed and written page and returns the per-processor time of the
    interval's faults and diffs, its messages and bytes, and a ``(3, P)``
    increment of page fetches, diff fetches and diff bytes.
    """
    procs = np.arange(nprocs, dtype=np.int64)
    counts = np.zeros((3, nprocs), dtype=np.int64)
    messages = data_bytes = lock_total = 0
    time = 0.0
    phase_times: dict[str, float] = {}
    work_time = params.work_cycles * params.cycle_time
    hdr = params.msg_header_bytes
    for info in intervals:
        _check_interval(info, nprocs, npages)
        proc_time, msgs, nbytes, per_proc = interval(
            info,
            procs.repeat(np.diff(info.acc_bounds)),
            procs.repeat(np.diff(info.wr_bounds)),
        )
        messages += msgs
        data_bytes += nbytes
        for total, part in zip(counts, per_proc):
            total += part

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

    page_fetches, diff_fetches, diff_bytes = counts
    return DSMResult(
        protocol=protocol,
        params=params,
        nprocs=nprocs,
        messages=messages,
        data_bytes=data_bytes,
        page_fetches=page_fetches,
        diff_fetches=diff_fetches,
        diff_bytes=diff_bytes,
        barriers=len(intervals),
        lock_acquires=lock_total,
        time=time,
        phase_times=phase_times,
    )
