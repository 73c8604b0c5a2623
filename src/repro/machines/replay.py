"""Parallel replay backend: processor blocks fanned out over worker processes.

A parallel Origin replay is the serial batched replay
(:func:`repro.machines.hardware._replay_counters`) cut into contiguous
processor blocks, one per worker.  Processors' caches interact only at
the barriers, through the per-line counts of which processors wrote each
line, and those counts are a pure function of the trace, not of any
cache's state:

* the parent partitions processors into contiguous blocks, one worker per
  block, fanned out through :func:`repro.runtime.executor.run_tasks`
  (process-per-attempt, timeouts, retries, serial degradation);
* each worker attaches to the *same* on-disk ``.npt`` bundle by path.
  For uncompressed (v2) bundles that is a mapping of the file, so all
  workers share the kernel's read-only page cache: the index columns are
  mapped, never copied, and never pickled;
* a worker decodes its own processors' streams and replays them exactly
  as the serial replay does, with the same global processor ids and key
  encoding; the processors outside its block feed only their write
  bursts, into the barrier's writer counts;
* workers return the serial replay's counters, zero outside their block
  (a few KB), and the parent sums them and folds the sum into a
  :class:`~repro.machines.hardware.HardwareResult` through the serial
  engine's own fold, so the timing model runs epoch by epoch in the same
  order with the same float operations.

The fold is **byte-identical** to ``simulate_hardware`` (same counters,
same float ``time``/``phase_times``), which the equivalence tests assert
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

import numpy as np

from ..errors import SimulationInputError
from ..runtime.executor import ExecutorConfig, Task, run_tasks
from ..trace.io import load_trace
from ..trace.layout import DecodeMemo, Layout, decode_epoch, decode_memo
from .hardware import (
    HardwareResult,
    _hardware_result,
    _replay_counters,
    simulate_hardware,
)
from .params import HardwareParams

__all__ = ["simulate_hardware_parallel", "build_intervals_parallel"]


def _proc_blocks(nprocs: int, jobs: int) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` processor blocks, one per worker."""
    jobs = max(1, min(jobs, nprocs))
    bounds = np.linspace(0, nprocs, jobs + 1).astype(np.int64)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(jobs)]


def _replay_block(
    trace_path: str, lo: int, hi: int, params: HardwareParams
) -> tuple[np.ndarray, ...]:
    """Worker: the serial replay's counters for processors ``[lo, hi)``.

    Loads the bundle by path (mapped for v2, so workers share read-only
    pages; lazy chunk decode for v3).  A plain function: calling it
    in-process (the executor's serial fallback) gives the same numbers.
    """
    trace = load_trace(trace_path, mmap=True, validate=False)
    layout = Layout.for_trace(trace, align=params.page_size)
    return _replay_counters(trace, params, layout, lo, hi)


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
    the batched replay divided into processor blocks across workers.

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
    # Each block's counters are zero outside it, so the sum is exact.
    counters = [sum(parts) for parts in zip(*results.values())]
    # The shared fold runs the timing model in epoch order with the
    # serial engine's float operations, so the results are bit-identical.
    return _hardware_result(trace, params, *counters)


# ---------------------------------------------------------------------------
# Parallel DSM interval build (epoch granularity)
# ---------------------------------------------------------------------------


def _intervals_block(trace_path: str, ei_lo: int, ei_hi: int, page_size: int):
    """Worker: interval summaries for epochs ``[ei_lo, ei_hi)``."""
    from .dsm.intervals import _epoch_ladder_packed, _page_info

    trace = load_trace(trace_path, mmap=True, validate=False)
    layout = Layout.for_trace(trace, align=page_size)
    out = []
    for epoch in trace.epochs[ei_lo:ei_hi]:
        decoded = decode_epoch(epoch, layout, page_size)
        level = _epoch_ladder_packed(epoch, decoded, layout, page_size)
        out.append(_page_info(epoch, level, layout, page_size))
    return out


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
    for info in infos:  # pickling drops numpy's read-only flag
        for a in (info.acc_pages, info.wr_pages, info.wr_bytes, info.work,
                  info.lock_acquires):
            a.flags.writeable = False
    if len(infos) != E:
        raise SimulationInputError(
            f"parallel interval build returned {len(infos)} summaries for"
            f" {E} epochs"
        )
    memo = decode_memo(trace)
    key = ("intervals", DecodeMemo.geometry_key(layout, page_size))
    installed = memo.derived(key, lambda: infos)
    return installed, layout
