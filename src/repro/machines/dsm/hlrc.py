"""Home-based lazy release consistency (HLRC) model.

HLRC (Zhou, Iftode & Li, OSDI 1996) assigns every page a *home* processor.
At a release, each non-home writer sends its diff to the home, which applies
it eagerly; the home's copy is therefore always current.  A processor
faulting on an invalid page fetches the *whole page* from the home in a
single round trip.

Consequences the model reproduces (paper section 5.2): for the same degree
of false sharing HLRC sends far fewer messages than TreadMarks (one page
fetch instead of one diff per concurrent writer) but more bytes per fetch
(the full page), and non-home writers re-fetch pages they themselves just
wrote (their writes live at the home after the release).

Homes are assigned by blocks of each region's pages across processors,
approximating the first-touch-after-block-initialization assignment used by
real HLRC systems.

Within an interval processor ``p`` reads and writes only its own
``(page, p)`` entries of the validity table, and writes invalidate copies
only at the interval's end, so each interval is folded for all processors
at once over flat ``(page, proc)`` rows.
"""

from __future__ import annotations

import numpy as np

from ...errors import SimulationInputError
from ...trace.events import Trace
from ...trace.layout import Layout
from ..params import CLUSTER_16, ClusterParams
from .common import DSMResult, fold_intervals, proc_sums, protocol_inputs
from .intervals import EpochPageInfo, build_intervals, total_pages

__all__ = ["simulate_hlrc", "block_homes"]


def block_homes(layout: Layout, page_size: int, nprocs: int) -> np.ndarray:
    """Home processor of every page: block distribution per region.

    Page ``i`` of a region spanning ``m`` pages is homed at processor
    ``i * nprocs // m`` — contiguous blocks, like first-touch after a
    block-partitioned initialization.
    """
    npages = total_pages(layout, page_size)
    homes = np.zeros(npages, dtype=np.int64)
    for r in range(len(layout.regions)):
        pages = layout.region_pages(r, page_size)
        m = pages.shape[0]
        homes[pages] = np.arange(m, dtype=np.int64) * nprocs // m
    return homes


def simulate_hlrc(
    trace: Trace,
    params: ClusterParams = CLUSTER_16,
    layout: Layout | None = None,
    *,
    homes: np.ndarray | None = None,
    intervals: list[EpochPageInfo] | None = None,
) -> DSMResult:
    """Run a trace through the HLRC protocol model."""
    intervals, layout, npages = protocol_inputs(
        "simulate_hlrc", trace, params, layout, intervals, build_intervals
    )
    P = trace.nprocs
    hdr = params.msg_header_bytes
    if homes is None:
        homes = block_homes(layout, params.page_size, P)
    homes = np.asarray(homes, dtype=np.int64)
    if homes.shape != (npages,):
        raise SimulationInputError("homes array does not cover the address space")
    if npages and (homes.min() < 0 or homes.max() >= P):
        raise SimulationInputError(f"homes must name processors in [0, {P})")

    # valid[g * P + p]: p's copy of g is current. Homes are always valid.
    valid = np.zeros(npages * P, dtype=bool)
    valid[np.arange(npages) * P + homes] = True
    by_page = valid.reshape(npages, P)

    def interval(info: EpochPageInfo, acc_procs, wr_procs):
        # --- Faults: any access to an invalid page fetches it from home.
        rows = info.acc_pages * P + acc_procs
        faulting = ~valid[rows]
        fetches = proc_sums(faulting, info.acc_bounds)
        n = int(fetches.sum())
        messages = 2 * n
        data_bytes = n * (params.page_size + 2 * hdr)
        proc_time = fetches * params.page_fetch_time
        valid[rows[faulting]] = True

        # --- Release: non-home writers push diffs to the homes; everyone's
        # non-home copy of a written page is invalidated (unless the sole
        # writer is that processor itself — its own writes don't invalidate
        # its copy, but *remote* writes do).
        wpages = info.wr_pages
        diffs = payload = np.zeros(P, dtype=np.int64)
        if wpages.shape[0]:
            remote = homes[wpages] != wr_procs
            diffs = proc_sums(remote, info.wr_bounds)
            payload = proc_sums(np.where(remote, info.wr_bytes, 0), info.wr_bounds)
            n = int(diffs.sum())
            messages += n  # one diff message per page (ack piggybacked)
            data_bytes += int(payload.sum()) + n * (params.diff_overhead_bytes + hdr)
            proc_time += diffs * params.msg_overhead_time + payload / params.bandwidth
            writer_count = np.bincount(wpages, minlength=npages)
            written = np.flatnonzero(writer_count)
            # Invalidate every non-home copy, except the home's (always
            # current) and the sole writer's own copy when nobody else wrote.
            by_page[written] = False
            valid[written * P + homes[written]] = True
            sole = writer_count[wpages] == 1
            valid[wpages[sole] * P + wr_procs[sole]] = True
        return proc_time, messages, data_bytes, (fetches, diffs, payload)

    return fold_intervals("hlrc", params, P, npages, intervals, interval)
