"""TreadMarks-style homeless lazy release consistency model.

TreadMarks (Amza et al., IEEE Computer 1996) keeps modifications where they
were made: each writer twins the page on its first write of an interval and
computes a *diff* at synchronization.  A processor faulting on a page must
fetch one diff *from every concurrent writer* whose modifications it has not
yet applied — which is why, for the same degree of false sharing, TreadMarks
"sends many more messages (though with the same amount of total data)" than
home-based HLRC (paper section 5.2).

The model processes barrier-separated intervals in order, maintaining per
(page, processor) the set of diffs already applied (as per-writer interval
counters) and charging:

* a full page fetch (2 messages, ``page_size`` + headers bytes) on the first
  fault on a page that some other processor has initialized;
* one diff request/reply pair per writer with pending diffs (2 messages,
  diff payload + run-length overhead + headers bytes);
* 2(P-1) messages per barrier, with write notices piggybacked (their bytes
  are charged, their messages are not);
* 2 messages per lock acquisition (request forwarded to the holder).

Within an interval processor ``p`` reads and writes only its own rows of
the per-(page, processor) state, and the diffs created in the interval
become visible only at its end, so each interval is folded for all
processors at once over flat ``(page, proc)`` rows.
"""

from __future__ import annotations

import numpy as np

from ...trace.events import Trace
from ...trace.layout import Layout
from ..params import CLUSTER_16, ClusterParams
from .common import DSMResult, fold_intervals, proc_sums, protocol_inputs
from .intervals import EpochPageInfo, build_intervals

__all__ = ["simulate_treadmarks"]


def simulate_treadmarks(
    trace: Trace,
    params: ClusterParams = CLUSTER_16,
    layout: Layout | None = None,
    *,
    intervals: list[EpochPageInfo] | None = None,
) -> DSMResult:
    """Run a trace through the TreadMarks protocol model."""
    intervals, layout, npages = protocol_inputs(
        "simulate_treadmarks", trace, params, layout, intervals, build_intervals
    )
    P = trace.nprocs
    hdr = params.msg_header_bytes

    # cum_count[g, w]  — diffs writer w has created for page g so far.
    # cum_bytes[g, w]  — their cumulative payload bytes.
    # Row ``g * P + p`` of seen_count/seen_bytes: the diffs of each writer
    # on g that processor p has applied; touched[g * P + p]: p has a copy.
    cum_count = np.zeros((npages, P), dtype=np.int64)
    cum_bytes = np.zeros((npages, P), dtype=np.int64)
    seen_count = np.zeros((npages * P, P), dtype=np.int64)
    seen_bytes = np.zeros((npages * P, P), dtype=np.int64)
    touched = np.zeros(npages * P, dtype=bool)

    def interval(info: EpochPageInfo, acc_procs, wr_procs):
        pages = info.acc_pages
        rows = pages * P + acc_procs
        first = ~touched[rows]
        # --- First faults: whole-page fetch from the last writer (or the
        # initializing processor).  Pages nobody ever wrote are replicated
        # read-only copies of the initial data; TreadMarks still faults
        # them in once.
        fetches = proc_sums(first, info.acc_bounds)
        n_first = int(fetches.sum())
        messages = 2 * n_first
        data_bytes = n_first * (params.page_size + 2 * hdr)
        proc_time = fetches * params.page_fetch_time
        if n_first:
            # The fetched copy is current: mark all diffs applied.
            frows, fpages = rows[first], pages[first]
            seen_count[frows] = cum_count.take(fpages, axis=0)
            seen_bytes[frows] = cum_bytes.take(fpages, axis=0)
            touched[frows] = True

        # --- Re-faults: fetch pending diffs, one per lagging writer.
        diffs = payload = np.zeros(P, dtype=np.int64)
        rows, pages, procs = rows[~first], pages[~first], acc_procs[~first]
        current = cum_count.take(pages, axis=0)  # (k, W)
        lagging = current > seen_count.take(rows, axis=0)
        lagging[np.arange(rows.shape[0]), procs] = False  # own diffs are local
        per_row = np.count_nonzero(lagging, axis=1)
        hit = np.flatnonzero(per_row)
        if hit.shape[0]:
            rows, current, lagging = rows[hit], current[hit], lagging[hit]
            current_bytes = cum_bytes.take(pages[hit], axis=0)
            bounds = np.searchsorted(procs[hit], np.arange(P + 1))
            diffs = proc_sums(per_row[hit], bounds)
            row_bytes = current_bytes - seen_bytes.take(rows, axis=0)
            payload = proc_sums((row_bytes * lagging).sum(axis=1), bounds)
            n_diffs = int(diffs.sum())
            messages += 2 * n_diffs
            data_bytes += int(payload.sum()) + n_diffs * (
                params.diff_overhead_bytes + 2 * hdr
            )
            # One request round per faulting page (requests to all writers
            # go out in parallel), plus per-message software overhead for
            # every diff reply, plus wire time.
            proc_time += (
                np.diff(bounds) * params.diff_request_time
                + diffs * params.msg_overhead_time
                + payload / params.bandwidth
            )
            seen_count[rows] = current
            seen_bytes[rows] = current_bytes

        # --- End of interval: writers create diffs (visible from the next
        # interval on); write notices are piggybacked on the barrier.
        wpages = info.wr_pages
        cum_count[wpages, wr_procs] += 1
        cum_bytes[wpages, wr_procs] += info.wr_bytes
        data_bytes += wpages.shape[0] * params.write_notice_bytes
        return proc_time, messages, data_bytes, (fetches, diffs, payload)

    return fold_intervals("treadmarks", params, P, npages, intervals, interval)
