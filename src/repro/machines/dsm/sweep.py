"""Page-size sweep entry points for the DSM protocol models.

The DSM protocols are parameterized by page size, and a page-size sweep
re-reads the same trace at every point.  Because pages at size ``2s``
are pairs of size-``s`` pages, the per-epoch interval summaries fold
upward (:func:`repro.machines.dsm.intervals.build_interval_ladder`)
instead of being rebuilt per point: one finest-level pass feeds every
size, and the protocol replay itself — cheap next to interval building —
runs per point on the shared summaries.

All points share one layout aligned to the largest page size.  Region
bases are then page-aligned at every swept size, so each point's
counters equal a standalone ``simulate_*(trace, cluster_scaled(...))``
run with its own default layout (asserted in
``tests/machines/test_interval_ladder.py``).
"""

from __future__ import annotations

from dataclasses import replace

from ...errors import UnknownPlatformError
from ...trace.events import Trace
from ...trace.layout import Layout
from ..params import CLUSTER_16, ClusterParams
from .common import DSMResult
from .hlrc import simulate_hlrc
from .intervals import build_interval_ladder
from .treadmarks import simulate_treadmarks

__all__ = ["simulate_treadmarks_sweep", "simulate_hlrc_sweep", "simulate_dsm_sweep"]

_PROTOCOLS = {
    "treadmarks": simulate_treadmarks,
    "hlrc": simulate_hlrc,
}


def simulate_dsm_sweep(
    trace: Trace,
    base: ClusterParams = CLUSTER_16,
    page_sizes=None,
    protocols=("treadmarks", "hlrc"),
    layout: Layout | None = None,
) -> dict[str, dict[int, DSMResult]]:
    """Sweep page sizes for one or more DSM protocols in one pass.

    Returns ``{protocol: {page_size: DSMResult}}``; every result is
    identical to ``simulate_<protocol>(trace, replace(base,
    page_size=s))``.  Intervals are built once at the finest size and
    folded upward; each protocol then replays the shared summaries.
    """
    protocols = tuple(protocols)
    unknown = [name for name in protocols if name not in _PROTOCOLS]
    if unknown:
        raise UnknownPlatformError(
            f"unknown DSM protocol(s) {unknown}; expected names from"
            f" {sorted(_PROTOCOLS)}"
        )
    sizes = [base.page_size] if page_sizes is None else [int(s) for s in page_sizes]
    ladder, layout = build_interval_ladder(trace, sizes, layout)
    return {
        name: {
            s: _PROTOCOLS[name](
                trace, replace(base, page_size=s), layout, intervals=ladder[s]
            )
            for s in sizes
        }
        for name in protocols
    }


def simulate_treadmarks_sweep(
    trace: Trace,
    base: ClusterParams = CLUSTER_16,
    page_sizes=None,
    layout: Layout | None = None,
) -> dict[int, DSMResult]:
    """TreadMarks results for every page size from one interval pass."""
    return simulate_dsm_sweep(
        trace, base, page_sizes, protocols=("treadmarks",), layout=layout
    )["treadmarks"]


def simulate_hlrc_sweep(
    trace: Trace,
    base: ClusterParams = CLUSTER_16,
    page_sizes=None,
    layout: Layout | None = None,
) -> dict[int, DSMResult]:
    """HLRC results for every page size from one interval pass."""
    return simulate_dsm_sweep(
        trace, base, page_sizes, protocols=("hlrc",), layout=layout
    )["hlrc"]
