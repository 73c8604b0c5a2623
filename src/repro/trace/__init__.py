"""Shared-memory access traces: representation, construction, statistics."""

from .builder import TraceBuilder
from .events import PackedEpoch, RegionSpec, Trace
from .io import TRACE_SUFFIX, load_trace, save_trace
from .layout import DecodedEpoch, DecodeMemo, Layout, decode_epoch, decode_memo
from .stats import (
    AccessCounts,
    access_counts,
    footprint,
    mean_sharers,
    page_read_sets,
    page_sharers,
    page_write_sets,
    proc_unit_sets,
    update_map,
)

__all__ = [
    "RegionSpec",
    "Trace",
    "PackedEpoch",
    "TraceBuilder",
    "Layout",
    "DecodedEpoch",
    "DecodeMemo",
    "decode_epoch",
    "decode_memo",
    "save_trace",
    "load_trace",
    "TRACE_SUFFIX",
    "page_sharers",
    "page_write_sets",
    "page_read_sets",
    "mean_sharers",
    "update_map",
    "footprint",
    "access_counts",
    "AccessCounts",
    "proc_unit_sets",
]
