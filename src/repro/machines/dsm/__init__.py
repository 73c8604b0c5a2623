"""Page-based software DSM protocol models (TreadMarks-style LRC and HLRC)."""

from .common import DSMResult
from .hlrc import block_homes, simulate_hlrc
from .intervals import (
    EpochPageInfo,
    build_interval_ladder,
    build_intervals,
    total_pages,
)
from .sweep import simulate_dsm_sweep
from .treadmarks import simulate_treadmarks

__all__ = [
    "DSMResult",
    "simulate_treadmarks",
    "simulate_hlrc",
    "simulate_dsm_sweep",
    "block_homes",
    "build_intervals",
    "build_interval_ladder",
    "EpochPageInfo",
    "total_pages",
]
