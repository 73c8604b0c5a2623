"""Generators for every table of the paper's evaluation."""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..apps import APP_REGISTRY
from .runner import Scale, prefetch_outcomes, run_one, versions_for

__all__ = ["table1", "table2", "table3", "table4", "Table2Row", "Table3Row"]


def table1(scale: Scale | None = None) -> list[dict]:
    """Table 1: application characteristics (size, sync, object bytes)."""
    scale = scale or Scale()
    rows = []
    for name, cls in APP_REGISTRY.items():
        rows.append(
            {
                "application": cls.name,
                "size": scale.n[name],
                "iterations": scale.iterations[name],
                "sync": cls.sync,
                "object_size": cls.object_size,
                "category": cls.category,
            }
        )
    return rows


@dataclass
class Table2Row:
    """One row of Table 2 (Origin 2000 counters, 1 and 16 processors)."""

    app: str
    version: str
    reorder_time: float
    time_1p: float
    l2_misses_1p: int
    tlb_misses_1p: int
    time_16p: float
    l2_misses_16p: int
    tlb_misses_16p: int


def table2(scale: Scale | None = None) -> list[Table2Row]:
    """Table 2: execution time, reorder cost, L2 and TLB misses on the
    simulated Origin 2000, single-processor and 16-processor runs."""
    scale = scale or Scale()
    one = replace(scale, nprocs=1)
    prefetch_outcomes([(name, version, "origin", s) for name in APP_REGISTRY
                       for version in versions_for(name) for s in (scale, one)])
    rows = []
    for name in APP_REGISTRY:
        for version in versions_for(name):
            rec16 = run_one(name, version, "origin", scale)
            rec1 = run_one(name, version, "origin", one)
            rows.append(
                Table2Row(
                    app=APP_REGISTRY[name].name,
                    version=version,
                    reorder_time=rec16.reorder_time,
                    time_1p=rec1.time,
                    l2_misses_1p=rec1.l2_misses,
                    tlb_misses_1p=rec1.tlb_misses,
                    time_16p=rec16.time,
                    l2_misses_16p=rec16.l2_misses,
                    tlb_misses_16p=rec16.tlb_misses,
                )
            )
    return rows


@dataclass
class Table3Row:
    """One row of Table 3 (software DSM traffic and times, 16 processors)."""

    app: str
    version: str
    seq_time: float
    reorder_time: float
    tm_time: float
    tm_data_mbytes: float
    tm_messages: int
    hlrc_time: float
    hlrc_data_mbytes: float
    hlrc_messages: int


def table3(scale: Scale | None = None) -> list[Table3Row]:
    """Table 3: sequential time, reorder cost, and per-protocol parallel
    time / data volume / message count on TreadMarks and HLRC."""
    scale = scale or Scale()
    prefetch_outcomes([(name, version, platform, scale) for name in APP_REGISTRY
                       for version in versions_for(name)
                       for platform in ("treadmarks", "hlrc")])
    rows = []
    for name in APP_REGISTRY:
        for version in versions_for(name):
            tm = run_one(name, version, "treadmarks", scale)
            hl = run_one(name, version, "hlrc", scale)
            rows.append(
                Table3Row(
                    app=APP_REGISTRY[name].name,
                    version=version,
                    seq_time=tm.seq_time,
                    reorder_time=tm.reorder_time,
                    tm_time=tm.time,
                    tm_data_mbytes=tm.data_mbytes,
                    tm_messages=tm.messages,
                    hlrc_time=hl.time,
                    hlrc_data_mbytes=hl.data_mbytes,
                    hlrc_messages=hl.messages,
                )
            )
    return rows


#: Phase order of the paper's Table 4.
TABLE4_PHASES = (
    "build_tree",
    "build_list",
    "partition",
    "tree_traversal",
    "inter_particle",
    "intra_particle",
    "other",
)


def table4(scale: Scale | None = None) -> dict[str, dict[str, float]]:
    """Table 4: FMM time breakdown on TreadMarks, original vs reordered.

    Returns ``{version: {phase: seconds}}`` with a ``total`` entry.
    """
    scale = scale or Scale()
    out: dict[str, dict[str, float]] = {}
    for version in ("original", "hilbert"):
        rec = run_one("fmm", version, "treadmarks", scale)
        phases = {ph: rec.phase_times.get(ph, 0.0) for ph in TABLE4_PHASES}
        phases["total"] = rec.time
        out[version] = phases
    return out
