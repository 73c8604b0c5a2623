"""One-stop layout diagnosis for an application run.

``diagnose`` pulls together everything the library can say about a data
layout: per-region page sharing, the hardware miss breakdown
(cold/coherence/capacity), DSM traffic under both protocols, and the
overhead over ideal message passing.  The CLI exposes it as
``python -m repro diagnose <app> [--version hilbert]`` so a user can see,
in one table, what reordering would buy their configuration — the
decision-support the paper's section 3.4 guidelines compress into a rule
of thumb.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..machines.dsm import simulate_hlrc, simulate_treadmarks
from ..machines.hardware import simulate_hardware
from ..machines.params import ClusterParams, HardwareParams
from ..trace.events import Trace
from ..trace.layout import Layout
from ..trace.stats import mean_sharers, page_write_sets, sharer_counts
from .message_passing import dsm_overhead, ideal_message_passing

__all__ = ["Diagnosis", "diagnose"]


@dataclass
class Diagnosis:
    """Everything the simulators can say about one run's data layout."""

    nprocs: int
    region_sharers: dict[str, float]  # mean writers per page, per region
    l2_misses: int
    cold_misses: int
    coherence_misses: int
    capacity_misses: int
    tlb_misses: int
    tm_messages: int
    tm_data_mbytes: float
    hlrc_messages: int
    hlrc_data_mbytes: float
    mp_data_mbytes: float
    tm_data_factor: float  # TreadMarks bytes over the message-passing ideal
    notes: list[str] = field(default_factory=list)

    def rows(self) -> list[list]:
        """Flat (metric, value) rows for table rendering."""
        out: list[list] = []
        for name, sh in self.region_sharers.items():
            out.append([f"writers/page [{name}]", round(sh, 2)])
        out += [
            ["L2 misses", self.l2_misses],
            ["  cold", self.cold_misses],
            ["  coherence", self.coherence_misses],
            ["  capacity/conflict", self.capacity_misses],
            ["TLB misses", self.tlb_misses],
            ["TreadMarks messages", self.tm_messages],
            ["TreadMarks MB", round(self.tm_data_mbytes, 2)],
            ["HLRC messages", self.hlrc_messages],
            ["HLRC MB", round(self.hlrc_data_mbytes, 2)],
            ["ideal message-passing MB", round(self.mp_data_mbytes, 2)],
            ["TM overhead over ideal", f"{self.tm_data_factor:.1f}x"],
        ]
        return out


def diagnose(
    trace: Trace,
    hardware: HardwareParams | None = None,
    cluster: ClusterParams | None = None,
    *,
    page_size: int = 4096,
) -> Diagnosis:
    """Run every analysis the package offers over one trace."""
    from ..machines.params import CLUSTER_16, ORIGIN2000

    hardware = hardware or ORIGIN2000
    cluster = cluster or CLUSTER_16
    layout = Layout.for_trace(trace, align=max(page_size, hardware.page_size))

    writers = page_write_sets(trace, layout, page_size)
    sharers = {
        r.name: mean_sharers(sharer_counts(writers, layout, i, page_size))
        for i, r in enumerate(trace.regions)
    }
    hw = simulate_hardware(trace, hardware, layout)
    tm = simulate_treadmarks(trace, cluster)
    hl = simulate_hlrc(trace, cluster)
    mp = ideal_message_passing(trace, layout)
    ov = dsm_overhead(tm, mp)

    notes = []
    worst = max(sharers, key=sharers.get) if sharers else None
    if worst and sharers[worst] > 2.0:
        notes.append(
            f"region {worst!r} is falsely shared ({sharers[worst]:.1f} "
            "writers/page): a candidate for data reordering"
        )
    if hw.total_l2_misses and hw.coherence_misses.sum() > 0.3 * hw.total_l2_misses:
        notes.append("coherence misses dominate the L2 miss mix")
    if ov["data_factor"] > 5:
        notes.append(
            "DSM moves >5x the ideal communication volume: page granularity "
            "is being wasted on this layout"
        )

    return Diagnosis(
        nprocs=trace.nprocs,
        region_sharers=sharers,
        l2_misses=hw.total_l2_misses,
        cold_misses=int(hw.cold_misses.sum()),
        coherence_misses=int(hw.coherence_misses.sum()),
        capacity_misses=int(hw.capacity_misses.sum()),
        tlb_misses=hw.total_tlb_misses,
        tm_messages=tm.messages,
        tm_data_mbytes=tm.data_mbytes,
        hlrc_messages=hl.messages,
        hlrc_data_mbytes=hl.data_mbytes,
        mp_data_mbytes=mp.data_mbytes,
        tm_data_factor=ov["data_factor"],
        notes=notes,
    )
