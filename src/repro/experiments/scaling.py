"""Processor-count scaling study.

The paper reports 16-processor numbers (plus the P ∈ {2,4,8,16} sharing
histograms of Figure 2).  This module sweeps the processor count for one
application and platform, producing classic speedup curves for the original
and reordered versions — the reordered version's curve should pull away as
P grows, since false sharing worsens with more sharers per page.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .runner import Scale, run_cells

__all__ = ["ScalingPoint", "scaling_curve"]


@dataclass(frozen=True)
class ScalingPoint:
    nprocs: int
    version: str
    time: float
    speedup: float


def scaling_curve(
    app: str,
    platform: str,
    versions: tuple[str, ...] = ("original", "hilbert"),
    procs: tuple[int, ...] = (1, 2, 4, 8, 16),
    scale: Scale | None = None,
) -> list[ScalingPoint]:
    """Speedup of each version at each processor count.

    All speedups are relative to the single-processor original run, as in
    the paper.  Every (nprocs, version) point is an independent trace, so
    with a parallel runtime installed the whole curve is dispatched
    through :func:`repro.experiments.runner.run_cells` and the points run
    concurrently; results are identical to the serial loop.
    """
    base = scale or Scale()
    cells = []
    for p in procs:
        s = replace(base, nprocs=p)
        for version in versions:
            # The paper's baseline is the 1-proc original; reordered
            # single-proc runs exist (Table 2) but are not curve
            # baselines.  Still record them for completeness.
            cells.append((app, version, platform, s))
    return [
        ScalingPoint(
            nprocs=cell[3].nprocs, version=cell[1],
            time=rec.time, speedup=rec.speedup,
        )
        for cell, rec in zip(cells, run_cells(cells))
    ]
