#!/usr/bin/env python
"""Water-Spatial's initial ordering: the paper's subtlest data point.

The paper says two things about Water-Spatial that pull in different
directions (EXPERIMENTS.md, deviation D1):

* section 5.1: on one processor "the traversal on the 3-D grids degenerates
  to column ordering, which conforms well with the initial molecular
  ordering from initialization" — i.e. the setup loop's lattice order is
  already sequential-friendly, so reordering buys nothing there;
* section 5.3.1: on 16 processors "the false sharing is caused by the
  mismatch between the random ordering of molecules in the shared address
  space and the locality-aware 3-D partition".

This example runs both initial orders through both analyses, showing the
whole picture the paper could only gesture at.

Run:  python examples/water_initial_order.py
"""

import numpy as np

from repro.apps import AppConfig, WaterSpatial
from repro.experiments.report import render_table
from repro.machines import simulate_treadmarks
from repro.machines.kernels import collapse_runs, lru_kernel
from repro.trace import Layout

rows = []
for initial in ("lattice", "random"):
    for version in ("original", "hilbert"):
        app = WaterSpatial(
            AppConfig(
                n=2048, nprocs=16, iterations=2, seed=7,
                extra={"initial_order": initial},
            )
        )
        if version != "original":
            app.reorder(version)
        trace = app.run()

        # 16-processor DSM traffic.
        tm = simulate_treadmarks(trace)

        # Single-processor traversal locality (TLB proxy): replay proc-0-
        # style sweep — the update phase in cell order — through a small TLB.
        app1 = WaterSpatial(
            AppConfig(
                n=2048, nprocs=1, iterations=1, seed=7,
                extra={"initial_order": initial},
            )
        )
        if version != "original":
            app1.reorder(version)
        t1 = app1.run()
        layout = Layout.for_trace(t1, align=16384)
        # Nothing invalidates the TLB, and repeated pages always hit it, so
        # one run-collapsed replay of every epoch's page stream gives the
        # per-burst miss count.
        pages = [
            layout.units_batch(regs, idx, 16384)
            for regs, idx, _ in (epoch.flat(0) for epoch in t1.epochs)
        ]
        tlb_misses = lru_kernel(collapse_runs(np.concatenate(pages)), 8).misses
        rows.append(
            [initial, version, tm.messages, round(tm.data_mbytes, 1), tlb_misses]
        )

print(
    render_table(
        ["initial order", "version", "TM msgs (16p)", "TM MB", "1p TLB misses"],
        rows,
        title="Water-Spatial: initial order x reordering",
    )
)
by = {(r[0], r[1]): r for r in rows}
lat_gain = by[("lattice", "original")][2] / by[("lattice", "hilbert")][2]
rnd_gain = by[("random", "original")][2] / by[("random", "hilbert")][2]
print(
    f"\nmessage reduction from Hilbert reordering: lattice start {lat_gain:.2f}x, "
    f"random start {rnd_gain:.2f}x\n"
    "-> with a lattice (column-conforming) start there is little left to\n"
    "   fix; from a random start the reordering recovers the paper's gains.\n"
    "   The single-processor TLB column shows the flip side: the lattice\n"
    "   start is already traversal-friendly."
)
