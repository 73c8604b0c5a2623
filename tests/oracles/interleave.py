"""Cursor-walk reference for the batched epoch interleave.

:func:`oracles.coherence._interleave` merges every processor's
line stream with one ``lexsort``.  This oracle restates the round-robin
order directly — position ``i`` of every live stream, processors in
index order — one access at a time.
"""

from __future__ import annotations

import numpy as np


def interleave(epoch, layout, line_size: int, nprocs: int):
    """Yield ``(proc, line, is_write)`` tuples in round-robin order."""
    streams = []
    for p in range(nprocs):
        regs, idx, wflags = epoch.flat(p)
        if regs.shape[0] == 0:
            continue
        u, counts = layout.units_batch(regs, idx, line_size, return_counts=True)
        streams.append((p, u.tolist(), np.repeat(wflags, counts).tolist()))
    i = 0
    live = True
    while live:
        live = False
        for p, u, w in streams:
            if i < len(u):
                live = True
                yield (p, u[i], w[i])
        i += 1
