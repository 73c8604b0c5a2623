"""Moldyn molecular dynamics benchmark (Chaos suite).

Non-bonded force calculation in the style of CHARMM: a cutoff radius
approximation maintained as an *interaction list* of all molecule pairs
within the cutoff, iterated every timestep and rebuilt periodically as
molecules move (paper section 5.3.2).

Category 2 structure: molecules live in a 1-D array block-partitioned over
the processors; the interaction list is the indirection array through which
all reads of neighbouring molecules go.  Writes show good block locality
from the start; reads (and the symmetric partner updates) are scattered
wherever the neighbours sit in memory — which is what column/Hilbert
reordering fixes.

Each iteration:

* **build_list** (every ``rebuild_every`` iterations) — each processor bins
  its molecules and scans neighbouring cells, reading partner candidates;
* **forces** — for each owned molecule, read its partners through the
  interaction list, accumulate Lennard-Jones forces into *both* molecules
  of every pair (the symmetric update that causes read-write false
  sharing);
* **update** — leapfrog integration of the owned block, with reflecting
  walls.

The 72-byte molecule record (Table 1) holds position, velocity and force
(3 x 3 doubles).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from ..core.reorder import Reordering
from ..trace.events import Trace
from .base import (
    AppConfig,
    Application,
    barrier,
    block_partition,
    half_stencil_neighbors,
    ragged_cross,
    scatter_add,
)
from .distributions import lattice_jittered

__all__ = ["Moldyn", "build_interaction_list"]


def build_interaction_list(
    pos: np.ndarray, cutoff: float, box: float
) -> np.ndarray:
    """All pairs (i, j), i != j, with |pos_i - pos_j| < cutoff.

    Cell-binning algorithm: molecules are hashed into a grid of
    ``cutoff``-sized cells; only the 13 half-stencil neighbour cells (plus
    intra-cell pairs) are scanned, so each pair is generated exactly once.
    Pairs are returned sorted by first endpoint — the order the Chaos
    benchmark stores its interaction list in, giving each processor's block
    of the list good write locality on the first endpoint.
    """
    n, ndim = pos.shape
    if ndim != 3:
        raise ValueError("build_interaction_list expects 3-D positions")
    side = max(1, int(box / cutoff))
    cell_w = box / side
    cell = np.clip((pos / cell_w).astype(np.int64), 0, side - 1)
    cid = (cell[:, 0] * side + cell[:, 1]) * side + cell[:, 2]
    order = np.argsort(cid, kind="stable")
    sorted_cid = cid[order]
    starts = np.searchsorted(sorted_cid, np.arange(side**3 + 1))

    # Candidate pairs, fully vectorized: intra-cell crosses (keeping the
    # i < j half) plus full crosses against the 13 half-stencil neighbour
    # cells (shared helper).  Each unordered pair is generated exactly
    # once, as in the scalar per-cell scan this replaces; the final
    # distance filter and (i, j) lexsort make the output independent of
    # generation order, so this is byte-identical to the loop version.
    pairs_i: list[np.ndarray] = []
    pairs_j: list[np.ndarray] = []
    cut2 = cutoff * cutoff
    nonempty = np.unique(sorted_cid)
    rstart = starts[nonempty]
    rcnt = starts[nonempty + 1] - rstart
    g, ai, bi = ragged_cross(rcnt, rcnt)
    upper = ai < bi
    if upper.any():
        base = rstart[g[upper]]
        pairs_i.append(order[base + ai[upper]])
        pairs_j.append(order[base + bi[upper]])
    nbr, noffs = half_stencil_neighbors(side, nonempty)
    ncnt = np.diff(noffs)
    astart = np.repeat(rstart, ncnt)
    acnt = np.repeat(rcnt, ncnt)
    bstart = starts[nbr]
    bcnt = starts[nbr + 1] - bstart
    g, ai, bi = ragged_cross(acnt, bcnt)
    if g.shape[0]:
        pairs_i.append(order[astart[g] + ai])
        pairs_j.append(order[bstart[g] + bi])
    if not pairs_i:
        return np.empty((0, 2), dtype=np.int64)
    pi = np.concatenate(pairs_i)
    pj = np.concatenate(pairs_j)
    d = pos[pi] - pos[pj]
    keep = (d * d).sum(axis=1) < cut2
    pi, pj = pi[keep], pj[keep]
    # Store each pair once, owned by (iterated from) its first endpoint;
    # sort by that endpoint like the benchmark's per-molecule lists.
    o = np.lexsort((pj, pi))
    return np.stack([pi[o], pj[o]], axis=1)


class Moldyn(Application):
    """See module docstring.

    ``config.extra`` knobs: ``cutoff_neighbors`` (target average partner
    count, default 35 — sets the cutoff radius from the density), ``dt``,
    ``rebuild_every`` (default 5), ``box`` (default 1.0), plus the shared
    re-reordering policy knobs of :class:`repro.apps.base.AdaptivePolicy`
    (``adapt_policy`` / ``adapt_every`` / ``adapt_threshold`` /
    ``adapt_method``, and the legacy spelling ``rereorder_every`` = k for
    ``adapt_policy="every"``) — re-reorder as the molecules drift, an
    extension of the paper's one-shot reordering ("can be called by a
    single processor as often as necessary", section 3.5).  Re-reordering
    work is charged to processor 0 in a dedicated ``"reorder"`` epoch,
    followed by an interaction-list rebuild.
    """

    name = "Moldyn"
    category = 2
    sync = "b"
    object_size = 72
    orderings = ("column", "hilbert", "gray", "rcm")
    knobs = ("box", "cutoff_neighbors", "dt", "rebuild_every")

    def __init__(self, config: AppConfig):
        super().__init__(config)
        x = config.extra
        self.box = float(x.get("box", 1.0))
        target = float(x.get("cutoff_neighbors", 35.0))
        # Density-derived cutoff: (4/3) pi r^3 * n / box^3 = target.
        self.cutoff = float(
            (3.0 * target / (4.0 * np.pi * config.n)) ** (1.0 / 3.0) * self.box
        )
        self.dt = float(x.get("dt", 1e-4))
        self.rebuild_every = int(x.get("rebuild_every", 5))
        self._steps_total = 0
        self.pos = lattice_jittered(config.n, config.seed, box=self.box)
        self.vel = np.zeros_like(self.pos)
        self.force = np.zeros_like(self.pos)
        self.pairs = self._build_pairs()
        self._steps_since_rebuild = 0

    def positions(self) -> np.ndarray:
        return self.pos

    def interaction_pairs(self) -> np.ndarray:
        return self.pairs

    def _apply_reordering(self, r: Reordering) -> None:
        self.pos = r.apply(self.pos)
        self.vel = r.apply(self.vel)
        self.force = r.apply(self.force)
        # Adjust the indirection array and restore first-endpoint order —
        # the Chaos-style fix-up after data reordering.
        pairs = r.remap_indices(self.pairs)
        o = np.lexsort((pairs[:, 1], pairs[:, 0]))
        self.pairs = pairs[o]

    # -- physics ---------------------------------------------------------

    def _build_pairs(self) -> np.ndarray:
        """Interaction list: vectorized cell sort + half-stencil enumeration."""
        return build_interaction_list(self.pos, self.cutoff, self.box)

    def _lj_forces(self) -> None:
        """Lennard-Jones forces over the interaction list (both partners)."""
        self.force[:] = 0.0
        pi, pj = self.pairs[:, 0], self.pairs[:, 1]
        if pi.shape[0] == 0:
            return
        d = self.pos[pi] - self.pos[pj]
        r2 = (d * d).sum(axis=1)
        sigma = 0.7 * self.cutoff / 2.0 ** (1.0 / 6.0)
        # Floor the separation at 0.5 sigma: overlapping molecules from the
        # random initial condition would otherwise produce unbounded kicks.
        r2 = np.maximum(r2, 0.25 * sigma * sigma)
        s2 = sigma * sigma / r2
        s6 = s2 * s2 * s2
        mag = 24.0 * (2.0 * s6 * s6 - s6) / r2
        f = mag[:, None] * d
        scatter_add(self.force, pi, f)
        scatter_add(self.force, pj, -f)

    def _integrate(self) -> None:
        self.vel += self.dt * self.force
        self.pos += self.dt * self.vel
        # Reflecting walls keep the box and the cell grid valid.
        low = self.pos < 0.0
        high = self.pos > self.box
        self.pos[low] = -self.pos[low]
        self.pos[high] = 2.0 * self.box - self.pos[high]
        self.vel[low | high] *= -1.0
        np.clip(self.pos, 0.0, np.nextafter(self.box, 0.0), out=self.pos)

    # -- execution ---------------------------------------------------------

    def _owned_pair_bounds(self) -> np.ndarray:
        """Index of the first pair of each molecule in the sorted pair list."""
        return np.searchsorted(self.pairs[:, 0], np.arange(self.n + 1))

    def _emit_build_list(self, views, mol: int) -> None:
        """Rebuild the interaction list and trace the per-block scan."""
        with self._phys("build_list"):
            self.pairs = self._build_pairs()
        self._steps_since_rebuild = 0
        t0 = perf_counter()
        bounds = self._owned_pair_bounds()
        for v in views:
            for p, mine in enumerate(v.parts):
                lo, hi = bounds[mine[0]], bounds[mine[-1] + 1]
                v.tb.read(p, mol, mine)
                v.tb.read(p, mol, self.pairs[lo:hi, 1])
                v.tb.work(p, float(hi - lo) + mine.shape[0])
        self.emit_seconds += perf_counter() - t0

    def _emit_forces(self, views, mol: int) -> None:
        """Force evaluation: per owned molecule, read partners via the
        interaction list; write both partners of every pair.

        The four lanes — self read, partner reads, self write, partner
        writes — of a whole block go out in one ragged call.  The pair
        list is sorted by first endpoint and the blocks are contiguous, so
        each block's partner stream is one slice of the ``j`` column and
        the per-molecule offsets come straight from ``bounds``; molecules
        without partners stage nothing."""
        with self._phys("forces"):
            self._lj_forces()
        t0 = perf_counter()
        bounds = self._owned_pair_bounds()
        pj = np.ascontiguousarray(self.pairs[:, 1])
        for v in views:
            for p, mine in enumerate(v.parts):
                cnt = np.diff(bounds[mine[0] : mine[-1] + 2])
                mols = mine[cnt > 0]
                offs = np.zeros(mols.shape[0] + 1, dtype=np.int64)
                np.cumsum(cnt[cnt > 0], out=offs[1:])
                part = pj[bounds[mine[0]] : bounds[mine[-1] + 1]]
                v.tb.emit_ragged(
                    p,
                    [
                        (mol, False, mols, 1),
                        (mol, False, part, offs),
                        (mol, True, mols, 1),
                        (mol, True, part, offs),
                    ],
                )
                v.tb.work(p, float(part.shape[0]))
        self.emit_seconds += perf_counter() - t0

    def _emit_update(self, views, mol: int) -> None:
        """Leapfrog integration of the owned block."""
        with self._phys("integrate"):
            self._integrate()
        t0 = perf_counter()
        for v in views:
            for p, mine in enumerate(v.parts):
                v.tb.read(p, mol, mine)
                v.tb.write(p, mol, mine)
                v.tb.work(p, mine.shape[0])
        self.emit_seconds += perf_counter() - t0

    def run(self, siblings=()) -> Trace:
        cfg = self.config
        views, mol = self._open_views(
            siblings, "build_list", ("molecules", self.n, self.object_size)
        )
        for v in views:
            v.parts = block_partition(self.n, v.nprocs)
        first = True
        for _ in range(cfg.iterations):
            # Policy check at the top of the iteration: the re-reordering
            # (legacy full re-sort or incremental migration) is applied
            # here, traced in a dedicated "reorder" epoch, and followed by
            # an interaction-list rebuild.
            info = self._policy_rereorder(self._steps_total)
            if info is not None:
                if not first:
                    barrier(views, "reorder")
                t0 = perf_counter()
                self._emit_reorder_epoch(views, mol, info)
                self.emit_seconds += perf_counter() - t0
                barrier(views, "build_list")
                self._emit_build_list(views, mol)
            elif first or self._steps_since_rebuild >= self.rebuild_every:
                if not first:
                    barrier(views, "build_list")
                self._emit_build_list(views, mol)
            barrier(views, "forces")
            first = False
            self._steps_since_rebuild += 1
            self._steps_total += 1
            self._emit_forces(views, mol)
            barrier(views, "update")
            self._emit_update(views, mol)
        trace = self._finish_views(views)
        self.emit_seconds += self.seal_seconds  # barriers seal outside the timed blocks
        return trace
