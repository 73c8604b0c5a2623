"""Water-Spatial short-range N-body benchmark (SPLASH-2).

Evaluates forces and potentials in a system of water molecules using a
uniform 3-D grid of cells over the problem domain (paper section 5.3.1):
each processor owns a contiguous 3-D block of cells and only examines
neighbouring cells to find molecules within the cutoff radius.  Molecules
can move between cells between iterations.

Category 1: the computation partition is spatial (the grid), while the
molecules sit in a shared array whose order comes from initialization.
Faithful to SPLASH-2, the initial order is the *lattice traversal order* of
the setup loop — effectively column ordering — not a random shuffle; the
paper uses exactly this to explain why reordering does not help the
single-processor run ("the traversal on the 3-D grids degenerates to column
ordering, which conforms well with the initial molecular ordering from
initialization") while the 3-D block partition still suffers false sharing
at cell-block boundaries on 16 processors.

The 680-byte molecule record (Table 1) is much larger than a 128-byte cache
line — the reason reordering yields little on hardware shared memory — but
a 4 KB page still holds six molecules, so page-grained DSMs benefit.

Phases per iteration: **forces** (half-stencil cell interactions, symmetric
updates, lock-protected when the partner cell belongs to another processor),
**update** (integrate owned molecules), **move** (re-bin molecules into
cells, writing the shared cell array).
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
    counts_to_offsets,
    half_stencil_neighbors,
    ragged_take,
    scatter_add,
)
from .moldyn import build_interaction_list

__all__ = ["WaterSpatial"]

#: Bytes per entry of the shared cell array (list head + count).
CELL_ENTRY_BYTES = 16


def _grid_blocks(side: int, nprocs: int) -> np.ndarray:
    """Owner of each grid cell: contiguous 3-D blocks.

    Factorizes ``nprocs`` into (px, py, pz) as evenly as possible and
    splits each axis into contiguous runs, like SPLASH-2's cubical
    partitions.  Returns an (side**3,) owner array indexed by
    ``(x * side + y) * side + z``.
    """
    px, py, pz = 1, 1, 1
    rem = nprocs
    # Greedy factorization: assign the largest prime factors to the axes
    # with the smallest current split.
    factors = []
    d = 2
    while rem > 1:
        while rem % d == 0:
            factors.append(d)
            rem //= d
        d += 1
    for f in sorted(factors, reverse=True):
        if px <= py and px <= pz:
            px *= f
        elif py <= pz:
            py *= f
        else:
            pz *= f
    splits_x = np.minimum((np.arange(side) * px) // side, px - 1)
    splits_y = np.minimum((np.arange(side) * py) // side, py - 1)
    splits_z = np.minimum((np.arange(side) * pz) // side, pz - 1)
    owner = (
        (splits_x[:, None, None] * py + splits_y[None, :, None]) * pz
        + splits_z[None, None, :]
    )
    return owner.reshape(-1)


class WaterSpatial(Application):
    """See module docstring.

    ``config.extra`` knobs: ``box`` (default 1.0), ``cell_occupancy``
    (average molecules per cell, default 6.0 — sets the grid side), ``dt``,
    ``initial_order`` (``"random"``, the default, or ``"lattice"``).
    """

    name = "Water-Spatial"
    category = 1
    sync = "b,l"
    object_size = 680
    orderings = ("hilbert", "gray", "peano")
    knobs = ("box", "cell_occupancy", "dt", "initial_order")

    def __init__(self, config: AppConfig):
        super().__init__(config)
        x = config.extra
        self.box = float(x.get("box", 1.0))
        occ = float(x.get("cell_occupancy", 6.0))
        self.side = max(2, int(round((config.n / occ) ** (1.0 / 3.0))))
        self.cutoff = self.box / self.side
        self.dt = float(x.get("dt", 1e-4))
        # Molecules on a jittered lattice.  The default array order is
        # random — the paper's section 5.3.1 diagnosis ("the random
        # ordering of molecules in the shared address space") and the case
        # its Table 3 gains correspond to.  ``initial_order="lattice"``
        # keeps the setup loop's column-conforming traversal order instead
        # (the case behind the paper's single-processor remark); the
        # ablation benches exercise both.
        rng = np.random.default_rng(config.seed)
        per_axis = int(np.ceil(config.n ** (1.0 / 3.0)))
        axes = [np.arange(per_axis, dtype=np.float64)] * 3
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        cw = self.box / per_axis
        pos = (grid[: config.n] + 0.5) * cw
        pos += rng.uniform(-0.2, 0.2, pos.shape) * cw
        pos = np.clip(pos, 0.0, np.nextafter(self.box, 0.0))
        order = str(x.get("initial_order", "random"))
        if order == "random":
            pos = pos[rng.permutation(config.n)]
        elif order != "lattice":
            raise ValueError("initial_order must be 'random' or 'lattice'")
        self.pos = pos
        self.vel = np.zeros_like(self.pos)
        self.force = np.zeros_like(self.pos)
        self._pairs_cache: np.ndarray | None = None
        self._steps_total = 0

    def positions(self) -> np.ndarray:
        return self.pos

    def interaction_pairs(self) -> np.ndarray:
        # The cutoff pair list is exactly the molecule interaction graph
        # the cell sweep walks each step.  Cached per step: the positions
        # only change in ``_integrate`` (and on reordering), which both
        # invalidate the cache, so the force evaluation and any
        # same-step consumer (trace emission, reorder diagnostics) share
        # one build instead of recomputing it.
        if self._pairs_cache is None:
            self._pairs_cache = build_interaction_list(
                self.pos, self.cutoff, self.box
            )
        return self._pairs_cache

    def _apply_reordering(self, r: Reordering) -> None:
        self.pos = r.apply(self.pos)
        self.vel = r.apply(self.vel)
        self.force = r.apply(self.force)
        self._pairs_cache = None

    # -- grid bookkeeping --------------------------------------------------

    def _cell_of(self, pos: np.ndarray) -> np.ndarray:
        c = np.clip((pos / self.cutoff).astype(np.int64), 0, self.side - 1)
        return (c[:, 0] * self.side + c[:, 1]) * self.side + c[:, 2]

    def _bin(self) -> tuple[np.ndarray, np.ndarray]:
        """Molecules sorted by cell; returns (sorted molecule ids, starts)."""
        cid = self._cell_of(self.pos)
        order = np.argsort(cid, kind="stable")
        starts = np.searchsorted(cid[order], np.arange(self.side**3 + 1))
        return order, starts

    # -- physics ---------------------------------------------------------

    def _lj_forces(self) -> None:
        self.force[:] = 0.0
        pairs = self.interaction_pairs()
        if pairs.shape[0] == 0:
            return
        pi, pj = pairs[:, 0], pairs[:, 1]
        d = self.pos[pi] - self.pos[pj]
        r2 = (d * d).sum(axis=1)
        sigma = 0.7 * self.cutoff / 2.0 ** (1.0 / 6.0)
        # Floor the separation at 0.5 sigma (see Moldyn._lj_forces).
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
        self._pairs_cache = None
        low = self.pos < 0.0
        high = self.pos > self.box
        self.pos[low] = -self.pos[low]
        self.pos[high] = 2.0 * self.box - self.pos[high]
        self.vel[low | high] *= -1.0
        np.clip(self.pos, 0.0, np.nextafter(self.box, 0.0), out=self.pos)

    # -- trace emission ----------------------------------------------------

    def _emit_forces(self, v, order, starts, mol, cells) -> None:
        """Stage the force-phase access pattern.

        The sweep emits one *unit* per occupied own cell (cell-entry read,
        member read, member write) followed by one unit per occupied
        in-bounds half-stencil neighbour (entry read, neighbour read, own
        write, neighbour write).  The interleaved unit stream goes out as
        four CSR lanes; the intra-cell units carry a zero-length fourth
        lane, which the builder drops.
        """
        tb = v.tb
        cnt_all = np.diff(starts)
        for p, occ in enumerate(v.own_list):
            occ = occ[cnt_all[occ] > 0]
            if occ.shape[0] == 0:
                tb.work(p, 0.0)
                continue
            mcnt = cnt_all[occ]
            nbr, noffs = half_stencil_neighbors(self.side, occ)
            keep = cnt_all[nbr] > 0
            grp = np.repeat(np.arange(occ.shape[0], dtype=np.int64), np.diff(noffs))
            nB = np.bincount(grp[keep], minlength=occ.shape[0])
            nbr = nbr[keep]
            # Unit stream: per occupied own cell, the intra-cell unit then
            # one unit per occupied neighbour, in stencil order.
            k = occ.shape[0] + nbr.shape[0]
            is_A = np.zeros(k, dtype=bool)
            is_A[counts_to_offsets(1 + nB)[:-1]] = True
            cell_of_unit = np.empty(k, dtype=np.int64)
            cell_of_unit[is_A] = occ
            cell_of_unit[~is_A] = nbr
            own_of_unit = occ[np.repeat(np.arange(occ.shape[0], dtype=np.int64), 1 + nB)]
            cnt_partner = cnt_all[cell_of_unit]
            cnt_own = cnt_all[own_of_unit]
            cnt_nw = np.where(is_A, 0, cnt_partner)
            tb.emit_ragged(
                p,
                [
                    (cells, False, cell_of_unit, 1),
                    (mol, False, ragged_take(order, starts[cell_of_unit], cnt_partner),
                     counts_to_offsets(cnt_partner)),
                    (mol, True, ragged_take(order, starts[own_of_unit], cnt_own),
                     counts_to_offsets(cnt_own)),
                    (mol, True, ragged_take(order, starts[cell_of_unit], cnt_nw),
                     counts_to_offsets(cnt_nw)),
                ],
            )
            crossings = int((v.cell_owner[nbr] != p).sum())
            if crossings:
                tb.lock(p, crossings)
            npairs = int((mcnt * (mcnt - 1) // 2).sum())
            npairs += int((cnt_all[nbr] * cnt_all[own_of_unit[~is_A]]).sum())
            tb.work(p, float(npairs))

    def _owned(self, order, starts, own: np.ndarray) -> np.ndarray:
        """Owned molecules in cell-sweep order (update/move phases)."""
        return ragged_take(order, starts[own], starts[own + 1] - starts[own])

    # -- execution ---------------------------------------------------------

    def run(self, siblings=()) -> Trace:
        cfg = self.config
        views, mol, cells = self._open_views(
            siblings, "forces",
            ("molecules", self.n, self.object_size),
            ("cells", self.side**3, CELL_ENTRY_BYTES),
        )
        for v in views:
            v.cell_owner = _grid_blocks(self.side, v.nprocs)
            v.own_list = [np.nonzero(v.cell_owner == p)[0] for p in range(v.nprocs)]
        for it in range(cfg.iterations):
            with self._phys("binning"):
                order, starts = self._bin()

            # Forces: each processor sweeps its cells in grid order.
            with self._phys("build_list"):
                self.interaction_pairs()
            with self._phys("forces"):
                self._lj_forces()
            t0 = perf_counter()
            for v in views:
                self._emit_forces(v, order, starts, mol, cells)
            barrier(views, "update")
            self.emit_seconds += perf_counter() - t0

            # Update: integrate owned molecules, in cell-sweep order.
            with self._phys("integrate"):
                self._integrate()
            t0 = perf_counter()
            for v in views:
                for p, own in enumerate(v.own_list):
                    mine = self._owned(order, starts, own)
                    v.tb.read(p, mol, mine)
                    v.tb.write(p, mol, mine)
                    v.tb.work(p, mine.shape[0])
            barrier(views, "move")
            self.emit_seconds += perf_counter() - t0

            # Move: re-bin into cells; crossing into a remote cell takes
            # that cell's lock and writes its list head.
            with self._phys("move"):
                new_cell = self._cell_of(self.pos)
            t0 = perf_counter()
            for v in views:
                for p, own in enumerate(v.own_list):
                    mine = self._owned(order, starts, own)
                    v.tb.read(p, mol, mine)
                    if mine.shape[0]:
                        dest = new_cell[mine]
                        v.tb.write(p, cells, dest)
                        crossed = dest[v.cell_owner[dest] != p]
                        if crossed.shape[0]:
                            v.tb.lock(p, int(crossed.shape[0]))
                    v.tb.work(p, mine.shape[0])
            self.emit_seconds += perf_counter() - t0

            # Policy check at the iteration boundary: molecules just moved,
            # so re-layout (full or incremental) before the next force
            # sweep.  Skipped after the final iteration — there is no next
            # sweep to speed up.
            self._steps_total += 1
            info = None
            if it + 1 < cfg.iterations:
                info = self._policy_rereorder(self._steps_total)
            t0 = perf_counter()
            if info is not None:
                barrier(views, "reorder")
                self._emit_reorder_epoch(views, mol, info)
            barrier(views, "forces")
            self.emit_seconds += perf_counter() - t0
        return self._finish_views(views)
