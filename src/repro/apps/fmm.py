"""Fast Multipole Method benchmark (SPLASH-2, 2-D).

Like Barnes-Hut, FMM "simulates the evolution of a system of particles under
the influence of gravitational forces", but "it simulates interactions in
two-dimensions" and the tree is traversed once upward and once downward
instead of once per particle (paper section 5.3.1).

This implementation is the classic uniform multi-level 2-D FMM of Greengard
& Rokhlin (levels 0..L over the bounding square, multipole/local expansions
of order ``p`` — real math, validated against direct summation).  The cell
hierarchy is stored level-by-level in Morton order, so that partitioning
the tree by a space-filling curve gives each processor *contiguous* runs of
the shared cell array — reproducing the paper's observation that the cells
have good locality ("created independently by the processors and stored in
some per-processor (though shared) arrays") while the particle array is the
false-sharing hot spot.

Phase structure per iteration, matching the paper's Table 4 breakdown:

* **build_tree** — a processor reads every particle (array order) and bins
  them into the finest-level cells, writing the shared cell array;
* **partition** — contiguous cost-weighted split of the Morton-ordered
  finest cells;
* **build_list** — each processor enumerates the V (interaction) lists of
  its cells (index arithmetic over its own cells — the paper measures no
  change in this phase from reordering);
* **tree_traversal** — P2M at owned leaves (reads particles!), M2M upward,
  M2L across interaction lists, L2L downward, L2P into particle fields;
* **inter_particle** — near-field P2P against the 8 neighbouring leaves;
* **intra_particle** — P2P within each owned leaf;
* **other** — position/velocity update of owned particles.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from ..core.reorder import Reordering
from ..core.sfc.morton import morton_key_from_axes
from ..trace.events import Trace
from .base import AppConfig, Application, barrier, counts_to_offsets, ragged_take
from .distributions import two_plummer
from . import fmm_math as fm
from .numerics import (
    complex_segsum,
    eval_local_deriv_batch,
    l2l_stack,
    m2l_stack,
    m2m_stack,
    p2m_batch,
)

__all__ = ["FMM"]

#: The 8 neighbouring-leaf offsets of the near-field P2P sweep, in the
#: sweep's enumeration order (dx major, then dy).
_P2P_STENCIL = np.array(
    [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if (dx, dy) != (0, 0)],
    dtype=np.int64,
)

#: Bytes per cell record (two order-p complex expansions plus geometry).
CELL_BYTES = 320

#: Work-unit scaling.  The machine models charge ``work_cycles`` (~150 on
#: the Origin model) per unit, calibrated for the 3-D cutoff force kernels
#: (sqrt/exp/div).  FMM's 2-D kernels are far cheaper per elementary op: a
#: near-field P2P pair is one complex divide (~30 cycles), an expansion
#: coefficient op a complex multiply-add.  Without this scaling the
#: simulated FMM is artificially compute-bound, hiding the paper's
#: memory-driven Origin gains.
P2P_WORK = 0.2
EXPANSION_WORK = 0.35


class FMM(Application):
    """See module docstring.

    ``config.extra`` knobs: ``p`` (expansion order, default 8), ``levels``
    (tree depth L; default sized for ~3 particles per finest cell), ``dt``.
    """

    name = "FMM"
    category = 1
    sync = "b,l"
    object_size = 104
    orderings = ("hilbert", "morton", "gray", "peano")
    knobs = ("dt", "levels", "p")

    def __init__(self, config: AppConfig):
        super().__init__(config)
        x = config.extra
        self.p = int(x.get("p", 8))
        # ~16 particles per finest cell, like the adaptive benchmark's leaf
        # capacity; keeps the cell array small relative to the particles.
        default_levels = max(2, int(np.ceil(np.log(max(config.n, 4) / 16.0) / np.log(4.0))))
        self.levels = int(x.get("levels", default_levels))
        self.dt = float(x.get("dt", 1e-3))
        self.pos = two_plummer(config.n, config.seed, ndim=2)
        self.vel = np.zeros_like(self.pos)
        self.charge = np.full(config.n, 1.0 / config.n)
        self.field = np.zeros(config.n, dtype=np.complex128)
        self._binom = fm.binomial_table(2 * self.p + 2)
        # Cell array layout: levels 0..L, Morton order within each level.
        self.level_offset = np.zeros(self.levels + 2, dtype=np.int64)
        for l in range(self.levels + 1):
            self.level_offset[l + 1] = self.level_offset[l] + 4**l
        self.ncells = int(self.level_offset[-1])
        # Morton rank of row-major cell index, per level.
        self._morton_rank: list[np.ndarray] = []
        for l in range(self.levels + 1):
            side = 1 << l
            iy, ix = np.divmod(np.arange(side * side, dtype=np.int64), side)
            keys = morton_key_from_axes(
                np.stack([ix, iy], axis=1).astype(np.uint64), max(l, 1)
            )
            rank = np.empty(side * side, dtype=np.int64)
            rank[np.argsort(keys, kind="stable")] = np.arange(side * side)
            self._morton_rank.append(rank)
        # V-list offsets by cell parity — always 27 per cell, so they pack
        # into a dense (2, 2, 27, 2) table the M2L emission can gather
        # for every cell at once.
        self._v_off_table = np.array(
            [[self._v_offsets(px, py) for py in (0, 1)] for px in (0, 1)],
            dtype=np.int64,
        )

    def positions(self) -> np.ndarray:
        return self.pos

    def _apply_reordering(self, r: Reordering) -> None:
        self.pos = r.apply(self.pos)
        self.vel = r.apply(self.vel)
        self.charge = r.apply(self.charge)
        self.field = r.apply(self.field)

    # -- geometry ----------------------------------------------------------

    def _bbox(self) -> tuple[np.ndarray, float]:
        lo = self.pos.min(axis=0)
        hi = self.pos.max(axis=0)
        w = float((hi - lo).max()) * (1 + 1e-9)
        return lo, (w if w > 0 else 1.0)

    def _cell_id(self, l: int, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
        """Shared-array index of cell (ix, iy) at level l (Morton order)."""
        side = 1 << l
        return self.level_offset[l] + self._morton_rank[l][iy * side + ix]

    def _v_offsets(self, parity_x: int, parity_y: int) -> list[tuple[int, int]]:
        """Relative V-list offsets for a cell with the given parity."""
        out = []
        for dx in range(-2 - parity_x, 4 - parity_x):
            for dy in range(-2 - parity_y, 4 - parity_y):
                if max(abs(dx), abs(dy)) >= 2:
                    out.append((dx, dy))
        return out

    # -- partition ----------------------------------------------------------

    def _partition(
        self, counts: np.ndarray, nprocs: int
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Split the Morton-ordered finest cells into cost-contiguous runs,
        one per processor.

        Returns (owner array indexed by row-major finest cell, per-proc
        lists of row-major finest cell indices in Morton order).
        """
        L = self.levels
        side = 1 << L
        rank = self._morton_rank[L]
        order = np.argsort(rank, kind="stable")  # row-major ids in Morton order
        w = counts[order].astype(np.float64) + 0.05  # small floor: empty cells
        cum = np.cumsum(w)
        targets = np.arange(1, nprocs) * (cum[-1] / nprocs)
        inner = np.searchsorted(cum, targets)
        bounds = np.concatenate([[0], inner, [side * side]])
        owner = np.empty(side * side, dtype=np.int64)
        parts = []
        for pidx in range(nprocs):
            cells = order[bounds[pidx] : bounds[pidx + 1]]
            owner[cells] = pidx
            parts.append(cells)
        return owner, parts

    # -- execution ----------------------------------------------------------

    def run(self, siblings=()) -> Trace:  # noqa: C901 - one phase per block, kept linear
        cfg = self.config
        n, L, p = self.n, self.levels, self.p
        views, particles, cells_r = self._open_views(
            siblings, "build_tree",
            ("particles", n, self.object_size),
            ("cells", self.ncells, CELL_BYTES),
        )
        binom = self._binom

        for _ in range(cfg.iterations):
            lo, w = self._bbox()
            side = 1 << L
            step = w / side
            zpos = self.pos[:, 0] + 1j * self.pos[:, 1]

            # ---- build_tree: parallel — each processor bins the particles
            # of its spatial region ("cells ... created independently by
            # the processors"), reading those particles wherever they sit
            # in the shared array and writing its own cells.
            with self._phys("binning"):
                cx = np.clip(((self.pos[:, 0] - lo[0]) / step).astype(np.int64), 0, side - 1)
                cy = np.clip(((self.pos[:, 1] - lo[1]) / step).astype(np.int64), 0, side - 1)
                leaf_rm = cy * side + cx  # row-major finest cell of each particle
                counts = np.bincount(leaf_rm, minlength=side * side)
                sort_order = np.argsort(self._morton_rank[L][leaf_rm], kind="stable")
                starts_m = np.searchsorted(
                    self._morton_rank[L][leaf_rm][sort_order], np.arange(side * side + 1)
                )
            rank_L = self._morton_rank[L]

            def gather(rms: np.ndarray) -> np.ndarray:
                """Members of the row-major leaves ``rms``, concatenated."""
                return ragged_take(sort_order, starts_m[rank_L[rms]], counts[rms])

            # Each view splits the P-independent leaf counts over its own
            # processors; the owners of coarser levels follow in M2M.
            with self._phys("partition"):
                for v in views:
                    v.owner_rm, v.parts = self._partition(counts, v.nprocs)
                    v.owner_lvl = {L: v.owner_rm}
            # Occupied finest cells in Morton order; their particles are
            # exactly `sort_order`, segmented by `occm_cnt`.  Every physics
            # stage below indexes this layout.
            morton_rm = np.argsort(rank_L, kind="stable")
            occm = morton_rm[counts[morton_rm] > 0]
            occm_cnt = counts[occm]
            occm_cids = self._cell_id(L, occm % side, occm // side)
            z0occ = np.empty(occm.shape[0], dtype=np.complex128)
            z0occ.real = lo[0] + (occm % side + 0.5) * step
            z0occ.imag = lo[1] + (occm // side + 0.5) * step
            d_sorted = zpos[sort_order] - np.repeat(z0occ, occm_cnt)
            t0 = perf_counter()
            for v in views:
                for pidx, part in enumerate(v.parts):
                    mine = gather(part)
                    v.tb.read(pidx, particles, mine)
                    ids = self._cell_id(L, part % side, part // side)
                    v.tb.write(pidx, cells_r, ids)
                    v.tb.work(pidx, mine.shape[0] + ids.shape[0])
            barrier(views, "partition")

            # ---- partition.
            for v in views:
                for pidx, part in enumerate(v.parts):
                    ids = self._cell_id(L, part % side, part // side)
                    v.tb.read(pidx, cells_r, ids)
                    v.tb.work(pidx, ids.shape[0])
            barrier(views, "build_list")

            # ---- build_list: enumerate V lists (local index math).
            for v in views:
                for pidx, part in enumerate(v.parts):
                    ids = self._cell_id(L, part % side, part // side)
                    v.tb.read(pidx, cells_r, ids)
                    v.tb.write(pidx, cells_r, ids)
                    v.tb.work(pidx, ids.shape[0] * 27)
            barrier(views, "tree_traversal")
            self.emit_seconds += perf_counter() - t0

            # ---- tree_traversal: the actual FMM math.
            mult = np.zeros((self.ncells, p + 1), dtype=np.complex128)
            local = np.zeros((self.ncells, p + 1), dtype=np.complex128)

            # P2M at owned leaves (reads particles), every occupied leaf's
            # expansion in one call: the power recurrence is elementwise
            # per particle and the coefficient segment sums accumulate each
            # cell's particles in the same (Morton member) order as a
            # per-cell fold.
            with self._phys("p2m"):
                mult[occm_cids] = p2m_batch(
                    d_sorted, self.charge[sort_order],
                    np.repeat(np.arange(occm.shape[0], dtype=np.int64), occm_cnt),
                    occm.shape[0], p,
                )
            t0 = perf_counter()
            for v in views:
                for pidx, part in enumerate(v.parts):
                    occ = part[counts[part] > 0]
                    if occ.shape[0]:
                        v.tb.emit_ragged(
                            pidx,
                            [
                                (particles, False, gather(occ),
                                 counts_to_offsets(counts[occ])),
                                (cells_r, True,
                                 self._cell_id(L, occ % side, occ // side), 1),
                            ],
                        )
                    v.tb.work(pidx, EXPANSION_WORK * float(counts[part].sum()) * (p + 1))
            self.emit_seconds += perf_counter() - t0

            # Upward M2M, level L-1 .. 0, vectorized per child quadrant.
            for l in range(L - 1, -1, -1):
                sidel = 1 << l
                sidec = sidel * 2
                stepl = w / sidel
                iy, ix = np.divmod(np.arange(sidel * sidel, dtype=np.int64), sidel)
                parent_ids = self._cell_id(l, ix, iy)
                # Owner of a parent = owner of its first child.
                for v in views:
                    v.owner_lvl[l] = v.owner_lvl[l + 1][(iy * 2) * sidec + ix * 2]
                quads = [(qx, qy) for qx in (0, 1) for qy in (0, 1)]
                shifts = [
                    complex((qx - 0.5) * stepl / 2.0, (qy - 0.5) * stepl / 2.0)
                    for qx, qy in quads
                ]
                with self._phys("m2m"):
                    tmats = m2m_stack(np.array(shifts, dtype=np.complex128), p, binom)
                    for (qx, qy), t in zip(quads, tmats):
                        cxs, cys = ix * 2 + qx, iy * 2 + qy
                        child_ids = self._cell_id(l + 1, cxs, cys)
                        mult[parent_ids] += mult[child_ids] @ t.T
                # Trace: each parent's owner reads children, writes parent.
                t0 = perf_counter()
                for v in views:
                    for pidx in range(v.nprocs):
                        mine = np.nonzero(v.owner_lvl[l] == pidx)[0]
                        if mine.shape[0] == 0:
                            continue
                        mix, miy = mine % sidel, mine // sidel
                        kid_ids = np.concatenate(
                            [
                                self._cell_id(l + 1, mix * 2 + qx, miy * 2 + qy)
                                for qx in (0, 1)
                                for qy in (0, 1)
                            ]
                        )
                        v.tb.read(pidx, cells_r, np.sort(kid_ids))
                        v.tb.write(pidx, cells_r, parent_ids[mine])
                        v.tb.work(pidx, EXPANSION_WORK * mine.shape[0] * 4 * (p + 1))
                self.emit_seconds += perf_counter() - t0

            # M2L per level (2..L), vectorized per (parity, offset).
            for l in range(2, L + 1):
                sidel = 1 << l
                stepl = w / sidel
                iy, ix = np.divmod(np.arange(sidel * sidel, dtype=np.int64), sidel)
                tgt_ids_all = self._cell_id(l, ix, iy)
                vcount = np.zeros(sidel * sidel, dtype=np.int64)
                # Enumerate the (parity, offset) interaction groups once
                # and build all of the level's translation matrices in a
                # single stacked call (numpy's vectorized complex multiply
                # uses FMA, so a per-matrix scalar recurrence would differ
                # by 1 ulp).
                vgroups = []
                zs = []
                for px in (0, 1):
                    for py in (0, 1):
                        sel = (ix % 2 == px) & (iy % 2 == py)
                        tix, tiy = ix[sel], iy[sel]
                        tids = tgt_ids_all[sel]
                        for dx, dy in self._v_offsets(px, py):
                            vgroups.append((tix, tiy, tids, dx, dy))
                            zs.append(complex(dx * stepl, dy * stepl))  # src - tgt
                with self._phys("m2l"):
                    tmats = m2l_stack(np.array(zs, dtype=np.complex128), p, binom)
                    for (tix, tiy, tids, dx, dy), t in zip(vgroups, tmats):
                        sx, sy = tix + dx, tiy + dy
                        ok = (sx >= 0) & (sx < sidel) & (sy >= 0) & (sy < sidel)
                        if not ok.any():
                            continue
                        sids = self._cell_id(l, sx[ok], sy[ok])
                        local[tids[ok]] += mult[sids] @ t.T
                        vcount[(tiy[ok] * sidel + tix[ok])] += 1
                        # Trace: owner of each target reads the source —
                        # emitted below, per cell, to keep traversal order.
                # Emit per-cell V-list reads in Morton order per owner.
                t0 = perf_counter()
                for v in views:
                    own = v.owner_lvl[l]
                    for pidx in range(v.nprocs):
                        mine_rm = np.nonzero(own == pidx)[0]
                        if mine_rm.shape[0] == 0:
                            continue
                        mine_rm = mine_rm[np.argsort(self._morton_rank[l][mine_rm])]
                        tix, tiy = mine_rm % sidel, mine_rm // sidel
                        offs = self._v_off_table[tix % 2, tiy % 2]
                        sx = tix[:, None] + offs[:, :, 0]
                        sy = tiy[:, None] + offs[:, :, 1]
                        ok = (sx >= 0) & (sx < sidel) & (sy >= 0) & (sy < sidel)
                        vcnt = ok.sum(axis=1)
                        kept = vcnt > 0
                        v.tb.emit_ragged(
                            pidx,
                            [
                                (cells_r, False, self._cell_id(l, sx[ok], sy[ok]),
                                 counts_to_offsets(vcnt[kept])),
                                (cells_r, True,
                                 self._cell_id(l, tix[kept], tiy[kept]), 1),
                            ],
                        )
                        v.tb.work(pidx, EXPANSION_WORK * float(vcount[mine_rm].sum()) * (p + 1) ** 2 / 4.0)
                self.emit_seconds += perf_counter() - t0

            # Downward L2L, levels 0..L-1 -> children.
            for l in range(0, L):
                sidel = 1 << l
                stepl = w / sidel
                iy, ix = np.divmod(np.arange(sidel * sidel, dtype=np.int64), sidel)
                parent_ids = self._cell_id(l, ix, iy)
                quads = [(qx, qy) for qx in (0, 1) for qy in (0, 1)]
                shifts = [
                    complex((qx - 0.5) * stepl / 2.0, (qy - 0.5) * stepl / 2.0)
                    for qx, qy in quads
                ]
                with self._phys("l2l"):
                    tmats = l2l_stack(np.array(shifts, dtype=np.complex128), p, binom)
                    for (qx, qy), t in zip(quads, tmats):
                        child_ids = self._cell_id(l + 1, ix * 2 + qx, iy * 2 + qy)
                        local[child_ids] += local[parent_ids] @ t.T
                t0 = perf_counter()
                sidec = sidel * 2
                for v in views:
                    own_child = v.owner_lvl[l + 1]
                    for pidx in range(v.nprocs):
                        minec = np.nonzero(own_child == pidx)[0]
                        if minec.shape[0] == 0:
                            continue
                        cxs, cys = minec % sidec, minec // sidec
                        par = self._cell_id(l, cxs // 2, cys // 2)
                        v.tb.read(pidx, cells_r, np.sort(np.unique(par)))
                        v.tb.write(pidx, cells_r, self._cell_id(l + 1, cxs, cys))
                        v.tb.work(pidx, EXPANSION_WORK * minec.shape[0] * (p + 1))
                self.emit_seconds += perf_counter() - t0

            # L2P: evaluate local expansions at owned particles.
            with self._phys("l2p"):
                self.field[:] = 0.0
                # One Horner sweep over all particles: row = the
                # particle's cell's local expansion, same multiply-add
                # sequence as the per-cell evaluation.
                out = eval_local_deriv_batch(
                    local[np.repeat(occm_cids, occm_cnt)], d_sorted
                )
                self.field[sort_order] += np.conj(out)
            t0 = perf_counter()
            for v in views:
                for pidx, part in enumerate(v.parts):
                    occ = part[counts[part] > 0]
                    if occ.shape[0]:
                        moffs = counts_to_offsets(counts[occ])
                        mem_col = gather(occ)
                        v.tb.emit_ragged(
                            pidx,
                            [
                                (cells_r, False,
                                 self._cell_id(L, occ % side, occ // side), 1),
                                (particles, False, mem_col, moffs),
                                (particles, True, mem_col, moffs),
                            ],
                        )
                    v.tb.work(pidx, EXPANSION_WORK * float(counts[part].sum()) * (p + 1))
            barrier(views, "inter_particle")
            self.emit_seconds += perf_counter() - t0

            # ---- inter_particle: P2P with the 8 neighbouring leaves.
            # Per-target term order is the stencil-order concatenation of
            # neighbour members; all pairs are enumerated at once and each
            # target's bin folds with bincount — the same additions in the
            # same order as a sequential per-row fold.
            with self._phys("p2p_inter"):
                tixo, tiyo = occm % side, occm // side
                sxo = tixo[:, None] + _P2P_STENCIL[None, :, 0]
                syo = tiyo[:, None] + _P2P_STENCIL[None, :, 1]
                okn = (sxo >= 0) & (sxo < side) & (syo >= 0) & (syo < side)
                nbrm = (syo * side + sxo)[okn]
                nbrm_cnt = counts[nbrm]
                grpm = np.repeat(
                    np.arange(occm.shape[0], dtype=np.int64), okn.sum(axis=1)
                )
                sc = np.bincount(
                    grpm, weights=nbrm_cnt, minlength=occm.shape[0]
                ).astype(np.int64)
                src = ragged_take(sort_order, starts_m[rank_L[nbrm]], nbrm_cnt)
                s_offs = counts_to_offsets(sc)
                # Enumerate the pair stream left-major (per target, its
                # cell's neighbour concatenation) without any integer
                # division: repeat the targets by their source counts
                # and gather the pre-gathered source values through one
                # shared ragged index.
                scp = np.repeat(sc, occm_cnt)  # sources per target
                tpart = np.repeat(sort_order, scp)
                starts_t = np.repeat(s_offs[:-1], occm_cnt)
                offs_p = counts_to_offsets(scp)
                gidx = np.repeat(starts_t - offs_p[:-1], scp)
                gidx += np.arange(gidx.shape[0], dtype=np.int64)
                zt = np.repeat(zpos[sort_order], scp)
                terms = self.charge[src][gidx] / (zt - zpos[src][gidx])
                sums = complex_segsum(tpart, terms, n)
                tt = sort_order[scp > 0]
                self.field[tt] += np.conj(sums[tt])
            t0 = perf_counter()
            for v in views:
                for pidx, part in enumerate(v.parts):
                    occ = part[counts[part] > 0]
                    npairs = 0.0
                    if occ.shape[0]:
                        tix, tiy = occ % side, occ // side
                        sx = tix[:, None] + _P2P_STENCIL[None, :, 0]
                        sy = tiy[:, None] + _P2P_STENCIL[None, :, 1]
                        ok = (sx >= 0) & (sx < side) & (sy >= 0) & (sy < side)
                        nbr = (sy * side + sx)[ok]
                        grp = np.repeat(
                            np.arange(occ.shape[0], dtype=np.int64),
                            ok.sum(axis=1),
                        )
                        tot = np.bincount(
                            grp, weights=counts[nbr], minlength=occ.shape[0]
                        ).astype(np.int64)
                        kept = tot > 0
                        nbo = nbr[counts[nbr] > 0]
                        v.tb.emit_ragged(
                            pidx,
                            [
                                (particles, False,
                                 ragged_take(sort_order, starts_m[rank_L[nbo]],
                                             counts[nbo]),
                                 counts_to_offsets(tot[kept])),
                                (particles, True, gather(occ[kept]),
                                 counts_to_offsets(counts[occ[kept]])),
                            ],
                        )
                        # Lock per remotely-owned in-bounds neighbour leaf
                        # of every leaf that emitted a unit.
                        remote = np.bincount(
                            grp,
                            weights=(v.owner_rm[nbr] != pidx),
                            minlength=occ.shape[0],
                        )
                        nlocks = int(remote[kept].sum())
                        if nlocks:
                            v.tb.lock(pidx, nlocks)
                        npairs = float((counts[occ] * tot)[kept].sum())
                    v.tb.work(pidx, P2P_WORK * npairs)
            barrier(views, "intra_particle")
            self.emit_seconds += perf_counter() - t0

            # ---- intra_particle: P2P within each owned leaf.  Self pairs
            # stay in the term stream as charge/inf = 0 (complex division
            # by inf is exact), so each row folds the same sequence as a
            # per-leaf loop with its diagonal masked.
            with self._phys("p2p_intra"):
                sel2 = occm_cnt >= 2
                occ2 = occm[sel2]
                c2 = occm_cnt[sel2]
                base2 = starts_m[rank_L[occ2]]
                touched = ragged_take(sort_order, base2, c2)
                # Same divmod-free pair enumeration as inter_particle:
                # each member of a cell interacts with the cell's own
                # member list, so the source block per target is its
                # group's slice of ``touched``.
                scp2 = np.repeat(c2, c2)
                tpart = np.repeat(touched, scp2)
                g_offs = counts_to_offsets(c2)
                offs_p2 = counts_to_offsets(scp2)
                gidx = np.repeat(np.repeat(g_offs[:-1], c2) - offs_p2[:-1], scp2)
                gidx += np.arange(gidx.shape[0], dtype=np.int64)
                zm = zpos[touched]
                d = np.repeat(zm, scp2) - zm[gidx]
                tpos = np.repeat(
                    np.arange(touched.shape[0], dtype=np.int64), scp2
                )
                d[gidx == tpos] = np.inf
                terms = self.charge[touched][gidx] / d
                sums = complex_segsum(tpart, terms, n)
                self.field[touched] += np.conj(sums[touched])
            t0 = perf_counter()
            for v in views:
                for pidx, part in enumerate(v.parts):
                    sel = part[counts[part] >= 2]
                    if sel.shape[0]:
                        moffs = counts_to_offsets(counts[sel])
                        mem_col = gather(sel)
                        v.tb.emit_ragged(
                            pidx,
                            [
                                (particles, False, mem_col, moffs),
                                (particles, True, mem_col, moffs),
                            ],
                        )
                    npairs = float((counts[sel] * (counts[sel] - 1)).sum())
                    v.tb.work(pidx, P2P_WORK * npairs)
            barrier(views, "other")
            self.emit_seconds += perf_counter() - t0

            # ---- other: integrate owned particles.
            with self._phys("integrate"):
                accel = np.stack([self.field.real, self.field.imag], axis=1)
                self.vel += self.dt * accel
                self.pos += self.dt * self.vel
            t0 = perf_counter()
            for v in views:
                for pidx, part in enumerate(v.parts):
                    mine = gather(part)
                    v.tb.read(pidx, particles, mine)
                    v.tb.write(pidx, particles, mine)
                    v.tb.work(pidx, mine.shape[0])
            barrier(views, "build_tree")
            self.emit_seconds += perf_counter() - t0
        return self._finish_views(views)
