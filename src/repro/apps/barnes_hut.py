"""Barnes-Hut N-body benchmark (SPLASH-2, sequential tree build variant).

Structure follows the paper's section 2.1 description of the modified
benchmark.  Each iteration:

1. **build_tree** — a single processor reads all of the particles (in array
   order) and rebuilds the shared tree, filling the cell array in creation
   order.
2. **partition** — the processors divide the particles through an in-order
   traversal of the tree, each assigning itself a contiguous run of subtrees
   weighted by the per-particle interaction counts recorded in the previous
   iteration.
3. **forces** — each processor walks the tree for each of its particles
   (opening criterion theta), reading cells and nearby bodies and updating
   its own particles' accelerations.
4. **update** — each processor integrates (leapfrog) the particles it owns.

The particle array is initialized from a two-Plummer distribution in random
order; the data object is 104 bytes (Table 1).  The physics is real: the
computed accelerations agree with direct summation to the accuracy expected
of the opening criterion (see ``tests/apps/test_barnes_hut.py``).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from ..core.reorder import Reordering
from ..trace.events import Trace
from .base import AppConfig, Application, barrier
from .distributions import two_plummer
from .numerics import bh_forces_batch, subtree_spans
from .octree import build_octree, walk

__all__ = ["BarnesHut"]

#: Bytes per cell record in the shared cell array (SPLASH-2's cell struct
#: holds the subtree pointers, center-of-mass and moments).
CELL_BYTES = 216


class BarnesHut(Application):
    """See module docstring.

    ``config.extra`` knobs: ``theta`` (opening criterion, default 0.7),
    ``dt`` (timestep, default 0.025), ``leaf_capacity`` (default 8),
    ``eps`` (softening, default 0.05).
    """

    name = "Barnes-Hut"
    category = 1
    sync = "b"
    object_size = 104
    orderings = ("hilbert", "morton", "gray", "peano")
    knobs = ("dt", "eps", "leaf_capacity", "theta")

    def __init__(self, config: AppConfig):
        super().__init__(config)
        x = config.extra
        self.theta = float(x.get("theta", 0.7))
        self.dt = float(x.get("dt", 0.025))
        self.leaf_capacity = int(x.get("leaf_capacity", 8))
        self.eps = float(x.get("eps", 0.05))
        self.pos = two_plummer(config.n, config.seed)
        self.vel = np.zeros_like(self.pos)
        self.acc = np.zeros_like(self.pos)
        self.mass = np.full(config.n, 1.0 / config.n)
        self._prev_cost: np.ndarray | None = None
        self._steps_total = 0

    def positions(self) -> np.ndarray:
        return self.pos

    def _apply_reordering(self, r: Reordering) -> None:
        self.pos = r.apply(self.pos)
        self.vel = r.apply(self.vel)
        self.acc = r.apply(self.acc)
        self.mass = r.apply(self.mass)
        if self._prev_cost is not None:
            self._prev_cost = r.apply(self._prev_cost)

    # -- physics ---------------------------------------------------------

    @staticmethod
    def _partition(
        tree, order: np.ndarray, cost: np.ndarray, nprocs: int
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Cost-weighted contiguous split of the in-order body sequence
        ``order`` over ``nprocs`` processors.

        Returns the per-processor body lists and the cells the traversal
        actually *visits*: like SPLASH-2's costzones, whole subtrees that
        fall inside one processor's zone are assigned without descending,
        so only cells straddling a split boundary are touched.  The lists
        concatenate back to ``order``.
        """
        w = cost[order].astype(np.float64)
        cum = np.cumsum(w)
        total = cum[-1] if cum.size else 0.0
        if total <= 0:
            bounds = (np.arange(nprocs + 1) * order.shape[0]) // nprocs
        else:
            targets = np.arange(1, nprocs) * (total / nprocs)
            inner = np.searchsorted(cum, targets)
            bounds = np.concatenate([[0], inner, [order.shape[0]]])
        parts = [order[bounds[p] : bounds[p + 1]] for p in range(nprocs)]

        # Visited cells: descend only where a split boundary falls inside
        # the subtree's body range.  Body ranges per cell follow from DFS
        # creation order: a leaf's range is its slice of leaf_bodies; an
        # internal node spans its children.
        lo, hi = subtree_spans(tree)
        inner_bounds = bounds[1:-1]
        visited = []
        stack = [0]
        while stack:
            c = stack.pop()
            visited.append(c)
            straddles = np.any((inner_bounds > lo[c]) & (inner_bounds < hi[c]))
            if straddles and not tree.is_leaf[c]:
                stack.extend(int(k) for k in tree.children[c] if k >= 0)
        return parts, np.array(sorted(visited), dtype=np.int64)

    # -- trace emission ----------------------------------------------------

    def _emit_forces(self, v, csr, cost, bodies, cells, max_cells) -> None:
        """Stage the force-phase access pattern.

        Consumes the rank-sorted CSR interaction streams: row ``j`` of the
        CSR covers the body at in-order position ``j``, so each
        processor's bursts are a contiguous slice.  The four lanes of a
        whole partition — cell reads, direct-body reads, self read, self
        write — go out in one ragged call, the same trace as four builder
        calls per body.
        """
        parts = v.parts
        ci, cbounds, do, dbounds = csr
        sizes = np.array([part.shape[0] for part in parts], dtype=np.int64)
        pb = np.zeros(v.nprocs + 1, dtype=np.int64)
        np.cumsum(sizes, out=pb[1:])
        ci = np.minimum(ci, max_cells - 1)
        for p in range(v.nprocs):
            lo, hi = pb[p], pb[p + 1]
            c0, d0 = cbounds[lo], dbounds[lo]
            v.tb.emit_ragged(
                p,
                [
                    (cells, False, ci[c0 : cbounds[hi]], cbounds[lo : hi + 1] - c0),
                    (bodies, False, do[d0 : dbounds[hi]], dbounds[lo : hi + 1] - d0),
                    (bodies, False, parts[p], 1),
                    (bodies, True, parts[p], 1),
                ],
            )
            v.tb.work(p, float(cost[parts[p]].sum()))

    # -- execution ---------------------------------------------------------

    def run(self, siblings=()) -> Trace:
        cfg = self.config
        n = self.n
        # Cell count varies per iteration; size the region for the worst
        # case (every iteration's tree fits well under 2n cells).
        max_cells = max(2 * n, 64)
        views, bodies, cells = self._open_views(
            siblings, "build_tree",
            ("bodies", n, self.object_size),
            ("cells", max_cells, CELL_BYTES),
        )
        cost = (
            self._prev_cost
            if self._prev_cost is not None
            else np.ones(n, dtype=np.float64)
        )
        for it in range(cfg.iterations):
            with self._phys("tree_build"):
                tree = build_octree(
                    self.pos, self.mass, leaf_capacity=self.leaf_capacity
                )
            nc = min(tree.ncells, max_cells)
            # 1. Sequential tree build: proc 0 reads every particle in
            # array order and writes the cell array in creation order.
            t0 = perf_counter()
            for v in views:
                v.tb.read(0, bodies, np.arange(n))
                v.tb.write(0, cells, np.arange(nc))
                v.tb.work(0, n + tree.ncells)
            barrier(views, "partition")
            self.emit_seconds += perf_counter() - t0

            # 2. In-order traversal partition; every processor walks the
            # boundary cells of the costzone split (read-only).  The
            # in-order sequence and the cost are P-independent; each view
            # splits them over its own processors.
            with self._phys("partition"):
                order = tree.inorder_bodies()
                for v in views:
                    v.parts, v.visited = self._partition(tree, order, cost, v.nprocs)
            t0 = perf_counter()
            for v in views:
                visited = np.minimum(v.visited, max_cells - 1)
                for p in range(v.nprocs):
                    v.tb.read(p, cells, visited)
                    v.tb.work(p, visited.shape[0])
            barrier(views, "forces")
            self.emit_seconds += perf_counter() - t0

            # 3. Force evaluation: the vectorized frontier walk, then
            # column-wise bincount forces.  The per-body CSR interaction
            # streams, in in-order body sequence, are the access pattern
            # itself: every view's partition is a run of slices of it.
            with self._phys("walk"):
                wr = walk(tree, self.pos, self.theta)
            with self._phys("forces"):
                acc = bh_forces_batch(tree, self.pos, self.mass, wr, self.eps)
                cost = wr.interactions_per_body(n).astype(np.float64)
                csr = wr.per_body_csr(n, order=order)
            t0 = perf_counter()
            for v in views:
                self._emit_forces(v, csr, cost, bodies, cells, max_cells)
            barrier(views, "update")
            self.emit_seconds += perf_counter() - t0

            # 4. Leapfrog update of owned particles, in partition order.
            with self._phys("integrate"):
                self.acc = acc
                self.vel += self.dt * acc
                self.pos += self.dt * self.vel
            t0 = perf_counter()
            for v in views:
                for p, part in enumerate(v.parts):
                    v.tb.read(p, bodies, part)
                    v.tb.write(p, bodies, part)
                    v.tb.work(p, part.shape[0])
            self.emit_seconds += perf_counter() - t0

            # Policy check at the iteration boundary.  The costzone weights
            # ride along with the bodies: _apply_reordering permutes
            # _prev_cost, so park the running cost there first and read it
            # back (possibly permuted) after.
            self._prev_cost = cost
            self._steps_total += 1
            info = None
            if it + 1 < cfg.iterations:
                info = self._policy_rereorder(self._steps_total)
            cost = self._prev_cost
            t0 = perf_counter()
            if info is not None:
                barrier(views, "reorder")
                self._emit_reorder_epoch(views, bodies, info)
            barrier(views, "build_tree")
            self.emit_seconds += perf_counter() - t0
        self._prev_cost = cost
        return self._finish_views(views)
