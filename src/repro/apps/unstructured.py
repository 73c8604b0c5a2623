"""Unstructured mesh CFD kernel (Chaos suite).

A simplified computational-fluid-dynamics benchmark using the finite element
method (paper section 5.3.2): a static unstructured mesh of nodes, edges and
faces; "the computation contains a series of loops that update nodes by
iterating over nodes, or perform interactions between connected nodes by
iterating over the edges" (and faces).  Iterations over nodes, edges and
faces are block-partitioned over the processors — Category 2.

Per iteration, three phases:

* **node_loop** — each processor relaxes its block of nodes (read+write);
* **edge_loop** — each processor walks its block of the edge array,
  reading both endpoints and accumulating flux into both (symmetric
  update; remote-block endpoints are lock-protected, hence the "b,l"
  synchronization of Table 1);
* **face_loop** — same over triangular faces.

The 32-byte node record (Table 1) holds the coordinates and the scalar
state being relaxed.  The mesh is synthetic (Delaunay over random points —
see :mod:`repro.apps.mesh`); its connectivity arrays are sorted by first
node, and after data reordering they are renumbered and re-sorted exactly
as Chaos adjusts its indirection arrays.
"""

from __future__ import annotations

from functools import lru_cache
from time import perf_counter

import numpy as np

from ..core.reorder import Reordering
from ..errors import ConfigError
from ..trace.events import Trace
from .base import AppConfig, Application, barrier, block_partition, scatter_add
from .distributions import clustered, shuffle
from .mesh import Mesh, make_mesh

__all__ = ["Unstructured", "base_mesh"]


@lru_cache(maxsize=8)
def base_mesh(n: int, seed: int) -> Mesh:
    """The input mesh of ``(n, seed)``, shared read-only by every ordering
    and processor count (the point cloud's other parameters are fixed)."""
    pts = shuffle(clustered(n, seed, nclusters=12, spread=0.08), seed + 1)
    mesh = make_mesh(pts)
    for a in (mesh.points, mesh.edges, mesh.faces):
        a.flags.writeable = False
    return mesh


class Unstructured(Application):
    """See module docstring.

    ``config.extra`` knobs: ``relax`` (edge relaxation weight, default
    0.05), ``use_faces`` (default True), ``mesh`` (inject a prebuilt
    :class:`Mesh` of ``config.n`` nodes in place of :func:`base_mesh` —
    used by tests).
    """

    name = "Unstructured"
    category = 2
    sync = "b,l"
    object_size = 32
    orderings = ("column", "hilbert", "gray", "rcm")
    knobs = ("mesh", "relax", "use_faces")

    def __init__(self, config: AppConfig):
        super().__init__(config)
        x = config.extra
        self.relax = float(x.get("relax", 0.05))
        self.use_faces = bool(x.get("use_faces", True))
        mesh = x.get("mesh")
        if mesh is None:
            mesh = base_mesh(config.n, config.seed)
        elif not isinstance(mesh, Mesh):
            raise ConfigError("extra['mesh'] must be a Mesh")
        elif mesh.nnodes != config.n:
            raise ConfigError(f"extra['mesh'] has {mesh.nnodes} nodes, n is {config.n}")
        self.mesh = mesh
        self.value = np.random.default_rng(config.seed + 2).random(config.n)

    def positions(self) -> np.ndarray:
        return self.mesh.points

    def interaction_pairs(self) -> np.ndarray:
        return self.mesh.edges

    def _apply_reordering(self, r: Reordering) -> None:
        self.mesh = Mesh(
            points=r.apply(self.mesh.points),
            edges=self.mesh.edges,
            faces=self.mesh.faces,
        ).remap(r.rank)
        self.value = r.apply(self.value)

    # -- physics ---------------------------------------------------------

    def _edge_relax(self) -> None:
        # The bincount-based :func:`scatter_add` folds a node's
        # contributions in edge-stream order.  The trace never depends on
        # the node values: the mesh is static, and no address is computed
        # from a value.
        e = self.mesh.edges
        flux = self.relax * (self.value[e[:, 1]] - self.value[e[:, 0]])
        scatter_add(self.value, e[:, 0], flux)
        scatter_add(self.value, e[:, 1], -flux)

    def _face_relax(self) -> None:
        f = self.mesh.faces
        if f.shape[0] == 0:
            return
        mean = self.value[f].mean(axis=1)
        for k in range(3):
            upd = self.relax * 0.5 * (mean - self.value[f[:, k]])
            scatter_add(self.value, f[:, k], upd)

    # -- execution ---------------------------------------------------------

    def _conn_phase(self, views, region: int, conn_name: str, label_next: str) -> None:
        """One connectivity loop: block partition of the ``conn_name`` rows
        of the mesh."""
        conn = getattr(self.mesh, conn_name)
        width = conn.shape[1]
        for v in views:
            for p, blk_rows in enumerate(v.conn_parts[conn_name]):
                rows = conn[blk_rows[0] : blk_rows[-1] + 1] if blk_rows.shape[0] else conn[:0]
                if rows.shape[0] == 0:
                    continue
                stream = rows.ravel()  # interleaved endpoint order, as iterated
                # The stream is one read-modify-write burst pair; the ragged
                # API stages it without re-normalizing.
                v.tb.update_ragged(p, region, stream, stream.shape[0])
                v.tb.work(p, float(rows.shape[0]) * width)
                # Lock-protected remote updates.  Like the Chaos runtime, the
                # benchmark aggregates off-block accumulations and flushes them
                # under one lock per remote partition, not one per endpoint.
                blk = v.node_parts[p]
                lo, hi = (int(blk[0]), int(blk[-1])) if blk.shape[0] else (0, -1)
                remote = stream[(stream < lo) | (stream > hi)]
                if remote.shape[0]:
                    owners = np.unique(remote * v.nprocs // self.n)
                    v.tb.lock(p, int(owners.shape[0]))
        barrier(views, label_next)

    def run(self, siblings=()) -> Trace:
        cfg = self.config
        n = self.n
        views, nodes = self._open_views(
            siblings, "node_loop", ("nodes", n, self.object_size)
        )
        for v in views:
            v.node_parts = block_partition(n, v.nprocs)
            v.conn_parts = {
                name: block_partition(getattr(self.mesh, name).shape[0], v.nprocs)
                for name in ("edges", "faces")
            }
        for _ in range(cfg.iterations):
            # Node loop: local relaxation of the owned block.
            with self._phys("node_loop"):
                self.value *= 1.0 - 1e-3
            t0 = perf_counter()
            for v in views:
                for p, blk in enumerate(v.node_parts):
                    v.tb.read(p, nodes, blk)
                    v.tb.write(p, nodes, blk)
                    v.tb.work(p, blk.shape[0])
            barrier(views, "edge_loop")
            self.emit_seconds += perf_counter() - t0

            # Edge loop.
            with self._phys("edge_loop"):
                self._edge_relax()
            t0 = perf_counter()
            self._conn_phase(views, nodes, "edges", "face_loop" if self.use_faces else "node_loop")
            self.emit_seconds += perf_counter() - t0

            # Face loop.
            if self.use_faces:
                with self._phys("face_loop"):
                    self._face_relax()
                t0 = perf_counter()
                self._conn_phase(views, nodes, "faces", "node_loop")
                self.emit_seconds += perf_counter() - t0
        return self._finish_views(views)
