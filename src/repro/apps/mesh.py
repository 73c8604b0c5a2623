"""Synthetic unstructured tetrahedral meshes.

The Chaos ``unstructured`` benchmark reads a CFD mesh file (``mesh.10k``)
that we do not have; per the reproduction's substitution rule we generate an
equivalent unstructured mesh by Delaunay tetrahedralization of a random
point cloud.  What matters to the benchmark's memory behaviour is exactly
what Delaunay provides: "edges or faces only connect physically adjacent
nodes" while the *array order* of nodes carries no spatial information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, MissingDependencyError

__all__ = ["Mesh", "delaunay_mesh", "make_mesh"]


@dataclass(frozen=True)
class Mesh:
    """An unstructured mesh: nodes plus edge and face connectivity.

    ``edges`` is ``(ne, 2)`` with ``edges[:, 0] < edges[:, 1]``; ``faces``
    is ``(nf, 3)`` with sorted rows.  Both are sorted by first node — the
    storage order of the benchmark's connectivity arrays.
    """

    points: np.ndarray
    edges: np.ndarray
    faces: np.ndarray

    @property
    def nnodes(self) -> int:
        return int(self.points.shape[0])

    def remap(self, rank: np.ndarray) -> "Mesh":
        """Renumber nodes through ``rank`` (old id -> new id), restoring
        canonical row and array order — the connectivity fix-up after data
        reordering."""
        n = self.nnodes
        return Mesh(
            points=self.points,
            edges=_canonical_rows(rank[self.edges], n),
            faces=_canonical_rows(rank[self.faces], n),
        )


def _canonical_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """Distinct non-degenerate rows (node ids below ``n``), each sorted, in
    lexicographic order: one int64 key per row (``a*n + b``, ``(a*n + b)*n
    + c``) orders like the row, so a 1-D ``np.unique`` dedups and sorts."""
    if n ** rows.shape[1] > np.iinfo(np.int64).max:
        raise ConfigError(f"a mesh of {n} nodes is too large for int64 row keys")
    rows = np.sort(rows, axis=1)
    rows = rows[np.all(rows[:, 1:] != rows[:, :-1], axis=1)]
    key = rows[:, 0].astype(np.int64)
    for k in range(1, rows.shape[1]):
        key = key * n + rows[:, k]
    _, first = np.unique(key, return_index=True)
    return rows[first]


def delaunay_mesh(points: np.ndarray) -> Mesh:
    """Delaunay tetrahedralization (scipy) -> edges and triangular faces."""
    try:
        from scipy.spatial import Delaunay  # deferred: a slow first import
    except ImportError as exc:
        raise MissingDependencyError(
            f"scipy is required to build Unstructured meshes: {exc}"
        ) from exc

    points = np.asarray(points, dtype=np.float64)
    tri = Delaunay(points)
    simp = tri.simplices.astype(np.int64)  # (nt, 4)
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    edges = np.concatenate([simp[:, [a, b]] for a, b in pairs], axis=0)
    trips = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    faces = np.concatenate([simp[:, list(t)] for t in trips], axis=0)
    n = points.shape[0]
    return Mesh(
        points=points, edges=_canonical_rows(edges, n), faces=_canonical_rows(faces, n)
    )


make_mesh = delaunay_mesh
