"""The data reordering library — the paper's primary contribution.

Each reordering method "consists of two phases: first, it constructs a
sorting key for every object (a particle, a mesh point, etc.) and sorts the
keys to generate the rank; second, the actual objects are reordered according
to the rank" (section 3).  This module implements the second phase and the
user-facing functions :func:`hilbert_reorder`, :func:`morton_reorder`,
:func:`column_reorder` and :func:`row_reorder`, mirroring the C interface of
section 3.5 in Pythonic form:

>>> import numpy as np
>>> from repro.core import hilbert_reorder
>>> pos = np.random.default_rng(0).random((1000, 3))
>>> mass = np.random.default_rng(1).random(1000)
>>> r = hilbert_reorder(pos)          # keys from pos itself
>>> pos2, mass2 = r.apply(pos), r.apply(mass)

Applications keep *index-based* auxiliary structures (interaction lists,
tree leaf pointers); after moving the objects those indices must be rewritten
through :meth:`Reordering.remap_indices`, exactly as the Chaos benchmarks
adjust their indirection arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graph import GRAPH_ORDERINGS
from .keys import key_generator
from .quantize import BoundingBox
from .rank import invert_permutation, rank_keys

__all__ = [
    "Reordering",
    "reorder_by_keys",
    "reorder",
    "hilbert_reorder",
    "morton_reorder",
    "gray_reorder",
    "peano_reorder",
    "column_reorder",
    "row_reorder",
    "bfs_reorder",
    "rcm_reorder",
]


@dataclass(frozen=True)
class Reordering:
    """A computed object permutation.

    Attributes
    ----------
    perm:
        Gather order; ``objects[perm]`` is the reordered object array
        (new slot ``j`` holds old object ``perm[j]``).
    rank:
        Scatter order; old object ``i`` now lives in slot ``rank[i]``.
    method:
        Name of the ordering that produced the permutation (``"hilbert"``,
        ``"morton"``, ``"column"``, ``"row"``, or ``"identity"``).
    """

    perm: np.ndarray
    rank: np.ndarray
    method: str = "custom"

    def __post_init__(self) -> None:
        perm = np.asarray(self.perm, dtype=np.int64)
        rank = np.asarray(self.rank, dtype=np.int64)
        if perm.ndim != 1 or rank.shape != perm.shape:
            raise ValueError("perm and rank must be 1-D arrays of equal length")
        if not np.array_equal(rank[perm], np.arange(perm.shape[0])):
            raise ValueError("rank is not the inverse of perm")
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "rank", rank)

    @property
    def n(self) -> int:
        """Number of objects covered by the permutation."""
        return int(self.perm.shape[0])

    @classmethod
    def identity(cls, n: int) -> "Reordering":
        """The no-op reordering of ``n`` objects."""
        idx = np.arange(n, dtype=np.int64)
        return cls(perm=idx, rank=idx.copy(), method="identity")

    @classmethod
    def from_perm(cls, perm: np.ndarray, method: str = "custom") -> "Reordering":
        """Build from a gather permutation alone."""
        perm = np.asarray(perm, dtype=np.int64)
        return cls(perm=perm, rank=invert_permutation(perm), method=method)

    @classmethod
    def from_keys(cls, keys: np.ndarray, method: str = "custom") -> "Reordering":
        """Build from per-object sorting keys (stable sort)."""
        perm, rank = rank_keys(keys)
        return cls(perm=perm, rank=rank, method=method)

    def apply(self, objects: np.ndarray) -> np.ndarray:
        """Return the reordered object array (a copy).

        ``objects`` may be any numpy array (plain, structured or
        multi-dimensional) whose leading axis indexes objects.
        """
        objects = np.asarray(objects)
        if objects.shape[0] != self.n:
            raise ValueError(
                f"array has {objects.shape[0]} objects, permutation covers {self.n}"
            )
        return objects[self.perm]

    def remap_indices(self, indices: np.ndarray) -> np.ndarray:
        """Rewrite an index array that pointed into the *old* object order.

        Negative entries (-1 by convention, any negative value accepted)
        are preserved as "no neighbour" sentinels of interaction lists
        and mesh connectivity.  Entries ``>= n`` raise :class:`ValueError`
        — a stale or corrupt interaction-list entry must fail loudly, not
        be silently remapped to some wrong-but-valid object.
        """
        indices = np.asarray(indices)
        if not np.issubdtype(indices.dtype, np.integer):
            raise TypeError("indices must be an integer array")
        if indices.size and int(indices.max()) >= self.n:
            raise ValueError(
                f"index {int(indices.max())} out of range: the permutation"
                f" covers {self.n} objects (negative sentinels are allowed,"
                f" entries >= n are not)"
            )
        out = np.where(indices >= 0, self.rank[np.maximum(indices, 0)], indices)
        return out.astype(indices.dtype, copy=False)

    def compose(self, later: "Reordering") -> "Reordering":
        """The reordering equivalent to applying ``self`` then ``later``."""
        if later.n != self.n:
            raise ValueError("cannot compose reorderings of different sizes")
        return Reordering(
            perm=self.perm[later.perm],
            rank=later.rank[self.rank],
            method=f"{self.method}+{later.method}",
        )

    def inverse(self) -> "Reordering":
        """The reordering that undoes ``self``."""
        return Reordering(perm=self.rank, rank=self.perm, method=f"~{self.method}")


def reorder_by_keys(keys: np.ndarray, method: str = "custom") -> Reordering:
    """Phase two of the paper's pipeline: rank keys into a permutation."""
    return Reordering.from_keys(keys, method=method)


def _resolve_coords(
    objects: np.ndarray | None,
    coords: np.ndarray | None,
    coord: Callable[..., float] | None,
    ndim: int | None,
) -> np.ndarray:
    """Produce the (n, ndim) coordinate array from whichever form was given."""
    if coords is not None:
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2:
            raise ValueError("coords must have shape (n, ndim)")
        return coords
    if coord is not None:
        # The paper's C-style accessor: coord(objects, i, dim).
        if objects is None:
            raise ValueError("coord accessor requires the objects array")
        if ndim is None:
            raise ValueError("coord accessor requires ndim")
        n = len(objects)
        out = np.empty((n, ndim), dtype=np.float64)
        # One fromiter pass per dimension: the accessor is still called
        # once per (i, dim) element — identical semantics to the naive
        # double loop — but without per-element Python array indexing,
        # which dominated at large n.
        for d in range(ndim):
            out[:, d] = np.fromiter(
                (coord(objects, i, d) for i in range(n)),
                dtype=np.float64,
                count=n,
            )
        return out
    if objects is not None:
        objects = np.asarray(objects)
        if objects.dtype.names and "pos" in objects.dtype.names:
            return np.asarray(objects["pos"], dtype=np.float64)
        if objects.dtype.kind == "f" and objects.ndim == 2:
            return objects.astype(np.float64, copy=False)
    raise ValueError(
        "could not determine coordinates: pass coords=, a coord accessor, a "
        "structured array with a 'pos' field, or a plain (n, ndim) float array"
    )


def reorder(
    method: str,
    objects: np.ndarray | None = None,
    coords: np.ndarray | None = None,
    *,
    coord: Callable[..., float] | None = None,
    ndim: int | None = None,
    bits: int | None = None,
    bbox: BoundingBox | None = None,
    pairs: np.ndarray | None = None,
) -> Reordering:
    """Compute a reordering of objects by spatial position.

    Parameters
    ----------
    method:
        Any name in :data:`repro.core.keys.ORDERINGS`: ``"hilbert"``,
        ``"morton"``, ``"gray"``, ``"peano"``, ``"column"``, ``"row"``,
        or the graph orderings ``"bfs"`` / ``"rcm"``.
    objects:
        The object array (optional if ``coords`` is given).  A structured
        array with a ``pos`` field, or a plain ``(n, ndim)`` float array,
        can supply the coordinates implicitly.
    coords:
        Explicit ``(n, ndim)`` coordinate array.
    coord:
        Paper-style accessor ``coord(objects, i, dim) -> float``; requires
        ``ndim``.  Slower than passing ``coords`` (it is evaluated per
        element), provided for fidelity to the C interface of section 3.5.
    ndim:
        Dimensionality, needed only with ``coord``.
    bits:
        Per-axis lattice resolution.  Defaults to the largest value allowed
        by ``ndim*bits <= 64`` capped at 16 (plenty: 16 bits resolves 65536
        cells per axis, far below any float jitter in the inputs).
    bbox:
        Optional bounding box override (e.g. the simulation domain).
    pairs:
        Interaction graph edges ``(m, 2)`` for the graph orderings
        (``"bfs"``, ``"rcm"``); ignored by the coordinate-keyed methods.
        Without it the graph orderings fall back to the Hilbert chain
        over the coordinates (see :mod:`repro.core.graph`).

    Returns
    -------
    A :class:`Reordering`; call :meth:`~Reordering.apply` on every shared
    array whose leading axis indexes objects, and
    :meth:`~Reordering.remap_indices` on every index-based structure.
    """
    gen = key_generator(method)
    pts = _resolve_coords(objects, coords, coord, ndim)
    d = pts.shape[1]
    if bits is None:
        bits = min(16, 64 // d)
    if method in GRAPH_ORDERINGS:
        keys = gen(pts, bits=bits, bbox=bbox, pairs=pairs)
    else:
        keys = gen(pts, bits=bits, bbox=bbox)
    return reorder_by_keys(keys, method=method)


def hilbert_reorder(
    objects: np.ndarray | None = None,
    coords: np.ndarray | None = None,
    **kwargs,
) -> Reordering:
    """Reorder objects along a Hilbert space-filling curve.

    The paper's recommendation for Category 1 applications (tree/grid
    partitioned: Barnes-Hut, FMM, Water-Spatial) on all platforms, and for
    Category 2 applications on hardware shared memory.  See :func:`reorder`
    for parameters.
    """
    return reorder("hilbert", objects, coords, **kwargs)


def morton_reorder(
    objects: np.ndarray | None = None,
    coords: np.ndarray | None = None,
    **kwargs,
) -> Reordering:
    """Reorder objects along a Morton (Z-order) curve."""
    return reorder("morton", objects, coords, **kwargs)


def gray_reorder(
    objects: np.ndarray | None = None,
    coords: np.ndarray | None = None,
    **kwargs,
) -> Reordering:
    """Reorder objects along a Gray-code curve.

    The Morton word reinterpreted as a binary-reflected Gray code:
    consecutive cells along the curve differ in a single interleaved bit,
    so every step moves along exactly one axis (by a power of two) —
    strictly better adjacency than Morton's diagonal jumps at the same
    cost of generation.
    """
    return reorder("gray", objects, coords, **kwargs)


def peano_reorder(
    objects: np.ndarray | None = None,
    coords: np.ndarray | None = None,
    **kwargs,
) -> Reordering:
    """Reorder objects along a Peano curve (base-3 serpentine).

    Like Hilbert it takes unit lattice steps, but on a power-of-three
    lattice with reflections only (no rotations).  See
    :mod:`repro.core.sfc.peano`.
    """
    return reorder("peano", objects, coords, **kwargs)


def column_reorder(
    objects: np.ndarray | None = None,
    coords: np.ndarray | None = None,
    **kwargs,
) -> Reordering:
    """Reorder objects in column order (x major, z minor).

    The paper's recommendation for Category 2 applications (block
    partitioned: Moldyn, Unstructured) on page-based software DSMs, where
    slab-shaped partitions touch fewer remote consistency units than cubes.
    """
    return reorder("column", objects, coords, **kwargs)


def row_reorder(
    objects: np.ndarray | None = None,
    coords: np.ndarray | None = None,
    **kwargs,
) -> Reordering:
    """Reorder objects in row order (z major, x minor)."""
    return reorder("row", objects, coords, **kwargs)


def bfs_reorder(
    objects: np.ndarray | None = None,
    coords: np.ndarray | None = None,
    *,
    pairs: np.ndarray | None = None,
    **kwargs,
) -> Reordering:
    """Reorder objects in breadth-first order over the interaction graph.

    Pass the app's interaction ``pairs`` (``(m, 2)`` index array); with
    coordinates alone the Hilbert-chain fallback applies (see
    :mod:`repro.core.graph`).
    """
    return reorder("bfs", objects, coords, pairs=pairs, **kwargs)


def rcm_reorder(
    objects: np.ndarray | None = None,
    coords: np.ndarray | None = None,
    *,
    pairs: np.ndarray | None = None,
    **kwargs,
) -> Reordering:
    """Reorder objects in reverse Cuthill-McKee order (bandwidth reducing).

    The classic sparse-matrix ordering applied to the app interaction
    graph: interacting pairs end up close in the reordered array, which is
    exactly the locality the DSM simulators price.
    """
    return reorder("rcm", objects, coords, pairs=pairs, **kwargs)
