"""Array-based octree (any dimension) for hierarchical N-body codes.

The Barnes-Hut benchmark's shared tree: recursively decomposed subdomains
(cells) with the particles at the leaves.  Nodes are stored in flat numpy
arrays in *creation order* (the order a sequential builder appends them to
the shared cell array), which is the memory layout whose interaction with
particle ordering the paper studies.

The force-evaluation walk is vectorized over particles: a frontier of
(cell, particle-set) pairs descends the tree, splitting each set into
particles that accept the cell under the opening criterion and particles
that open it.  The walk returns flat interaction pair lists annotated with
visit step, from which per-particle traversal sequences (what the real
per-particle recursive walk would touch, in order) are reconstructed for the
trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Octree", "WalkResult", "build_octree", "walk"]


@dataclass
class Octree:
    """Flat-array octree (2**ndim children per node)."""

    ndim: int
    leaf_capacity: int
    # Node arrays, indexed by creation order.
    center: np.ndarray  # (nc, ndim)
    half: np.ndarray  # (nc,)
    mass: np.ndarray  # (nc,)
    com: np.ndarray  # (nc, ndim) center of mass
    children: np.ndarray  # (nc, 2**ndim) node id or -1
    is_leaf: np.ndarray  # (nc,) bool
    leaf_start: np.ndarray  # (nc,) offset into leaf_bodies (leaves only)
    leaf_count: np.ndarray  # (nc,)
    leaf_bodies: np.ndarray  # body indices, grouped by leaf
    body_leaf: np.ndarray  # (n,) leaf id of each body
    node_level: np.ndarray  # (nc,) depth of each node (root = 0)
    depth: int

    @property
    def ncells(self) -> int:
        return int(self.center.shape[0])

    def leaf_members(self, cell: int) -> np.ndarray:
        s = int(self.leaf_start[cell])
        return self.leaf_bodies[s : s + int(self.leaf_count[cell])]

    def inorder_bodies(self) -> np.ndarray:
        """Body indices in in-order (DFS) traversal of the tree.

        This is the order the benchmark's "in-order traversal of the tree"
        partitioning step visits particles — spatially coherent regardless
        of their memory order.  ``leaf_bodies`` is already grouped by leaf
        in DFS creation order, so it *is* the in-order sequence.
        """
        return self.leaf_bodies

    def leaf_ids(self) -> np.ndarray:
        """Ids of leaf cells in DFS order."""
        return np.nonzero(self.is_leaf)[0]


@dataclass
class WalkResult:
    """Flat interaction lists from a Barnes-Hut walk.

    ``cell_pairs`` — (body, cell) far-field interactions; ``body_pairs`` —
    (body, other-body) near-field direct interactions.  ``*_step`` give the
    walk step at which each pair was produced, so a stable sort by
    (body, step) reconstructs each particle's traversal order.
    """

    cell_body: np.ndarray
    cell_id: np.ndarray
    cell_step: np.ndarray
    direct_body: np.ndarray
    direct_other: np.ndarray
    direct_step: np.ndarray

    def per_body_csr(
        self, n: int, order: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-body traversal streams in CSR form.

        Returns ``(cell_ids, cell_bounds, direct_others, direct_bounds)``:
        the interaction streams grouped by body with each body's
        interactions in walk-step order (what the real per-particle
        recursive walk touches, in order), and ``(n + 1)``-entry bounds.
        With ``order`` (a permutation of ``range(n)``, e.g. the tree's
        in-order body sequence), groups follow that sequence — row ``j``
        covers body ``order[j]`` — so any contiguous run of ``order`` maps
        to contiguous slices of the streams.

        The pair lists are emitted in ascending step order, so a stable
        sort on the body key alone reproduces the ``(body, step)``
        lexsort.  The stable sort is done by packing ``(key, position)``
        into one int64 and value-sorting it — measurably faster than
        ``argsort(kind="stable")`` on multi-million-element streams — and
        the group bounds come from a bincount instead of a searchsorted.
        """
        if order is None:
            ckey, dkey = self.cell_body, self.direct_body
        else:
            rank = np.empty(n, dtype=np.int64)
            rank[order] = np.arange(n, dtype=np.int64)
            ckey, dkey = rank[self.cell_body], rank[self.direct_body]
        out = []
        for key, vals in ((ckey, self.cell_id), (dkey, self.direct_other)):
            m = key.shape[0]
            shift = max(m, 1).bit_length()
            if n.bit_length() + shift < 63:
                comp = key << shift
                comp |= np.arange(m, dtype=np.int64)
                comp.sort()
                perm = comp
                perm &= (1 << shift) - 1
            else:  # pragma: no cover - needs astronomically large streams
                perm = np.argsort(key, kind="stable")
            out.append(vals[perm])
            bounds = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(key, minlength=n), out=bounds[1:])
            out.append(bounds)
        return out[0], out[1], out[2], out[3]

    def interactions_per_body(self, n: int) -> np.ndarray:
        """Total interaction count per body — the load measure used by the
        benchmark's cost-zone style partitioning."""
        counts = np.bincount(self.cell_body, minlength=n)
        counts += np.bincount(self.direct_body, minlength=n)
        return counts


def _fixup_masses(tree: Octree, pos: np.ndarray, masses: np.ndarray) -> None:
    """Fill mass/COM aggregates bottom-up, one level at a time.

    The structural build leaves mass/com zeroed.  Level-grouped array ops
    replace a per-node post-order walk — no recursion, no Python-per-cell
    cost, and tree depth can't hit any recursion limit.
    """
    leaf_ids = np.nonzero(tree.is_leaf)[0]
    counts = tree.leaf_count[leaf_ids]
    nleaf = leaf_ids.shape[0]
    g = np.repeat(np.arange(nleaf, dtype=np.int64), counts)
    mem = tree.leaf_bodies
    w = masses[mem]
    m_leaf = np.bincount(g, weights=w, minlength=nleaf)
    tree.mass[leaf_ids] = m_leaf
    ok = m_leaf > 0
    for d in range(tree.ndim):
        wx = np.bincount(g, weights=w * pos[mem, d], minlength=nleaf)
        tree.com[leaf_ids, d] = np.where(ok, wx / np.where(ok, m_leaf, 1.0), tree.center[leaf_ids, d])
    for l in range(int(tree.node_level.max()) - 1, -1, -1):
        sel = (tree.node_level == l) & ~tree.is_leaf
        if not sel.any():
            continue
        kids = tree.children[sel]
        valid = kids >= 0
        safe = np.where(valid, kids, 0)
        km = np.where(valid, tree.mass[safe], 0.0)
        m = km.sum(axis=1)
        tree.mass[sel] = m
        ok = m > 0
        for d in range(tree.ndim):
            wx = (km * np.where(valid, tree.com[safe, d], 0.0)).sum(axis=1)
            tree.com[sel, d] = np.where(ok, wx / np.where(ok, m, 1.0), tree.center[sel, d])


def _root_cube(pos: np.ndarray) -> tuple[np.ndarray, float]:
    """Center and half-width of the root cell: the bounding cube of
    ``pos``, widened slightly so boundary points fall strictly inside."""
    lo, hi = pos.min(axis=0), pos.max(axis=0)
    center = (lo + hi) / 2.0
    half = float((hi - lo).max()) / 2.0
    half = half if half > 0 else 0.5
    half *= 1.0 + 1e-9  # keep boundary points strictly inside
    return center, half


def build_octree(
    pos: np.ndarray,
    masses: np.ndarray | None = None,
    *,
    leaf_capacity: int = 8,
    max_depth: int = 24,
) -> Octree:
    """Build the tree over the current particle positions.

    The root cube is split by octants; a node with at most
    ``leaf_capacity`` bodies becomes a leaf.  Creation order is DFS, i.e.
    the order a sequential recursive builder fills the shared cell array.
    The split runs level-synchronously
    (:func:`repro.apps.numerics.build_octree_batch`), one vectorized pass
    per level, and yields the recursive builder's tree exactly.
    """
    from .numerics import build_octree_batch

    pos = np.asarray(pos, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[0] == 0:
        raise ValueError("pos must be a non-empty (n, ndim) array")
    center, half = _root_cube(pos)
    tree = build_octree_batch(pos, center, half, leaf_capacity, max_depth)
    unit = masses if masses is not None else np.ones(pos.shape[0])
    _fixup_masses(tree, pos, unit)
    return tree


def walk(
    tree: Octree,
    pos: np.ndarray,
    theta: float = 0.7,
    active: np.ndarray | None = None,
) -> WalkResult:
    """Barnes-Hut force walk for all (or ``active``) bodies.

    A cell is *accepted* by a body when ``(2*half)/distance < theta`` and
    the body is outside the cell; otherwise the body descends into the
    children.  Leaves interact directly body-by-body (self excluded).
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    n = pos.shape[0]
    idx0 = np.arange(n, dtype=np.int64) if active is None else np.asarray(active)
    cell_body: list[np.ndarray] = []
    cell_id: list[np.ndarray] = []
    cell_step: list[np.ndarray] = []
    direct_body: list[np.ndarray] = []
    direct_other: list[np.ndarray] = []
    direct_step: list[np.ndarray] = []
    step = 0
    stack: list[tuple[int, np.ndarray]] = [(0, idx0)]
    while stack:
        c, idx = stack.pop()
        step += 1
        if idx.shape[0] == 0:
            continue
        if tree.is_leaf[c]:
            members = tree.leaf_members(c)
            if members.shape[0] == 0:
                continue
            # Direct interactions: every (body in idx) x (member), self
            # pairs removed.
            bb = np.repeat(idx, members.shape[0])
            oo = np.tile(members, idx.shape[0])
            keep = bb != oo
            if keep.any():
                direct_body.append(bb[keep])
                direct_other.append(oo[keep])
                direct_step.append(np.full(int(keep.sum()), step, dtype=np.int64))
            continue
        delta = pos[idx] - tree.com[c][None, :]
        dist = np.sqrt((delta * delta).sum(axis=1))
        size = 2.0 * tree.half[c]
        inside = np.abs(pos[idx] - tree.center[c][None, :]).max(axis=1) <= tree.half[c]
        accept = (size < theta * dist) & ~inside
        acc = idx[accept]
        if acc.shape[0]:
            cell_body.append(acc)
            cell_id.append(np.full(acc.shape[0], c, dtype=np.int64))
            cell_step.append(np.full(acc.shape[0], step, dtype=np.int64))
        rest = idx[~accept]
        if rest.shape[0]:
            # Push children in reverse so they pop in creation order,
            # matching the recursive code's visit order.
            kids = [int(k) for k in tree.children[c] if k >= 0]
            for k in reversed(kids):
                stack.append((k, rest))

    def cat(parts: list[np.ndarray]) -> np.ndarray:
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    return WalkResult(
        cell_body=cat(cell_body),
        cell_id=cat(cell_id),
        cell_step=cat(cell_step),
        direct_body=cat(direct_body),
        direct_other=cat(direct_other),
        direct_step=cat(direct_step),
    )
