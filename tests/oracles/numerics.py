"""Scalar loop references for the vectorized app numerics.

The production physics in :mod:`repro.apps.numerics` (and the octree
builder and Moldyn's interaction list that use it) is written as batch
array passes.  These oracles restate each stage the way the original
benchmarks do it — one cell, one particle, one pair at a time in Python —
so the tests can check that the batch form computes exactly the same
thing: the same integer structure and bitwise-identical floats.  They are
slow and only meant for the small inputs of ``tests/apps/test_numerics.py``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.apps.base import HALF_STENCIL
from repro.apps.octree import Octree, _fixup_masses, _root_cube


def build_octree_recursive(
    pos: np.ndarray,
    masses: np.ndarray | None = None,
    *,
    leaf_capacity: int = 8,
    max_depth: int = 24,
) -> Octree:
    """The sequential recursive builder: cells appended in DFS order.

    A cell holding more than ``leaf_capacity`` bodies (and above
    ``max_depth``) splits its bodies by octant with a stable sort and
    recurses into the non-empty octants in ascending order.
    """
    pos = np.asarray(pos, dtype=np.float64)
    n, ndim = pos.shape
    nchild = 1 << ndim
    cells: list[dict] = []
    leaf_bodies: list[np.ndarray] = []

    def build(idx: np.ndarray, center: np.ndarray, half: float, depth: int) -> int:
        me = len(cells)
        cell = {"center": center, "half": half, "level": depth, "start": -1,
                "count": 0, "children": np.full(nchild, -1, dtype=np.int64)}
        cells.append(cell)
        if idx.shape[0] <= leaf_capacity or depth >= max_depth:
            cell["start"] = sum(b.shape[0] for b in leaf_bodies)
            cell["count"] = int(idx.shape[0])
            leaf_bodies.append(idx)
            return me
        octant = np.zeros(idx.shape[0], dtype=np.int64)
        for d in range(ndim):
            octant |= (pos[idx, d] > center[d]).astype(np.int64) << d
        order = np.argsort(octant, kind="stable")
        sorted_idx, sorted_oct = idx[order], octant[order]
        bounds = np.searchsorted(sorted_oct, np.arange(nchild + 1))
        qh = half / 2.0
        for q in range(nchild):
            lo, hi = int(bounds[q]), int(bounds[q + 1])
            if lo == hi:
                continue
            offs = np.array([qh if (q >> d) & 1 else -qh for d in range(ndim)])
            cell["children"][q] = build(sorted_idx[lo:hi], center + offs, qh, depth + 1)
        return me

    center, half = _root_cube(pos)
    build(np.arange(n, dtype=np.int64), center, half, 0)
    bodies = np.concatenate(leaf_bodies)
    is_leaf = np.array([c["start"] >= 0 for c in cells])
    leaf_count = np.array([c["count"] for c in cells], dtype=np.int64)
    body_leaf = np.empty(n, dtype=np.int64)
    body_leaf[bodies] = np.repeat(np.nonzero(is_leaf)[0], leaf_count[is_leaf])
    level = np.array([c["level"] for c in cells], dtype=np.int64)
    tree = Octree(
        ndim=ndim,
        leaf_capacity=leaf_capacity,
        center=np.array([c["center"] for c in cells]),
        half=np.array([c["half"] for c in cells], dtype=np.float64),
        mass=np.zeros(len(cells)),
        com=np.zeros((len(cells), ndim)),
        children=np.array([c["children"] for c in cells], dtype=np.int64),
        is_leaf=is_leaf,
        leaf_start=np.array([c["start"] for c in cells], dtype=np.int64),
        leaf_count=leaf_count,
        leaf_bodies=bodies,
        body_leaf=body_leaf,
        node_level=level,
        depth=int(level.max()),
    )
    _fixup_masses(tree, pos, masses if masses is not None else np.ones(n))
    return tree


def subtree_spans(tree: Octree) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell ``[lo, hi)`` body range, by a reverse-creation-order scan.

    Children are created after their parent, so scanning cell ids from
    last to first sees every child before its parent: a leaf spans its
    ``leaf_bodies`` slice, an internal cell the union of its children.
    """
    lo = np.full(tree.ncells, np.iinfo(np.int64).max, dtype=np.int64)
    hi = np.zeros(tree.ncells, dtype=np.int64)
    for c in range(tree.ncells - 1, -1, -1):
        if tree.is_leaf[c]:
            lo[c] = tree.leaf_start[c]
            hi[c] = tree.leaf_start[c] + tree.leaf_count[c]
        else:
            kids = tree.children[c][tree.children[c] >= 0]
            lo[c] = lo[kids].min()
            hi[c] = hi[kids].max()
    return lo, hi


def bh_walk_forces(
    tree: Octree,
    pos: np.ndarray,
    mass: np.ndarray,
    theta: float,
    eps: float,
    order: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The per-particle recursive walk and force fold.

    The benchmark's own formulation — "each processor walks the tree for
    each of its particles": one DFS per body with the opening criterion
    in Python floats, then a sequential per-body force fold
    (``cumsum[-1]``).  Returns ``(acc, cost, csr)`` where ``csr`` rows
    follow ``order``, like ``WalkResult.per_body_csr``.
    """
    n = pos.shape[0]
    eps2 = eps * eps
    poscols = [np.ascontiguousarray(pos[:, k]) for k in range(3)]
    comcols = [np.ascontiguousarray(tree.com[:, k]) for k in range(3)]

    def fold(src_cols, src_mass, ids, b):
        kk = np.array(ids, dtype=np.int64)
        dx, dy, dz = (src_cols[k].take(kk) - pos[b, k] for k in range(3))
        mag = src_mass.take(kk) * (dx * dx + dy * dy + dz * dz + eps2) ** -1.5
        return [np.cumsum(mag * d)[-1] for d in (dx, dy, dz)], kk

    acc = np.zeros((n, 3))
    cost = np.zeros(n, dtype=np.int64)
    rows: tuple[list, list] = ([], [])
    cbounds = np.zeros(n + 1, dtype=np.int64)
    dbounds = np.zeros(n + 1, dtype=np.int64)
    for j, b in enumerate(order.tolist()):
        bx, by, bz = pos[b].tolist()
        cells_b: list[int] = []
        others_b: list[int] = []
        stack = [0]
        while stack:
            c = stack.pop()
            if tree.is_leaf[c]:
                others_b.extend(o for o in tree.leaf_members(c).tolist() if o != b)
                continue
            cx, cy, cz = tree.com[c].tolist()
            dx, dy, dz = bx - cx, by - cy, bz - cz
            dist = math.sqrt(dx * dx + dy * dy + dz * dz)
            ox, oy, oz = tree.center[c].tolist()
            h = float(tree.half[c])
            inside = max(abs(bx - ox), abs(by - oy), abs(bz - oz)) <= h
            if 2.0 * h < theta * dist and not inside:
                cells_b.append(c)
            else:
                stack.extend(int(k) for k in tree.children[c][::-1] if k >= 0)
        cost[b] = len(cells_b) + len(others_b)
        a = [0.0, 0.0, 0.0]
        if cells_b:
            a, kc = fold(comcols, tree.mass, cells_b, b)
            rows[0].append(kc)
        if others_b:
            ad, ko = fold(poscols, mass, others_b, b)
            a = [x + y for x, y in zip(a, ad)]
            rows[1].append(ko)
        acc[b] = a
        cbounds[j + 1] = cbounds[j] + len(cells_b)
        dbounds[j + 1] = dbounds[j] + len(others_b)

    def cat(parts: list[np.ndarray]) -> np.ndarray:
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    return acc, cost, (cat(rows[0]), cbounds, cat(rows[1]), dbounds)


def interaction_list(pos: np.ndarray, cutoff: float, box: float) -> np.ndarray:
    """Per-cell scan for ``build_interaction_list``.

    The original benchmark's formulation: bin molecules into the cell
    grid, then scan each occupied cell — intra-cell ``i < j`` pairs, then
    full crosses against the 13 half-stencil neighbour cells — followed
    by the distance filter and an ``(i, j)`` lexsort.
    """
    side = max(1, int(box / cutoff))
    cell = np.clip((pos / (box / side)).astype(np.int64), 0, side - 1)
    cid = ((cell[:, 0] * side + cell[:, 1]) * side + cell[:, 2]).tolist()
    members: dict[int, list[int]] = {}
    for i, c in enumerate(cid):
        members.setdefault(c, []).append(i)
    pairs = []
    for c in sorted(members):
        mem = members[c]
        pairs += [(mem[a], mem[b]) for a in range(len(mem)) for b in range(a + 1, len(mem))]
        cx, cy, cz = c // (side * side), (c // side) % side, c % side
        for dx, dy, dz in HALF_STENCIL.tolist():
            nx, ny, nz = cx + dx, cy + dy, cz + dz
            if 0 <= nx < side and 0 <= ny < side and 0 <= nz < side:
                nmem = members.get((nx * side + ny) * side + nz, [])
                pairs += [(a, b) for a in mem for b in nmem]
    if not pairs:
        return np.empty((0, 2), dtype=np.int64)
    pi, pj = np.array(pairs, dtype=np.int64).T
    d = pos[pi] - pos[pj]
    keep = (d * d).sum(axis=1) < cutoff * cutoff
    pi, pj = pi[keep], pj[keep]
    o = np.lexsort((pj, pi))
    return np.stack([pi[o], pj[o]], axis=1)
