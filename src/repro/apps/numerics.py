"""Vectorized compute engine for the five apps' physics.

The generate stage — the physics that produces the access streams the
paper's tables and figures are built from — is written here as batch
formulations of what the original benchmarks do per cell or per
particle: the level-synchronous octree build, the Barnes-Hut frontier
forces, FMM's P2M/translation/L2P stacks.  Each stays bitwise-equal to
the scalar per-object formulation it replaces; those scalar loop
oracles live in ``tests/oracles/numerics.py``, and
``tests/apps/test_numerics.py`` checks every batch function against
them.

Bitwise equality holds because the batch formulations are built
exclusively from *order-matched* primitives:

* ``np.bincount`` accumulates each bin sequentially in stream order —
  bitwise-identical to numpy's ``add.at`` and to a per-object Python fold
  (``np.cumsum(x)[-1]``), unlike ``np.sum``/``np.add.reduceat`` which
  reduce pairwise.  All scatter/segment reductions here use it (via
  :func:`repro.apps.base.scatter_add` and :func:`complex_segsum`).
* Elementwise math (including ``**-1.5`` and complex division) is
  grouping-independent: the same inputs give the same outputs whether
  evaluated per-object or over a concatenated stream.
* Structural float arithmetic (cell centers, halves) uses the exact same
  expression sequence as the recursive builder, so the discovered integer
  structure is identical.

See DESIGN.md section 5.13 for the creation-order preservation argument.
"""

from __future__ import annotations

import numpy as np

from .base import counts_to_offsets, scatter_add
from .octree import Octree, WalkResult

__all__ = [
    "scatter_add",
    "build_octree_batch",
    "subtree_spans",
    "bh_forces_batch",
    "complex_segsum",
    "p2m_batch",
    "m2m_stack",
    "m2l_stack",
    "l2l_stack",
    "eval_local_deriv_batch",
]

_I64_MAX = np.iinfo(np.int64).max


# ---------------------------------------------------------------------------
# Level-synchronous octree build
# ---------------------------------------------------------------------------


def build_octree_batch(
    pos: np.ndarray,
    center0: np.ndarray,
    half0: float,
    leaf_capacity: int,
    max_depth: int,
) -> Octree:
    """Vectorized octree construction, one sort/bincount pass per level.

    Every open cell of a level is split at once: bodies are keyed by
    ``(open-cell rank) * 2**ndim + octant`` and stable-sorted, which
    composes across levels to exactly the recursive builder's nested
    stable octant sorts — so the final body permutation *is* the DFS leaf
    order.  Cells are created in level order and renumbered to DFS
    preorder (creation order of the sequential builder) via subtree sizes,
    so every array of the returned tree is identical to the recursive
    build's.  Mass/COM fields are left zeroed; the caller runs the shared
    ``_fixup_masses`` (as it does for the recursive build).
    """
    n, ndim = pos.shape
    nchild = 1 << ndim
    # Child-center offset signs, indexed by octant: bit d set => +half/2.
    sign = np.array(
        [[1.0 if (q >> d) & 1 else -1.0 for d in range(ndim)] for q in range(nchild)]
    )
    poscols = [np.ascontiguousarray(pos[:, d]) for d in range(ndim)]

    perm = np.arange(n, dtype=np.int64)
    # Per-cell arrays in *level* creation order, accumulated level by level.
    centers = [center0.reshape(1, ndim)]
    halves = [np.array([half0])]
    parents = [np.array([-1], dtype=np.int64)]  # level-order parent id
    octs = [np.array([0], dtype=np.int64)]
    starts = [np.array([0], dtype=np.int64)]  # body segment in perm
    counts = [np.array([n], dtype=np.int64)]
    level_first = [0]  # level-order id of each level's first cell

    lev = 0
    ncells = 1
    while True:
        c_cnt = counts[lev]
        open_mask = (c_cnt > leaf_capacity) & (lev < max_depth)
        if not open_mask.any():
            break
        ocen = centers[lev][open_mask]
        ohalf = halves[lev][open_mask]
        ostart = starts[lev][open_mask]
        ocnt = c_cnt[open_mask]
        m = ocen.shape[0]
        offs = counts_to_offsets(ocnt)
        total = int(offs[-1])
        gidx = np.repeat(ostart - offs[:-1], ocnt) + np.arange(total, dtype=np.int64)
        bodies = perm[gidx]
        # Octant of each body relative to its cell center (strict >, as in
        # the recursive builder).
        octant = np.zeros(total, dtype=np.int64)
        for d in range(ndim):
            above = poscols[d][bodies] > np.repeat(ocen[:, d], ocnt)
            octant |= above.astype(np.int64) << d
        rank = np.repeat(np.arange(m, dtype=np.int64), ocnt)
        key = rank * nchild + octant
        order = np.argsort(key, kind="stable")
        perm[gidx] = bodies[order]
        cc = np.bincount(key, minlength=m * nchild).reshape(m, nchild)
        cstart = ostart[:, None] + np.cumsum(cc, axis=1) - cc
        rows, qcol = np.nonzero(cc)  # row-major: (open rank, octant asc)
        qh = ohalf[rows] / 2.0
        centers.append(ocen[rows] + sign[qcol] * qh[:, None])
        halves.append(qh)
        open_ids = np.nonzero(open_mask)[0] + level_first[lev]
        parents.append(open_ids[rows])
        octs.append(qcol.astype(np.int64))
        starts.append(cstart[rows, qcol])
        counts.append(cc[rows, qcol])
        level_first.append(ncells)
        ncells += rows.shape[0]
        lev += 1

    depth = lev
    nlevels = lev + 1
    cen_all = np.concatenate(centers[:nlevels], axis=0)
    half_all = np.concatenate(halves[:nlevels])
    par_all = np.concatenate(parents[:nlevels])
    oct_all = np.concatenate(octs[:nlevels])
    start_all = np.concatenate(starts[:nlevels])
    cnt_all = np.concatenate(counts[:nlevels])
    lev_all = np.repeat(
        np.arange(nlevels, dtype=np.int64),
        [centers[i].shape[0] for i in range(nlevels)],
    )
    leaf_all = (cnt_all <= leaf_capacity) | (lev_all >= max_depth)

    # Subtree sizes (in cells), bottom-up by level.
    sizes = np.ones(ncells, dtype=np.int64)
    for l in range(depth, 0, -1):
        sel = lev_all == l
        par = par_all[sel]
        sizes[: level_first[l]] += np.bincount(
            par, weights=sizes[sel], minlength=level_first[l]
        ).astype(np.int64)

    # DFS preorder id: parent's id + 1 + sizes of earlier siblings.  A
    # level's cells are already sorted by (parent, octant), so the
    # exclusive sibling cumsum is a segmented scan over parent runs.
    pre = np.empty(ncells, dtype=np.int64)
    pre[0] = 0
    for l in range(1, nlevels):
        sel = np.nonzero(lev_all == l)[0]
        par = par_all[sel]
        sz = sizes[sel]
        cs = np.cumsum(sz) - sz
        first = np.concatenate([[True], par[1:] != par[:-1]])
        seg = np.cumsum(first) - 1
        excl = cs - cs[np.nonzero(first)[0]][seg]
        pre[sel] = pre[par] + 1 + excl

    # Scatter level-order arrays into preorder.
    center_f = np.empty_like(cen_all)
    center_f[pre] = cen_all
    half_f = np.empty(ncells)
    half_f[pre] = half_all
    is_leaf_f = np.zeros(ncells, dtype=bool)
    is_leaf_f[pre] = leaf_all
    level_f = np.empty(ncells, dtype=np.int64)
    level_f[pre] = lev_all
    leaf_start_f = np.full(ncells, -1, dtype=np.int64)
    leaf_count_f = np.zeros(ncells, dtype=np.int64)
    leaf_sel = np.nonzero(leaf_all)[0]
    leaf_start_f[pre[leaf_sel]] = start_all[leaf_sel]
    leaf_count_f[pre[leaf_sel]] = cnt_all[leaf_sel]
    children_f = np.full((ncells, nchild), -1, dtype=np.int64)
    nonroot = np.nonzero(par_all >= 0)[0]
    children_f[pre[par_all[nonroot]], oct_all[nonroot]] = pre[nonroot]

    body_leaf = np.empty(n, dtype=np.int64)
    lorder = np.argsort(leaf_start_f[pre[leaf_sel]], kind="stable")
    body_leaf[perm] = np.repeat(
        pre[leaf_sel][lorder], leaf_count_f[pre[leaf_sel]][lorder]
    )

    return Octree(
        ndim=ndim,
        leaf_capacity=leaf_capacity,
        center=center_f,
        half=half_f,
        mass=np.zeros(ncells),
        com=np.zeros((ncells, ndim)),
        children=children_f,
        is_leaf=is_leaf_f,
        leaf_start=leaf_start_f,
        leaf_count=leaf_count_f,
        leaf_bodies=perm,
        body_leaf=body_leaf,
        depth=depth,
        node_level=level_f,
    )


def subtree_spans(tree: Octree) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell body range ``[lo, hi)`` of the in-order sequence, batched.

    The vectorized form of the partition step's reverse-creation-order
    scan: leaves span their ``leaf_bodies`` slice, internal nodes the
    union of their children, processed bottom-up one level at a time
    (``tree.node_level`` makes the level grouping direct).
    """
    nc = tree.ncells
    lo = np.full(nc, _I64_MAX, dtype=np.int64)
    hi = np.zeros(nc, dtype=np.int64)
    leaves = tree.is_leaf
    lo[leaves] = tree.leaf_start[leaves]
    hi[leaves] = tree.leaf_start[leaves] + tree.leaf_count[leaves]
    for l in range(int(tree.node_level.max()) - 1, -1, -1):
        sel = (tree.node_level == l) & ~leaves
        if not sel.any():
            continue
        kids = tree.children[sel]
        valid = kids >= 0
        safe = np.where(valid, kids, 0)
        lo[sel] = np.where(valid, lo[safe], _I64_MAX).min(axis=1)
        hi[sel] = np.where(valid, hi[safe], 0).max(axis=1)
    return lo, hi


# ---------------------------------------------------------------------------
# Barnes-Hut force phase
# ---------------------------------------------------------------------------


def bh_forces_batch(
    tree: Octree, pos: np.ndarray, mass: np.ndarray, wr: WalkResult, eps: float
) -> np.ndarray:
    """Accelerations from the walk's interaction lists, column-wise.

    Same math as the per-body recursive walk and force fold:
    column-wise distance terms (bitwise-equal to a row reduce over 3
    columns, and far faster) and per-column ``bincount`` scatters whose
    per-body accumulation order is the walk's visit order — the pair
    streams are emitted in ascending step order, which per body *is* the
    DFS visit order, so the bincount fold matches a per-body sequential
    fold exactly.
    """
    n = pos.shape[0]
    eps2 = eps * eps
    poscols = [np.ascontiguousarray(pos[:, k]) for k in range(3)]
    comcols = [np.ascontiguousarray(tree.com[:, k]) for k in range(3)]
    acc = np.zeros((n, 3))
    if wr.cell_body.shape[0]:
        cb, ci = wr.cell_body, wr.cell_id
        dx = comcols[0].take(ci) - poscols[0].take(cb)
        dy = comcols[1].take(ci) - poscols[1].take(cb)
        dz = comcols[2].take(ci) - poscols[2].take(cb)
        d2 = dx * dx + dy * dy + dz * dz + eps2
        mag = tree.mass.take(ci) * d2 ** -1.5
        acc[:, 0] = np.bincount(cb, weights=mag * dx, minlength=n)
        acc[:, 1] = np.bincount(cb, weights=mag * dy, minlength=n)
        acc[:, 2] = np.bincount(cb, weights=mag * dz, minlength=n)
    if wr.direct_body.shape[0]:
        db, do = wr.direct_body, wr.direct_other
        dx = poscols[0].take(do) - poscols[0].take(db)
        dy = poscols[1].take(do) - poscols[1].take(db)
        dz = poscols[2].take(do) - poscols[2].take(db)
        d2 = dx * dx + dy * dy + dz * dz + eps2
        mag = mass.take(do) * d2 ** -1.5
        acc[:, 0] += np.bincount(db, weights=mag * dx, minlength=n)
        acc[:, 1] += np.bincount(db, weights=mag * dy, minlength=n)
        acc[:, 2] += np.bincount(db, weights=mag * dz, minlength=n)
    return acc


# ---------------------------------------------------------------------------
# FMM batched stages
# ---------------------------------------------------------------------------


def complex_segsum(g: np.ndarray, w: np.ndarray, ngroups: int) -> np.ndarray:
    """Per-group sums of complex ``w``, sequential within each group.

    ``bincount`` over the real and imaginary parts separately — complex
    addition is componentwise, so this equals a sequential complex fold
    of each group's entries in stream order.
    """
    out = np.empty(ngroups, dtype=np.complex128)
    out.real = np.bincount(g, weights=w.real, minlength=ngroups)
    out.imag = np.bincount(g, weights=w.imag, minlength=ngroups)
    return out


def p2m_batch(
    d: np.ndarray, q: np.ndarray, g: np.ndarray, ngroups: int, p: int
) -> np.ndarray:
    """Multipole expansions of all occupied leaves at once.

    ``d = z_i - z0(cell_i)`` per particle, ``q`` the charges, ``g`` the
    (dense) group index of each particle's cell.  Row ``c`` equals
    ``fm.p2m`` of group ``c``'s particles: the power recurrence is the
    same elementwise product chain, and the coefficient sums are
    sequential per group (matching ``p2m``'s ``cumsum`` fold).
    """
    a = np.zeros((ngroups, p + 1), dtype=np.complex128)
    a[:, 0].real = np.bincount(g, weights=q, minlength=ngroups)
    pw = np.ones_like(d)
    for k in range(1, p + 1):
        pw = pw * d
        a[:, k] = -complex_segsum(g, q * pw, ngroups) / k
    return a


def _shift_powers(shifts: np.ndarray, p: int) -> np.ndarray:
    pw = np.ones((shifts.shape[0], p + 1), dtype=np.complex128)
    for k in range(1, p + 1):
        pw[:, k] = pw[:, k - 1] * shifts
    return pw


def m2m_stack(shifts: np.ndarray, p: int, binom: np.ndarray) -> np.ndarray:
    """Stack of ``fm.m2m_matrix(shift, p)`` over an array of shifts.

    Entry-for-entry the same recurrences as the scalar constructor, but
    *not* bitwise-identical to it: numpy's vectorized complex multiply
    fuses the cross terms (FMA) while the scalar path does not, so the
    shift-power chains can differ by an ulp.  The apps build every
    translation matrix through these stacks; the scalar constructors in
    :mod:`repro.apps.fmm_math` stay the readable reference, equal to
    rounding.
    """
    m = shifts.shape[0]
    t = np.zeros((m, p + 1, p + 1), dtype=np.complex128)
    t[:, 0, 0] = 1.0
    pw = _shift_powers(shifts, p)
    for l in range(1, p + 1):
        t[:, l, 0] = -pw[:, l] / l
        for k in range(1, l + 1):
            t[:, l, k] = pw[:, l - k] * binom[l - 1, k - 1]
    return t


def m2l_stack(zs: np.ndarray, p: int, binom: np.ndarray) -> np.ndarray:
    """Stack of ``fm.m2l_matrix(z, p)`` over an array of separations."""
    m = zs.shape[0]
    t = np.zeros((m, p + 1, p + 1), dtype=np.complex128)
    inv = 1.0 / zs
    invpw = _shift_powers(inv, p)
    t[:, 0, 0] = np.log(-zs)
    for k in range(1, p + 1):
        t[:, 0, k] = ((-1.0) ** k) * invpw[:, k]
    for l in range(1, p + 1):
        t[:, l, 0] = -invpw[:, l] / l
        for k in range(1, p + 1):
            t[:, l, k] = binom[l + k - 1, k - 1] * ((-1.0) ** k) * invpw[:, k] * invpw[:, l]
    return t


def l2l_stack(shifts: np.ndarray, p: int, binom: np.ndarray) -> np.ndarray:
    """Stack of ``fm.l2l_matrix(shift, p)`` over an array of shifts."""
    m = shifts.shape[0]
    t = np.zeros((m, p + 1, p + 1), dtype=np.complex128)
    pw = _shift_powers(shifts, p)
    for l in range(p + 1):
        for k in range(l, p + 1):
            t[:, l, k] = binom[k, l] * pw[:, k - l]
    return t


def eval_local_deriv_batch(b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Derivative of per-point local expansions, Horner over columns.

    ``b`` holds one coefficient row per point (its cell's local
    expansion), ``d = z - z0(cell)``.  The iteration is the same
    multiply-add sequence as ``fm.eval_local_deriv``, elementwise per
    point, so values are bitwise-identical to the per-cell calls.
    """
    p = b.shape[1] - 1
    if p == 0:
        return np.zeros(d.shape, dtype=np.complex128)
    out = p * b[:, p]
    for k in range(p - 1, 0, -1):
        out = out * d + k * b[:, k]
    return out
