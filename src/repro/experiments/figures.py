"""Generators for every figure of the paper's evaluation.

Each ``fig*`` function returns plain data (arrays/dicts) that the benchmark
harness prints as the same series the paper plots; rendering helpers live in
:mod:`repro.experiments.report`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..apps import AppConfig, block_partition
from ..apps.distributions import two_plummer
from ..apps.moldyn import Moldyn
from ..apps.octree import build_octree
from ..core.keys import key_generator
from ..core.reorder import reorder as compute_reordering
from .runner import Scale, run_one, versions_for

__all__ = [
    "barnes_update_pages",
    "fig1_fig4",
    "fig2_fig5",
    "fig3",
    "fig6",
    "fig7",
    "fig8_fig9",
]


def _barnes_owner(
    pos: np.ndarray, nprocs: int, leaf_capacity: int = 8
) -> np.ndarray:
    """Which processor updates each body: in-order tree partition.

    The lightweight core of the Barnes-Hut partitioning step (uniform
    weights — the paper's figures use the second iteration, by which point
    weights matter little for *which pages* are updated).
    """
    tree = build_octree(pos, leaf_capacity=leaf_capacity)
    order = tree.inorder_bodies()
    owner = np.empty(pos.shape[0], dtype=np.int64)
    bounds = (np.arange(nprocs + 1) * order.shape[0]) // nprocs
    for p in range(nprocs):
        owner[order[bounds[p] : bounds[p + 1]]] = p
    return owner


def barnes_update_pages(
    n: int,
    nprocs: int,
    *,
    seed: int = 42,
    version: str = "original",
    object_size: int = 96,
    page_size: int = 4096,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-body (page, updating processor) for the Barnes-Hut particle array.

    The data behind Figures 1/4 (the update map) and 2/5 (sharer counts).
    """
    pos = two_plummer(n, seed)
    if version != "original":
        r = compute_reordering(version, coords=pos)
        pos = r.apply(pos)
    owner = _barnes_owner(pos, nprocs)
    page = (np.arange(n, dtype=np.int64) * object_size) // page_size
    return page, owner


def fig1_fig4(
    n: int = 168,
    nprocs: int = 4,
    *,
    seed: int = 42,
    object_size: int = 96,
    page_size: int = 4096,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Figures 1 and 4: which pages each of 4 processors updates.

    The paper's example: 168 particles of 96 bytes filling four 4 KB pages
    (42 per page), before and after Hilbert reordering.  Returns
    ``{version: (page_of_body, owner_of_body)}``.
    """
    return {
        v: barnes_update_pages(
            n, nprocs, seed=seed, version=v, object_size=object_size, page_size=page_size
        )
        for v in ("original", "hilbert")
    }


def fig2_fig5(
    n: int = 32768,
    procs: tuple[int, ...] = (2, 4, 8, 16),
    *,
    seed: int = 42,
    object_size: int = 208,
    page_size: int = 8192,
) -> dict[str, dict[int, np.ndarray]]:
    """Figures 2 and 5: processors sharing each particle-array page.

    Paper setup: 32768 bodies in 384 8 KB pages (hence 208-byte effective
    records), on 2-16 processors, original versus Hilbert order.  Returns
    ``{version: {nprocs: sharers_per_page}}``.
    """
    out: dict[str, dict[int, np.ndarray]] = {}
    for version in ("original", "hilbert"):
        per_p: dict[int, np.ndarray] = {}
        for nprocs in procs:
            page, owner = barnes_update_pages(
                n,
                nprocs,
                seed=seed,
                version=version,
                object_size=object_size,
                page_size=page_size,
            )
            npages = int(page.max()) + 1
            sharers = np.zeros(npages, dtype=np.int64)
            for pg in range(npages):
                sharers[pg] = np.unique(owner[page == pg]).shape[0]
            per_p[nprocs] = sharers
        out[version] = per_p
    return out


def fig3(side: int = 8) -> dict[str, np.ndarray]:
    """Figure 3: the four orderings' traversal paths on a ``side x side``
    grid — returns ``{ordering: (side*side, 2) visit sequence}``."""
    iy, ix = np.divmod(np.arange(side * side, dtype=np.int64), side)
    pts = np.stack([ix, iy], axis=1).astype(np.float64) + 0.5
    pts /= side
    out = {}
    bits = max(1, (side - 1).bit_length())
    for name in ("morton", "hilbert", "column", "row"):
        keys = key_generator(name)(pts, bits=bits)
        order = np.argsort(keys, kind="stable")
        out[name] = np.stack([ix[order], iy[order]], axis=1)
    return out


@dataclass(frozen=True)
class BoundarySummary:
    """Figure 6 metrics for one ordering of Moldyn."""

    ordering: str
    remote_partner_pages: float  # mean pages holding remote partners, per proc
    partner_procs: float  # mean distinct owning processors of partners
    remote_partners: float  # mean count of remote partner molecules


def fig6(
    n: int = 4096,
    nprocs: int = 16,
    *,
    seed: int = 42,
    page_size: int = 4096,
) -> list[BoundarySummary]:
    """Figure 6: boundary objects under Hilbert vs row/column ordering.

    For block-partitioned Moldyn, counts per processor the molecules on its
    interaction lists that belong to other processors: how many *pages*
    they span (the DSM cost) and how many *processors* own them.  The paper
    argues column ordering minimizes the latter (slabs have few neighbour
    slabs) while Hilbert's cube surfaces land on fewer pages on hardware
    but more distinct pages/processors on DSMs.
    """
    out = []
    for ordering in ("original", "column", "row", "hilbert", "morton"):
        app = Moldyn(AppConfig(n=n, nprocs=nprocs, iterations=1, seed=seed))
        if ordering != "original":
            app.reorder(ordering)
        pages_l, procs_l, count_l = [], [], []
        osize = app.object_size
        for blk in block_partition(n, nprocs):
            lo, hi = int(blk[0]), int(blk[-1])
            sel = (app.pairs[:, 0] >= lo) & (app.pairs[:, 0] <= hi)
            partners = np.unique(app.pairs[sel, 1])
            remote = partners[(partners < lo) | (partners > hi)]
            owner_of = np.minimum(
                (remote * nprocs) // n, nprocs - 1
            )
            pages_l.append(np.unique((remote * osize) // page_size).shape[0])
            procs_l.append(np.unique(owner_of).shape[0])
            count_l.append(remote.shape[0])
        out.append(
            BoundarySummary(
                ordering=ordering,
                remote_partner_pages=float(np.mean(pages_l)),
                partner_procs=float(np.mean(procs_l)),
                remote_partners=float(np.mean(count_l)),
            )
        )
    return out


def fig7(scale: Scale | None = None) -> dict[str, dict[str, float]]:
    """Figure 7: speedups on the (simulated) Origin 2000, 16 processors.

    Returns ``{app: {version: speedup}}`` including the reordering cost in
    the reordered versions, exactly as the paper computes it.
    """
    scale = scale or Scale()
    out: dict[str, dict[str, float]] = {}
    from ..apps import APP_REGISTRY

    for name in APP_REGISTRY:
        out[name] = {}
        for version in versions_for(name):
            rec = run_one(name, version, "origin", scale)
            out[name][version] = rec.speedup
    return out


def fig8_fig9(scale: Scale | None = None) -> dict[str, dict[str, dict[str, float]]]:
    """Figures 8 and 9: speedups on TreadMarks and HLRC, 16 processors.

    Returns ``{platform: {app: {version: speedup}}}``.
    """
    scale = scale or Scale()
    out: dict[str, dict[str, dict[str, float]]] = {}
    from ..apps import APP_REGISTRY

    for platform in ("treadmarks", "hlrc"):
        out[platform] = {}
        for name in APP_REGISTRY:
            out[platform][name] = {}
            for version in versions_for(name):
                rec = run_one(name, version, platform, scale)
                out[platform][name][version] = rec.speedup
    return out
