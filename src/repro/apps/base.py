"""Common application machinery.

Every benchmark implements :class:`Application`:

* it is constructed with an :class:`AppConfig` (problem size, simulated
  processor count, iterations, seed);
* :meth:`Application.reorder` applies one of the library's orderings to the
  main object array (and remaps all index-based auxiliary structures) —
  fewer than ten lines in each app, like the paper's modified benchmarks;
* :meth:`Application.run` executes the computation and returns the
  :class:`repro.trace.Trace` of shared-memory accesses.

The physics of a run does not depend on the processor count: only the
partition and the trace emission do.  So one :meth:`Application.run` can
emit the traces of several processor counts ("siblings") at once: it keeps
one :class:`ProcView` per count — the builder, the count and the partition
derived from it — and every emission block loops over the views while each
physics block runs once.

Category 1 applications partition work through a spatial structure (tree or
grid); Category 2 applications block-partition the object array.  The class
records which, as the paper's guidance on choosing an ordering depends on it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ..core.adaptive import AdaptiveReorderer, DriftStats
from ..core.graph import GRAPH_ORDERINGS
from ..core.keys import KEY_FROM_AXES, ORDERINGS
from ..core.quantize import BoundingBox
from ..core.reorder import Reordering, reorder as compute_reordering
from ..errors import ConfigError
from ..trace.builder import TraceBuilder
from ..trace.events import Trace

__all__ = [
    "ADAPT_KNOBS",
    "ADAPT_POLICIES",
    "AdaptivePolicy",
    "AppConfig",
    "Application",
    "HALF_STENCIL",
    "ProcView",
    "barrier",
    "block_partition",
    "counts_to_offsets",
    "half_stencil_neighbors",
    "ragged_cross",
    "ragged_take",
    "reorder_cycles",
    "scatter_add",
]


def scatter_add(out: np.ndarray, idx: np.ndarray, vals: np.ndarray) -> None:
    """``out[idx] += vals`` with duplicate indices, via ``np.bincount``.

    Bitwise-identical to numpy's ``add.at`` on a freshly-zeroed accumulator —
    both fold each bin's contributions sequentially in stream order
    (verified by ``tests/apps/test_numerics.py``; onto a *nonzero*
    accumulator the two interleave differently and agree only to
    rounding) — but several times faster on multi-million-element
    streams, because ``add.at`` dispatches one indexed inner loop per
    element while ``bincount`` is a single pass.  Bins that receive no
    contribution are left untouched (``add.at`` semantics: a ``-0.0``
    there must not flip to ``+0.0``).  Columns of 2-D ``vals`` are
    reduced independently; complex values are reduced as separate
    real/imaginary parts (exact — complex addition is componentwise).
    """
    if idx.shape[0] == 0:
        return
    minlength = out.shape[0]
    hit = np.bincount(idx, minlength=minlength) > 0
    if np.iscomplexobj(vals):
        agg = np.empty(minlength, dtype=np.complex128)
        agg.real = np.bincount(idx, weights=vals.real, minlength=minlength)
        agg.imag = np.bincount(idx, weights=vals.imag, minlength=minlength)
        np.add(out, agg, out=out, where=hit)
        return
    if vals.ndim == 1:
        np.add(out, np.bincount(idx, weights=vals, minlength=minlength),
               out=out, where=hit)
        return
    for k in range(vals.shape[1]):
        np.add(out[:, k], np.bincount(idx, weights=vals[:, k], minlength=minlength),
               out=out[:, k], where=hit)

#: The 13 "positive" half-stencil cell offsets shared by the Moldyn
#: interaction-list build and Water-Spatial's neighbour sweep, in the
#: canonical enumeration order (dx major, then dy, then dz; offsets whose
#: mirror image was already enumerated are skipped so each cell pair
#: appears exactly once).
HALF_STENCIL = np.array(
    [
        (dx, dy, dz)
        for dx in (0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
        if (dx, dy, dz) != (0, 0, 0)
        and not (dx == 0 and (dy < 0 or (dy == 0 and dz < 0)))
    ],
    dtype=np.int64,
)


def counts_to_offsets(counts: np.ndarray) -> np.ndarray:
    """CSR offsets (``k + 1`` entries, leading 0) from per-row counts."""
    out = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def ragged_take(data: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``data[starts[j] : starts[j] + counts[j]]`` over all ``j``.

    The vectorized form of the ``np.concatenate([data[s:e] for ...])``
    member-gather loops: one gather instead of ``k`` slices.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=data.dtype)
    offs = counts_to_offsets(counts)
    gather = np.repeat(np.asarray(starts, dtype=np.int64) - offs[:-1], counts)
    gather += np.arange(total, dtype=np.int64)
    return data[gather]


def half_stencil_neighbors(
    side: int, cells: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """In-bounds half-stencil neighbours of ``cells``, CSR-style.

    ``cells`` holds cell ids under the ``(x * side + y) * side + z``
    encoding; returns ``(neighbors, offsets)`` where row ``j`` lists cell
    ``cells[j]``'s in-bounds neighbours in :data:`HALF_STENCIL` order —
    exactly the per-cell enumeration the scalar loops produced.
    """
    cells = np.asarray(cells, dtype=np.int64)
    cx = cells // (side * side)
    cy = (cells // side) % side
    cz = cells % side
    nx = cx[:, None] + HALF_STENCIL[None, :, 0]
    ny = cy[:, None] + HALF_STENCIL[None, :, 1]
    nz = cz[:, None] + HALF_STENCIL[None, :, 2]
    ok = (
        (nx >= 0) & (nx < side)
        & (ny >= 0) & (ny < side)
        & (nz >= 0) & (nz < side)
    )
    neighbors = ((nx * side + ny) * side + nz)[ok]
    return neighbors, counts_to_offsets(ok.sum(axis=1))


def ragged_cross(
    counts_a: np.ndarray, counts_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-group cross-product enumeration.

    For each group ``g`` with ``counts_a[g]`` left and ``counts_b[g]``
    right elements, enumerates all ``counts_a[g] * counts_b[g]`` pairs in
    left-major order — the order of ``np.repeat(a, len(b))`` /
    ``np.tile(b, len(a))``.  Returns ``(group, ai, bi)`` with the group id
    and the within-group left/right element positions of every pair.
    """
    ca = np.asarray(counts_a, dtype=np.int64)
    cb = np.asarray(counts_b, dtype=np.int64)
    tot = ca * cb
    offs = counts_to_offsets(tot)
    total = int(offs[-1])
    group = np.repeat(np.arange(ca.shape[0], dtype=np.int64), tot)
    t = np.arange(total, dtype=np.int64) - np.repeat(offs[:-1], tot)
    cbg = cb[group]
    ai = t // cbg
    bi = t - ai * cbg
    return group, ai, bi


#: Re-reordering policies an application accepts via
#: ``config.extra["adapt_policy"]``: ``"never"`` (the paper's one-shot
#: reordering), ``"every"`` (full re-sort every ``adapt_every`` iterations
#: — the generalization of Moldyn's legacy ``rereorder_every`` knob), and
#: ``"adaptive"`` (the incremental engine of :mod:`repro.core.adaptive`:
#: fire only when the boundary-crosser fraction reaches
#: ``adapt_threshold``, and then migrate only the crossers).
ADAPT_POLICIES = ("never", "every", "adaptive")

#: The ``config.extra`` keys :meth:`AdaptivePolicy.from_extra` reads;
#: every application accepts them on top of its own :attr:`Application.knobs`.
ADAPT_KNOBS = (
    "adapt_bits",
    "adapt_every",
    "adapt_method",
    "adapt_policy",
    "adapt_threshold",
    "rereorder_every",
)


@dataclass(frozen=True)
class AdaptivePolicy:
    """When and how an application re-reorders its drifting objects.

    Attributes
    ----------
    policy:
        One of :data:`ADAPT_POLICIES`.
    every:
        Period of the ``"every"`` policy, in iterations.
    threshold:
        Boundary-crosser fraction at which ``"adaptive"`` fires.
    method:
        Ordering override.  Defaults to the ordering the app was
        initially reordered with (``"every"`` then does nothing on an
        unordered app, like the legacy knob); the adaptive engine needs
        a binary-lattice ordering and falls back to ``"hilbert"`` when
        the initial one cannot be maintained incrementally.
    bits:
        Detection-lattice resolution for the adaptive engine.  ``None``
        (default) picks a density-based resolution of roughly 64 lattice
        cells per object — coarse enough that only *meaningful* motion
        crosses a cell boundary.  At full key resolution (16 bits/axis a
        cell is ~1e-5 of the box) every object crosses every iteration
        and the crosser fraction saturates at 1.
    """

    policy: str = "never"
    every: int = 0
    threshold: float = 0.10
    method: str | None = None
    bits: int | None = None

    @classmethod
    def from_extra(cls, extra: dict) -> "AdaptivePolicy":
        """Parse the policy from ``AppConfig.extra``.

        Understands both spellings — the legacy Moldyn-only
        ``rereorder_every: k`` (mapped onto ``policy="every"``) and the
        shared ``adapt_policy`` / ``adapt_every`` / ``adapt_threshold`` /
        ``adapt_method`` knobs.  Mixing the two is a configuration error.
        """
        legacy = int(extra.get("rereorder_every", 0) or 0)
        spelled = extra.get("adapt_policy")
        if legacy and spelled is not None:
            raise ConfigError(
                "rereorder_every and adapt_policy are mutually exclusive; "
                "use adapt_policy='every' with adapt_every=k"
            )
        if legacy < 0:
            raise ConfigError("rereorder_every must be >= 0")
        if legacy:
            return cls(policy="every", every=legacy)
        if spelled is None:
            return cls()
        policy = str(spelled)
        if policy not in ADAPT_POLICIES:
            raise ConfigError(
                f"unknown adapt_policy {policy!r}; expected one of {ADAPT_POLICIES}"
            )
        every = int(extra.get("adapt_every", 1))
        threshold = float(extra.get("adapt_threshold", 0.10))
        method = extra.get("adapt_method")
        bits = extra.get("adapt_bits")
        if bits is not None:
            bits = int(bits)
            if not 1 <= bits <= 62:
                raise ConfigError("adapt_bits must be in [1, 62]")
        if policy == "every" and every < 1:
            raise ConfigError("adapt_every must be >= 1 for adapt_policy='every'")
        if not 0.0 <= threshold <= 1.0:
            raise ConfigError("adapt_threshold must be in [0, 1]")
        if method is not None:
            method = str(method)
            if policy == "adaptive":
                if method not in KEY_FROM_AXES:
                    raise ConfigError(
                        f"adapt_method {method!r} cannot be maintained "
                        f"incrementally; expected one of {sorted(KEY_FROM_AXES)}"
                    )
            elif method not in ORDERINGS:
                raise ConfigError(
                    f"unknown adapt_method {method!r}; expected one of "
                    f"{sorted(ORDERINGS)}"
                )
        return cls(
            policy=policy, every=every, threshold=threshold, method=method,
            bits=bits,
        )

    @property
    def active(self) -> bool:
        return self.policy != "never"


@dataclass(frozen=True)
class AppConfig:
    """Run configuration shared by all applications."""

    n: int = 4096
    nprocs: int = 16
    iterations: int = 3
    seed: int = 42
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("n must be positive")
        if self.nprocs <= 0:
            raise ValueError("nprocs must be positive")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")


def block_partition(n: int, nprocs: int) -> list[np.ndarray]:
    """Contiguous block partition of ``range(n)`` (Category 2's scheme)."""
    bounds = (np.arange(nprocs + 1, dtype=np.int64) * n) // nprocs
    return [np.arange(bounds[p], bounds[p + 1], dtype=np.int64) for p in range(nprocs)]


class ProcView:
    """One processor count's share of a run.

    Holds the :class:`TraceBuilder` of that count and the count itself;
    each app attaches the partition it derives from the count (Moldyn's
    ``parts``, Water-Spatial's ``cell_owner``, ...).  Nothing the physics
    reads lives here.
    """

    def __init__(self, nprocs: int, label: str):
        self.nprocs = nprocs
        self.tb = TraceBuilder(nprocs, label=label)


def barrier(views: list[ProcView], next_label: str) -> None:
    """Close the current epoch of every view's builder."""
    for v in views:
        v.tb.barrier(next_label)


def reorder_cycles(n: int, object_size: int, method: str = "hilbert") -> float:
    """Processor cycles charged for one reordering call.

    Models the three steps of the library routine per object: key
    generation (bit manipulation — ~20x more expensive for the
    space-filling curves than for the trivial column/row concatenation,
    matching the paper's measured 0.09 s Hilbert vs 0.03 s column for
    Moldyn), ranking (comparison sort, ~10 cycles per compare level), and
    moving ``object_size`` bytes.  Converted to seconds by each platform's
    ``cycle_time``; the resulting costs land in the paper's measured
    0.03-1.0 s band at the paper's sizes and are charged to the reordered
    versions' execution time, as the paper does ("we include the execution
    of the reordering routine in the overall execution time").
    """
    if n <= 0:
        return 0.0
    # Per-object key construction cost by family: bit-interleaving curves
    # (Hilbert/Morton and the Gray recode on top of Morton) ~900 cycles,
    # the base-3 Peano digit loop a bit more, the graph orderings more
    # still (CSR build + BFS queue work per object), and the trivial
    # row/column bit concatenation ~100.
    keygen = {
        "hilbert": 900.0,
        "morton": 900.0,
        "gray": 900.0,
        "peano": 1100.0,
        "bfs": 1500.0,
        "rcm": 1500.0,
    }.get(method, 100.0)
    return float(n) * (
        keygen + 10.0 * np.log2(max(n, 2)) + object_size / 2.0
    )


class Application(ABC):
    """Base class for the five irregular benchmarks."""

    #: Application name as used in the paper's tables.
    name: str = "?"
    #: 1 = sophisticated (tree/grid) partition, 2 = block partition.
    category: int = 0
    #: Synchronization used, as in Table 1 ("b", "b,l").
    sync: str = "b"
    #: Bytes per main-array object, as in Table 1.
    object_size: int = 0
    #: Orderings worth evaluating for this app (paper section 5).
    orderings: tuple[str, ...] = ("hilbert",)
    #: The ``config.extra`` keys this app's ``__init__`` reads.  Any other
    #: key except the shared :data:`ADAPT_KNOBS` is rejected, so a
    #: misspelled knob fails loudly instead of silently running defaults.
    knobs: tuple[str, ...] = ()

    def __init__(self, config: AppConfig):
        accepted = set(self.knobs) | set(ADAPT_KNOBS)
        unknown = set(config.extra) - accepted
        if unknown:
            raise ConfigError(
                f"unknown {self.name} config.extra key(s) {sorted(unknown)};"
                f" accepted: {sorted(accepted)}"
            )
        self.config = config
        self.reordered_by: str | None = None
        self._rng = np.random.default_rng(config.seed)
        #: Seconds the last :meth:`run` spent staging and sealing trace
        #: events (builder calls + barriers), excluding the physics.  Apps
        #: accumulate it around their emission blocks.  ``seal_seconds`` is
        #: the portion spent inside epoch sealing (copied from the
        #: builder), so ``emit_seconds - seal_seconds`` is the pure staging
        #: cost of the emit path.
        self.emit_seconds = 0.0
        self.seal_seconds = 0.0
        #: Seconds the last :meth:`run` spent computing physics (structure
        #: discovery + force math), accumulated by the apps around their
        #: compute blocks via :meth:`_phys`; ``physics_stages`` breaks it
        #: down by stage label.  Together with ``emit_seconds`` this
        #: attributes generate-stage time.
        self.physics_seconds = 0.0
        self.physics_stages: dict[str, float] = {}
        #: Traces of the extra processor counts the last :meth:`run` was
        #: asked for, keyed by count.
        self.sibling_traces: dict[int, Trace] = {}
        #: Re-reordering policy for drifting objects (shared by the three
        #: dynamic apps), parsed from ``extra`` — see :class:`AdaptivePolicy`.
        self.adapt = AdaptivePolicy.from_extra(config.extra)
        #: The incremental engine backing ``adapt_policy="adaptive"``;
        #: primed by :meth:`reorder` (or lazily at the first policy check).
        self.adaptive_engine: AdaptiveReorderer | None = None
        #: Mid-run re-reorderings fired so far, and objects they migrated.
        self.reorder_events = 0
        self.reorder_moved = 0
        #: Drift statistics from the most recent adaptive policy check.
        self.last_drift: DriftStats | None = None

    @contextmanager
    def _phys(self, stage: str):
        """Time a physics block, accumulating into ``physics_seconds`` and
        the per-stage ``physics_stages`` breakdown."""
        t0 = perf_counter()
        try:
            yield
        finally:
            dt = perf_counter() - t0
            self.physics_seconds += dt
            self.physics_stages[stage] = self.physics_stages.get(stage, 0.0) + dt

    # ---- spatial data ------------------------------------------------
    @abstractmethod
    def positions(self) -> np.ndarray:
        """Current coordinates of the main object array, shape (n, ndim)."""

    def interaction_pairs(self) -> np.ndarray | None:
        """The app's static interaction graph, as an ``(m, 2)`` index array.

        Apps with an explicit interaction structure (Moldyn's pair list,
        Unstructured's mesh edges, Water-Spatial's neighbour list) return
        it here so the graph orderings (``"bfs"``, ``"rcm"``) can order by
        who-talks-to-whom rather than position.  Tree-partitioned apps
        whose interactions are recomputed every step return ``None`` — the
        graph orderings then fall back to the Hilbert chain over positions
        (see :mod:`repro.core.graph`).
        """
        return None

    @property
    def n(self) -> int:
        return self.config.n

    @property
    def nprocs(self) -> int:
        return self.config.nprocs

    # ---- the <10-line reordering hook --------------------------------
    def reorder(self, method: str) -> Reordering:
        """Reorder the main object array with the named ordering.

        Computes the permutation from the *current* positions (plus the
        interaction graph, for the graph orderings), then lets the app
        permute its arrays / remap its index structures via
        :meth:`_apply_reordering`.
        """
        pairs = (
            self.interaction_pairs() if method in GRAPH_ORDERINGS else None
        )
        r = compute_reordering(method, coords=self.positions(), pairs=pairs)
        self._apply_reordering(r)
        self.reordered_by = method
        if self.adapt.policy == "adaptive":
            self._prime_adaptive()
        return r

    @abstractmethod
    def _apply_reordering(self, r: Reordering) -> None:
        """Permute object arrays and remap index structures."""

    # ---- mid-run re-reordering (the adaptive policy) -------------------
    def _adaptive_method(self) -> str:
        """Ordering the incremental engine maintains for this app."""
        if self.adapt.method:
            return self.adapt.method
        if self.reordered_by in KEY_FROM_AXES:
            return self.reordered_by
        return "hilbert"

    def _adaptive_bits(self, ndim: int) -> int:
        """Detection-lattice resolution: ~64 cells per object by default.

        Coarse on purpose — beyond the density where each object gets its
        own cell, finer lattice bits only encode sub-spacing jitter, so
        every iteration's thermal motion would read as a boundary
        crossing.  The prefix property of the binary-lattice curves means
        a fine-sorted layout stays sorted under the coarse keys, with
        stable ties preserving the fine order between crossings.
        """
        if self.adapt.bits is not None:
            return self.adapt.bits
        target = int(np.ceil(np.log2(max(64 * self.n, 2)) / ndim))
        return max(2, min(target, 16, 64 // ndim))

    def _prime_adaptive(self) -> None:
        """(Re)prime the incremental engine on the current layout.

        The bounding box is pinned here: drift detection compares lattice
        cells, so the lattice must not move between epochs.
        """
        pos = self.positions()
        engine = AdaptiveReorderer(
            self._adaptive_method(),
            BoundingBox.of(pos),
            bits=self._adaptive_bits(pos.shape[1]),
        )
        engine.prime(pos)
        self.adaptive_engine = engine

    def _policy_rereorder(self, steps_done: int) -> dict | None:
        """Consult the policy at an iteration boundary; re-reorder if due.

        Applies the permutation to the app state immediately.  Returns
        ``None`` when nothing fired, else the trace-emission recipe for
        the ``reorder`` epoch (processor 0 does the migration, as in the
        paper's sequential reordering routine): ``read`` — the source
        slots gathered, ``write`` — the slots rewritten, ``work`` — work
        units charged, plus ``moved`` / ``full`` for reporting.

        The ``"every"`` policy is the legacy Moldyn path verbatim: a full
        re-sort with the initial ordering (computed from coordinates
        alone), a no-op if the app was never reordered.  The
        ``"adaptive"`` policy asks the incremental engine for cheap drift
        stats and fires only at ``threshold``; the migration then touches
        only the boundary crossers — reads their old slots, writes the
        slots whose content changes, and charges one vectorized scan
        (``n/16``) for detection instead of a full key build.
        """
        pol = self.adapt
        if not pol.active or steps_done <= 0:
            return None
        n = self.n
        if pol.policy == "every":
            if steps_done % pol.every != 0:
                return None
            method = pol.method or self.reordered_by
            if method is None:
                return None
            r = compute_reordering(method, coords=self.positions())
            self._apply_reordering(r)
            self.reorder_events += 1
            self.reorder_moved += n
            idx = np.arange(n)
            return {"read": idx, "write": idx, "work": float(n), "moved": n,
                    "full": True}
        if self.adaptive_engine is None:
            self._prime_adaptive()
            return None
        pos = self.positions()
        stats = self.adaptive_engine.stats(pos)
        self.last_drift = stats
        if stats.moved == 0 or stats.moved_frac < pol.threshold:
            return None
        upd = self.adaptive_engine.update(pos)
        if upd.changed_slots.shape[0] == 0:
            return None
        self._apply_reordering(upd.reordering)
        self.reorder_events += 1
        self.reorder_moved += upd.moved
        if upd.full:
            idx = np.arange(n)
            return {"read": idx, "write": idx, "work": float(n),
                    "moved": upd.moved, "full": True}
        return {
            "read": upd.reordering.perm[upd.changed_slots],
            "write": upd.changed_slots,
            "work": float(upd.moved) + n / 16.0,
            "moved": upd.moved,
            "full": False,
        }

    def _emit_reorder_epoch(self, views, region: int, info: dict) -> None:
        """Trace the ``reorder`` epoch produced by :meth:`_policy_rereorder`."""
        for v in views:
            v.tb.read(0, region, info["read"])
            if info["write"].shape[0]:
                v.tb.write(0, region, info["write"])
            v.tb.work(0, info["work"])

    def reorder_work(self, method: str = "hilbert") -> float:
        """Cycles for the reorder routine's cost (see :func:`reorder_cycles`)."""
        return reorder_cycles(self.n, self.object_size, method)

    # ---- execution ----------------------------------------------------
    @abstractmethod
    def run(self, siblings=()) -> Trace:
        """Execute ``config.iterations`` timesteps, returning the trace.

        Must be callable repeatedly; each call continues from the current
        simulation state (the first call covers the steady-state iterations
        the paper measures).  The returned trace is the one at
        ``config.nprocs``; each extra processor count in ``siblings`` gets
        its trace of the same pass in :attr:`sibling_traces`, byte-identical
        to a run of its own at that count.
        """

    def _open_views(self, siblings, label: str, *regions: tuple[str, int, int]):
        """Start a run: reset the timers and open one :class:`ProcView`
        per processor count (``config.nprocs`` first), each builder with
        ``regions`` — ``(name, objects, bytes)`` — declared in order, so a
        region has the same id in every builder.  Returns the views
        followed by the region ids."""
        counts = dict.fromkeys([self.nprocs, *(int(p) for p in siblings)])
        self.emit_seconds = 0.0
        self.physics_seconds = 0.0
        self.physics_stages = {}
        views = [ProcView(p, label) for p in counts]
        ids = [[v.tb.add_region(*region) for region in regions] for v in views]
        return (views, *ids[0])

    def _finish_views(self, views: list[ProcView]) -> Trace:
        """Finish every builder; returns the ``config.nprocs`` trace and
        keeps the others in :attr:`sibling_traces`."""
        traces = [v.tb.finish() for v in views]
        self.seal_seconds = sum(v.tb.seal_seconds for v in views)
        self.sibling_traces = {
            v.nprocs: t for v, t in zip(views[1:], traces[1:])
        }
        return traces[0]

    # ---- conveniences --------------------------------------------------
    def describe(self) -> dict:
        return {
            "name": self.name,
            "category": self.category,
            "sync": self.sync,
            "object_size": self.object_size,
            "n": self.n,
            "nprocs": self.nprocs,
            "iterations": self.config.iterations,
            "reordered_by": self.reordered_by or "original",
        }
