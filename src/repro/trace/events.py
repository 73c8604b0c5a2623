"""Shared-memory access trace representation.

The five applications are *real* computations, but what the machine
simulators need from them is the stream of shared-memory accesses each
simulated processor performs, segmented by synchronization.  This module
defines that representation:

* a :class:`RegionSpec` describes one shared object array (name, object
  count, object size in bytes — the paper's Table 1 column);
* a :class:`PackedEpoch` is everything between two barriers, stored as
  CSR-style *columns*: the per-access ``index`` column with a
  ``(nprocs + 1)`` offset table, per-burst region / write / length
  columns (a burst is a run of accesses by one processor to one region,
  all reads or all writes), and per-processor work and lock counters —
  so ``flat(proc)`` is an O(1) slice of zero-copy views and
  ``accesses(proc)`` is a subtraction;
* a :class:`Trace` is the whole run: the region table plus the epoch list;
  its ``validate()`` is a vectorized per-burst min/max over the columns.

Traces are *object-granularity*: they record which object was touched, not
which byte.  The mapping to bytes/lines/pages lives in
:mod:`repro.trace.layout` so one trace can be replayed against machines with
different consistency-unit sizes (the paper's central variable).

Epochs are *sealed*: the columns are built once (at
:meth:`repro.trace.builder.TraceBuilder.barrier` time) and never mutated
afterwards.  That immutability is what makes the zero-copy pipeline safe —
simulators, the decode memo (:mod:`repro.trace.layout`), and mmap-loaded
traces (:mod:`repro.trace.io`) all share the same buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RegionSpec", "RaggedBatch", "PackedEpoch", "Trace"]


@dataclass(frozen=True)
class RegionSpec:
    """One shared object array.

    Parameters
    ----------
    name:
        Region name, unique within a trace (``"particles"``, ``"cells"``...).
    num_objects:
        Number of objects in the array.
    object_size:
        Bytes per object — e.g. 104 for a Barnes-Hut body, 680 for a
        Water-Spatial molecule (Table 1 of the paper).
    """

    name: str
    num_objects: int
    object_size: int

    def __post_init__(self) -> None:
        if self.num_objects < 0:
            raise ValueError("num_objects must be non-negative")
        if self.object_size <= 0:
            raise ValueError("object_size must be positive")

    @property
    def nbytes(self) -> int:
        return self.num_objects * self.object_size


class RaggedBatch:
    """A staged group of bursts in CSR (ragged) form.

    ``lanes`` is a list of ``(region, is_write, indices, offsets)`` tuples,
    all with the same burst count ``k``: lane ``l``'s burst ``j`` is
    ``indices[offsets[j]:offsets[j + 1]]``.  The batch denotes the burst
    sequence a per-object emit loop would have produced — burst-major
    across lanes (burst ``j`` of every lane before burst ``j + 1`` of any),
    with zero-length bursts dropped, exactly like
    :meth:`repro.trace.builder.TraceBuilder.read` drops empty calls.

    One batch replaces up to ``k * len(lanes)`` staged tuples with a
    constant number of arrays; :meth:`expand` produces the equivalent
    burst columns vectorized.  The index arrays are
    staged without a copy, so callers must not mutate them before the
    epoch is sealed (the same aliasing contract as ``TraceBuilder.read``).
    """

    __slots__ = ("lanes", "nbursts", "total")

    def __init__(
        self,
        lanes: list[tuple[int, bool, np.ndarray, np.ndarray]],
        nbursts: int,
        total: int,
    ):
        self.lanes = lanes
        self.nbursts = nbursts
        self.total = total

    def expand(
        self, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized expansion to packed burst columns.

        Returns ``(burst_region, burst_write, burst_length, index)`` — the
        non-empty bursts in burst-major lane order and the interleaved flat
        index column (length ``total``).  With ``out`` (a length-``total``
        int64 buffer, typically a slice of the epoch's final index column)
        the flat column is written in place, so sealing needs no second
        concatenation pass over the expanded indices.
        """
        lanes = self.lanes
        k = self.nbursts
        if len(lanes) == 1:
            region, write, idx, offs = lanes[0]
            lens = np.diff(offs)
            nz = lens > 0
            if not nz.all():
                lens = lens[nz]
            breg = np.full(lens.shape[0], region, dtype=np.int64)
            bwri = np.full(lens.shape[0], write, dtype=np.bool_)
            # Empty bursts contribute nothing: the flat column is the lane's
            # index array as-is (no copy unless an output buffer is given).
            if out is None:
                return breg, bwri, lens, idx
            np.copyto(out, idx)
            return breg, bwri, lens, out

        m = len(lanes)
        lens = np.empty(m * k, dtype=np.int64)
        for l, (_, _, _, offs) in enumerate(lanes):
            np.subtract(offs[1:], offs[:-1], out=lens[l::m])
        out_off = np.empty(m * k + 1, dtype=np.int64)
        out_off[0] = 0
        np.cumsum(lens, out=out_off[1:])
        index = np.empty(self.total, dtype=np.int64) if out is None else out
        for l, (_, _, idx, offs) in enumerate(lanes):
            ln = idx.shape[0]
            if ln == 0:
                continue
            starts_out = out_off[l:-1:m]
            if ln == k:
                cl = lens[l::m]
                if cl[0] == 1 and (cl == 1).all():
                    # Unit-burst lane (one element per burst): pure scatter.
                    index[starts_out] = idx
                    continue
            # Element e of this lane lands at
            # starts_out[burst(e)] + (e - offs[burst(e)]).
            pos = np.repeat(starts_out - offs[:-1], lens[l::m])
            pos += np.arange(ln, dtype=np.int64)
            index[pos] = idx
        breg = np.tile(
            np.fromiter((r for r, _, _, _ in lanes), dtype=np.int64, count=m), k
        )
        bwri = np.tile(
            np.fromiter((w for _, w, _, _ in lanes), dtype=np.bool_, count=m), k
        )
        nz = lens > 0
        if not nz.all():
            breg, bwri, lens = breg[nz], bwri[nz], lens[nz]
        return breg, bwri, lens, index


class PackedEpoch:
    """One barrier-separated epoch in columnar form.

    Attributes
    ----------
    offsets:
        ``(nprocs + 1,)`` int64; processor ``p``'s accesses occupy
        ``[offsets[p], offsets[p + 1])`` of the access columns.
    index:
        Per-access object indices (int64, or a narrower on-disk integer
        column), length ``offsets[-1]``, in program order per processor.
    region, is_write:
        Per-access columns derived from the burst columns on first use.
    burst_offsets:
        ``(nprocs + 1,)`` int64 into the burst columns.
    burst_region, burst_write, burst_length:
        Per-burst columns: each burst is a run of accesses by one
        processor to one region, all reads or all writes.  The per-access
        ``region`` and ``is_write`` columns derive from them, and
        serialization stores them instead of the per-access columns.
    work:
        ``work[p]`` — abstract compute units (e.g. pair interactions)
        performed by processor ``p``; drives the timing model.
    lock_acquires:
        ``lock_acquires[p]`` — number of lock acquisitions by ``p``.
    label:
        Phase name for per-phase breakdowns (paper's Table 4).
    """

    __slots__ = (
        "nprocs",
        "label",
        "offsets",
        "index",
        "burst_offsets",
        "burst_region",
        "burst_write",
        "burst_length",
        "work",
        "lock_acquires",
        "_region",
        "_is_write",
    )

    def __init__(
        self,
        nprocs: int,
        label: str,
        offsets: np.ndarray,
        index: np.ndarray,
        burst_offsets: np.ndarray,
        burst_region: np.ndarray,
        burst_write: np.ndarray,
        burst_length: np.ndarray,
        work: np.ndarray,
        lock_acquires: np.ndarray,
    ):
        if nprocs <= 0:
            raise ValueError("nprocs must be positive")
        self.nprocs = nprocs
        self.label = label
        self.offsets = offsets
        self.index = index
        self.burst_offsets = burst_offsets
        self.burst_region = burst_region
        self.burst_write = burst_write
        self.burst_length = burst_length
        self.work = work
        self.lock_acquires = lock_acquires
        self._region = None
        self._is_write = None

    # ---- lazy per-access columns -----------------------------------------
    # The burst columns fully determine the per-access region/is_write
    # columns (each burst's attributes repeated over its length), so they
    # are derived on first use: sealing, serialization and interval-based
    # consumers never need them, and skipping the two np.repeat passes is a
    # large share of the emission cost the ragged path removes.

    @property
    def region(self) -> np.ndarray:
        if self._region is None:
            self._region = np.repeat(self.burst_region, self.burst_length)
        return self._region

    @property
    def is_write(self) -> np.ndarray:
        if self._is_write is None:
            self._is_write = np.repeat(self.burst_write, self.burst_length)
        return self._is_write

    # ---- construction ----------------------------------------------------
    @classmethod
    def seal(
        cls,
        nprocs: int,
        label: str,
        staged: list[list],
        work: np.ndarray,
        lock_acquires: np.ndarray,
    ) -> "PackedEpoch":
        """Build the columns from per-proc staged burst lists.

        Each staged entry is either a plain ``(region, is_write, indices)``
        tuple or a :class:`RaggedBatch`; batches are
        expanded vectorized (never into per-burst Python objects), so a
        ragged-emitting application seals in O(batches) Python work.  The
        per-access total is known up front, so the flat index column is
        allocated once and every entry — plain or ragged — writes its
        slice directly; there is no per-column concatenation of the big
        access data, only of the small burst columns."""
        offsets = np.zeros(nprocs + 1, dtype=np.int64)
        burst_offsets = np.zeros(nprocs + 1, dtype=np.int64)
        total = 0
        for p in range(nprocs):
            for entry in staged[p]:
                total += entry[2].shape[0] if type(entry) is tuple else entry.total
            offsets[p + 1] = total
        index = np.empty(total, dtype=np.int64)

        breg_parts: list[np.ndarray] = []
        bwri_parts: list[np.ndarray] = []
        blen_parts: list[np.ndarray] = []
        # Pending run of plain tuples, flushed to arrays on batch boundaries
        # so the burst order is preserved.
        run_region: list[int] = []
        run_write: list[bool] = []
        run_length: list[int] = []

        def _flush() -> None:
            if run_region:
                breg_parts.append(np.array(run_region, dtype=np.int64))
                bwri_parts.append(np.array(run_write, dtype=np.bool_))
                blen_parts.append(np.array(run_length, dtype=np.int64))
                run_region.clear()
                run_write.clear()
                run_length.clear()

        pos = 0
        nbursts = 0
        for p in range(nprocs):
            for entry in staged[p]:
                if type(entry) is tuple:
                    region, write, idx = entry
                    ln = idx.shape[0]
                    run_region.append(region)
                    run_write.append(write)
                    run_length.append(ln)
                    index[pos : pos + ln] = idx
                    pos += ln
                    nbursts += 1
                else:
                    _flush()
                    ereg, ewri, elen, _ = entry.expand(
                        out=index[pos : pos + entry.total]
                    )
                    breg_parts.append(ereg)
                    bwri_parts.append(ewri)
                    blen_parts.append(elen)
                    pos += entry.total
                    nbursts += elen.shape[0]
            burst_offsets[p + 1] = nbursts
        _flush()
        if nbursts:
            breg = np.concatenate(breg_parts)
            bwri = np.concatenate(bwri_parts)
            blen = np.concatenate(blen_parts)
        else:
            breg = np.empty(0, dtype=np.int64)
            bwri = np.empty(0, dtype=np.bool_)
            blen = np.empty(0, dtype=np.int64)
        return cls(
            nprocs=nprocs,
            label=label,
            offsets=offsets,
            index=index,
            burst_offsets=burst_offsets,
            burst_region=breg,
            burst_write=bwri,
            burst_length=blen,
            work=work,
            lock_acquires=lock_acquires,
        )

    # ---- access API ------------------------------------------------------
    def accesses(self, proc: int) -> int:
        """Total object accesses by processor ``proc`` — O(1)."""
        return int(self.offsets[proc + 1] - self.offsets[proc])

    def flat(self, proc: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(region, index, is_write)`` views for ``proc`` — O(1), no copy."""
        lo = self.offsets[proc]
        hi = self.offsets[proc + 1]
        return self.region[lo:hi], self.index[lo:hi], self.is_write[lo:hi]

    def write_flags(self, proc: int) -> np.ndarray:
        """Per-access write flags for ``proc``, built from the burst columns.

        Unlike ``flat(proc)[2]`` this never materializes (or caches) the
        whole epoch's derived ``is_write`` column — only the processor's
        slice is expanded, so replay paths that only need one processor at
        a time stay O(proc accesses) in memory traffic.
        """
        if self._is_write is not None:
            return self._is_write[self.offsets[proc] : self.offsets[proc + 1]]
        b0 = int(self.burst_offsets[proc])
        b1 = int(self.burst_offsets[proc + 1])
        return np.repeat(self.burst_write[b0:b1], self.burst_length[b0:b1])

    @property
    def total_accesses(self) -> int:
        return int(self.offsets[-1])

    def check_structure(self) -> None:
        """Raise ``ValueError`` if the columns are internally inconsistent."""
        n = self.nprocs
        if self.offsets.shape != (n + 1,) or self.burst_offsets.shape != (n + 1,):
            raise ValueError("packed epoch offset tables have wrong shape")
        if self.offsets[0] != 0 or self.burst_offsets[0] != 0:
            raise ValueError("packed epoch offsets must start at zero")
        if (np.diff(self.offsets) < 0).any() or (np.diff(self.burst_offsets) < 0).any():
            raise ValueError("packed epoch offsets must be non-decreasing")
        total = int(self.offsets[-1])
        # region/is_write derive from the burst columns, so only the index
        # column can disagree with the offset table.
        if self.index.ndim != 1 or self.index.shape[0] != total:
            raise ValueError("packed epoch column 'index' has wrong length")
        nbursts = int(self.burst_offsets[-1])
        for name in ("burst_region", "burst_write", "burst_length"):
            col = getattr(self, name)
            if col.ndim != 1 or col.shape[0] != nbursts:
                raise ValueError(f"packed epoch column {name!r} has wrong length")
        if nbursts and int(self.burst_length.sum()) != total:
            raise ValueError("packed epoch burst lengths do not cover the accesses")
        if self.work.shape != (n,) or self.lock_acquires.shape != (n,):
            raise ValueError("packed epoch work/lock arrays have wrong shape")


@dataclass
class Trace:
    """A full run: region table + ordered epoch list.

    The epoch order is the global synchronization order (epochs are
    barrier-separated, so every processor's epoch ``e`` accesses
    happen-before every processor's epoch ``e+1`` accesses — the property
    the lazy-release-consistency models rely on).
    """

    nprocs: int
    regions: list[RegionSpec] = field(default_factory=list)
    epochs: list[PackedEpoch] = field(default_factory=list)

    def region_id(self, name: str) -> int:
        # Called inside per-epoch loops (trace.stats, experiments); a linear
        # scan per call is O(regions) each time.  Memoize the name -> id map
        # and rebuild it if regions were appended since it was built.
        ids = self.__dict__.get("_region_ids")
        if ids is None or len(ids) != len(self.regions):
            ids = {r.name: i for i, r in enumerate(self.regions)}
            self.__dict__["_region_ids"] = ids
        try:
            return ids[name]
        except KeyError:
            raise KeyError(f"no region named {name!r}") from None

    @property
    def total_accesses(self) -> int:
        return sum(e.total_accesses for e in self.epochs)

    @property
    def total_work(self) -> float:
        return float(sum(e.work.sum() for e in self.epochs))

    def epochs_labelled(self, label: str) -> list[PackedEpoch]:
        """Epochs of a given phase (for the paper's Table 4 breakdown)."""
        return [e for e in self.epochs if e.label == label]

    def validate(self) -> None:
        """Vectorized consistency check; raises ``ValueError`` on corruption.

        Works at burst granularity — a per-burst min/max via ``reduceat``
        against the burst's region limit — so it never materializes the
        derived per-access region column.
        """
        nregions = len(self.regions)
        limits = np.fromiter(
            (r.num_objects for r in self.regions), dtype=np.int64, count=nregions
        )
        for e in self.epochs:
            if e.nprocs != self.nprocs:
                raise ValueError("epoch/trace processor count mismatch")
            e.check_structure()
            breg = np.asarray(e.burst_region)
            if breg.shape[0] == 0:
                continue
            rmin = int(breg.min())
            rmax = int(breg.max())
            if rmin < 0 or rmax >= nregions:
                raise ValueError(
                    f"burst references unknown region {rmin if rmin < 0 else rmax}"
                )
            blen = np.asarray(e.burst_length)
            nz = blen > 0
            if not nz.any():
                continue
            starts = np.empty(blen.shape[0], dtype=np.int64)
            starts[0] = 0
            np.cumsum(blen[:-1], out=starts[1:])
            nz_starts = starts[nz]
            bmin = np.minimum.reduceat(e.index, nz_starts)
            bmax = np.maximum.reduceat(e.index, nz_starts)
            lim = limits[breg[nz]]
            bad = (bmin < 0) | (bmax >= lim)
            if bad.any():
                spec = self.regions[int(breg[nz][int(np.argmax(bad))])]
                raise ValueError(
                    f"burst indices out of range for region {spec.name!r}"
                )
