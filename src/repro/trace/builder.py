"""Incremental trace construction for applications.

Applications drive a :class:`TraceBuilder` while computing: they declare
shared regions once, then inside each parallel phase record read/write bursts
per simulated processor, and call :meth:`TraceBuilder.barrier` where the real
benchmark has a barrier.

Recorded bursts are *staged* as raw ``(region, is_write, indices)`` tuples
(or CSR :class:`repro.trace.events.RaggedBatch` groups) and sealed into
:class:`repro.trace.events.PackedEpoch` columns at each barrier — one
concatenation per column, after which every consumer works on zero-copy
views.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from .events import PackedEpoch, RaggedBatch, RegionSpec, Trace

__all__ = ["TraceBuilder"]


def _normalize_indices(indices) -> np.ndarray:
    """1-D contiguous int64 view of ``indices`` — no copy when it already
    is one (the satellite fix: slicing views stage as-is)."""
    idx = indices
    if not (
        isinstance(idx, np.ndarray)
        and idx.dtype == np.int64
        and idx.ndim == 1
        and idx.flags["C_CONTIGUOUS"]
    ):
        idx = np.ascontiguousarray(idx, dtype=np.int64)
        if idx.ndim != 1:
            idx = idx.reshape(-1)
    return idx


class TraceBuilder:
    """Builds a :class:`Trace` epoch by epoch.

    Parameters
    ----------
    nprocs:
        Number of simulated processors.
    label:
        Label for the first epoch (see :meth:`barrier` for later ones).
    """

    def __init__(self, nprocs: int, label: str = ""):
        if nprocs <= 0:
            raise ValueError("nprocs must be positive")
        self._trace = Trace(nprocs=nprocs)
        self._label = label
        # Each staged entry is a plain (region, is_write, indices) tuple or
        # a RaggedBatch; PackedEpoch.seal handles both.
        self._staged: list[list[tuple[int, bool, np.ndarray] | RaggedBatch]] = [
            [] for _ in range(nprocs)
        ]
        self._work = np.zeros(nprocs, dtype=np.float64)
        self._locks = np.zeros(nprocs, dtype=np.int64)
        self._finished = False
        #: Cumulative seconds spent sealing epochs (the packing step shared
        #: by every emit style); lets benchmarks split staging from sealing.
        self.seal_seconds = 0.0

    @property
    def nprocs(self) -> int:
        return self._trace.nprocs

    def add_region(self, name: str, num_objects: int, object_size: int) -> int:
        """Declare a shared object array; returns its region id."""
        if any(r.name == name for r in self._trace.regions):
            raise ValueError(f"region {name!r} already declared")
        self._trace.regions.append(RegionSpec(name, num_objects, object_size))
        return len(self._trace.regions) - 1

    def _check_proc(self, proc: int) -> None:
        if not 0 <= proc < self.nprocs:
            raise ValueError(f"proc {proc} out of range [0, {self.nprocs})")
        if self._finished:
            raise RuntimeError("trace already finished")

    def _record(self, proc: int, region: int, indices: np.ndarray, write: bool) -> None:
        # The single dtype conversion of the pipeline: PackedEpoch.seal
        # keeps int64 and never converts again.  Already-contiguous int64 input stages as-is.
        idx = _normalize_indices(indices)
        if idx.shape[0]:
            self._staged[proc].append((region, write, idx))

    def read(self, proc: int, region: int, indices: np.ndarray) -> None:
        """Record a read burst by ``proc`` over ``indices`` of ``region``."""
        self._check_proc(proc)
        self._record(proc, region, indices, write=False)

    def write(self, proc: int, region: int, indices: np.ndarray) -> None:
        """Record a write burst by ``proc`` over ``indices`` of ``region``."""
        self._check_proc(proc)
        self._record(proc, region, indices, write=True)

    def update(self, proc: int, region: int, indices: np.ndarray) -> None:
        """Read-modify-write burst (a read burst followed by a write burst)."""
        self.read(proc, region, indices)
        self.write(proc, region, indices)

    # ---- ragged (CSR) emission -------------------------------------------

    def _normalize_offsets(self, offsets, length: int) -> np.ndarray:
        if isinstance(offsets, (int, np.integer)):
            width = int(offsets)
            if width <= 0:
                raise ValueError("uniform burst width must be positive")
            if length % width:
                raise ValueError(
                    f"index column of {length} does not split into bursts of {width}"
                )
            return np.arange(0, length + width, width, dtype=np.int64)
        offs = offsets
        if not (
            isinstance(offs, np.ndarray)
            and offs.dtype == np.int64
            and offs.ndim == 1
            and offs.flags["C_CONTIGUOUS"]
        ):
            offs = np.ascontiguousarray(offsets, dtype=np.int64)
        if offs.ndim != 1 or offs.shape[0] < 1:
            raise ValueError("burst offsets must be a 1-D array of length >= 1")
        if offs[0] != 0 or int(offs[-1]) != length:
            raise ValueError(
                "burst offsets must start at 0 and end at the index column length"
            )
        if offs.shape[0] > 1 and (np.diff(offs) < 0).any():
            raise ValueError("burst offsets must be non-decreasing")
        return offs

    def _stage_ragged(self, proc: int, lanes) -> None:
        norm: list[tuple[int, bool, np.ndarray, np.ndarray]] = []
        nbursts = -1
        total = 0
        for region, write, indices, offsets in lanes:
            idx = _normalize_indices(indices)
            offs = self._normalize_offsets(offsets, idx.shape[0])
            k = offs.shape[0] - 1
            if nbursts < 0:
                nbursts = k
            elif k != nbursts:
                raise ValueError(
                    f"ragged lanes disagree on burst count ({k} != {nbursts})"
                )
            total += idx.shape[0]
            norm.append((int(region), bool(write), idx, offs))
        if nbursts > 0 and total > 0:
            self._staged[proc].append(RaggedBatch(norm, nbursts, total))

    def read_ragged(self, proc: int, region: int, indices, offsets) -> None:
        """Record ``k`` read bursts at once, CSR-style.

        ``indices`` is the flat concatenation of the burst index runs;
        burst ``j`` is ``indices[offsets[j]:offsets[j + 1]]``
        (``offsets`` has ``k + 1`` entries — or pass an int ``w`` for
        uniform bursts of width ``w``).  Equivalent to, but much cheaper
        than, ``k`` :meth:`read` calls: zero-length bursts are dropped the
        same way, and the sealed trace is byte-identical.
        """
        self._check_proc(proc)
        self._stage_ragged(proc, [(region, False, indices, offsets)])

    def write_ragged(self, proc: int, region: int, indices, offsets) -> None:
        """Record ``k`` write bursts at once, CSR-style (see :meth:`read_ragged`)."""
        self._check_proc(proc)
        self._stage_ragged(proc, [(region, True, indices, offsets)])

    def update_ragged(self, proc: int, region: int, indices, offsets) -> None:
        """Record ``k`` read-modify-write bursts at once, CSR-style.

        Equivalent to ``k`` :meth:`update` calls: per burst ``j``, a read
        burst then a write burst over the same run — i.e. the interleaved
        sequence R0 W0 R1 W1 ..., not one bulk read then one bulk write.
        """
        self._check_proc(proc)
        self._stage_ragged(
            proc,
            [(region, False, indices, offsets), (region, True, indices, offsets)],
        )

    def emit_ragged(self, proc: int, lanes) -> None:
        """Record an interleaved multi-lane burst pattern, CSR-style.

        ``lanes`` is a sequence of ``(region, is_write, indices, offsets)``
        tuples, all with the same burst count ``k``.  The recorded burst
        order is burst-major: burst ``j`` of lane 0, then burst ``j`` of
        lane 1, ... before any burst ``j + 1`` — the order a per-object
        loop emitting one burst per lane per object would produce, with
        zero-length bursts dropped just like empty :meth:`read` calls.
        Staging is O(lanes); the expansion to columns happens vectorized at
        the next :meth:`barrier`.
        """
        self._check_proc(proc)
        self._stage_ragged(proc, lanes)

    def work(self, proc: int, units: float) -> None:
        """Charge abstract compute units to ``proc`` in the current epoch."""
        self._check_proc(proc)
        self._work[proc] += units

    def lock(self, proc: int, acquires: int = 1) -> None:
        """Record lock acquisitions by ``proc`` in the current epoch."""
        self._check_proc(proc)
        self._locks[proc] += acquires

    def _seal_epoch(self):
        t0 = perf_counter()
        n = self.nprocs
        epoch = PackedEpoch.seal(n, self._label, self._staged, self._work, self._locks)
        self._staged = [[] for _ in range(n)]
        self._work = np.zeros(n, dtype=np.float64)
        self._locks = np.zeros(n, dtype=np.int64)
        self.seal_seconds += perf_counter() - t0
        return epoch

    def _current_nonempty(self) -> bool:
        return (
            any(self._staged[p] for p in range(self.nprocs))
            or self._work.any()
            or self._locks.any()
        )

    def barrier(self, next_label: str = "") -> None:
        """Close the current epoch (a barrier) and open the next one."""
        if self._finished:
            raise RuntimeError("trace already finished")
        self._trace.epochs.append(self._seal_epoch())
        self._label = next_label

    def finish(self) -> Trace:
        """Close the trailing epoch (if non-empty) and return the trace."""
        if self._finished:
            raise RuntimeError("trace already finished")
        if self._current_nonempty():
            self._trace.epochs.append(self._seal_epoch())
        self._finished = True
        self._trace.validate()
        return self._trace
