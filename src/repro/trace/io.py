"""Trace serialization: packed mmap bundles (``.npt``).

Trace generation is the expensive half of every experiment (the apps run
real physics); the machine models are cheap pure functions.  Saving traces
lets a workflow generate once and sweep machine parameters offline, or ship
a trace to a colleague without shipping the computation.  The persistent
cache behind resumable runs (:mod:`repro.runtime.cache`) is built on this
module, which imposes two robustness requirements:

* **writes are atomic** — :func:`save_trace` writes to a temporary file in
  the destination directory and ``os.replace``-s it into place, so an
  interrupt mid-write can never leave a half-written file behind;
* **reads fail structurally** — :func:`load_trace` raises
  :class:`repro.errors.TraceCorruptError` (a ``ValueError`` subclass) for
  *any* unreadable, truncated, or garbled file, and
  :class:`repro.errors.TraceVersionError` for a format-version mismatch,
  so callers can quarantine-and-regenerate instead of crashing.

Bundle framing
--------------
Both format versions share one framing, written by :func:`_write_bundle`::

    8 bytes   magic  b"REPROTRC"
    8 bytes   header length (little-endian uint64)
    N bytes   JSON header: version, nprocs, regions, epoch labels, and an
              array directory {name: {dtype, shape, offset}} with offsets
              relative to the 64-byte-aligned data section
    ...       the data section: raw C-order array bytes, each directory
              array 64-byte aligned

The directory arrays are the :class:`repro.trace.events.PackedEpoch`
tables concatenated across epochs: offset tables, work/lock matrices and
the epoch start offsets into the big columns (``index`` and the three
burst columns).  The expanded per-access ``region`` and ``is_write``
columns are never stored; they are exactly
``np.repeat(burst_region, burst_length)`` /
``np.repeat(burst_write, burst_length)`` and derive lazily on use.

Version 2 (uncompressed, the default) stores each big column whole in the
directory; ``index`` at the narrowest safe width (``int32`` whenever every
index fits, which object indices always do in practice).  Version 3
(``save_trace(..., compression="zlib")``) stores them as **per-epoch
compressed chunks** after the directory arrays: ``index`` delta-encoded
(consecutive differences, small for coherent traversals), every integer
column narrowed to its smallest dtype before compression.  Each chunk
records its byte extent, element count, and a CRC-32.

One reader
----------
:func:`load_trace` maps the file once (or reads a buffer) and hands its
data section to one assembler.  A v2 bundle is the case of v3 where every
column is one uncompressed chunk: both versions share every structural
check and one epoch builder, and differ only in how an epoch's column
slice is fetched.  A v2 slice is a zero-copy view of the mapped column —
the narrow ``index`` is never widened (the decode arithmetic upcasts
element-wise), so parallel replay workers share read-only pages — and the
result is a plain :class:`Trace`.  A v3 slice decodes through the
LRU-bounded :class:`_ChunkStore` of a :class:`LazyTrace`, one epoch at a
time, so peak memory is a handful of epochs, not the trace.  Chunk
*bounds* are verified at load (truncation is caught immediately, feeding
the cache's quarantine path), CRCs at load (with ``validate=True``) and
again at decode, and each epoch's *content* (region and index ranges) as
its chunks decode.

Nothing else is read: a file without the ``REPROTRC`` magic — including
the zip-based ``.npz`` archives of early releases — is rejected with
:class:`repro.errors.TraceVersionError` before any parsing.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import tempfile
import zlib
from collections import OrderedDict

import numpy as np

from ..errors import ConfigError, TraceCorruptError, TraceVersionError
from .events import PackedEpoch, RegionSpec, Trace

__all__ = [
    "save_trace",
    "load_trace",
    "LazyTrace",
    "TRACE_SUFFIX",
    "COMPRESSION_CODECS",
]

_FORMAT_VERSION = 2
_COMPRESSED_VERSION = 3
_MAGIC = b"REPROTRC"
_PREAMBLE = len(_MAGIC) + 8
_ALIGN = 64
#: Canonical file suffix for packed trace bundles.
TRACE_SUFFIX = ".npt"

#: Accepted values for ``save_trace``'s ``compression`` knob.
COMPRESSION_CODECS = ("none", "zlib")

#: dtypes a directory array may declare; anything else is corruption.
_ALLOWED_DTYPES = {"<i8", "<i4", "|b1", "<f8"}

#: dtypes a v3 chunk may declare (narrowed integers + booleans).
_CHUNK_DTYPES = {"|i1", "<i2", "<i4", "<i8", "|b1"}

#: The big per-epoch columns: whole directory arrays in v2, per-epoch
#: chunks (in this storage order) in v3.
_CHUNK_COLUMNS = ("index", "burst_region", "burst_write", "burst_length")

#: The directory arrays both versions store, in v3 storage order.
_META_ARRAYS = (
    "access_offsets",
    "burst_offsets",
    "epoch_access_starts",
    "epoch_burst_starts",
    "work",
    "locks",
)

#: Everything that can plausibly escape ``json``/``struct``/``zlib``/array
#: slicing on a damaged file.  Anything else is a programming error and
#: propagates.
_CORRUPTION_ERRORS = (
    ValueError,
    KeyError,
    TypeError,
    IndexError,
    EOFError,
    OSError,
    struct.error,
    zlib.error,
    json.JSONDecodeError,
    UnicodeDecodeError,
)


def _align_up(n: int) -> int:
    return -(-n // _ALIGN) * _ALIGN


# --------------------------------------------------------------------------
# Writers: one bundle framing, two column layouts
# --------------------------------------------------------------------------


def _meta_arrays(trace: Trace) -> dict[str, np.ndarray]:
    """The per-epoch tables both versions store uncompressed, in v3 order."""
    epochs = trace.epochs
    P = trace.nprocs

    def stack(parts: list[np.ndarray], width: int, dtype) -> np.ndarray:
        return np.stack(parts) if parts else np.zeros((0, width), dtype=dtype)

    def starts(ends: list) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(ends, dtype=np.int64)))

    return {
        "access_offsets": stack([e.offsets for e in epochs], P + 1, np.int64),
        "burst_offsets": stack([e.burst_offsets for e in epochs], P + 1, np.int64),
        "epoch_access_starts": starts([e.offsets[-1] for e in epochs]),
        "epoch_burst_starts": starts([e.burst_offsets[-1] for e in epochs]),
        "work": stack([e.work for e in epochs], P, np.float64),
        "locks": stack([e.lock_acquires for e in epochs], P, np.int64),
    }


def _directory(arrays: dict[str, np.ndarray]) -> tuple[dict[str, dict], int]:
    """The array directory, each array 64-byte aligned; and its end offset."""
    directory: dict[str, dict] = {}
    offset = 0
    for name, arr in arrays.items():
        offset = _align_up(offset)
        directory[name] = {
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "offset": offset,
        }
        offset += arr.nbytes
    return directory, offset


def _trace_fields(trace: Trace) -> dict:
    """The header fields that describe the trace itself."""
    return {
        "nprocs": trace.nprocs,
        "regions": [
            {"name": r.name, "num_objects": r.num_objects, "object_size": r.object_size}
            for r in trace.regions
        ],
        "labels": [e.label for e in trace.epochs],
    }


def _write_bundle(fh, header: dict, segments=()) -> None:
    """Write the preamble and JSON ``header``, then each ``(offset, data)``
    segment at its data-section offset, zero-padded in between.

    ``data`` is any contiguous buffer (an array, or chunk bytes); the data
    section starts at the first 64-byte boundary after the header.
    """
    hbytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    fh.write(_MAGIC + struct.pack("<Q", len(hbytes)) + hbytes)
    pos = _PREAMBLE + len(hbytes)
    written = pos - _align_up(pos)  # negative: the header's own padding
    for offset, data in segments:
        if offset > written:
            fh.write(b"\0" * (offset - written))
        fh.write(data)
        written = offset + memoryview(data).nbytes


def _write_packed(fh, trace: Trace) -> None:
    """Write the v2 bundle: every column whole, in the directory."""
    epochs = trace.epochs

    def cat(name: str, dtype) -> np.ndarray:
        parts = [getattr(e, name) for e in epochs]
        return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

    index = cat("index", np.int64)
    if index.size:
        info = np.iinfo(np.int32)
        if info.min <= int(index.min()) and int(index.max()) <= info.max:
            index = index.astype(np.int32)
    meta = _meta_arrays(trace)
    arrays = {
        "index": index,
        "access_offsets": meta.pop("access_offsets"),
        "burst_region": cat("burst_region", np.int64),
        "burst_write": cat("burst_write", np.bool_),
        "burst_length": cat("burst_length", np.int64),
        **meta,
    }
    directory, end = _directory(arrays)
    header = {
        "version": _FORMAT_VERSION,
        **_trace_fields(trace),
        "arrays": directory,
        "data_bytes": end,
    }
    _write_bundle(
        fh,
        header,
        [(directory[n]["offset"], np.ascontiguousarray(a)) for n, a in arrays.items()],
    )


def _codec_compress(codec: str):
    """The compress function for ``codec``, or a structured error."""
    if codec == "zlib":
        return lambda data: zlib.compress(data, 6)
    raise ConfigError(
        f"unknown trace compression {codec!r}"
        f" (choose from {', '.join(COMPRESSION_CODECS)})"
    )


def _codec_decompress(codec: str):
    if codec == "zlib":
        return zlib.decompress
    if codec == "lz4":
        # Not corruption: older builds could write lz4 bundles, and the
        # file is fine.  ConfigError propagates instead of triggering the
        # cache's quarantine-and-regenerate path.
        raise ConfigError(
            "trace file is lz4-compressed; this build reads only zlib"
            " bundles (re-save the trace with compression='zlib')"
        )
    raise TraceCorruptError(f"packed trace declares unknown codec {codec!r}")


def _narrow_int(arr: np.ndarray) -> np.ndarray:
    """Smallest signed-integer copy of ``arr`` that holds every value."""
    arr = np.asarray(arr, dtype=np.int64)
    if arr.size == 0:
        return arr.astype(np.int8)
    lo, hi = int(arr.min()), int(arr.max())
    for dt in (np.int8, np.int16, np.int32):
        info = np.iinfo(dt)
        if info.min <= lo and hi <= info.max:
            return arr.astype(dt)
    return arr


def _delta_encode(idx: np.ndarray) -> np.ndarray:
    """Consecutive differences with the first value in slot 0.

    The exact inverse is ``np.cumsum(deltas, dtype=np.int64)``.  Traversal
    index streams have small steps, so the deltas narrow to int8/int16
    where the raw indices need int32 — that, more than the entropy coder,
    is where the v3 size win comes from.
    """
    idx = np.asarray(idx, dtype=np.int64)
    d = np.empty(idx.shape[0], dtype=np.int64)
    if d.shape[0]:
        d[0] = idx[0]
        np.subtract(idx[1:], idx[:-1], out=d[1:])
    return d


def _chunk_payload(epoch, name: str) -> tuple[np.ndarray, dict]:
    """Stored (narrowed/encoded) array + extra header fields for one chunk."""
    col = getattr(epoch, name)
    if name == "index":
        return _narrow_int(_delta_encode(col)), {"delta": True}
    if name == "burst_write":
        return np.ascontiguousarray(col, dtype=np.bool_), {}
    return _narrow_int(col), {}


def _write_compressed(fh, trace: Trace, codec: str) -> None:
    """Write the v3 bundle: directory arrays, then per-epoch chunks."""
    compress = _codec_compress(codec)
    meta = _meta_arrays(trace)
    directory, end = _directory(meta)
    segments = [(directory[n]["offset"], np.ascontiguousarray(a)) for n, a in meta.items()]
    chunks: dict[str, list[dict]] = {name: [] for name in _CHUNK_COLUMNS}
    offset = _align_up(end)
    for e in trace.epochs:
        for name in _CHUNK_COLUMNS:
            stored, extra = _chunk_payload(e, name)
            raw = compress(np.ascontiguousarray(stored).tobytes())
            chunks[name].append(
                {
                    "offset": offset,
                    "nbytes": len(raw),
                    "dtype": stored.dtype.str,
                    "n": int(stored.shape[0]),
                    "crc": zlib.crc32(raw),
                    **extra,
                }
            )
            segments.append((offset, raw))
            offset += len(raw)
    header = {
        "version": _COMPRESSED_VERSION,
        "codec": codec,
        **_trace_fields(trace),
        "arrays": directory,
        "chunks": chunks,
        "data_bytes": offset,
    }
    _write_bundle(fh, header, segments)


def save_trace(trace: Trace, path, compression: str = "none") -> None:
    """Write ``trace`` to ``path`` as a packed bundle, atomically.

    The columns serialize without an intermediate copy.  The bytes go to
    a temporary sibling file which is fsynced and then ``os.replace``-d
    over ``path``: readers either see the old file or the complete new one,
    never a prefix.  File-like destinations are written directly (no
    atomicity to offer there).  By convention packed bundles use the
    ``.npt`` suffix, but no suffix is imposed.

    ``compression="none"`` (default) writes the mmap-friendly v2 bundle;
    ``"zlib"`` writes the chunked v3 bundle — roughly an order of
    magnitude smaller, loaded lazily per epoch.  Unknown codecs raise
    :class:`repro.errors.ConfigError`.
    """
    if compression not in COMPRESSION_CODECS:
        raise ConfigError(
            f"unknown trace compression {compression!r}"
            f" (choose from {', '.join(COMPRESSION_CODECS)})"
        )
    if compression == "none":
        writer = _write_packed
    else:
        _codec_compress(compression)  # fail fast on unavailable codecs
        writer = lambda fh, tr: _write_compressed(fh, tr, compression)  # noqa: E731
    if not isinstance(path, (str, os.PathLike)):
        writer(path, trace)
        return
    dest = os.fspath(path)
    dirpath = os.path.dirname(dest) or "."
    fd, tmp = tempfile.mkstemp(
        dir=dirpath, prefix=os.path.basename(dest) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            writer(fh, trace)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, dest)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


# --------------------------------------------------------------------------
# Reader
# --------------------------------------------------------------------------


def _bundle_bytes(path, mmap: bool) -> np.ndarray:
    """The whole bundle as a read-only ``uint8`` array.

    A file on disk is opened once: mapped when ``mmap`` (every loaded
    array is then a view of the one mapping), read into memory otherwise.
    A file-like source is read into memory.
    """
    if not isinstance(path, (str, os.PathLike)):
        return np.frombuffer(path.read(), dtype=np.uint8)
    with open(path, "rb") as fh:
        if mmap and os.fstat(fh.fileno()).st_size:
            return np.memmap(fh, dtype=np.uint8, mode="r")
        return np.frombuffer(fh.read(), dtype=np.uint8)


def _check_magic(head: bytes) -> None:
    """Reject anything that is not a packed bundle, before any parsing."""
    if head == _MAGIC:
        return
    kind = (
        "a zip archive (the .npz format is no longer read)"
        if head[:4] == b"PK\x03\x04"
        else "not a packed trace bundle"
    )
    raise TraceVersionError(
        f"unsupported trace file format: {kind}; supported formats are"
        f" .npt bundles of version {_FORMAT_VERSION} (uncompressed) and"
        f" {_COMPRESSED_VERSION} (compressed)"
    )


def _parse_packed_header(blob) -> tuple[dict, int]:
    """Parse and check the header after the magic; returns (header,
    data_start)."""
    if len(blob) < _PREAMBLE:
        raise TraceCorruptError("packed trace file shorter than its preamble")
    (hlen,) = struct.unpack_from("<Q", blob, len(_MAGIC))
    if hlen > len(blob) - _PREAMBLE:
        raise TraceCorruptError("packed trace header extends past end of file")
    header = json.loads(bytes(blob[_PREAMBLE : _PREAMBLE + hlen]).decode("utf-8"))
    if not isinstance(header, dict):
        raise TraceCorruptError("packed trace header is not a JSON object")
    version = header.get("version")
    if version not in (_FORMAT_VERSION, _COMPRESSED_VERSION):
        raise TraceVersionError(
            f"unsupported trace format version {version!r}"
            f" (expected {_FORMAT_VERSION} or {_COMPRESSED_VERSION})"
        )
    return header, _align_up(_PREAMBLE + hlen)


def _packed_array(header: dict, name: str, data: np.ndarray) -> np.ndarray:
    """One directory array as a view of the data section, bounds checked."""
    spec = header["arrays"][name]
    if str(spec["dtype"]) not in _ALLOWED_DTYPES:
        raise TraceCorruptError(f"packed trace array {name!r} has dtype {spec['dtype']!r}")
    dtype = np.dtype(str(spec["dtype"]))
    shape = tuple(int(s) for s in spec["shape"])
    if any(s < 0 for s in shape):
        raise TraceCorruptError(f"packed trace array {name!r} has negative shape")
    offset = int(spec["offset"])
    end = offset + int(np.prod(shape)) * dtype.itemsize
    if offset < 0 or end > data.shape[0]:
        raise TraceCorruptError(f"packed trace array {name!r} extends past end of file")
    return data[offset:end].view(dtype).reshape(shape)


class _ChunkStore:
    """Lazy, LRU-bounded decoder of a v3 bundle's compressed chunks.

    One store is shared by every epoch of a :class:`LazyTrace`.
    ``epoch(ei)`` decodes that epoch's four column chunks — a slice of the
    bundle bytes, CRC-32 verification, decompress, decode (cumsum for the
    delta-encoded index) — and hands them to the assembler's ``build``,
    which returns the plain :class:`PackedEpoch` after its content check.
    The result is cached, evicting least-recently-used epochs past
    ``max_epochs`` so a long replay holds a handful of epochs in memory,
    not the whole trace.
    """

    def __init__(self, codec: str, chunks: dict, data: np.ndarray, build,
                 max_epochs: int = 64):
        self._decompress = _codec_decompress(codec)
        self._chunks = chunks
        self._data = data
        self._build = build
        self._cache: OrderedDict[int, PackedEpoch] = OrderedDict()
        self.max_epochs = max_epochs
        self.decodes = 0
        self.hits = 0

    def _read(self, column: str, ei: int) -> np.ndarray:
        """A chunk's compressed bytes, CRC-32 checked."""
        spec = self._chunks[column][ei]
        offset = int(spec["offset"])
        raw = self._data[offset : offset + int(spec["nbytes"])]
        if zlib.crc32(raw) != int(spec["crc"]):
            raise TraceCorruptError(
                f"packed trace chunk {column}[{ei}] failed its checksum"
            )
        return raw

    def verify_crcs(self) -> None:
        """Check every chunk's CRC-32 against its directory entry.

        Reads only the *compressed* bytes — no decompression, no caching —
        so this is one cheap sequential pass over the payload.  Run by
        ``load_trace(validate=True)`` so in-chunk damage fails at load
        (where :class:`repro.runtime.cache.TraceCache` can quarantine the
        entry) instead of surfacing mid-replay.
        """
        for column in _CHUNK_COLUMNS:
            for ei in range(len(self._chunks[column])):
                self._read(column, ei)

    def _decode(self, column: str, ei: int) -> np.ndarray:
        spec = self._chunks[column][ei]
        try:
            data = self._decompress(self._read(column, ei))
        except _CORRUPTION_ERRORS as exc:
            raise TraceCorruptError(
                f"packed trace chunk {column}[{ei}] does not decompress:"
                f" {exc}"
            ) from exc
        dtype = np.dtype(str(spec["dtype"]))
        n = int(spec["n"])
        if len(data) != n * dtype.itemsize:
            raise TraceCorruptError(
                f"packed trace chunk {column}[{ei}] has wrong decoded size"
            )
        arr = np.frombuffer(data, dtype=dtype, count=n)
        if spec.get("delta"):
            return np.cumsum(arr, dtype=np.int64)
        if dtype.kind == "i" and dtype.itemsize < 8:
            # Burst columns are tiny; widen to the in-memory convention so
            # every consumer sees exactly what a v2 load would hand it.
            return arr.astype(np.int64)
        return arr

    def epoch(self, ei: int) -> PackedEpoch:
        """Epoch ``ei`` with its columns decoded and content-checked."""
        epoch = self._cache.get(ei)
        if epoch is not None:
            self._cache.move_to_end(ei)
            self.hits += 1
            return epoch
        epoch = self._build(ei, {c: self._decode(c, ei) for c in _CHUNK_COLUMNS})
        self.decodes += 1
        self._cache[ei] = epoch
        while len(self._cache) > self.max_epochs:
            self._cache.popitem(last=False)
        return epoch


class LazyPackedEpoch(PackedEpoch):
    """A :class:`PackedEpoch` whose big columns decode from chunks on use.

    The ``index`` and burst columns are properties backed by the trace's
    shared :class:`_ChunkStore`; everything else (offset tables, work,
    locks) is eager.  The properties shadow the parent's slot descriptors,
    so this class must not assign those attributes — hence its own
    ``__init__``.
    """

    __slots__ = ("_store", "_ei")

    def __init__(
        self,
        nprocs: int,
        label: str,
        offsets: np.ndarray,
        burst_offsets: np.ndarray,
        work: np.ndarray,
        lock_acquires: np.ndarray,
        store: _ChunkStore,
        ei: int,
    ):
        if nprocs <= 0:
            raise ValueError("nprocs must be positive")
        self.nprocs = nprocs
        self.label = label
        self.offsets = offsets
        self.burst_offsets = burst_offsets
        self.work = work
        self.lock_acquires = lock_acquires
        self._region = None
        self._is_write = None
        self._store = store
        self._ei = ei

    @property
    def index(self) -> np.ndarray:
        return self._store.epoch(self._ei).index

    @property
    def burst_region(self) -> np.ndarray:
        return self._store.epoch(self._ei).burst_region

    @property
    def burst_write(self) -> np.ndarray:
        return self._store.epoch(self._ei).burst_write

    @property
    def burst_length(self) -> np.ndarray:
        return self._store.epoch(self._ei).burst_length


class LazyTrace(Trace):
    """A v3 (compressed) trace; epochs decode their chunks on demand.

    The chunk store keeps the last 64 decompressed epochs (LRU), and the
    simulators never cache their consistency-unit decodes, so a lazy
    replay holds a bounded number of epochs in memory.
    """

    def __init__(self, nprocs: int, store: _ChunkStore):
        super().__init__(nprocs=nprocs)
        self.chunk_store = store


def _assemble(header: dict, data: np.ndarray) -> Trace:
    """Build the trace a parsed bundle describes over its data section.

    Checks the label list, the directory arrays' shapes, that work is
    finite and non-negative and lock counts non-negative, the epoch-start
    tiling and every column's (v2) or chunk's (v3) extent, then builds
    the regions and epochs.  v2 epochs are plain :class:`PackedEpoch`
    views of the stored columns; v3 epochs are :class:`LazyPackedEpoch`
    placeholders whose columns decode through a :class:`_ChunkStore`,
    which runs each epoch's content check as it decodes.
    """
    nprocs = int(header["nprocs"])
    labels = header["labels"]
    if not isinstance(labels, list):
        raise TraceCorruptError("packed trace header has no epoch label list")
    E = len(labels)
    access_offsets, burst_offsets, eas, ebs, work, locks = (
        _packed_array(header, name, data) for name in _META_ARRAYS
    )
    if access_offsets.shape != (E, nprocs + 1) or burst_offsets.shape != (E, nprocs + 1):
        raise TraceCorruptError("packed trace offset tables have wrong shape")
    if work.shape != (E, nprocs) or locks.shape != (E, nprocs):
        raise TraceCorruptError("packed trace work/lock tables have wrong shape")
    # No checksum covers these tables, and a bad entry would only skew the
    # simulated time or message counts.
    if not (np.isfinite(work) & (work >= 0)).all() or (locks < 0).any():
        raise TraceCorruptError(
            "packed trace work/lock tables hold negative or non-finite entries"
        )
    for name, starts in (("epoch_access_starts", eas), ("epoch_burst_starts", ebs)):
        if starts.shape != (E + 1,):
            raise TraceCorruptError(f"packed trace {name} has wrong shape")
        if starts[0] != 0 or (np.diff(starts) < 0).any():
            raise TraceCorruptError(f"packed trace {name} do not tile the columns")
    column_starts = dict(zip(_CHUNK_COLUMNS, (eas, ebs, ebs, ebs)))
    regions = [
        RegionSpec(str(r["name"]), int(r["num_objects"]), int(r["object_size"]))
        for r in header["regions"]
    ]

    def build(ei: int, columns: dict[str, np.ndarray]) -> PackedEpoch:
        return PackedEpoch(
            nprocs=nprocs,
            label=str(labels[ei]),
            offsets=access_offsets[ei],
            burst_offsets=burst_offsets[ei],
            work=work[ei],
            lock_acquires=locks[ei],
            **columns,
        )

    if header["version"] == _FORMAT_VERSION:
        # ``index`` stays at its stored width: widening would add a
        # full-column copy and break the cross-process page sharing of the
        # parallel replay workers.
        columns = {name: _packed_array(header, name, data) for name in _CHUNK_COLUMNS}
        for name, col in columns.items():
            if col.shape != (int(column_starts[name][-1]),):
                raise TraceCorruptError(
                    f"packed trace epoch starts do not tile column {name!r}"
                )
        trace = Trace(nprocs=nprocs, regions=regions)
        for ei in range(E):
            trace.epochs.append(build(ei, {
                name: col[int(column_starts[name][ei]) : int(column_starts[name][ei + 1])]
                for name, col in columns.items()
            }))
        return trace

    chunks = header.get("chunks")
    if not isinstance(chunks, dict):
        raise TraceCorruptError("compressed trace header has no chunk directory")
    for name, starts in column_starts.items():
        specs = chunks.get(name)
        if not isinstance(specs, list) or len(specs) != E:
            raise TraceCorruptError(
                f"compressed trace chunk column {name!r} does not cover the epochs"
            )
        for ei, spec in enumerate(specs):
            if str(spec["dtype"]) not in _CHUNK_DTYPES:
                raise TraceCorruptError(
                    f"compressed trace chunk {name}[{ei}] has dtype"
                    f" {spec['dtype']!r}"
                )
            offset = int(spec["offset"])
            nbytes = int(spec["nbytes"])
            if offset < 0 or nbytes < 0 or offset + nbytes > data.shape[0]:
                raise TraceCorruptError(
                    f"compressed trace chunk {name}[{ei}] extends past end of file"
                )
            if int(spec["n"]) != int(starts[ei + 1] - starts[ei]):
                raise TraceCorruptError(
                    f"compressed trace chunk {name}[{ei}] does not tile its column"
                )

    def checked(ei: int, columns: dict[str, np.ndarray]) -> PackedEpoch:
        epoch = build(ei, columns)
        try:
            epoch.check(regions)
        except ValueError as exc:
            raise TraceCorruptError(f"packed trace epoch {ei} is corrupt: {exc}") from exc
        return epoch

    store = _ChunkStore(str(header.get("codec", "")), chunks, data, checked)
    trace = LazyTrace(nprocs=nprocs, store=store)
    trace.regions = regions
    for ei in range(E):
        trace.epochs.append(
            LazyPackedEpoch(
                nprocs=nprocs,
                label=str(labels[ei]),
                offsets=access_offsets[ei],
                burst_offsets=burst_offsets[ei],
                work=work[ei],
                lock_acquires=locks[ei],
                store=store,
                ei=ei,
            )
        )
    return trace


def load_trace(path, mmap: bool = True, validate: bool = True) -> Trace:
    """Read a trace written by :func:`save_trace`.

    ``path`` is a file name or a readable binary file object.  A file on
    disk is opened once, and with ``mmap=True`` mapped rather than read.
    Both format versions get the same structural checks at load (header,
    directory shapes, epoch-start tiling, column or chunk extents).

    * v2 bundles load as a plain :class:`Trace` of zero-copy views of the
      stored columns.  ``validate=True`` adds the content check
      (:meth:`Trace.validate`: region and index ranges) over every epoch.
    * v3 (compressed) bundles load as a :class:`LazyTrace`.
      ``validate=True`` adds a CRC pass over the compressed chunk bytes
      (cheap — no decompression), so a damaged bundle fails here (and the
      trace cache quarantines it) rather than mid-replay.  The content
      check runs on each epoch as its chunks decode, whatever
      ``validate`` says, and raises :class:`repro.errors.TraceCorruptError`
      from the access that triggered the decode.

    Raises :class:`repro.errors.TraceCorruptError` if the file cannot be
    parsed back into a valid trace (truncated file, garbled bytes, bad
    header, out-of-range indices...), and its subclass
    :class:`repro.errors.TraceVersionError` on a format-version mismatch or
    a file without the bundle magic (a legacy ``.npz`` archive, say).
    A missing file still raises ``FileNotFoundError``; an lz4 bundle
    (which older builds could write) raises
    :class:`repro.errors.ConfigError`.
    """
    try:
        buf = _bundle_bytes(path, mmap)
        _check_magic(bytes(buf[: len(_MAGIC)]))
        header, data_start = _parse_packed_header(buf)
        trace = _assemble(header, buf[data_start:])
        if validate:
            if isinstance(trace, LazyTrace):
                trace.chunk_store.verify_crcs()
            else:
                trace.validate()
        return trace
    except (TraceCorruptError, ConfigError, FileNotFoundError):
        raise
    except _CORRUPTION_ERRORS as exc:
        raise TraceCorruptError(
            f"trace file {os.fspath(path) if isinstance(path, (str, os.PathLike)) else path!r}"
            f" is corrupt or unreadable: {type(exc).__name__}: {exc}"
        ) from exc
