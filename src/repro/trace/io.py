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

Packed format (version 2, the default)
--------------------------------------
A single raw binary bundle designed for ``np.memmap``::

    8 bytes   magic  b"REPROTRC"
    8 bytes   header length (little-endian uint64)
    N bytes   JSON header: version, nprocs, regions, epoch labels, and an
              array directory {name: {dtype, shape, offset}} with offsets
              relative to the 64-byte-aligned data section
    ...       raw C-order array bytes, each segment 64-byte aligned

The arrays are the :class:`repro.trace.events.PackedEpoch` columns
concatenated across epochs (offset tables, burst columns, work/lock
matrices), minus two deliberate omissions that keep the bundle small —
writing bytes is the dominant save cost:

* the expanded per-access ``region`` and ``is_write`` columns are *not*
  stored; they are exactly ``np.repeat(burst_region, burst_length)`` /
  ``np.repeat(burst_write, burst_length)`` and are rebuilt in one pass at
  load time;
* the access ``index`` column is stored at the narrowest safe integer
  width (``int32`` whenever every index fits, which object indices always
  do in practice) and widened back to ``int64`` on load.

Loading with ``mmap=True`` (the default for on-disk files) maps each
stored segment with ``np.memmap``: no decompression, no per-burst object
construction.  Columns stored at their in-memory width — including the
narrowed ``index`` — are zero-copy views into the mapping, faulted in
lazily as the simulators touch them (the decode arithmetic upcasts
element-wise, so the narrow column is never widened into a copy).

Compressed format (version 3)
-----------------------------
``save_trace(..., compression="zlib"|"lz4")`` writes the same preamble and
JSON header but stores the big columns as **per-epoch compressed chunks**:
the ``index`` column is delta-encoded (consecutive differences, which are
small for coherent traversals) and narrowed to the smallest integer dtype
before compression; the per-burst columns are narrowed likewise.  Each
chunk records its byte extent, element count, and a CRC-32.  Loading a v3
file builds a :class:`LazyTrace` whose epochs decode chunks on
demand through an LRU-bounded :class:`_ChunkStore` — replay touches one
epoch at a time, so peak memory is a handful of epochs, not the trace.
Chunk *bounds* are verified against the file size at load (truncation is
caught immediately, feeding the cache's quarantine path); CRCs are
verified at decode time.  Uncompressed files keep the v2 mmap fast path,
and v2 files remain readable forever.

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

try:  # optional codec; the container may not ship it
    import lz4.frame as _lz4  # type: ignore[import-not-found]
except ImportError:  # pragma: no cover - environment-dependent
    _lz4 = None

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
_ALIGN = 64
#: Canonical file suffix for packed trace bundles.
TRACE_SUFFIX = ".npt"

#: Accepted values for ``save_trace``'s ``compression`` knob.
COMPRESSION_CODECS = ("none", "zlib", "lz4")

#: dtypes a packed bundle may declare; anything else is corruption.
_ALLOWED_DTYPES = {
    "<i8": np.int64,
    "<i4": np.int32,
    "|b1": np.bool_,
    "<f8": np.float64,
}

#: dtypes a v3 chunk may declare (narrowed integers + booleans).
_CHUNK_DTYPES = {"|i1", "<i2", "<i4", "<i8", "|b1"}

#: The per-epoch chunked columns of a v3 bundle, in storage order.
_CHUNK_COLUMNS = ("index", "burst_region", "burst_write", "burst_length")

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
# Packed (version 2) writer
# --------------------------------------------------------------------------


def _pack_arrays(trace: Trace) -> dict[str, np.ndarray]:
    """Concatenate the per-epoch columns into the bundle's array set."""
    epochs = trace.epochs
    E = len(epochs)
    P = trace.nprocs

    def cat(parts: list[np.ndarray], dtype) -> np.ndarray:
        return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

    def stack(parts: list[np.ndarray], width: int, dtype) -> np.ndarray:
        return np.stack(parts) if parts else np.zeros((0, width), dtype=dtype)

    epoch_access_starts = np.zeros(E + 1, dtype=np.int64)
    epoch_burst_starts = np.zeros(E + 1, dtype=np.int64)
    for ei, e in enumerate(epochs):
        epoch_access_starts[ei + 1] = epoch_access_starts[ei] + e.offsets[-1]
        epoch_burst_starts[ei + 1] = epoch_burst_starts[ei] + e.burst_offsets[-1]

    index = cat([e.index for e in epochs], np.int64)
    if index.size:
        info = np.iinfo(np.int32)
        lo, hi = int(index.min()), int(index.max())
        if info.min <= lo and hi <= info.max:
            index = index.astype(np.int32)

    return {
        "index": index,
        "access_offsets": stack([e.offsets for e in epochs], P + 1, np.int64),
        "burst_region": cat([e.burst_region for e in epochs], np.int64),
        "burst_write": cat([e.burst_write for e in epochs], np.bool_),
        "burst_length": cat([e.burst_length for e in epochs], np.int64),
        "burst_offsets": stack([e.burst_offsets for e in epochs], P + 1, np.int64),
        "epoch_access_starts": epoch_access_starts,
        "epoch_burst_starts": epoch_burst_starts,
        "work": stack([e.work for e in epochs], P, np.float64),
        "locks": stack([e.lock_acquires for e in epochs], P, np.int64),
    }


def _write_packed(fh, trace: Trace) -> None:
    arrays = _pack_arrays(trace)
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
    header = {
        "version": _FORMAT_VERSION,
        "nprocs": trace.nprocs,
        "regions": [
            {"name": r.name, "num_objects": r.num_objects, "object_size": r.object_size}
            for r in trace.regions
        ],
        "labels": [e.label for e in trace.epochs],
        "arrays": directory,
        "data_bytes": offset,
    }
    hbytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    fh.write(_MAGIC)
    fh.write(struct.pack("<Q", len(hbytes)))
    fh.write(hbytes)
    pos = len(_MAGIC) + 8 + len(hbytes)
    fh.write(b"\0" * (_align_up(pos) - pos))
    written = 0
    for name, arr in arrays.items():
        pad = directory[name]["offset"] - written
        if pad:
            fh.write(b"\0" * pad)
            written += pad
        data = np.ascontiguousarray(arr).tobytes()
        fh.write(data)
        written += len(data)


# --------------------------------------------------------------------------
# Compressed chunked (version 3) writer
# --------------------------------------------------------------------------


def _codec_compress(codec: str):
    """The compress function for ``codec``, or a structured error."""
    if codec == "zlib":
        return lambda data: zlib.compress(data, 6)
    if codec == "lz4":
        if _lz4 is None:
            raise ConfigError(
                "trace compression 'lz4' requires the lz4 package, which is"
                " not installed; use 'zlib' or 'none'"
            )
        return _lz4.compress
    raise ConfigError(
        f"unknown trace compression {codec!r}"
        f" (choose from {', '.join(COMPRESSION_CODECS)})"
    )


def _codec_decompress(codec: str):
    if codec == "zlib":
        return zlib.decompress
    if codec == "lz4":
        if _lz4 is None:
            # Not corruption: the file is fine, this environment cannot
            # read it.  ConfigError propagates instead of triggering the
            # cache's quarantine-and-regenerate path.
            raise ConfigError(
                "trace file is lz4-compressed but the lz4 package is not"
                " installed"
            )
        return _lz4.decompress
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
    """Write the v3 bundle: uncompressed meta arrays + per-epoch chunks."""
    compress = _codec_compress(codec)
    epochs = trace.epochs
    E = len(epochs)
    P = trace.nprocs

    def stack(parts: list[np.ndarray], width: int, dtype) -> np.ndarray:
        return np.stack(parts) if parts else np.zeros((0, width), dtype=dtype)

    epoch_access_starts = np.zeros(E + 1, dtype=np.int64)
    epoch_burst_starts = np.zeros(E + 1, dtype=np.int64)
    for ei, e in enumerate(epochs):
        epoch_access_starts[ei + 1] = epoch_access_starts[ei] + e.offsets[-1]
        epoch_burst_starts[ei + 1] = epoch_burst_starts[ei] + e.burst_offsets[-1]
    meta_arrays = {
        "access_offsets": stack([e.offsets for e in epochs], P + 1, np.int64),
        "burst_offsets": stack([e.burst_offsets for e in epochs], P + 1, np.int64),
        "epoch_access_starts": epoch_access_starts,
        "epoch_burst_starts": epoch_burst_starts,
        "work": stack([e.work for e in epochs], P, np.float64),
        "locks": stack([e.lock_acquires for e in epochs], P, np.int64),
    }
    directory: dict[str, dict] = {}
    offset = 0
    for name, arr in meta_arrays.items():
        offset = _align_up(offset)
        directory[name] = {
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "offset": offset,
        }
        offset += arr.nbytes

    chunks: dict[str, list[dict]] = {name: [] for name in _CHUNK_COLUMNS}
    payloads: list[tuple[int, bytes]] = []
    offset = _align_up(offset)
    for e in epochs:
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
            payloads.append((offset, raw))
            offset += len(raw)

    header = {
        "version": _COMPRESSED_VERSION,
        "codec": codec,
        "nprocs": P,
        "regions": [
            {"name": r.name, "num_objects": r.num_objects, "object_size": r.object_size}
            for r in trace.regions
        ],
        "labels": [e.label for e in epochs],
        "arrays": directory,
        "chunks": chunks,
        "data_bytes": offset,
    }
    hbytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    fh.write(_MAGIC)
    fh.write(struct.pack("<Q", len(hbytes)))
    fh.write(hbytes)
    pos = len(_MAGIC) + 8 + len(hbytes)
    fh.write(b"\0" * (_align_up(pos) - pos))
    written = 0
    for name, arr in meta_arrays.items():
        pad = directory[name]["offset"] - written
        if pad:
            fh.write(b"\0" * pad)
            written += pad
        data = np.ascontiguousarray(arr).tobytes()
        fh.write(data)
        written += len(data)
    for chunk_offset, raw in payloads:
        pad = chunk_offset - written
        if pad:
            fh.write(b"\0" * pad)
            written += pad
        fh.write(raw)
        written += len(raw)


def save_trace(trace: Trace, path, compression: str = "none") -> None:
    """Write ``trace`` to ``path`` as a packed bundle, atomically.

    The columns serialize without an intermediate copy.  The bytes go to
    a temporary sibling file which is fsynced and then ``os.replace``-d
    over ``path``: readers either see the old file or the complete new one,
    never a prefix.  File-like destinations are written directly (no
    atomicity to offer there).  By convention packed bundles use the
    ``.npt`` suffix, but no suffix is imposed.

    ``compression="none"`` (default) writes the mmap-friendly v2 bundle;
    ``"zlib"`` (always available) or ``"lz4"`` (if the package is
    installed) writes the chunked v3 bundle — roughly an order of
    magnitude smaller, loaded lazily per epoch.  Unknown or unavailable
    codecs raise :class:`repro.errors.ConfigError`.
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
# Packed (version 2) reader
# --------------------------------------------------------------------------


def _parse_packed_header(blob: bytes) -> tuple[dict, int]:
    """Validate magic + header; returns (header, data_start)."""
    if len(blob) < len(_MAGIC) + 8:
        raise TraceCorruptError("packed trace file shorter than its preamble")
    (hlen,) = struct.unpack_from("<Q", blob, len(_MAGIC))
    start = len(_MAGIC) + 8
    if hlen > len(blob) - start:
        raise TraceCorruptError("packed trace header extends past end of file")
    header = json.loads(blob[start : start + hlen].decode("utf-8"))
    if not isinstance(header, dict):
        raise TraceCorruptError("packed trace header is not a JSON object")
    version = header.get("version")
    if version not in (_FORMAT_VERSION, _COMPRESSED_VERSION):
        raise TraceVersionError(
            f"unsupported trace format version {version!r}"
            f" (expected {_FORMAT_VERSION} or {_COMPRESSED_VERSION})"
        )
    return header, _align_up(start + hlen)


def _packed_array(header: dict, name: str, getter, file_bytes: int, data_start: int):
    """One array from the bundle directory, shape/dtype/bounds checked."""
    spec = header["arrays"][name]
    dtype = np.dtype(str(spec["dtype"]))
    if str(spec["dtype"]) not in _ALLOWED_DTYPES:
        raise TraceCorruptError(f"packed trace array {name!r} has dtype {spec['dtype']!r}")
    shape = tuple(int(s) for s in spec["shape"])
    if any(s < 0 for s in shape):
        raise TraceCorruptError(f"packed trace array {name!r} has negative shape")
    count = int(np.prod(shape)) if shape else 1
    offset = int(spec["offset"])
    if offset < 0 or data_start + offset + count * dtype.itemsize > file_bytes:
        raise TraceCorruptError(f"packed trace array {name!r} extends past end of file")
    if count == 0:
        return np.empty(shape, dtype=dtype)
    return getter(dtype, shape, data_start + offset, count)


def _assemble_packed(header: dict, fetch) -> Trace:
    """Build a :class:`Trace` of views over the fetched arrays."""
    nprocs = int(header["nprocs"])
    labels = header["labels"]
    if not isinstance(labels, list):
        raise TraceCorruptError("packed trace header has no epoch label list")
    E = len(labels)

    # ``index`` stays at its stored width (int32 in practice): the decode
    # arithmetic upcasts element-wise, so widening here would only add a
    # full-column copy — and break cross-process page sharing for the
    # parallel replay workers, which rely on every worker mapping the same
    # read-only file pages.
    index = fetch("index")
    access_offsets = fetch("access_offsets")
    burst_region = fetch("burst_region")
    burst_write = fetch("burst_write")
    burst_length = fetch("burst_length")
    burst_offsets = fetch("burst_offsets")
    eas = fetch("epoch_access_starts")
    ebs = fetch("epoch_burst_starts")
    work = fetch("work")
    locks = fetch("locks")

    if access_offsets.shape != (E, nprocs + 1) or burst_offsets.shape != (E, nprocs + 1):
        raise TraceCorruptError("packed trace offset tables have wrong shape")
    # The per-access region/write columns are not stored; PackedEpoch
    # derives them lazily from the burst metadata on first use (each
    # burst's attributes repeated over its length), so only their
    # consistency is checked here.
    blen = np.asarray(burst_length, dtype=np.int64)
    if blen.size and int(blen.min()) < 0:
        raise TraceCorruptError("packed trace has negative burst lengths")
    if int(blen.sum()) != index.shape[0]:
        raise TraceCorruptError(
            "packed trace burst lengths do not tile the access columns"
        )
    if work.shape != (E, nprocs) or locks.shape != (E, nprocs):
        raise TraceCorruptError("packed trace work/lock tables have wrong shape")
    for name, starts, col in (
        ("epoch_access_starts", eas, index),
        ("epoch_burst_starts", ebs, burst_region),
    ):
        if starts.shape != (E + 1,):
            raise TraceCorruptError(f"packed trace {name} has wrong shape")
        if E >= 0 and (
            (starts.shape[0] and starts[0] != 0)
            or (np.diff(starts) < 0).any()
            or (starts.shape[0] and int(starts[-1]) != col.shape[0])
        ):
            raise TraceCorruptError(f"packed trace {name} do not tile the columns")

    trace = Trace(nprocs=nprocs)
    for r in header["regions"]:
        trace.regions.append(
            RegionSpec(str(r["name"]), int(r["num_objects"]), int(r["object_size"]))
        )
    for ei in range(E):
        lo, hi = int(eas[ei]), int(eas[ei + 1])
        blo, bhi = int(ebs[ei]), int(ebs[ei + 1])
        trace.epochs.append(
            PackedEpoch(
                nprocs=nprocs,
                label=str(labels[ei]),
                offsets=access_offsets[ei],
                index=index[lo:hi],
                burst_offsets=burst_offsets[ei],
                burst_region=burst_region[blo:bhi],
                burst_write=burst_write[blo:bhi],
                burst_length=burst_length[blo:bhi],
                work=work[ei],
                lock_acquires=locks[ei],
            )
        )
    return trace


def _load_packed_path(path: str, mmap: bool) -> Trace:
    file_bytes = os.path.getsize(path)
    with open(path, "rb") as fh:
        preamble = fh.read(len(_MAGIC) + 8)
        if len(preamble) < len(_MAGIC) + 8:
            raise TraceCorruptError("packed trace file shorter than its preamble")
        (hlen,) = struct.unpack_from("<Q", preamble, len(_MAGIC))
        if hlen > file_bytes:
            raise TraceCorruptError("packed trace header extends past end of file")
        blob = preamble + fh.read(hlen)
    header, data_start = _parse_packed_header(blob)
    if header["version"] == _COMPRESSED_VERSION:
        return _assemble_compressed(header, data_start, file_bytes, path=path)

    if mmap:
        def getter(dtype, shape, abs_offset, count):
            return np.memmap(path, dtype=dtype, mode="r", offset=abs_offset, shape=shape)
    else:
        def getter(dtype, shape, abs_offset, count):
            with open(path, "rb") as fh:
                fh.seek(abs_offset)
                arr = np.fromfile(fh, dtype=dtype, count=count)
            if arr.shape[0] != count:
                raise TraceCorruptError("packed trace array truncated")
            return arr.reshape(shape)

    fetch = lambda name: _packed_array(header, name, getter, file_bytes, data_start)  # noqa: E731
    return _assemble_packed(header, fetch)


def _load_packed_buffer(blob: bytes) -> Trace:
    header, data_start = _parse_packed_header(blob)
    if header["version"] == _COMPRESSED_VERSION:
        return _assemble_compressed(header, data_start, len(blob), blob=blob)

    def getter(dtype, shape, abs_offset, count):
        return np.frombuffer(blob, dtype=dtype, count=count, offset=abs_offset).reshape(
            shape
        )

    fetch = lambda name: _packed_array(header, name, getter, len(blob), data_start)  # noqa: E731
    return _assemble_packed(header, fetch)


# --------------------------------------------------------------------------
# Compressed chunked (version 3) reader
# --------------------------------------------------------------------------


class _ChunkStore:
    """Lazy, LRU-bounded reader of a v3 bundle's compressed column chunks.

    One store is shared by every epoch of a :class:`LazyTrace`.
    ``get(column, epoch)`` decompresses on demand — a positioned read of
    the chunk's byte extent, CRC-32 verification, decompress, decode
    (cumsum for the delta-encoded index) — and caches the result, evicting
    least-recently-used chunks past ``max_chunks`` so a long replay holds
    a handful of epochs in memory, not the whole trace.  File reads open
    the path per call (no shared seek position), which keeps the store
    safe to use from forked worker processes.
    """

    def __init__(
        self,
        codec: str,
        chunks: dict[str, list[dict]],
        data_start: int,
        *,
        path: str | None = None,
        blob: bytes | None = None,
        max_chunks: int = 256,
    ):
        self._decompress = _codec_decompress(codec)
        self._chunks = chunks
        self._data_start = data_start
        self._path = path
        self._blob = blob
        self._cache: OrderedDict[tuple[str, int], np.ndarray] = OrderedDict()
        self.max_chunks = max_chunks
        self.decodes = 0
        self.hits = 0

    def _read(self, offset: int, nbytes: int) -> bytes:
        abs_off = self._data_start + offset
        if self._blob is not None:
            return self._blob[abs_off : abs_off + nbytes]
        with open(self._path, "rb") as fh:
            fh.seek(abs_off)
            data = fh.read(nbytes)
        if len(data) != nbytes:
            raise TraceCorruptError("packed trace chunk truncated")
        return data

    def verify_crcs(self) -> None:
        """Check every chunk's CRC-32 against its directory entry.

        Reads only the *compressed* bytes — no decompression, no caching —
        so this is one cheap sequential pass over the payload.  Run by
        ``load_trace(validate=True)`` so in-chunk damage fails at load
        (where :class:`repro.runtime.cache.TraceCache` can quarantine the
        entry) instead of surfacing mid-replay.
        """
        fh = open(self._path, "rb") if self._blob is None else None
        try:
            for column, specs in self._chunks.items():
                for ei, spec in enumerate(specs):
                    nbytes = int(spec["nbytes"])
                    abs_off = self._data_start + int(spec["offset"])
                    if fh is not None:
                        fh.seek(abs_off)
                        raw = fh.read(nbytes)
                        if len(raw) != nbytes:
                            raise TraceCorruptError(
                                f"packed trace chunk {column}[{ei}] truncated"
                            )
                    else:
                        raw = self._blob[abs_off : abs_off + nbytes]
                    if zlib.crc32(raw) != int(spec["crc"]):
                        raise TraceCorruptError(
                            f"packed trace chunk {column}[{ei}] failed its"
                            " checksum"
                        )
        finally:
            if fh is not None:
                fh.close()

    def get(self, column: str, epoch: int) -> np.ndarray:
        key = (column, epoch)
        arr = self._cache.get(key)
        if arr is not None:
            self._cache.move_to_end(key)
            self.hits += 1
            return arr
        spec = self._chunks[column][epoch]
        raw = self._read(int(spec["offset"]), int(spec["nbytes"]))
        if zlib.crc32(raw) != int(spec["crc"]):
            raise TraceCorruptError(
                f"packed trace chunk {column}[{epoch}] failed its checksum"
            )
        try:
            data = self._decompress(raw)
        except _CORRUPTION_ERRORS as exc:
            raise TraceCorruptError(
                f"packed trace chunk {column}[{epoch}] does not decompress:"
                f" {exc}"
            ) from exc
        dtype = np.dtype(str(spec["dtype"]))
        n = int(spec["n"])
        if len(data) != n * dtype.itemsize:
            raise TraceCorruptError(
                f"packed trace chunk {column}[{epoch}] has wrong decoded size"
            )
        arr = np.frombuffer(data, dtype=dtype, count=n)
        if spec.get("delta"):
            arr = np.cumsum(arr, dtype=np.int64)
        elif dtype.kind == "i" and dtype.itemsize < 8:
            # Burst columns are tiny; widen to the in-memory convention so
            # every consumer sees exactly what a v2 load would hand it.
            arr = arr.astype(np.int64)
        self.decodes += 1
        self._cache[key] = arr
        while len(self._cache) > self.max_chunks:
            self._cache.popitem(last=False)
        return arr


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
        return self._store.get("index", self._ei)

    @property
    def burst_region(self) -> np.ndarray:
        return self._store.get("burst_region", self._ei)

    @property
    def burst_write(self) -> np.ndarray:
        return self._store.get("burst_write", self._ei)

    @property
    def burst_length(self) -> np.ndarray:
        return self._store.get("burst_length", self._ei)


class LazyTrace(Trace):
    """A v3 (compressed) trace; epochs decode their chunks on demand.

    Decoded consistency-unit streams are still memoized per trace, but
    with an LRU bound (``decode_memo_max_epochs``) so lazy replay keeps
    its bounded-memory property instead of re-accumulating every epoch in
    the :class:`repro.trace.layout.DecodeMemo`.
    """

    #: picked up by :func:`repro.trace.layout.decode_memo`
    decode_memo_max_epochs = 64

    def __init__(self, nprocs: int, store: _ChunkStore):
        super().__init__(nprocs=nprocs)
        self.chunk_store = store


def _assemble_compressed(
    header: dict,
    data_start: int,
    file_bytes: int,
    *,
    path: str | None = None,
    blob: bytes | None = None,
) -> LazyTrace:
    """Build a :class:`LazyTrace` over a v3 bundle.

    Meta arrays (offset tables, work/locks) load eagerly and are checked
    structurally exactly like v2; every chunk's byte extent is verified
    against the file size here — a truncated file fails the load
    immediately (feeding the cache quarantine path) rather than failing
    mid-replay.  CRC/content checks run lazily at chunk decode; callers
    wanting eager damage detection use ``load_trace(validate=True)``,
    which adds a :meth:`_ChunkStore.verify_crcs` pass.
    """
    nprocs = int(header["nprocs"])
    labels = header["labels"]
    if not isinstance(labels, list):
        raise TraceCorruptError("packed trace header has no epoch label list")
    E = len(labels)
    codec = str(header.get("codec", ""))

    if blob is not None:
        def getter(dtype, shape, abs_offset, count):
            return np.frombuffer(
                blob, dtype=dtype, count=count, offset=abs_offset
            ).reshape(shape)
    else:
        def getter(dtype, shape, abs_offset, count):
            with open(path, "rb") as fh:
                fh.seek(abs_offset)
                arr = np.fromfile(fh, dtype=dtype, count=count)
            if arr.shape[0] != count:
                raise TraceCorruptError("packed trace array truncated")
            return arr.reshape(shape)

    fetch = lambda name: _packed_array(header, name, getter, file_bytes, data_start)  # noqa: E731
    access_offsets = fetch("access_offsets")
    burst_offsets = fetch("burst_offsets")
    eas = fetch("epoch_access_starts")
    ebs = fetch("epoch_burst_starts")
    work = fetch("work")
    locks = fetch("locks")

    if access_offsets.shape != (E, nprocs + 1) or burst_offsets.shape != (E, nprocs + 1):
        raise TraceCorruptError("packed trace offset tables have wrong shape")
    if work.shape != (E, nprocs) or locks.shape != (E, nprocs):
        raise TraceCorruptError("packed trace work/lock tables have wrong shape")
    for name, starts in (("epoch_access_starts", eas), ("epoch_burst_starts", ebs)):
        if starts.shape != (E + 1,):
            raise TraceCorruptError(f"packed trace {name} has wrong shape")
        if (starts.shape[0] and starts[0] != 0) or (np.diff(starts) < 0).any():
            raise TraceCorruptError(f"packed trace {name} do not tile the columns")

    chunks = header.get("chunks")
    if not isinstance(chunks, dict):
        raise TraceCorruptError("compressed trace header has no chunk directory")
    for name in _CHUNK_COLUMNS:
        specs = chunks.get(name)
        if not isinstance(specs, list) or len(specs) != E:
            raise TraceCorruptError(
                f"compressed trace chunk column {name!r} does not cover the epochs"
            )
        per_epoch = eas if name == "index" else ebs
        for ei, spec in enumerate(specs):
            if str(spec.get("dtype")) not in _CHUNK_DTYPES:
                raise TraceCorruptError(
                    f"compressed trace chunk {name}[{ei}] has dtype"
                    f" {spec.get('dtype')!r}"
                )
            offset = int(spec["offset"])
            nbytes = int(spec["nbytes"])
            n = int(spec["n"])
            if offset < 0 or nbytes < 0 or data_start + offset + nbytes > file_bytes:
                raise TraceCorruptError(
                    f"compressed trace chunk {name}[{ei}] extends past end of file"
                )
            if n != int(per_epoch[ei + 1] - per_epoch[ei]):
                raise TraceCorruptError(
                    f"compressed trace chunk {name}[{ei}] does not tile its column"
                )

    store = _ChunkStore(codec, chunks, data_start, path=path, blob=blob)
    trace = LazyTrace(nprocs=nprocs, store=store)
    for r in header["regions"]:
        trace.regions.append(
            RegionSpec(str(r["name"]), int(r["num_objects"]), int(r["object_size"]))
        )
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


# --------------------------------------------------------------------------
# Loader
# --------------------------------------------------------------------------


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


def load_trace(path, mmap: bool = True, validate: bool = True) -> Trace:
    """Read a trace written by :func:`save_trace`.

    Bundles load as zero-copy :class:`Trace` views — mmap-backed when
    ``mmap=True`` and ``path`` names a file on disk.  ``validate=False`` skips the
    content check (index ranges) but never the structural one.  Compressed
    (v3) bundles load as :class:`LazyTrace`; their structural and
    chunk-bounds checks always run at load, and ``validate=True`` adds a
    CRC pass over the compressed chunk bytes (cheap — no decompression),
    so a damaged bundle fails here (and the trace cache quarantines it)
    rather than mid-replay; the index-range content check stays deferred
    to chunk decode, which would decompress the whole file.

    Raises :class:`repro.errors.TraceCorruptError` if the file cannot be
    parsed back into a valid trace (truncated file, garbled bytes, bad
    header, out-of-range indices...), and its subclass
    :class:`repro.errors.TraceVersionError` on a format-version mismatch or
    a file without the bundle magic (a legacy ``.npz`` archive, say).
    A missing file still raises ``FileNotFoundError``.
    """
    try:
        if isinstance(path, (str, os.PathLike)):
            fspath = os.fspath(path)
            with open(fspath, "rb") as fh:
                _check_magic(fh.read(len(_MAGIC)))
            trace = _load_packed_path(fspath, mmap=mmap)
        else:
            blob = path.read()
            _check_magic(blob[: len(_MAGIC)])
            trace = _load_packed_buffer(blob)
        if validate:
            if isinstance(trace, LazyTrace):
                trace.chunk_store.verify_crcs()
            else:
                trace.validate()
        return trace
    except (TraceCorruptError, FileNotFoundError):
        raise
    except _CORRUPTION_ERRORS as exc:
        raise TraceCorruptError(
            f"trace file {os.fspath(path) if isinstance(path, (str, os.PathLike)) else path!r}"
            f" is corrupt or unreadable: {type(exc).__name__}: {exc}"
        ) from exc
