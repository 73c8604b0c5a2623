"""Tests for compressed chunked ``.npt`` v3 bundles.

Covers: round-trip equality against the uncompressed v2 path, the
compression-ratio floor, delta/narrow encoding internals, lazy chunk
decode (LRU store), backward compatibility (v2 files keep loading), codec
gating, and corruption handling — truncated chunk directories fail the
load-time bounds check (and so quarantine through the trace cache), while
in-chunk bit flips surface as ``TraceCorruptError`` at first decode.
"""

import os
import zlib

import numpy as np
import pytest

from repro.errors import ConfigError, TraceCorruptError
from repro.trace.builder import TraceBuilder
from repro.trace.events import Trace
from repro.trace.io import (
    COMPRESSION_CODECS,
    LazyTrace,
    _delta_encode,
    _lz4,
    _narrow_int,
    load_trace,
    save_trace,
)


def make_trace(nprocs=4, nobj=512, epochs=3, seed=0):
    """A trace with sequential runs (delta-friendly) and random tails."""
    rng = np.random.default_rng(seed)
    tb = TraceBuilder(nprocs, label="e0")
    r0 = tb.add_region("bodies", nobj, 64)
    r1 = tb.add_region("cells", nobj * 2, 16)
    for ei in range(epochs):
        for p in range(nprocs):
            base = rng.integers(0, nobj // 2)
            tb.read(p, r0, np.arange(base, base + nobj // 4))
            tb.write(p, r0, rng.integers(0, nobj, size=17))
            tb.read(p, r1, rng.integers(0, nobj * 2, size=33))
            tb.work(p, float(p) + 0.5)
        if ei < epochs - 1:
            tb.barrier(f"e{ei + 1}")
    return tb.finish()


def columns_of(trace):
    """Every per-epoch column as plain arrays, for equality checks."""
    out = []
    for e in trace.epochs:
        out.append({
            "offsets": np.asarray(e.offsets),
            "index": np.asarray(e.index),
            "burst_offsets": np.asarray(e.burst_offsets),
            "burst_region": np.asarray(e.burst_region),
            "burst_write": np.asarray(e.burst_write),
            "burst_length": np.asarray(e.burst_length),
            "work": np.asarray(e.work),
            "locks": np.asarray(e.lock_acquires),
            "label": e.label,
        })
    return out


class TestRoundtrip:
    @pytest.mark.parametrize("codec", ["zlib", "lz4"])
    def test_columns_identical_to_v2(self, tmp_path, codec):
        if codec == "lz4" and _lz4 is None:
            pytest.skip("lz4 not installed")
        t = make_trace()
        p2, p3 = tmp_path / "v2.npt", tmp_path / "v3.npt"
        save_trace(t, p2)
        save_trace(t, p3, compression=codec)
        t2, t3 = load_trace(p2), load_trace(p3)
        assert isinstance(t3, LazyTrace)
        for c2, c3 in zip(columns_of(t2), columns_of(t3)):
            for k in c2:
                if k == "label":
                    assert c2[k] == c3[k]
                else:
                    assert np.array_equal(c2[k], c3[k]), k
        # Consumers see v2-identical dtypes on the burst columns.
        for e2, e3 in zip(t2.epochs, t3.epochs):
            assert e3.burst_region.dtype == e2.burst_region.dtype
            assert e3.burst_length.dtype == e2.burst_length.dtype
            assert e3.burst_write.dtype == e2.burst_write.dtype

    def test_simulations_identical(self, tmp_path):
        from repro.machines.hardware import simulate_hardware
        from repro.machines.params import HardwareParams

        t = make_trace(nprocs=4, nobj=256)
        p2, p3 = tmp_path / "v2.npt", tmp_path / "v3.npt"
        save_trace(t, p2)
        save_trace(t, p3, compression="zlib")
        params = HardwareParams()
        a = simulate_hardware(load_trace(p2), params)
        b = simulate_hardware(load_trace(p3), params)
        assert np.array_equal(a.l2_misses, b.l2_misses)
        assert np.array_equal(a.invalidations, b.invalidations)
        assert np.array_equal(a.cold_misses, b.cold_misses)
        assert a.time == b.time

    def test_compression_ratio_floor(self, tmp_path):
        """The acceptance floor: compressed at most 1/10 of uncompressed."""
        t = make_trace(nprocs=8, nobj=4096, epochs=6)
        p2, p3 = tmp_path / "v2.npt", tmp_path / "v3.npt"
        save_trace(t, p2)
        save_trace(t, p3, compression="zlib")
        v2, v3 = os.path.getsize(p2), os.path.getsize(p3)
        assert v3 * 10 <= v2, f"v3 {v3} bytes vs v2 {v2} bytes"

    def test_v2_files_still_load(self, tmp_path):
        """Backward compat: the uncompressed writer/reader is untouched."""
        t = make_trace()
        p2 = tmp_path / "v2.npt"
        save_trace(t, p2)
        t2 = load_trace(p2)
        assert isinstance(t2, Trace) and not isinstance(t2, LazyTrace)
        assert np.asarray(t2.epochs[0].index).base is not None  # mmap view

    def test_buffer_load(self, tmp_path):
        import io

        t = make_trace(nprocs=2, nobj=64, epochs=2)
        p3 = tmp_path / "v3.npt"
        save_trace(t, p3, compression="zlib")
        t3 = load_trace(p3)
        tb = load_trace(io.BytesIO(p3.read_bytes()))
        for c3, cb in zip(columns_of(t3), columns_of(tb)):
            assert np.array_equal(c3["index"], cb["index"])

    def test_unknown_codec_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="compression"):
            save_trace(make_trace(nprocs=2, nobj=32, epochs=1),
                       tmp_path / "x.npt", compression="zstd")


class TestEncoding:
    def test_delta_roundtrip(self, rng):
        idx = rng.integers(0, 1 << 40, size=257).astype(np.int64)
        d = _delta_encode(idx)
        assert np.array_equal(np.cumsum(d, dtype=np.int64), idx)

    def test_delta_shrinks_sequential_runs(self):
        idx = np.arange(10_000, dtype=np.int64)
        d = _narrow_int(_delta_encode(idx))
        assert d.dtype == np.int8

    @pytest.mark.parametrize("hi,dtype", [
        (100, np.int8), (30_000, np.int16), (2**30, np.int32), (2**40, np.int64),
    ])
    def test_narrow_int(self, hi, dtype):
        arr = np.array([0, -hi, hi], dtype=np.int64)
        assert _narrow_int(arr).dtype == dtype

    def test_codecs_constant(self):
        assert COMPRESSION_CODECS == ("none", "zlib", "lz4")


class TestLazyDecode:
    def test_chunk_store_caches_and_evicts(self, tmp_path):
        t = make_trace(nprocs=2, nobj=128, epochs=4)
        p3 = tmp_path / "v3.npt"
        save_trace(t, p3, compression="zlib")
        t3 = load_trace(p3)
        store = t3.chunk_store
        _ = [np.asarray(e.index) for e in t3.epochs]
        decodes_first = store.decodes
        _ = [np.asarray(e.index) for e in t3.epochs]
        assert store.decodes == decodes_first  # cached, not re-read
        assert store.hits > 0

    def test_lazy_epoch_has_no_eager_columns(self, tmp_path):
        t = make_trace(nprocs=2, nobj=64, epochs=2)
        p3 = tmp_path / "v3.npt"
        save_trace(t, p3, compression="zlib")
        t3 = load_trace(p3)
        # Meta columns load eagerly; chunked columns decode on access.
        e = t3.epochs[0]
        assert e.offsets is not None and e.burst_offsets is not None
        assert np.array_equal(np.asarray(e.index),
                              np.asarray(t.epochs[0].index))


class TestCorruption:
    def _compressed(self, tmp_path):
        t = make_trace(nprocs=2, nobj=128, epochs=2)
        p3 = tmp_path / "v3.npt"
        save_trace(t, p3, compression="zlib")
        return p3

    def test_truncated_file_fails_at_load(self, tmp_path):
        p3 = self._compressed(tmp_path)
        blob = p3.read_bytes()
        p3.write_bytes(blob[: len(blob) - 64])
        with pytest.raises(TraceCorruptError):
            load_trace(p3)

    def test_bitflip_fails_crc_at_load(self, tmp_path):
        p3 = self._compressed(tmp_path)
        blob = bytearray(p3.read_bytes())
        # Flip a byte near the end — inside some chunk's payload.
        blob[-16] ^= 0xFF
        p3.write_bytes(bytes(blob))
        # Validating load runs the cheap CRC pass eagerly (no decompress),
        # so the damage is caught where the cache can quarantine it.
        with pytest.raises(TraceCorruptError, match="checksum"):
            load_trace(p3)

    def test_bitflip_fails_crc_at_decode_unvalidated(self, tmp_path):
        p3 = self._compressed(tmp_path)
        blob = bytearray(p3.read_bytes())
        blob[-16] ^= 0xFF
        p3.write_bytes(bytes(blob))
        t3 = load_trace(p3, validate=False)  # header and directory parse
        with pytest.raises(TraceCorruptError):
            for e in t3.epochs:
                np.asarray(e.index)
                np.asarray(e.burst_region)
                np.asarray(e.burst_length)
                np.asarray(e.burst_write)

    def test_bitflip_quarantines_through_cache(self, tmp_path):
        from repro.runtime.cache import CacheKey, TraceCache, format_version_for

        cache = TraceCache(tmp_path / "cache")
        key = CacheKey(app="x", version="original", n=128, iterations=2,
                       nprocs=2, seed=0,
                       format_version=format_version_for("zlib"))
        t = make_trace(nprocs=2, nobj=128, epochs=2)
        path = cache.store(key, t, compression="zlib")
        blob = bytearray(path.read_bytes())
        blob[-16] ^= 0xFF  # inside the last chunk's compressed payload
        path.write_bytes(bytes(blob))
        assert cache.load(key) is None
        assert cache.quarantined == 1
        assert not path.exists()

    def test_truncated_entry_quarantines_through_cache(self, tmp_path):
        from repro.runtime.cache import CacheKey, TraceCache, format_version_for

        cache = TraceCache(tmp_path / "cache")
        key = CacheKey(app="x", version="original", n=128, iterations=2,
                       nprocs=2, seed=0,
                       format_version=format_version_for("zlib"))
        t = make_trace(nprocs=2, nobj=128, epochs=2)
        path = cache.store(key, t, compression="zlib")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 64])
        assert cache.load(key) is None
        assert cache.quarantined == 1
        assert not path.exists()


class TestLz4Gating:
    def test_save_without_lz4_raises_config_error(self, tmp_path):
        if _lz4 is not None:
            pytest.skip("lz4 installed; gating path not reachable")
        with pytest.raises(ConfigError, match="lz4"):
            save_trace(make_trace(nprocs=2, nobj=32, epochs=1),
                       tmp_path / "x.npt", compression="lz4")

    def test_lz4_roundtrip_when_available(self, tmp_path):
        if _lz4 is None:
            pytest.skip("lz4 not installed")
        t = make_trace(nprocs=2, nobj=64, epochs=2)
        p = tmp_path / "x.npt"
        save_trace(t, p, compression="lz4")
        t3 = load_trace(p)
        assert np.array_equal(np.asarray(t3.epochs[0].index),
                              np.asarray(t.epochs[0].index))
