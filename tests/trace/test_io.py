"""Tests for trace serialization (packed ``.npt`` bundles)."""

import io
import json
import struct
import zipfile

import numpy as np
import pytest

from repro.errors import TraceCorruptError, TraceVersionError
from repro.trace.builder import TraceBuilder
from repro.trace.events import Trace
from repro.trace.io import load_trace, save_trace


def roundtrip(trace, tmp_path, mmap=True):
    path = tmp_path / "t.npt"
    save_trace(trace, path)
    return load_trace(path, mmap=mmap)


def make_trace():
    tb = TraceBuilder(3, label="a")
    r0 = tb.add_region("bodies", 64, 104)
    r1 = tb.add_region("cells", 16, 216)
    tb.read(0, r0, [1, 2, 3])
    tb.write(1, r0, [4])
    tb.read(2, r1, [0, 5])
    tb.work(0, 2.5)
    tb.lock(1, 7)
    tb.barrier("b")
    tb.update(0, r1, [3, 3, 2])
    tb.work(1, 1.0)
    return tb.finish()


class TestRoundtrip:
    def test_structure_preserved(self, tmp_path):
        t = make_trace()
        t2 = roundtrip(t, tmp_path)
        assert t2.nprocs == t.nprocs
        assert [r.name for r in t2.regions] == ["bodies", "cells"]
        assert [e.label for e in t2.epochs] == ["a", "b"]

    def test_loads_as_packed_views(self, tmp_path):
        t2 = roundtrip(make_trace(), tmp_path)
        assert isinstance(t2, Trace)
        # flat() is a view into the mapped columns, not a copy.
        regs, idx, writes = t2.epochs[0].flat(0)
        assert np.shares_memory(idx, t2.epochs[0].index)

    def test_bursts_identical(self, tmp_path):
        t = make_trace()
        t2 = roundtrip(t, tmp_path)
        columns = ("offsets", "index", "burst_offsets", "burst_region",
                   "burst_write", "burst_length")
        for e, e2 in zip(t.epochs, t2.epochs, strict=True):
            for name in columns:
                assert np.array_equal(getattr(e, name), getattr(e2, name))

    def test_work_and_locks_preserved(self, tmp_path):
        t = make_trace()
        t2 = roundtrip(t, tmp_path)
        assert t2.epochs[0].work[0] == 2.5
        assert t2.epochs[0].lock_acquires[1] == 7

    def test_simulations_agree(self, tmp_path):
        """The serialized trace drives the machine models identically."""
        from repro.apps import AppConfig, Moldyn
        from repro.machines import simulate_hlrc, simulate_treadmarks

        app = Moldyn(AppConfig(n=256, nprocs=4, iterations=2, seed=9))
        t = app.run()
        t2 = roundtrip(t, tmp_path)
        a, b = simulate_treadmarks(t), simulate_treadmarks(t2)
        assert a.messages == b.messages and a.data_bytes == b.data_bytes
        c, d = simulate_hlrc(t), simulate_hlrc(t2)
        assert c.messages == d.messages and c.time == d.time

    def test_mmap_false_loads_in_memory(self, tmp_path):
        t = make_trace()
        t2 = roundtrip(t, tmp_path, mmap=False)
        assert not isinstance(t2.epochs[0].index, np.memmap)
        assert t2.total_accesses == t.total_accesses

    def test_empty_trace(self, tmp_path):
        tb = TraceBuilder(2)
        tb.add_region("o", 4, 8)
        t = tb.finish()
        t2 = roundtrip(t, tmp_path)
        assert t2.epochs == []
        assert t2.nprocs == 2

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.npt"
        path.write_bytes(bundle_claiming_version(99))
        with pytest.raises(ValueError, match="version"):
            load_trace(path)

    def test_loaded_trace_validates(self, tmp_path):
        t2 = roundtrip(make_trace(), tmp_path)
        t2.validate()


class TestLegacyRejection:
    """Only ``.npt`` bundles are read; anything else is a typed error
    raised before any parsing."""

    def test_npz_archive_rejected(self, tmp_path, monkeypatch):
        path = tmp_path / "t.npz"
        np.savez_compressed(path, header=np.zeros(4, dtype=np.uint8))
        monkeypatch.setattr(np, "load", _never_called)
        with pytest.raises(TraceVersionError, match=r"zip archive.*\.npt"):
            load_trace(path)
        with pytest.raises(TraceVersionError, match="zip archive"):
            load_trace(io.BytesIO(path.read_bytes()))

    def test_foreign_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.npt"
        for blob in (b"", b"REPRO", b"not a trace file at all"):
            path.write_bytes(blob)
            with pytest.raises(TraceVersionError, match="supported formats"):
                load_trace(path)
            with pytest.raises(TraceVersionError, match="supported formats"):
                load_trace(io.BytesIO(blob))


def _never_called(*args, **kwargs):
    raise AssertionError("the trace loader must not hand files to np.load")


def bundle_claiming_version(version: int) -> bytes:
    header = json.dumps(
        {"version": version, "nprocs": 1, "regions": [], "labels": []}
    ).encode()
    return b"REPROTRC" + struct.pack("<Q", len(header)) + header


class TestAtomicity:
    def test_no_temp_files_left_behind(self, tmp_path):
        save_trace(make_trace(), tmp_path / "t.npt")
        assert [p.name for p in tmp_path.iterdir()] == ["t.npt"]

    def test_failed_write_preserves_old_file(self, tmp_path, monkeypatch):
        """An exception mid-write never clobbers the existing trace."""
        import repro.trace.io as trace_io

        path = tmp_path / "t.npt"
        save_trace(make_trace(), path)
        good = path.read_bytes()

        def exploding_writer(fh, trace):
            fh.write(b"partial garbage")
            raise RuntimeError("disk full")

        monkeypatch.setattr(trace_io, "_write_packed", exploding_writer)
        with pytest.raises(RuntimeError, match="disk full"):
            save_trace(make_trace(), path)
        assert path.read_bytes() == good  # old file untouched
        assert [p.name for p in tmp_path.iterdir()] == ["t.npt"]  # no debris

    def test_exact_destination_path(self, tmp_path):
        """save_trace writes exactly where asked — no suffix munging."""
        save_trace(make_trace(), tmp_path / "bare")
        assert (tmp_path / "bare").exists()
        load_trace(tmp_path / "bare").validate()


class TestCorruption:
    def test_truncated_file_is_structured_error(self, tmp_path):
        path = tmp_path / "t.npt"
        save_trace(make_trace(), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceCorruptError):
            load_trace(path)

    def test_truncated_legacy_npz(self, tmp_path):
        """A damaged zip archive is still a typed format rejection."""
        path = tmp_path / "t.npz"
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("header.npy", b"x" * 256)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceVersionError):
            load_trace(path)

    def test_corruption_error_is_value_error(self, tmp_path):
        path = tmp_path / "t.npt"
        path.write_bytes(b"this is not a trace file at all")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_version_mismatch_is_structured(self, tmp_path):
        path = tmp_path / "bad.npt"
        path.write_bytes(bundle_claiming_version(1))
        with pytest.raises(TraceVersionError, match="version"):
            load_trace(path)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path / "absent.npt")

    def test_out_of_range_indices_are_corruption(self, tmp_path):
        """A structurally valid file whose payload violates the trace
        invariants is corruption too (validate() runs on load)."""
        t = make_trace()
        # Point some burst indices far outside every region.
        t.epochs[0].index[:] += 10_000_000
        path = tmp_path / "t.npt"
        save_trace(t, path)
        with pytest.raises(TraceCorruptError):
            load_trace(path)

    @pytest.mark.parametrize("compression", ["none", "zlib"])
    @pytest.mark.parametrize(
        "table, value", [("locks", -1), ("work", -1.0), ("work", np.nan),
                         ("work", np.inf)],
    )
    def test_bad_work_and_lock_tables(self, tmp_path, compression, table, value):
        """The work and lock tables sit outside every checksum: a negative
        lock count or a negative or non-finite work entry is corruption at
        load, in both formats."""
        from repro.trace.io import _parse_packed_header

        path = tmp_path / "t.npt"
        save_trace(make_trace(), path, compression=compression)
        blob = bytearray(path.read_bytes())
        header, data_start = _parse_packed_header(bytes(blob))
        spec = header["arrays"][table]
        off = data_start + spec["offset"] + np.dtype(spec["dtype"]).itemsize
        bad = np.array([value], dtype=np.dtype(spec["dtype"])).tobytes()
        blob[off : off + len(bad)] = bad
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceCorruptError, match="work/lock"):
            load_trace(path)

    def test_out_of_range_indices_packed(self, tmp_path):
        """Same invariant check on a packed bundle: scribble the index
        column with huge values, keep the structure intact."""
        from repro.trace.io import _MAGIC, _parse_packed_header

        path = tmp_path / "t.npt"
        save_trace(make_trace(), path)
        blob = bytearray(path.read_bytes())
        header, data_start = _parse_packed_header(bytes(blob))
        spec = header["arrays"]["index"]
        off = data_start + spec["offset"]
        bad = np.full(
            spec["shape"][0], 10_000_000, dtype=np.dtype(spec["dtype"])
        ).tobytes()
        blob[off : off + len(bad)] = bad
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceCorruptError):
            load_trace(path)
