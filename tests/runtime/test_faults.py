"""The fault-injection harness: every injected file fault must be caught
as structured corruption by the trace loader."""

import pytest

from repro.errors import TraceCorruptError, TraceVersionError
from repro.runtime.faults import (
    FaultPlan,
    corrupt_header,
    garble_file,
    truncate_file,
    write_with_version,
)
from repro.trace.builder import TraceBuilder
from repro.trace.io import load_trace, save_trace


def make_trace(nprocs=2, n=64):
    tb = TraceBuilder(nprocs, label="phase")
    r = tb.add_region("objs", n, 104)
    for p in range(nprocs):
        tb.read(p, r, list(range(p, n, nprocs)))
        tb.write(p, r, [p])
        tb.work(p, 1.0)
    tb.barrier("next")
    tb.update(0, r, [0, 1, 2])
    return tb.finish()


@pytest.fixture
def saved(tmp_path):
    path = tmp_path / "t.npt"
    save_trace(make_trace(), path)
    return path


class TestFileFaults:
    def test_truncated_archive(self, saved):
        truncate_file(saved, keep_fraction=0.4)
        with pytest.raises(TraceCorruptError):
            load_trace(saved)

    def test_heavily_truncated_archive(self, saved):
        truncate_file(saved, keep_fraction=0.05)
        with pytest.raises(TraceCorruptError):
            load_trace(saved)

    def test_garbled_bytes(self, saved):
        garble_file(saved, seed=7, nbytes=256)
        with pytest.raises(TraceCorruptError):
            load_trace(saved)

    def test_corrupted_header(self, saved):
        corrupt_header(saved)
        with pytest.raises(TraceCorruptError):
            load_trace(saved)

    def test_wrong_format_version(self, tmp_path):
        path = tmp_path / "future.npt"
        write_with_version(path, version=99)
        with pytest.raises(TraceVersionError, match="version"):
            load_trace(path)

    def test_faults_are_deterministic(self, tmp_path):
        a, b = tmp_path / "a.npt", tmp_path / "b.npt"
        save_trace(make_trace(), a)
        save_trace(make_trace(), b)
        garble_file(a, seed=3)
        garble_file(b, seed=3)
        assert a.read_bytes() == b.read_bytes()


class TestFaultPlan:
    def test_per_attempt_schedule(self):
        plan = FaultPlan(worker={"k": ("crash", "error", None)})
        assert plan.worker_fault("k", 1) == "crash"
        assert plan.worker_fault("k", 2) == "error"
        assert plan.worker_fault("k", 3) is None
        assert plan.worker_fault("k", 4) is None  # off the end: clean
        assert plan.worker_fault("other", 1) is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown worker fault"):
            FaultPlan(worker={"k": ("explode",)})
