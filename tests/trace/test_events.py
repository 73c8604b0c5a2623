"""Tests for trace data structures."""

import numpy as np
import pytest

from repro.trace.builder import TraceBuilder
from repro.trace.events import PackedEpoch, RegionSpec, Trace


def empty_epoch(nprocs: int) -> PackedEpoch:
    return PackedEpoch.seal(
        nprocs,
        "",
        [[] for _ in range(nprocs)],
        np.zeros(nprocs, dtype=np.float64),
        np.zeros(nprocs, dtype=np.int64),
    )


class TestRegionSpec:
    def test_nbytes(self):
        assert RegionSpec("a", 10, 104).nbytes == 1040

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            RegionSpec("a", -1, 8)
        with pytest.raises(ValueError):
            RegionSpec("a", 1, 0)


class TestBurst:
    def test_coerces_indices(self):
        tb = TraceBuilder(1)
        tb.add_region("o", 4, 8)
        tb.read(0, 0, [3, 1, 2])
        e = tb.finish().epochs[0]
        assert e.index.dtype == np.int64
        assert e.burst_length.tolist() == [3]


class TestEpoch:
    def test_default_arrays(self):
        e = empty_epoch(4)
        assert e.offsets.tolist() == [0] * 5
        assert e.work.shape == (4,)
        assert e.lock_acquires.shape == (4,)
        e.check_structure()

    def test_accesses_counts_multiplicity(self):
        e = PackedEpoch.seal(
            2,
            "",
            [[(0, False, np.array([1, 1, 2])), (0, True, np.array([3]))], []],
            np.zeros(2),
            np.zeros(2, dtype=np.int64),
        )
        assert e.accesses(0) == 4
        assert e.accesses(1) == 0

    def test_flat_preserves_order(self):
        e = PackedEpoch.seal(
            1,
            "",
            [[(0, False, np.array([5, 6])), (1, True, np.array([7]))]],
            np.zeros(1),
            np.zeros(1, dtype=np.int64),
        )
        regions, indices, writes = e.flat(0)
        assert regions.tolist() == [0, 0, 1]
        assert indices.tolist() == [5, 6, 7]
        assert writes.tolist() == [False, False, True]

    def test_flat_empty(self):
        regions, indices, writes = empty_epoch(1).flat(0)
        assert regions.shape == (0,)

    def test_rejects_zero_procs(self):
        with pytest.raises(ValueError):
            empty_epoch(0)


class TestTrace:
    def make(self, extra=None) -> Trace:
        tb = TraceBuilder(2, label="forces")
        tb.add_region("bodies", 10, 8)
        tb.add_region("cells", 4, 16)
        tb.write(0, 0, [0, 1])
        tb.work(0, 5.0)
        if extra is not None:
            tb.read(1, *extra)  # a burst for the corruption tests to damage
        return tb.finish()

    def test_region_id(self):
        t = self.make()
        assert t.region_id("cells") == 1
        with pytest.raises(KeyError):
            t.region_id("nope")

    def test_totals(self):
        t = self.make()
        assert t.total_accesses == 2
        assert t.total_work == 5.0

    def test_labelled_epochs(self):
        t = self.make()
        assert len(t.epochs_labelled("forces")) == 1
        assert t.epochs_labelled("nope") == []

    def test_validate_catches_bad_region(self):
        t = self.make(extra=(0, [0]))
        t.epochs[0].burst_region[-1] = 9
        with pytest.raises(ValueError, match="unknown region"):
            t.validate()

    def test_validate_catches_out_of_range_index(self):
        t = self.make(extra=(0, [0]))
        t.epochs[0].index[-1] = 99
        with pytest.raises(ValueError, match="out of range"):
            t.validate()

    def test_validate_catches_nproc_mismatch(self):
        t = self.make()
        t.epochs.append(empty_epoch(3))
        with pytest.raises(ValueError, match="mismatch"):
            t.validate()
