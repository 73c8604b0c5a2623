"""Unit tests for the columnar trace representation."""

import numpy as np
import pytest

from repro.trace.builder import TraceBuilder
from repro.trace.events import PackedEpoch, RegionSpec, Trace


def build():
    tb = TraceBuilder(3, label="first")
    r0 = tb.add_region("bodies", 64, 104)
    r1 = tb.add_region("cells", 16, 216)
    tb.read(0, r0, [1, 2, 3, 2])
    tb.write(0, r0, [1])
    tb.read(2, r1, [0, 5])
    tb.work(1, 2.0)
    tb.lock(2, 3)
    tb.barrier("second")
    tb.update(1, r1, [3, 3, 2])
    return tb.finish()


class TestBuilderModes:
    def test_default_is_packed(self):
        t = build()
        assert type(t) is Trace
        assert all(isinstance(e, PackedEpoch) for e in t.epochs)

    def test_empty_trailing_epoch_dropped_both_modes(self):
        """A barrier followed by nothing leaves no empty last epoch."""
        tb = TraceBuilder(2)
        tb.add_region("o", 4, 8)
        tb.read(0, 0, [0])
        tb.barrier()
        t = tb.finish()  # trailing epoch is empty: dropped
        assert len(t.epochs) == 1

    def test_work_only_trailing_epoch_kept(self):
        tb = TraceBuilder(2)
        tb.add_region("o", 4, 8)
        tb.read(0, 0, [0])
        tb.barrier("tail")
        tb.work(1, 1.0)
        t = tb.finish()
        assert len(t.epochs) == 2
        assert t.epochs[1].work[1] == 1.0


class TestPackedEpoch:
    def test_flat_returns_views(self):
        t = build()
        e = t.epochs[0]
        regs, idx, writes = e.flat(0)
        assert np.shares_memory(idx, e.index)
        assert np.shares_memory(regs, e.region)
        assert np.shares_memory(writes, e.is_write)

    def test_flat_matches_burst_order(self):
        t = build()
        e = t.epochs[0]
        regs, idx, writes = e.flat(0)
        assert idx.tolist() == [1, 2, 3, 2, 1]
        assert writes.tolist() == [False] * 4 + [True]
        assert regs.tolist() == [0] * 5

    def test_accesses_counts(self):
        t = build()
        e = t.epochs[0]
        assert e.accesses(0) == 5
        assert e.accesses(1) == 0
        assert e.accesses(2) == 2
        assert e.total_accesses == 7

    def test_empty_proc_flat(self):
        t = build()
        regs, idx, writes = t.epochs[0].flat(1)
        assert regs.shape == idx.shape == writes.shape == (0,)
        # Distinct arrays — mutating one must not alias another.
        assert regs is not idx

    def test_work_and_locks(self):
        t = build()
        assert t.epochs[0].work[1] == 2.0
        assert t.epochs[0].lock_acquires[2] == 3


class TestPackedTrace:
    def test_total_accesses(self):
        t = build()
        assert t.total_accesses == 7 + 6  # update() = read + write bursts

    def test_validate_rejects_bad_region(self):
        t = build()
        # burst_region is the source of truth (the per-access column is
        # derived from it lazily), so corrupt it there.
        t.epochs[0].burst_region[0] = 99
        with pytest.raises(ValueError, match="unknown region"):
            t.validate()

    def test_validate_rejects_out_of_range_index(self):
        t = build()
        t.epochs[1].index[0] = 10_000
        with pytest.raises(ValueError, match="out of range"):
            t.validate()

    def test_validate_rejects_structural_damage(self):
        t = build()
        t.epochs[0].offsets = t.epochs[0].offsets[:-1]
        with pytest.raises(ValueError):
            t.validate()


class TestSatelliteFixes:
    def test_burst_no_copy_for_conforming_array(self):
        """Staging an already-contiguous int64 array must not copy it."""
        tb = TraceBuilder(1)
        tb.add_region("o", 8, 8)
        idx = np.array([1, 2, 3], dtype=np.int64)
        tb.read(0, 0, idx)
        assert tb._staged[0][0][2] is idx

    def test_burst_still_converts_lists(self):
        """A burst given as a Python list seals into the int64 column."""
        tb = TraceBuilder(1)
        tb.add_region("o", 8, 8)
        tb.read(0, 0, [1, 2, 3])
        e = tb.finish().epochs[0]
        assert e.index.dtype == np.int64
        assert e.index.tolist() == [1, 2, 3]

    def test_epoch_flat_empty_distinct_arrays(self):
        """flat() of an empty epoch returns three distinct arrays."""
        tb = TraceBuilder(2)
        tb.add_region("o", 4, 8)
        tb.work(0, 1.0)
        r1, i1, w1 = tb.finish().epochs[0].flat(0)
        assert r1.shape == i1.shape == w1.shape == (0,)
        assert r1 is not i1 and i1 is not w1

    def test_region_id_memo(self):
        t = Trace(nprocs=1)
        t.regions.append(RegionSpec("a", 4, 8))
        t.regions.append(RegionSpec("b", 4, 8))
        assert t.region_id("b") == 1
        # Memo rebuilds when regions grow.
        t.regions.append(RegionSpec("c", 4, 8))
        assert t.region_id("c") == 2
        with pytest.raises(KeyError, match="no region named"):
            t.region_id("missing")
