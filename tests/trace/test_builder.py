"""Tests for TraceBuilder."""

import numpy as np
import pytest

from repro.trace.builder import TraceBuilder


class TestTraceBuilder:
    def test_basic_flow(self):
        tb = TraceBuilder(2, label="init")
        r = tb.add_region("objs", 10, 8)
        tb.read(0, r, [1, 2])
        tb.write(1, r, [3])
        tb.work(0, 2.5)
        tb.lock(1)
        tb.barrier("next")
        tb.read(0, r, [4])
        t = tb.finish()
        assert len(t.epochs) == 2
        assert t.epochs[0].label == "init"
        assert t.epochs[1].label == "next"
        assert t.epochs[0].work[0] == 2.5
        assert t.epochs[0].lock_acquires[1] == 1

    def test_update_is_read_then_write(self):
        tb = TraceBuilder(1)
        r = tb.add_region("objs", 4, 8)
        tb.update(0, r, [0, 1])
        t = tb.finish()
        assert t.epochs[0].burst_write.tolist() == [False, True]

    def test_empty_bursts_dropped(self):
        tb = TraceBuilder(1)
        r = tb.add_region("objs", 4, 8)
        tb.read(0, r, np.empty(0, dtype=np.int64))
        t = tb.finish()
        assert t.epochs == []

    def test_trailing_empty_epoch_dropped(self):
        tb = TraceBuilder(1)
        r = tb.add_region("objs", 4, 8)
        tb.read(0, r, [0])
        tb.barrier()
        t = tb.finish()
        assert len(t.epochs) == 1

    def test_trailing_nonempty_epoch_kept(self):
        tb = TraceBuilder(1)
        r = tb.add_region("objs", 4, 8)
        tb.read(0, r, [0])
        tb.barrier()
        tb.work(0, 1.0)
        t = tb.finish()
        assert len(t.epochs) == 2

    def test_duplicate_region_rejected(self):
        tb = TraceBuilder(1)
        tb.add_region("objs", 4, 8)
        with pytest.raises(ValueError):
            tb.add_region("objs", 4, 8)

    def test_bad_proc_rejected(self):
        tb = TraceBuilder(2)
        r = tb.add_region("objs", 4, 8)
        with pytest.raises(ValueError):
            tb.read(2, r, [0])

    def test_use_after_finish_rejected(self):
        tb = TraceBuilder(1)
        r = tb.add_region("objs", 4, 8)
        tb.read(0, r, [0])
        tb.finish()
        with pytest.raises(RuntimeError):
            tb.read(0, r, [0])
        with pytest.raises(RuntimeError):
            tb.barrier()
        with pytest.raises(RuntimeError):
            tb.finish()

    def test_finish_validates(self):
        tb = TraceBuilder(1)
        r = tb.add_region("objs", 4, 8)
        tb.read(0, r, [3])  # in range: ok
        t = tb.finish()
        t.validate()

    def test_out_of_range_index_caught_at_finish(self):
        tb = TraceBuilder(1)
        r = tb.add_region("objs", 4, 8)
        tb.read(0, r, [7])
        with pytest.raises(ValueError):
            tb.finish()

    def test_zero_procs_rejected(self):
        with pytest.raises(ValueError):
            TraceBuilder(0)
