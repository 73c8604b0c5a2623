"""Edge-case and robustness tests for the DSM protocol models."""

import numpy as np
import pytest

from repro.errors import ConfigError, SimulationInputError, UnknownPlatformError
from repro.machines.dsm import (
    build_interval_ladder,
    build_intervals,
    simulate_dsm_sweep,
    simulate_hlrc,
    simulate_treadmarks,
)
from repro.machines.params import cluster_scaled
from repro.trace.builder import TraceBuilder
from repro.trace.layout import Layout


def params(nprocs=2, page_size=4096):
    return cluster_scaled(nprocs=nprocs, page_size=page_size)


class TestEmptyAndDegenerate:
    def test_empty_trace(self):
        tb = TraceBuilder(4)
        tb.add_region("o", 8, 8)
        t = tb.finish()  # no accesses at all: zero epochs
        for sim in (simulate_treadmarks, simulate_hlrc):
            res = sim(t, params(4))
            assert res.messages == 0
            assert res.time == 0.0

    def test_work_only_epochs(self):
        tb = TraceBuilder(4)
        tb.add_region("o", 8, 8)
        tb.work(0, 100.0)
        t = tb.finish()
        for sim in (simulate_treadmarks, simulate_hlrc):
            res = sim(t, params(4))
            assert res.page_fetches.sum() == 0
            assert res.time > 0  # compute + barrier

    def test_write_only_trace(self):
        tb = TraceBuilder(2)
        r = tb.add_region("o", 8, 512)
        tb.write(0, r, np.arange(8))
        res_tm = simulate_treadmarks(tb.finish(), params(2))
        # The writer's own first touch faults the page in.
        assert res_tm.page_fetches[0] == 1

    def test_single_page_region(self):
        tb = TraceBuilder(2)
        r = tb.add_region("o", 1, 8)
        tb.update(0, r, [0])
        tb.barrier()
        tb.read(1, r, [0])
        t = tb.finish()
        for sim in (simulate_treadmarks, simulate_hlrc):
            assert sim(t, params(2)).messages > 0


class TestPageSizeSensitivity:
    def make_trace(self):
        rng = np.random.default_rng(1)
        tb = TraceBuilder(4)
        r = tb.add_region("o", 512, 64)
        owner = rng.integers(0, 4, 512)
        for _ in range(3):
            for p in range(4):
                mine = np.nonzero(owner == p)[0]
                tb.update(p, r, mine)
                tb.work(p, mine.shape[0])
            tb.barrier()
        return tb.finish()

    def test_bigger_pages_fewer_fetches_more_bytes_each(self):
        t = self.make_trace()
        small = simulate_hlrc(t, params(4, page_size=512))
        big = simulate_hlrc(t, params(4, page_size=8192))
        assert big.page_fetches.sum() < small.page_fetches.sum()

    def test_diff_bytes_track_objects_not_pages(self):
        """TreadMarks diff payloads track dirtied objects, so they are
        nearly page-size independent (the residue comes from the cold
        first-fault page fetches replacing some diff traffic)."""
        t = self.make_trace()
        a = simulate_treadmarks(t, params(4, page_size=1024)).diff_bytes.sum()
        b = simulate_treadmarks(t, params(4, page_size=8192)).diff_bytes.sum()
        assert abs(int(a) - int(b)) < 0.05 * max(a, b)


class TestIntervalsSharedBetweenProtocols:
    def test_prebuilt_intervals_reused(self):
        tb = TraceBuilder(2)
        r = tb.add_region("o", 64, 64)
        tb.update(0, r, np.arange(32))
        tb.barrier()
        tb.read(1, r, np.arange(16))
        t = tb.finish()
        p = params(2)
        layout = Layout.for_trace(t, align=p.page_size)
        intervals, layout = build_intervals(t, layout, p.page_size)
        a = simulate_treadmarks(t, p, layout, intervals=intervals)
        b = simulate_treadmarks(t, p)
        assert a.messages == b.messages
        c = simulate_hlrc(t, p, layout, intervals=intervals)
        d = simulate_hlrc(t, p)
        assert c.messages == d.messages


class TestLockAccounting:
    def test_lock_heavy_trace(self):
        p = params(2)
        tb = TraceBuilder(2)
        tb.add_region("o", 8, 8)
        tb.lock(0, 1000)
        tb.work(0, 1.0)
        res = simulate_treadmarks(tb.finish(), p)
        assert res.lock_acquires == 1000
        assert res.time > 1000 * p.lock_time * 0.99

    def test_locks_counted_in_both_protocols_identically(self):
        tb = TraceBuilder(2)
        tb.add_region("o", 8, 8)
        tb.lock(0, 3)
        tb.lock(1, 4)
        tb.work(0, 1.0)
        t = tb.finish()
        assert (
            simulate_treadmarks(t, params(2)).lock_acquires
            == simulate_hlrc(t, params(2)).lock_acquires
            == 7
        )


class TestTypedInputErrors:
    """Inputs the protocol models cannot simulate raise
    ``SimulationInputError`` instead of an assertion, an ``IndexError`` or
    silently wrong counts."""

    def make_trace(self, nprocs=2):
        tb = TraceBuilder(nprocs)
        r = tb.add_region("o", 64, 64)  # one 4 KB page, four 1 KB pages
        tb.update(0, r, np.arange(32))
        tb.barrier()
        tb.read(nprocs - 1, r, np.arange(64))
        return tb.finish()

    def test_intervals_without_layout(self):
        t = self.make_trace()
        intervals, _ = build_intervals(t, None, 4096)
        for sim in (simulate_treadmarks, simulate_hlrc):
            with pytest.raises(SimulationInputError, match="layout"):
                sim(t, params(2), intervals=intervals)

    @pytest.mark.parametrize("home", [-1, 2, 5])
    def test_homes_outside_the_processors(self, home):
        t = self.make_trace()
        with pytest.raises(SimulationInputError, match="homes"):
            simulate_hlrc(t, params(2), homes=np.array([home]))

    @pytest.mark.parametrize("built_at", [1024, 8192])
    def test_intervals_of_another_page_size(self, built_at):
        """Finer intervals name pages past the layout's end; coarser ones
        would fold into the wrong pages."""
        t = self.make_trace()
        layout = Layout.for_trace(t, align=8192)
        intervals, _ = build_intervals(t, layout, built_at)
        for sim in (simulate_treadmarks, simulate_hlrc):
            with pytest.raises(SimulationInputError, match="pages"):
                sim(t, params(2), layout, intervals=intervals)

    def test_intervals_of_another_processor_count(self):
        t = self.make_trace(nprocs=2)
        layout = Layout.for_trace(t, align=4096)
        intervals, _ = build_intervals(self.make_trace(nprocs=3), layout, 4096)
        for sim in (simulate_treadmarks, simulate_hlrc):
            with pytest.raises(SimulationInputError, match="processors"):
                sim(t, params(2), layout, intervals=intervals)


class TestSweepInputErrors:
    def test_unknown_protocol_rejected_before_the_ladder(self, monkeypatch):
        from repro.machines.dsm import intervals as iv

        passes = []
        real = iv._epoch_ladder_packed
        monkeypatch.setattr(
            iv, "_epoch_ladder_packed", lambda *a: passes.append(1) or real(*a)
        )
        t = TestTypedInputErrors().make_trace()
        with pytest.raises(UnknownPlatformError, match="magic"):
            simulate_dsm_sweep(t, params(2), (1024, 4096), ("hlrc", "magic"))
        assert passes == []

    @pytest.mark.parametrize("sizes", [(4096, 3000), (0,), ()])
    def test_ladder_sizes(self, sizes):
        t = TestTypedInputErrors().make_trace()
        with pytest.raises(ConfigError):
            build_interval_ladder(t, sizes)
