"""Tests for the exact MESI simulator and its agreement with the
epoch-boundary hardware engine on data-race-free traces."""

import numpy as np
import pytest

from oracles.coherence import simulate_mesi
from repro.machines.hardware import simulate_hardware
from repro.machines.params import HardwareParams
from repro.trace.builder import TraceBuilder


def fa_params(nprocs=2, lines=64):
    """Fully-associative geometry shared by both engines."""
    return HardwareParams(
        nprocs=nprocs,
        line_size=64,
        l2_bytes=64 * lines,
        l2_assoc=lines,
        page_size=4096,
        tlb_entries=8,
    )


class TestMESIProtocol:
    def test_cold_read_is_exclusive(self):
        tb = TraceBuilder(1)
        r = tb.add_region("o", 8, 8)
        tb.read(0, r, [0])
        res = simulate_mesi(tb.finish(), fa_params(1))
        assert res.misses[0] == 1
        assert res.invalidations.sum() == 0

    def test_write_hit_on_exclusive_is_silent(self):
        tb = TraceBuilder(1)
        r = tb.add_region("o", 8, 8)
        tb.read(0, r, [0])
        tb.write(0, r, [0])
        res = simulate_mesi(tb.finish(), fa_params(1))
        assert res.misses[0] == 1
        assert res.upgrades[0] == 0  # E -> M needs no bus transaction

    def test_write_on_shared_is_upgrade_not_miss(self):
        tb = TraceBuilder(2)
        r = tb.add_region("o", 8, 8)
        tb.read(0, r, [0])
        tb.read(1, r, [0])
        tb.barrier()
        tb.write(0, r, [0])
        res = simulate_mesi(tb.finish(), fa_params(2))
        assert res.misses[0] == 1  # only the initial read
        assert res.upgrades[0] == 1
        assert res.invalidations[1] == 1  # proc 1's copy killed

    def test_read_of_modified_line_forces_writeback(self):
        tb = TraceBuilder(2)
        r = tb.add_region("o", 8, 8)
        tb.write(0, r, [0])
        tb.barrier()
        tb.read(1, r, [0])
        res = simulate_mesi(tb.finish(), fa_params(2))
        assert res.writebacks[0] == 1  # M degraded to S on remote read
        assert res.misses[1] == 1

    def test_dirty_eviction_writes_back(self):
        tb = TraceBuilder(1)
        r = tb.add_region("o", 64, 64)  # one object per line
        tb.write(0, r, np.arange(8))  # fill a 4-line cache, evict dirty
        res = simulate_mesi(tb.finish(), fa_params(1, lines=4))
        assert res.writebacks[0] == 4

    def test_false_sharing_pingpong(self):
        tb = TraceBuilder(2)
        r = tb.add_region("o", 8, 8)  # both objects on one line
        for _ in range(3):
            tb.write(0, r, [0])
            tb.barrier()
            tb.write(1, r, [1])
            tb.barrier()
        res = simulate_mesi(tb.finish(), fa_params(2))
        # Each write after the first pair invalidates the other's copy.
        assert res.invalidations.sum() == 5
        assert res.misses.sum() == 2 + 4  # 2 cold + 4 coherence


class TestCrossValidation:
    """The epoch-boundary engine must agree with exact MESI on miss counts
    for data-race-free traces (the class our benchmarks belong to)."""

    def assert_agreement(self, trace, params):
        hw = simulate_hardware(trace, params)
        mesi = simulate_mesi(trace, params)
        assert np.array_equal(hw.l2_misses, mesi.misses), (
            hw.l2_misses,
            mesi.misses,
        )

    def test_private_blocks(self):
        tb = TraceBuilder(4)
        r = tb.add_region("o", 64, 64)
        for _ in range(3):
            for p in range(4):
                blk = np.arange(p * 16, (p + 1) * 16)
                tb.read(p, r, blk)
                tb.write(p, r, blk)
            tb.barrier()
        self.assert_agreement(tb.finish(), fa_params(4, lines=8))

    def test_producer_consumer(self):
        tb = TraceBuilder(2)
        r = tb.add_region("o", 32, 64)
        for it in range(4):
            tb.write(0, r, np.arange(8))
            tb.barrier()
            tb.read(1, r, np.arange(8))
            tb.barrier()
        self.assert_agreement(tb.finish(), fa_params(2, lines=16))

    def test_false_sharing_across_epochs(self):
        tb = TraceBuilder(2)
        r = tb.add_region("o", 16, 8)  # two 64-byte lines
        for _ in range(4):
            tb.write(0, r, [0])
            tb.write(1, r, [15])
            tb.barrier()
            tb.read(0, r, [1])
            tb.read(1, r, [14])
            tb.barrier()
        self.assert_agreement(tb.finish(), fa_params(2, lines=16))

    def test_capacity_pressure(self, rng):
        tb = TraceBuilder(2)
        r = tb.add_region("o", 256, 64)
        for _ in range(3):
            for p in range(2):
                tb.read(p, r, rng.integers(p * 128, (p + 1) * 128, 200))
            tb.barrier()
        self.assert_agreement(tb.finish(), fa_params(2, lines=16))

    def assert_close(self, trace, params, rel=0.2):
        """Real benchmark traces are *not* line-granularity DRF (symmetric
        force updates write-share lines within an epoch), so the two
        engines may legitimately differ: the epoch engine misses the
        intra-epoch ping-pong (undercount) and re-invalidates same-epoch
        read-after-write copies (overcount).  Both effects are bounded."""
        hw = simulate_hardware(trace, params)
        mesi = simulate_mesi(trace, params)
        a, b = hw.total_l2_misses, mesi.total_misses
        assert abs(a - b) <= rel * max(a, b), (a, b)

    def test_real_app_trace(self):
        from repro.apps.base import AppConfig
        from repro.apps.moldyn import Moldyn

        app = Moldyn(AppConfig(n=256, nprocs=4, iterations=2, seed=3))
        self.assert_close(app.run(), fa_params(4, lines=64))

    def test_real_app_trace_reordered(self):
        from repro.apps.base import AppConfig
        from repro.apps.barnes_hut import BarnesHut

        app = BarnesHut(AppConfig(n=192, nprocs=4, iterations=1, seed=5))
        app.reorder("hilbert")
        self.assert_close(app.run(), fa_params(4, lines=64), rel=0.1)

    def test_reordering_improvement_agrees_across_engines(self):
        """The quantity the paper cares about — the original/reordered miss
        ratio — must agree between the engines even where absolute counts
        drift."""
        from repro.apps.base import AppConfig
        from repro.apps.moldyn import Moldyn

        ratios = {}
        for engine, sim in (("hw", simulate_hardware), ("mesi", simulate_mesi)):
            counts = {}
            for version in ("original", "column"):
                app = Moldyn(AppConfig(n=256, nprocs=4, iterations=2, seed=3))
                if version != "original":
                    app.reorder(version)
                res = sim(app.run(), fa_params(4, lines=64))
                counts[version] = (
                    res.total_l2_misses if engine == "hw" else res.total_misses
                )
            ratios[engine] = counts["original"] / counts["column"]
        assert ratios["hw"] == pytest.approx(ratios["mesi"], rel=0.25)
