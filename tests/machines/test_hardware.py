"""Tests for the hardware shared-memory simulator."""

import numpy as np
import pytest

from repro.machines.hardware import simulate_hardware
from repro.machines.params import HardwareParams, origin2000_scaled
from repro.trace.builder import TraceBuilder


def small_params(nprocs=2, l2_lines=16, tlb=4):
    return HardwareParams(
        nprocs=nprocs,
        line_size=64,
        l2_bytes=64 * l2_lines,
        l2_assoc=l2_lines,  # fully associative for predictability
        page_size=4096,
        tlb_entries=tlb,
    )


class TestColdMisses:
    def test_one_miss_per_line(self):
        tb = TraceBuilder(1)
        r = tb.add_region("o", 64, 8)  # 8 objects/64B line: 8 lines
        tb.read(0, r, np.arange(64))
        res = simulate_hardware(tb.finish(), small_params(1))
        assert res.total_l2_misses == 8

    def test_rereference_hits(self):
        tb = TraceBuilder(1)
        r = tb.add_region("o", 8, 8)
        tb.read(0, r, np.arange(8))
        tb.barrier()
        tb.read(0, r, np.arange(8))
        res = simulate_hardware(tb.finish(), small_params(1))
        assert res.total_l2_misses == 1  # one line, cached across epochs


class TestCoherence:
    def test_remote_write_invalidates(self):
        tb = TraceBuilder(2)
        r = tb.add_region("o", 8, 8)  # all on one line
        tb.read(0, r, [0])
        tb.barrier()
        tb.write(1, r, [1])
        tb.barrier()
        tb.read(0, r, [0])  # must miss: line invalidated
        res = simulate_hardware(tb.finish(), small_params(2))
        # Misses: p0 cold, p1 cold(write), p0 coherence = 3.
        assert res.total_l2_misses == 3
        assert res.invalidations.sum() == 1

    def test_false_sharing_visible(self):
        """Two procs writing different objects on one line ping-pong it."""
        tb = TraceBuilder(2)
        r = tb.add_region("o", 8, 8)
        for _ in range(4):
            tb.write(0, r, [0])
            tb.write(1, r, [1])
            tb.barrier()
        res_shared = simulate_hardware(tb.finish(), small_params(2))

        tb = TraceBuilder(2)
        r = tb.add_region("o", 16, 8)
        for _ in range(4):
            tb.write(0, r, [0])  # line 0
            tb.write(1, r, [8])  # line 1
            tb.barrier()
        res_private = simulate_hardware(tb.finish(), small_params(2))
        assert res_shared.total_l2_misses > res_private.total_l2_misses
        assert res_private.invalidations.sum() == 0

    def test_own_writes_do_not_invalidate_self(self):
        tb = TraceBuilder(2)
        r = tb.add_region("o", 8, 8)
        tb.write(0, r, [0])
        tb.barrier()
        tb.read(0, r, [0])
        res = simulate_hardware(tb.finish(), small_params(2))
        assert res.total_l2_misses == 1


class TestTLB:
    def test_tlb_thrash_vs_sequential(self):
        """Random page order misses the 4-entry TLB; sequential sweeps don't."""
        n_pages = 16
        objs_per_page = 512  # 8B objects, 4096B pages
        tb = TraceBuilder(1)
        r = tb.add_region("o", n_pages * objs_per_page, 8)
        rng = np.random.default_rng(0)
        scattered = rng.permutation(n_pages * objs_per_page)[:2000]
        tb.read(0, r, scattered)
        res_rand = simulate_hardware(tb.finish(), small_params(1))

        tb = TraceBuilder(1)
        r = tb.add_region("o", n_pages * objs_per_page, 8)
        tb.read(0, r, np.sort(scattered))
        res_seq = simulate_hardware(tb.finish(), small_params(1))
        assert res_rand.total_tlb_misses > 5 * res_seq.total_tlb_misses


class TestTiming:
    def test_time_increases_with_misses(self):
        params = small_params(1)
        tb = TraceBuilder(1)
        r = tb.add_region("o", 4096, 8)
        tb.read(0, r, np.arange(4096))
        t_many = simulate_hardware(tb.finish(), params).time
        tb = TraceBuilder(1)
        r = tb.add_region("o", 4096, 8)
        tb.read(0, r, np.zeros(4096, dtype=np.int64))
        t_few = simulate_hardware(tb.finish(), params).time
        assert t_many > t_few

    def test_epoch_time_is_max_over_procs(self):
        params = small_params(2)
        tb = TraceBuilder(2)
        tb.add_region("o", 8, 8)
        tb.work(0, 1000.0)
        tb.work(1, 10.0)
        t_imbalanced = simulate_hardware(tb.finish(), params).time
        tb = TraceBuilder(2)
        tb.add_region("o", 8, 8)
        tb.work(0, 505.0)
        tb.work(1, 505.0)
        t_balanced = simulate_hardware(tb.finish(), params).time
        assert t_imbalanced > t_balanced

    def test_phase_times_accumulate(self):
        tb = TraceBuilder(1, label="a")
        tb.add_region("o", 8, 8)
        tb.work(0, 10.0)
        tb.barrier("b")
        tb.work(0, 10.0)
        tb.barrier("a")
        tb.work(0, 10.0)
        res = simulate_hardware(tb.finish(), small_params(1))
        assert set(res.phase_times) == {"a", "b"}
        assert res.phase_times["a"] == pytest.approx(2 * res.phase_times["b"])

    def test_locks_charged(self):
        params = small_params(1)
        tb = TraceBuilder(1)
        tb.add_region("o", 8, 8)
        tb.work(0, 1.0)
        tb.lock(0, 100)
        t_locked = simulate_hardware(tb.finish(), params).time
        tb = TraceBuilder(1)
        tb.add_region("o", 8, 8)
        tb.work(0, 1.0)
        t_free = simulate_hardware(tb.finish(), params).time
        assert t_locked == pytest.approx(t_free + 100 * params.lock_time)


class TestParams:
    def test_origin_geometry(self):
        from repro.machines.params import ORIGIN2000

        assert ORIGIN2000.l2_lines == 65536
        assert ORIGIN2000.l2_sets == 32768
        assert 0 < ORIGIN2000.l2_miss_time() < 1e-5

    def test_scaled_shrinks_reach(self):
        s = origin2000_scaled(16)
        from repro.machines.params import ORIGIN2000

        assert s.l2_bytes == ORIGIN2000.l2_bytes // 16
        assert s.tlb_entries == max(ORIGIN2000.tlb_entries // 16, 8)  # floored
        assert s.line_size == ORIGIN2000.line_size  # granularity preserved

    def test_scale_below_one_rejected(self):
        with pytest.raises(ValueError):
            origin2000_scaled(0.5)

    def test_non_power_of_two_scale_yields_valid_geometry(self):
        """Scaling by an awkward factor must floor to a valid power-of-two
        geometry at construction, not be silently rounded mid-simulation."""
        s = origin2000_scaled(655.36)  # e.g. 65536 objects / n=100
        sets = s.l2_sets
        assert sets >= 1 and sets & (sets - 1) == 0
        assert s.l2_bytes % s.line_size == 0

    def test_power_of_two_scale_is_exact(self):
        from repro.machines.params import ORIGIN2000

        s = origin2000_scaled(64)
        assert s.l2_bytes == ORIGIN2000.l2_bytes // 64

    def test_non_power_of_two_set_count_rejected(self):
        from repro.errors import SimulationInputError

        with pytest.raises(SimulationInputError):
            HardwareParams(l2_bytes=3 * 128 * 2, line_size=128, l2_assoc=2)

    def test_bad_line_and_page_sizes_rejected(self):
        from repro.errors import SimulationInputError

        with pytest.raises(SimulationInputError):
            HardwareParams(line_size=96)
        with pytest.raises(SimulationInputError):
            HardwareParams(page_size=3000)
        with pytest.raises(SimulationInputError):
            HardwareParams(tlb_entries=0)


class TestMissClassification:
    def test_all_cold_for_single_proc_fitting_cache(self):
        tb = TraceBuilder(1)
        r = tb.add_region("o", 64, 8)
        tb.read(0, r, np.arange(64))
        res = simulate_hardware(tb.finish(), small_params(1, l2_lines=32))
        assert res.cold_misses[0] == 8
        assert res.coherence_misses[0] == 0
        assert res.capacity_misses[0] == 0
        assert res.l2_misses[0] == 8

    def test_coherence_misses_counted(self):
        tb = TraceBuilder(2)
        r = tb.add_region("o", 8, 8)
        tb.read(0, r, [0])
        tb.barrier()
        tb.write(1, r, [1])
        tb.barrier()
        tb.read(0, r, [0])
        res = simulate_hardware(tb.finish(), small_params(2))
        assert res.coherence_misses[0] == 1
        assert res.cold_misses[0] == 1
        assert res.capacity_misses.sum() == 0

    def test_capacity_misses_counted(self):
        tb = TraceBuilder(1)
        r = tb.add_region("o", 1024, 64)  # 1 object per line, 1024 lines
        tb.read(0, r, np.arange(1024))
        tb.barrier()
        tb.read(0, r, np.arange(1024))  # 16-line cache: all re-miss
        res = simulate_hardware(tb.finish(), small_params(1, l2_lines=16))
        assert res.cold_misses[0] == 1024
        assert res.capacity_misses[0] == 1024
        assert res.coherence_misses[0] == 0

    def test_classification_sums_to_total(self):
        from repro.apps import AppConfig, Moldyn

        app = Moldyn(AppConfig(n=256, nprocs=4, iterations=2, seed=3))
        res = simulate_hardware(app.run(), small_params(4, l2_lines=64))
        total = res.cold_misses + res.coherence_misses + res.capacity_misses
        assert np.array_equal(total, res.l2_misses)

    def test_invalidate_retouch_evict_split(self):
        """A line that is invalidated, re-touched, and later evicted must
        land in exactly one class per miss: cold on first touch, coherence
        on the post-invalidation re-touch, capacity on the post-eviction
        re-touch — across barriers."""
        tb = TraceBuilder(2)
        r = tb.add_region("o", 4, 64)  # one object per 64-byte line
        tb.read(0, r, [0])  # epoch 1: p0 touches line A -> cold
        tb.barrier()
        tb.write(1, r, [0])  # epoch 2: p1 writes A -> invalidated from p0
        tb.barrier()
        # epoch 3: p0 re-touches A (coherence), then touches B and C
        # (cold); capacity 2 evicts A.
        tb.read(0, r, [0])
        tb.read(0, r, [1, 2])
        tb.barrier()
        tb.read(0, r, [0])  # epoch 4: A evicted -> capacity miss
        res = simulate_hardware(tb.finish(), small_params(2, l2_lines=2))
        assert res.cold_misses[0] == 3  # A, B, C first touches
        assert res.coherence_misses[0] == 1  # A after invalidation
        assert res.capacity_misses[0] == 1  # A after eviction
        assert res.l2_misses[0] == 5
        assert res.cold_misses[1] == 1 and res.l2_misses[1] == 1
        assert res.classification_overcount.sum() == 0

    def test_classification_drift_warns_instead_of_clamping(self, monkeypatch):
        """If cold+coherence ever exceed the miss counter, the residual must
        surface as a diagnostic, not be floored to zero."""
        from repro.machines import hardware

        real = hardware._l2_epoch_misses

        def underreport(*args):
            misses, resident = real(*args)
            return np.maximum(misses - 1, 0), resident

        monkeypatch.setattr(hardware, "_l2_epoch_misses", underreport)
        tb = TraceBuilder(1)
        r = tb.add_region("o", 64, 64)
        tb.read(0, r, np.arange(64))
        with pytest.warns(RuntimeWarning, match="classification drift"):
            res = simulate_hardware(tb.finish(), small_params(1, l2_lines=16))
        assert res.classification_overcount[0] > 0
        assert res.capacity_misses[0] < 0  # exact residual, not clamped
        total = res.cold_misses + res.coherence_misses + res.capacity_misses
        assert np.array_equal(total, res.l2_misses)  # identity still exact

    def test_reordering_cuts_coherence_share(self):
        from repro.apps import AppConfig, Moldyn

        shares = {}
        for version in ("original", "hilbert"):
            app = Moldyn(AppConfig(n=512, nprocs=8, iterations=3, seed=3))
            if version != "original":
                app.reorder(version)
            res = simulate_hardware(app.run(), small_params(8, l2_lines=256))
            shares[version] = res.coherence_misses.sum()
        assert shares["hilbert"] < shares["original"]
