"""Folded interval ladders vs independent per-size interval builds.

``build_interval_ladder`` summarizes a trace once at the finest page
size and folds the summaries up the 2x hierarchy.  The fold must be
*exact*: at every requested size the emitted ``EpochPageInfo`` lists —
page ids, write sets, and capped dirty-byte counts — equal what
``build_intervals`` computes from scratch at that size, and the DSM
sweep built on top must reproduce standalone per-point simulations
(including their default layouts) bit for bit.
"""

import numpy as np
import pytest

from repro.apps import AppConfig, BarnesHut
from repro.apps.moldyn import Moldyn
from repro.machines.dsm import (
    build_interval_ladder,
    build_intervals,
    simulate_dsm_sweep,
    simulate_hlrc,
    simulate_treadmarks,
)
from repro.machines.params import cluster_scaled

PAGE_SIZES = (512, 1024, 4096, 8192)


def _trace(app_cls, n=640, nprocs=4, iterations=2, seed=7, version=None):
    app = app_cls(AppConfig(n=n, nprocs=nprocs, iterations=iterations, seed=seed))
    if version:
        app.reorder(version)
    return app.run()


def assert_infos_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.label == w.label
        assert np.array_equal(g.work, w.work)
        assert np.array_equal(g.lock_acquires, w.lock_acquires)
        assert g.nprocs == w.nprocs
        for p in range(g.nprocs):
            assert np.array_equal(g.accesses[p], w.accesses[p]), p
            assert np.array_equal(g.writes[p], w.writes[p]), p
            assert np.array_equal(g.write_bytes[p], w.write_bytes[p]), p


class TestLadderEqualsPerSizeBuild:
    @pytest.mark.parametrize("version", [None, "hilbert"])
    def test_moldyn(self, version):
        trace = _trace(Moldyn, version=version)
        ladder, layout = build_interval_ladder(trace, PAGE_SIZES)
        for size in PAGE_SIZES:
            want, _ = build_intervals(trace, layout, page_size=size)
            assert_infos_equal(ladder[size], want)

    def test_barnes_hut(self):
        trace = _trace(BarnesHut)
        ladder, layout = build_interval_ladder(trace, PAGE_SIZES)
        for size in PAGE_SIZES:
            want, _ = build_intervals(trace, layout, page_size=size)
            assert_infos_equal(ladder[size], want)

    def test_single_size_ladder(self):
        trace = _trace(Moldyn)
        ladder, layout = build_intervals(trace, page_size=4096), None
        infos, lay = build_interval_ladder(trace, (4096,))
        want, _ = build_intervals(trace, lay, page_size=4096)
        assert_infos_equal(infos[4096], want)

    def test_memoized_sizes_skip_the_finest_pass(self, monkeypatch):
        """A second sweep on the same trace reads every size from the
        decode memo: no epoch is summarized again."""
        from repro.machines.dsm import intervals

        passes = []
        real = intervals._epoch_ladder_packed
        monkeypatch.setattr(
            intervals, "_epoch_ladder_packed",
            lambda *a: passes.append(1) or real(*a),
        )
        trace = _trace(Moldyn, n=256, iterations=1)
        base = cluster_scaled(nprocs=4)
        first = simulate_dsm_sweep(trace, base, PAGE_SIZES, protocols=("hlrc",))
        assert len(passes) == len(trace.epochs)
        passes.clear()
        again = simulate_dsm_sweep(trace, base, PAGE_SIZES, protocols=("hlrc",))
        assert passes == []
        for size in PAGE_SIZES:
            assert again["hlrc"][size].time == first["hlrc"][size].time
        # A size not yet memoized still needs the pass.
        simulate_dsm_sweep(trace, base, (256, 1024), protocols=("hlrc",))
        assert len(passes) == len(trace.epochs)

    def test_rejects_non_power_of_two(self):
        trace = _trace(Moldyn, n=128, iterations=1)
        with pytest.raises(Exception):
            build_interval_ladder(trace, (4096, 3000))


class TestDSMSweepEqualsStandalone:
    """Each sweep point == a standalone run with its own default layout."""

    def _assert_same(self, res, ref):
        assert res.messages == ref.messages
        assert res.data_bytes == ref.data_bytes
        assert res.time == ref.time
        assert res.barriers == ref.barriers
        assert res.lock_acquires == ref.lock_acquires
        assert np.array_equal(res.page_fetches, ref.page_fetches)
        assert np.array_equal(res.diff_fetches, ref.diff_fetches)
        assert np.array_equal(res.diff_bytes, ref.diff_bytes)
        assert res.phase_times == ref.phase_times

    def test_treadmarks_points(self):
        trace = _trace(Moldyn, version="hilbert")
        base = cluster_scaled(nprocs=4)
        out = simulate_dsm_sweep(
            trace, base, PAGE_SIZES, protocols=("treadmarks",)
        )["treadmarks"]
        for size in PAGE_SIZES:
            ref = simulate_treadmarks(trace, cluster_scaled(nprocs=4, page_size=size))
            self._assert_same(out[size], ref)

    def test_hlrc_points(self):
        trace = _trace(BarnesHut)
        base = cluster_scaled(nprocs=4)
        out = simulate_dsm_sweep(trace, base, PAGE_SIZES, protocols=("hlrc",))["hlrc"]
        for size in PAGE_SIZES:
            ref = simulate_hlrc(trace, cluster_scaled(nprocs=4, page_size=size))
            self._assert_same(out[size], ref)

    def test_both_protocols_one_ladder(self):
        trace = _trace(Moldyn)
        out = simulate_dsm_sweep(
            trace, cluster_scaled(nprocs=4), (1024, 4096)
        )
        assert set(out) == {"treadmarks", "hlrc"}
        assert set(out["treadmarks"]) == {1024, 4096}

    def test_unknown_protocol(self):
        trace = _trace(Moldyn, n=128, iterations=1)
        with pytest.raises(ValueError):
            simulate_dsm_sweep(trace, protocols=("magic",))
