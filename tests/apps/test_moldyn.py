"""Tests for the Moldyn benchmark."""

import numpy as np
import pytest
from oracles import bursts as oracle

from repro.apps.base import AppConfig, block_partition
from repro.apps.moldyn import Moldyn, build_interaction_list


def small(n=256, nprocs=4, iterations=2, seed=5, **extra):
    return Moldyn(AppConfig(n=n, nprocs=nprocs, iterations=iterations, seed=seed, extra=extra))


class TestInteractionList:
    def test_matches_brute_force(self, rng):
        pos = rng.random((150, 3))
        cutoff = 0.2
        pairs = build_interaction_list(pos, cutoff, 1.0)
        got = {(int(a), int(b)) if a < b else (int(b), int(a)) for a, b in pairs}
        d = np.linalg.norm(pos[:, None] - pos[None, :], axis=2)
        want = {
            (i, j)
            for i in range(150)
            for j in range(i + 1, 150)
            if d[i, j] < cutoff
        }
        assert got == want

    def test_each_pair_once(self, rng):
        pos = rng.random((200, 3))
        pairs = build_interaction_list(pos, 0.25, 1.0)
        canon = np.sort(pairs, axis=1)
        assert np.unique(canon, axis=0).shape[0] == pairs.shape[0]

    def test_sorted_by_first_endpoint(self, rng):
        pos = rng.random((200, 3))
        pairs = build_interaction_list(pos, 0.25, 1.0)
        assert np.all(np.diff(pairs[:, 0]) >= 0)

    def test_empty_for_tiny_cutoff(self):
        pos = np.array([[0.1, 0.1, 0.1], [0.9, 0.9, 0.9]])
        assert build_interaction_list(pos, 0.05, 1.0).shape == (0, 2)

    def test_rejects_2d_points(self, rng):
        with pytest.raises(ValueError):
            build_interaction_list(rng.random((10, 2)), 0.1, 1.0)


class TestPhysics:
    def test_newtons_third_law(self):
        """Symmetric updates: total force is (numerically) zero."""
        app = small()
        app._lj_forces()
        scale = np.abs(app.force).max() + 1.0
        assert np.allclose(app.force.sum(axis=0) / scale, 0.0, atol=1e-12)

    def test_molecules_stay_in_box(self):
        app = small(iterations=4)
        app.run()
        assert app.pos.min() >= 0.0
        assert app.pos.max() <= app.box

    def test_cutoff_scales_with_density(self):
        a = small(n=128)
        b = small(n=1024)
        assert b.cutoff < a.cutoff


class TestTrace:
    def test_phase_labels(self):
        app = small(iterations=3, rebuild_every=2)
        t = app.run()
        labels = [e.label for e in t.epochs]
        # iter1: build_list, forces, update; iter2: forces, update (no
        # rebuild yet); iter3: build_list, forces, update.
        assert labels == [
            "build_list", "forces", "update",
            "forces", "update",
            "build_list", "forces", "update",
        ]

    def test_block_partition_writes_updates_own_block(self):
        app = small()
        t = app.run()
        upd = t.epochs_labelled("update")[0]
        for p, blk in enumerate(block_partition(app.n, app.nprocs)):
            for _region, write, idx in oracle.bursts(upd, p):
                if write:
                    assert np.array_equal(idx, blk)

    def test_forces_write_remote_partners(self):
        """Category 2 signature: symmetric updates write other blocks."""
        app = small()
        t = app.run()
        forces = t.epochs_labelled("forces")[0]
        found_remote = False
        for p, blk in enumerate(block_partition(app.n, app.nprocs)):
            lo, hi = blk[0], blk[-1]
            for _region, write, idx in oracle.bursts(forces, p):
                if write and ((idx < lo) | (idx > hi)).any():
                    found_remote = True
        assert found_remote

    def test_trace_validates(self):
        small().run().validate()


class TestReordering:
    def test_pairs_remapped_consistently(self):
        app = small(seed=9)
        pos0 = app.pos.copy()
        old_pairs = {
            tuple(sorted((tuple(pos0[a]), tuple(pos0[b]))))
            for a, b in app.pairs.tolist()
        }
        app.reorder("column")
        new_pairs = {
            tuple(sorted((tuple(app.pos[a]), tuple(app.pos[b]))))
            for a, b in app.pairs.tolist()
        }
        assert old_pairs == new_pairs

    def test_pairs_resorted_after_remap(self):
        app = small()
        app.reorder("hilbert")
        assert np.all(np.diff(app.pairs[:, 0]) >= 0)

    def test_column_beats_hilbert_on_pages_for_reads(self):
        """The paper's Figure 6 argument, measured: a processor's remote
        partners span fewer pages under column than under Hilbert order."""
        def remote_pages(version):
            app = small(n=2048, nprocs=8, seed=13)
            app.reorder(version)
            total = 0
            for blk in block_partition(app.n, 8):
                lo, hi = blk[0], blk[-1]
                sel = (app.pairs[:, 0] >= lo) & (app.pairs[:, 0] <= hi)
                partners = np.unique(app.pairs[sel, 1])
                remote = partners[(partners < lo) | (partners > hi)]
                total += np.unique(remote * 72 // 4096).shape[0]
            return total

        assert remote_pages("column") < remote_pages("hilbert")

    def test_reordering_preserves_physics(self):
        a = small(n=128, iterations=2, seed=21)
        b = small(n=128, iterations=2, seed=21)
        r = b.reorder("column")
        a.run()
        b.run()
        assert np.allclose(b.pos, a.pos[r.perm], atol=1e-10)


class TestPeriodicRereorder:
    """The drift extension: rereorder_every refreshes the layout."""

    def _run(self, rereorder_every, iterations=8):
        from repro.machines import simulate_treadmarks

        app = small(
            n=512,
            nprocs=8,
            iterations=iterations,
            seed=3,
            dt=3e-3,
            rereorder_every=rereorder_every,
        )
        app.reorder("column")
        trace = app.run()
        return app, trace, simulate_treadmarks(trace)

    def test_reorder_epochs_emitted(self):
        _, trace, _ = self._run(3)
        labels = [e.label for e in trace.epochs]
        assert "reorder" in labels

    def test_disabled_by_default(self):
        _, trace, _ = self._run(0)
        assert "reorder" not in {e.label for e in trace.epochs}

    def test_noop_without_initial_reordering(self):
        app = small(n=256, nprocs=4, iterations=4, rereorder_every=2)
        trace = app.run()  # never reordered: nothing to refresh
        assert "reorder" not in {e.label for e in trace.epochs}

    def test_rereorder_cuts_traffic_under_drift(self):
        *_, slow = self._run(0, iterations=10)
        *_, fast = self._run(3, iterations=10)
        assert fast.messages < slow.messages

    def test_physics_continuous_across_rereorder(self):
        """Re-reordering is a pure layout change: with identical
        interaction-list rebuild schedules (rebuild_every=1) the
        trajectories match as a multiset."""
        def run(rr):
            app = small(
                n=256, nprocs=4, iterations=4, seed=3,
                dt=1e-3, rereorder_every=rr, rebuild_every=1,
            )
            app.reorder("column")
            app.run()
            order = np.lexsort((app.pos[:, 2], app.pos[:, 1], app.pos[:, 0]))
            return app.pos[order]

        assert np.allclose(run(2), run(0), atol=1e-9)
