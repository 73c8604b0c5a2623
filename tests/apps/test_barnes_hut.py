"""Tests for the Barnes-Hut benchmark."""

import numpy as np
import pytest
from oracles import bursts as oracle

from repro.apps.barnes_hut import BarnesHut
from repro.apps.base import AppConfig
from repro.apps.numerics import bh_forces_batch
from repro.apps.octree import build_octree, walk


def small(n=192, nprocs=4, iterations=1, seed=7, **extra):
    return BarnesHut(AppConfig(n=n, nprocs=nprocs, iterations=iterations, seed=seed, extra=extra))


class TestPhysics:
    def test_forces_match_direct_sum(self):
        app = small(n=128, theta=0.3)
        tree = build_octree(app.pos, app.mass)
        wr = walk(tree, app.pos, app.theta)
        acc = bh_forces_batch(tree, app.pos, app.mass, wr, app.eps)
        delta = app.pos[None, :, :] - app.pos[:, None, :]
        d2 = (delta**2).sum(-1) + app.eps**2
        f = app.mass[None, :, None] * delta / d2[:, :, None] ** 1.5
        idx = np.arange(128)
        f[idx, idx] = 0
        direct = f.sum(axis=1)
        err = np.linalg.norm(acc - direct, axis=1) / np.linalg.norm(direct, axis=1)
        assert np.median(err) < 0.01

    def test_momentum_roughly_conserved(self):
        app = small(n=128, iterations=3)
        app.run()
        p = (app.mass[:, None] * app.vel).sum(axis=0)
        # Equal masses, pairwise-ish forces through the tree: small drift.
        assert np.linalg.norm(p) < 0.05


class TestTrace:
    def test_phase_structure(self):
        app = small(iterations=2)
        t = app.run()
        labels = [e.label for e in t.epochs]
        assert labels == ["build_tree", "partition", "forces", "update"] * 2

    def test_sequential_tree_build_by_proc0(self):
        app = small()
        t = app.run()
        build = t.epochs_labelled("build_tree")[0]
        assert build.accesses(0) > 0
        for p in range(1, app.nprocs):
            assert build.accesses(p) == 0

    def test_every_body_updated_exactly_once_per_iteration(self):
        app = small()
        t = app.run()
        upd = t.epochs_labelled("update")[0]
        written = np.concatenate(
            [
                idx
                for p in range(app.nprocs)
                for region, write, idx in oracle.bursts(upd, p)
                if write and region == t.region_id("bodies")
            ]
        )
        assert np.array_equal(np.sort(written), np.arange(app.n))

    def test_forces_write_own_bodies_only(self):
        app = small()
        t = app.run()
        forces = t.epochs_labelled("forces")[0]
        bodies = t.region_id("bodies")
        owners = {}
        for p in range(app.nprocs):
            for region, write, idx in oracle.bursts(forces, p):
                if write and region == bodies:
                    for i in idx.tolist():
                        assert owners.setdefault(i, p) == p

    def test_work_balanced_by_cost(self):
        app = small(n=512, nprocs=4, iterations=2)
        t = app.run()
        forces = t.epochs_labelled("forces")[-1]  # second iter: real weights
        w = forces.work
        assert w.max() < 2.5 * max(w.min(), 1.0)

    def test_trace_validates(self):
        t = small().run()
        t.validate()  # raises on corruption

    def test_run_continues_state(self):
        app = small(iterations=1)
        pos_before = app.pos.copy()
        app.run()
        moved_once = app.pos.copy()
        assert not np.array_equal(pos_before, moved_once)
        app.run()
        assert not np.array_equal(moved_once, app.pos)


class TestReordering:
    def test_reorder_permutes_all_state(self):
        app = small()
        pos0, vel0, mass0 = app.pos.copy(), app.vel.copy(), app.mass.copy()
        r = app.reorder("hilbert")
        assert np.array_equal(app.pos, pos0[r.perm])
        assert np.array_equal(app.mass, mass0[r.perm])
        assert app.reordered_by == "hilbert"

    def test_reordering_preserves_physics(self):
        """The reordered run computes the same trajectories (up to the
        permutation) — reordering is purely a layout change."""
        a = small(n=96, iterations=2, seed=11)
        b = small(n=96, iterations=2, seed=11)
        r = b.reorder("hilbert")
        a.run()
        b.run()
        assert np.allclose(b.pos, a.pos[r.perm], atol=1e-10)
        assert np.allclose(b.vel, a.vel[r.perm], atol=1e-10)

    def test_reorder_reduces_update_false_sharing(self):
        from repro.trace import Layout, mean_sharers, page_sharers

        res = {}
        for version in ("original", "hilbert"):
            app = small(n=512, nprocs=8, iterations=1, seed=3)
            if version != "original":
                app.reorder(version)
            t = app.run()
            lay = Layout.for_trace(t, align=4096)
            res[version] = mean_sharers(page_sharers(t, lay, "bodies", 4096))
        assert res["hilbert"] < 0.6 * res["original"]

    def test_reorder_work_positive(self):
        assert small().reorder_work() > 0
