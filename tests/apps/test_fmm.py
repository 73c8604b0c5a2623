"""Tests for the FMM benchmark."""

import numpy as np
import pytest
from oracles import bursts as oracle

from repro.apps import fmm_math as fm
from repro.apps.base import AppConfig
from repro.apps.fmm import FMM


def small(n=256, nprocs=4, iterations=1, seed=5, **extra):
    return FMM(AppConfig(n=n, nprocs=nprocs, iterations=iterations, seed=seed, extra=extra))


class TestAccuracy:
    def test_field_matches_direct_sum(self):
        app = small(n=300, p=10)
        z = app.pos[:, 0] + 1j * app.pos[:, 1]
        ref = fm.direct_field(z, app.charge, z)
        app.run()
        err = np.abs(app.field - ref) / np.maximum(np.abs(ref), 1e-12)
        assert np.median(err) < 1e-4
        assert err.max() < 0.05

    def test_higher_p_more_accurate(self):
        errs = []
        for p in (3, 8):
            app = small(n=200, p=p, seed=9)
            z = app.pos[:, 0] + 1j * app.pos[:, 1]
            ref = fm.direct_field(z, app.charge, z)
            app.run()
            errs.append(np.median(np.abs(app.field - ref) / np.abs(ref)))
        assert errs[1] < errs[0]


class TestStructure:
    def test_levels_scale_with_n(self):
        assert small(n=64).levels < small(n=4096).levels

    def test_cell_array_size(self):
        app = small(n=256)
        assert app.ncells == sum(4**l for l in range(app.levels + 1))

    def test_phase_labels(self):
        t = small(iterations=2).run()
        labels = [e.label for e in t.epochs]
        per_iter = [
            "build_tree", "partition", "build_list",
            "tree_traversal", "inter_particle", "intra_particle", "other",
        ]
        assert labels == per_iter * 2

    def test_partition_contiguous_in_morton_order(self):
        app = small(n=512, nprocs=4)
        side = 1 << app.levels
        counts = np.zeros(side * side, dtype=np.int64)
        counts[: side * side // 2] = 1
        owner, parts = app._partition(counts)
        ranks = app._morton_rank[app.levels]
        for p in range(4):
            r = np.sort(ranks[parts[p]])
            assert np.array_equal(r, np.arange(r[0], r[0] + r.shape[0]))

    def test_partition_balances_particles(self):
        app = small(n=1024, nprocs=8)
        t = app.run()
        tt = t.epochs_labelled("inter_particle")[0]
        w = tt.work
        assert w.max() < 4.0 * max(w.mean(), 1.0)

    def test_every_particle_written_in_other_phase(self):
        app = small()
        t = app.run()
        other = t.epochs_labelled("other")[0]
        pr = t.region_id("particles")
        written = np.concatenate(
            [
                idx
                for p in range(app.nprocs)
                for region, write, idx in oracle.bursts(other, p)
                if write and region == pr
            ]
        )
        assert np.array_equal(np.sort(written), np.arange(app.n))

    def test_locks_in_inter_particle(self):
        t = small(n=512, nprocs=8).run()
        inter = t.epochs_labelled("inter_particle")[0]
        assert inter.lock_acquires.sum() > 0

    def test_trace_validates(self):
        small().run().validate()


class TestReordering:
    def test_reorder_permutes_state(self):
        app = small()
        q0 = app.charge.copy()
        r = app.reorder("hilbert")
        assert np.array_equal(app.charge, q0[r.perm])

    def test_reordering_preserves_physics(self):
        a = small(n=200, seed=31)
        b = small(n=200, seed=31)
        r = b.reorder("hilbert")
        a.run()
        b.run()
        assert np.allclose(b.field, a.field[r.perm], atol=1e-9)

    def test_reordering_reduces_particle_sharing(self):
        from repro.trace import Layout, mean_sharers, page_sharers

        res = {}
        for version in ("original", "hilbert"):
            app = small(n=1024, nprocs=8, seed=3)
            if version != "original":
                app.reorder(version)
            t = app.run()
            lay = Layout.for_trace(t, align=4096)
            res[version] = mean_sharers(page_sharers(t, lay, "particles", 4096))
        assert res["hilbert"] < res["original"]
