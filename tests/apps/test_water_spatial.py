"""Tests for the Water-Spatial benchmark."""

import numpy as np
import pytest
from oracles import bursts as oracle

from repro.apps.base import AppConfig
from repro.apps.water_spatial import WaterSpatial, _grid_blocks


def small(n=256, nprocs=4, iterations=2, seed=5, **extra):
    return WaterSpatial(
        AppConfig(n=n, nprocs=nprocs, iterations=iterations, seed=seed, extra=extra)
    )


class TestGridBlocks:
    def test_covers_all_procs(self):
        owner = _grid_blocks(8, 16)
        assert set(owner.tolist()) == set(range(16))

    def test_blocks_are_contiguous_boxes(self):
        side, P = 8, 8
        owner = _grid_blocks(side, P).reshape(side, side, side)
        for p in range(P):
            xs, ys, zs = np.nonzero(owner == p)
            vol = (xs.max() - xs.min() + 1) * (ys.max() - ys.min() + 1) * (
                zs.max() - zs.min() + 1
            )
            assert vol == xs.shape[0]  # bounding box exactly filled

    def test_roughly_balanced(self):
        owner = _grid_blocks(8, 16)
        counts = np.bincount(owner, minlength=16)
        assert counts.max() <= 2 * counts.min()

    def test_single_proc(self):
        assert set(_grid_blocks(4, 1).tolist()) == {0}


class TestSetup:
    def test_default_order_random(self):
        app = small()
        d_adj = np.linalg.norm(np.diff(app.pos, axis=0), axis=1).mean()
        assert d_adj > 0.45  # spatially uncorrelated array order

    def test_lattice_order_option(self):
        """Lattice traversal order is far smoother than random order (only
        the per-axis wraparound steps are long)."""
        random_d = np.linalg.norm(np.diff(small().pos, axis=0), axis=1).mean()
        lattice_d = np.linalg.norm(
            np.diff(small(initial_order="lattice").pos, axis=0), axis=1
        ).mean()
        assert lattice_d < 0.6 * random_d

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            small(initial_order="sorted")

    def test_cutoff_equals_cell_width(self):
        app = small()
        assert app.cutoff == pytest.approx(app.box / app.side)


class TestRun:
    def test_phase_labels(self):
        app = small(iterations=2)
        t = app.run()
        assert [e.label for e in t.epochs] == ["forces", "update", "move"] * 2

    def test_molecules_stay_in_box(self):
        app = small(iterations=3)
        app.run()
        assert app.pos.min() >= 0 and app.pos.max() <= app.box

    def test_every_molecule_updated(self):
        app = small()
        t = app.run()
        upd = t.epochs_labelled("update")[0]
        mol = t.region_id("molecules")
        written = np.concatenate(
            [
                idx
                for p in range(app.nprocs)
                for region, write, idx in oracle.bursts(upd, p)
                if write and region == mol
            ]
        )
        assert np.array_equal(np.sort(written), np.arange(app.n))

    def test_locks_recorded_at_boundaries(self):
        app = small(nprocs=8)
        t = app.run()
        forces = t.epochs_labelled("forces")[0]
        assert forces.lock_acquires.sum() > 0

    def test_cells_region_written_in_move(self):
        app = small()
        t = app.run()
        move = t.epochs_labelled("move")[0]
        cells = t.region_id("cells")
        assert any(
            region == cells and write
            for p in range(app.nprocs)
            for region, write, idx in oracle.bursts(move, p)
        )

    def test_trace_validates(self):
        small().run().validate()


class TestReordering:
    def test_reorder_permutes_state(self):
        app = small()
        pos0 = app.pos.copy()
        r = app.reorder("hilbert")
        assert np.array_equal(app.pos, pos0[r.perm])

    def test_reordering_preserves_physics(self):
        a = small(n=128, iterations=2, seed=17)
        b = small(n=128, iterations=2, seed=17)
        r = b.reorder("hilbert")
        a.run()
        b.run()
        assert np.allclose(b.pos, a.pos[r.perm], atol=1e-10)

    def test_hilbert_reduces_write_sharing(self):
        from repro.trace import Layout, mean_sharers, page_sharers

        res = {}
        for version in ("original", "hilbert"):
            app = small(n=512, nprocs=8, seed=3, iterations=1)
            if version != "original":
                app.reorder(version)
            t = app.run()
            lay = Layout.for_trace(t, align=4096)
            res[version] = mean_sharers(page_sharers(t, lay, "molecules", 4096))
        assert res["hilbert"] < res["original"]
