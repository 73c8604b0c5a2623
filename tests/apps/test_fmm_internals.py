"""Tests for FMM internals: interaction lists, cell indexing, partitions."""

import numpy as np
import pytest

from repro.apps.base import AppConfig
from repro.apps.fmm import FMM


@pytest.fixture(scope="module")
def app():
    return FMM(AppConfig(n=256, nprocs=4, iterations=1, seed=2))


class TestVOffsets:
    @pytest.mark.parametrize("px,py", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_offsets_are_well_separated(self, app, px, py):
        for dx, dy in app._v_offsets(px, py):
            assert max(abs(dx), abs(dy)) >= 2

    @pytest.mark.parametrize("px,py", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_offsets_are_children_of_parent_neighbourhood(self, app, px, py):
        """Every V-list candidate lies inside the 6x6 block of children of
        the parent's 3x3 neighbourhood."""
        for dx, dy in app._v_offsets(px, py):
            # Child coordinate relative to parent-aligned origin.
            cx, cy = px + dx, py + dy
            assert -2 <= cx <= 3
            assert -2 <= cy <= 3

    @pytest.mark.parametrize("px,py", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_offset_count(self, app, px, py):
        """36 children of the parent neighbourhood minus the 3x3 near field
        = 27 interaction candidates."""
        assert len(app._v_offsets(px, py)) == 27

    def test_near_plus_v_covers_parent_neighbourhood(self, app):
        """V-list + near field together tile the 6x6 children exactly."""
        for px in (0, 1):
            for py in (0, 1):
                v = set(app._v_offsets(px, py))
                near = {
                    (dx, dy)
                    for dx in (-1, 0, 1)
                    for dy in (-1, 0, 1)
                }
                union = {(px + dx, py + dy) for dx, dy in v | near}
                assert union == {
                    (x, y) for x in range(-2, 4) for y in range(-2, 4)
                }


class TestCellIndexing:
    def test_cell_ids_bijective_per_level(self, app):
        for l in range(app.levels + 1):
            side = 1 << l
            iy, ix = np.divmod(np.arange(side * side), side)
            ids = app._cell_id(l, ix, iy)
            lo, hi = app.level_offset[l], app.level_offset[l + 1]
            assert ids.min() == lo and ids.max() == hi - 1
            assert np.unique(ids).shape[0] == side * side

    def test_levels_disjoint(self, app):
        seen = set()
        for l in range(app.levels + 1):
            side = 1 << l
            iy, ix = np.divmod(np.arange(side * side), side)
            ids = set(app._cell_id(l, ix, iy).tolist())
            assert not (seen & ids)
            seen |= ids
        assert len(seen) == app.ncells

    def test_morton_adjacent_cells_have_close_ids(self, app):
        """Within a level, Morton ordering keeps quadrant blocks
        contiguous: the first quadrant occupies the first quarter of ids."""
        l = app.levels
        side = 1 << l
        half = side // 2
        iy, ix = np.divmod(np.arange(side * side), side)
        sel = (ix < half) & (iy < half)
        ids = app._cell_id(l, ix[sel], iy[sel]) - app.level_offset[l]
        assert ids.max() < side * side // 4


class TestPartition:
    def test_partition_covers_all_finest_cells(self, app):
        side = 1 << app.levels
        counts = np.ones(side * side, dtype=np.int64)
        owner, parts = app._partition(counts, app.nprocs)
        allcells = np.sort(np.concatenate(parts))
        assert np.array_equal(allcells, np.arange(side * side))
        for pidx, cells in enumerate(parts):
            assert np.all(owner[cells] == pidx)

    def test_weighted_partition_balances(self, app):
        side = 1 << app.levels
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 50, side * side)
        owner, parts = app._partition(counts, app.nprocs)
        loads = np.array([counts[c].sum() for c in parts])
        assert loads.max() <= 2.5 * max(loads.mean(), 1.0)
