"""Tests for Water-Spatial internals: the cell grid and stencils."""

import numpy as np
import pytest
from oracles import bursts as oracle

from repro.apps.base import AppConfig
from repro.apps.water_spatial import WaterSpatial


@pytest.fixture(scope="module")
def app():
    return WaterSpatial(AppConfig(n=216, nprocs=4, iterations=1, seed=2))


class TestBinning:
    def test_every_molecule_in_its_cell(self, app):
        order, starts = app._bin()
        cid = app._cell_of(app.pos)
        for c in range(app.side**3):
            members = order[starts[c] : starts[c + 1]]
            assert np.all(cid[members] == c)

    def test_bin_partitions_all_molecules(self, app):
        order, starts = app._bin()
        assert np.array_equal(np.sort(order), np.arange(app.n))
        assert starts[0] == 0 and starts[-1] == app.n

    def test_cell_of_in_range(self, app):
        cid = app._cell_of(app.pos)
        assert cid.min() >= 0
        assert cid.max() < app.side**3


class TestHalfStencil:
    def test_each_adjacent_pair_counted_once(self, app):
        """The half stencil must enumerate every unordered pair of adjacent
        cells exactly once — double counting would double the physics."""
        seen = {}
        s = app.side
        for c in range(s**3):
            for d in app._neighbor_cells(c):
                key = (min(c, d), max(c, d))
                seen[key] = seen.get(key, 0) + 1
        assert all(v == 1 for v in seen.values())
        # Completeness: every adjacent (Chebyshev distance 1) pair present.
        def coords(c):
            return c // (s * s), (c // s) % s, c % s

        expected = 0
        for c in range(s**3):
            x, y, z = coords(c)
            for d in range(c + 1, s**3):
                u, v_, w = coords(d)
                if max(abs(x - u), abs(y - v_), abs(z - w)) == 1:
                    expected += 1
        assert len(seen) == expected

    def test_no_self_in_stencil(self, app):
        for c in range(app.side**3):
            assert c not in app._neighbor_cells(c)

    def test_stencil_in_bounds(self, app):
        for c in range(app.side**3):
            for d in app._neighbor_cells(c):
                assert 0 <= d < app.side**3


class TestConsistencyWithPhysics:
    def test_trace_reads_cover_cutoff_pairs(self, app):
        """Every pair within the cutoff is covered by some cell scan: the
        partner sets read in the forces epoch include all molecules within
        the cutoff of any owned molecule."""
        trace = WaterSpatial(
            AppConfig(n=216, nprocs=1, iterations=1, seed=2)
        ).run()
        forces = trace.epochs_labelled("forces")[0]
        mol = trace.region_id("molecules")
        read = np.unique(
            np.concatenate(
                [
                    idx
                    for region, write, idx in oracle.bursts(forces, 0)
                    if region == mol and not write
                ]
            )
        )
        # With one processor every molecule is scanned.
        assert np.array_equal(read, np.arange(216))
