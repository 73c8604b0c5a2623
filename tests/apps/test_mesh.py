"""Tests for the synthetic unstructured mesh generators."""

import sys
from itertools import combinations

import numpy as np
import pytest
from oracles import mesh as oracle

from repro.apps.distributions import uniform_box
from repro.apps.mesh import Mesh, _canonical_rows, delaunay_mesh, make_mesh
from repro.errors import ConfigError, MissingDependencyError


class TestDelaunay:
    def test_connectivity_canonical(self, rng):
        pts = uniform_box(200, seed=1)
        m = delaunay_mesh(pts)
        assert np.all(m.edges[:, 0] < m.edges[:, 1])
        assert np.all(np.diff(m.edges[:, 0]) >= 0)
        assert np.all((m.faces[:, 0] < m.faces[:, 1]) & (m.faces[:, 1] < m.faces[:, 2]))

    def test_edges_unique(self):
        m = delaunay_mesh(uniform_box(150, seed=2))
        assert np.unique(m.edges, axis=0).shape[0] == m.edges.shape[0]

    def test_edges_connect_nearby_nodes(self):
        """The paper's premise: 'edges or faces only connect physically
        adjacent nodes' — edge lengths far below random-pair distance."""
        pts = uniform_box(500, seed=3)
        m = delaunay_mesh(pts)
        edge_len = np.linalg.norm(pts[m.edges[:, 0]] - pts[m.edges[:, 1]], axis=1)
        rng = np.random.default_rng(0)
        rand_len = np.linalg.norm(
            pts[rng.integers(0, 500, 1000)] - pts[rng.integers(0, 500, 1000)], axis=1
        ).mean()
        assert np.median(edge_len) < rand_len / 2

    def test_every_node_connected(self):
        m = delaunay_mesh(uniform_box(100, seed=4))
        assert set(np.unique(m.edges).tolist()) == set(range(100))

    def test_faces_are_triangles_of_edges(self):
        m = delaunay_mesh(uniform_box(80, seed=5))
        edge_set = {tuple(e) for e in m.edges.tolist()}
        for a, b, c in m.faces[:50].tolist():
            assert (a, b) in edge_set and (b, c) in edge_set and (a, c) in edge_set


class TestCanonical:
    """The 1-D row keys give the oracle's 2-D unique + lexsort order."""

    @staticmethod
    def _rows(rng, n, count, width):
        rows = rng.integers(0, n, size=(count, width))
        rows[: count // 4] = rows[count // 4 : 2 * (count // 4)]  # duplicates
        rows[-5:, 1] = rows[-5:, 0]  # degenerate a == b
        if width == 3:
            rows[-10:-5, 2] = rows[-10:-5, 1]  # degenerate b == c
        return rows

    @pytest.mark.parametrize("n", [2, 7, 50, 1000])
    def test_matches_oracle_bitwise(self, rng, n):
        edges = self._rows(rng, n, 400, 2)
        faces = self._rows(rng, n, 600, 3)
        got = _canonical_rows(edges, n), _canonical_rows(faces, n)
        want = oracle.canonical(edges, faces)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def test_delaunay_rows_match_oracle(self):
        pts = uniform_box(300, seed=10)
        m = delaunay_mesh(pts)
        from scipy.spatial import Delaunay

        simp = Delaunay(pts).simplices.astype(np.int64)
        edges = np.concatenate([simp[:, list(c)] for c in combinations(range(4), 2)])
        faces = np.concatenate([simp[:, list(c)] for c in combinations(range(4), 3)])
        want_e, want_f = oracle.canonical(edges, faces)
        assert m.edges.tobytes() == want_e.tobytes()
        assert m.faces.tobytes() == want_f.tobytes()

    def test_remap_matches_oracle(self, rng):
        m = make_mesh(uniform_box(200, seed=12))
        rank = rng.permutation(200)
        want = oracle.canonical(rank[m.edges], rank[m.faces])
        got = m.remap(rank)
        assert got.edges.tobytes() == want[0].tobytes()
        assert got.faces.tobytes() == want[1].tobytes()

    def test_key_overflow_rejected(self):
        faces = np.array([[0, 1, 2]], dtype=np.int64)
        _canonical_rows(faces, 2**21 - 1)  # (2**21 - 1)**3 < 2**63
        with pytest.raises(ConfigError, match="too large"):
            _canonical_rows(faces, 2**21)


class TestScipyRequired:
    def test_missing_scipy_is_typed(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy.spatial", None)
        with pytest.raises(MissingDependencyError, match="scipy"):
            make_mesh(uniform_box(20, seed=11))


class TestRemap:
    def test_remap_preserves_geometry(self, rng):
        pts = uniform_box(100, seed=8)
        m = make_mesh(pts)
        perm = rng.permutation(100)
        rank = np.empty(100, dtype=np.int64)
        rank[perm] = np.arange(100)
        m2 = Mesh(points=pts[perm], edges=m.edges, faces=m.faces).remap(rank)
        old = {
            tuple(sorted((tuple(pts[a]), tuple(pts[b])))) for a, b in m.edges.tolist()
        }
        new = {
            tuple(sorted((tuple(m2.points[a]), tuple(m2.points[b]))))
            for a, b in m2.edges.tolist()
        }
        assert old == new

    def test_remap_restores_canonical_order(self, rng):
        pts = uniform_box(100, seed=9)
        m = make_mesh(pts)
        perm = rng.permutation(100)
        rank = np.empty(100, dtype=np.int64)
        rank[perm] = np.arange(100)
        m2 = m.remap(rank)
        assert np.all(m2.edges[:, 0] < m2.edges[:, 1])
        assert np.all(np.diff(m2.edges[:, 0]) >= 0)
