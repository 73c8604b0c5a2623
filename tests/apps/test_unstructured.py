"""Tests for the Unstructured benchmark."""

import numpy as np
import pytest
from oracles import bursts as oracle

from repro.apps.base import AppConfig
from repro.apps.unstructured import Unstructured


def small(n=200, nprocs=4, iterations=2, seed=5, **extra):
    return Unstructured(
        AppConfig(n=n, nprocs=nprocs, iterations=iterations, seed=seed, extra=extra)
    )


class TestSetup:
    def test_mesh_generated(self):
        app = small()
        assert app.mesh.nnodes == 200
        assert app.mesh.edges.shape[0] > 200

    def test_mesh_injection(self):
        from repro.apps.mesh import make_mesh
        from repro.apps.distributions import uniform_box

        m = make_mesh(uniform_box(64, seed=1))
        app = Unstructured(
            AppConfig(n=64, nprocs=2, iterations=1, extra={"mesh": m})
        )
        assert app.mesh is m

    def test_bad_mesh_rejected(self):
        with pytest.raises(TypeError):
            Unstructured(AppConfig(n=10, nprocs=1, iterations=1, extra={"mesh": 42}))


class TestPhysics:
    def test_edge_relax_conserves_sum(self):
        app = small()
        before = app.value.sum()
        app._edge_relax()
        assert app.value.sum() == pytest.approx(before)

    def test_relaxation_smooths(self):
        app = small(iterations=4, relax=0.1)
        var_before = app.value.var()
        app.run()
        assert app.value.var() < var_before


class TestTrace:
    def test_phase_labels(self):
        t = small(iterations=2).run()
        assert [e.label for e in t.epochs] == [
            "node_loop", "edge_loop", "face_loop",
        ] * 2

    def test_no_faces_mode(self):
        t = small(use_faces=False).run()
        assert set(e.label for e in t.epochs) == {"node_loop", "edge_loop"}

    def test_edge_loop_covers_all_edges(self):
        app = small()
        t = app.run()
        e = t.epochs_labelled("edge_loop")[0]
        nodes = t.region_id("nodes")
        reads = np.concatenate(
            [
                idx
                for p in range(app.nprocs)
                for region, write, idx in oracle.bursts(e, p)
                if not write and region == nodes
            ]
        )
        assert reads.shape[0] == 2 * app.mesh.edges.shape[0]

    def test_locks_for_remote_endpoints(self):
        app = small(nprocs=8)
        t = app.run()
        e = t.epochs_labelled("edge_loop")[0]
        assert e.lock_acquires.sum() > 0

    def test_trace_validates(self):
        small().run().validate()


class TestReordering:
    def test_mesh_remapped(self):
        app = small(seed=7)
        pts0 = app.mesh.points.copy()
        edges0 = {
            tuple(sorted((tuple(pts0[a]), tuple(pts0[b]))))
            for a, b in app.mesh.edges.tolist()
        }
        app.reorder("column")
        edges1 = {
            tuple(sorted((tuple(app.mesh.points[a]), tuple(app.mesh.points[b]))))
            for a, b in app.mesh.edges.tolist()
        }
        assert edges0 == edges1

    def test_value_follows_nodes(self):
        app = small(seed=7)
        v0 = app.value.copy()
        r = app.reorder("hilbert")
        assert np.array_equal(app.value, v0[r.perm])

    def test_reordering_reduces_remote_edge_endpoints(self):
        """After column reordering, block-partitioned edge loops touch far
        fewer remote nodes (lock count is the proxy)."""
        locks = {}
        for version in ("original", "column"):
            app = small(n=512, nprocs=8, iterations=1, seed=3)
            if version != "original":
                app.reorder(version)
            t = app.run()
            e = t.epochs_labelled("edge_loop")[0]
            locks[version] = int(e.lock_acquires.sum())
        assert locks["column"] < locks["original"]
