"""Tests for the Reordering object and the paper-style reorder functions."""

import numpy as np
import pytest

from repro.core.reorder import (
    Reordering,
    column_reorder,
    hilbert_reorder,
    morton_reorder,
    reorder,
    reorder_by_keys,
    row_reorder,
)


class TestReorderingObject:
    def test_identity(self):
        r = Reordering.identity(5)
        x = np.arange(5) * 10
        assert np.array_equal(r.apply(x), x)
        assert r.method == "identity"

    def test_from_perm_builds_rank(self):
        r = Reordering.from_perm(np.array([2, 0, 1]))
        assert np.array_equal(r.rank, [1, 2, 0])

    def test_rejects_inconsistent_rank(self):
        with pytest.raises(ValueError):
            Reordering(perm=np.array([1, 0]), rank=np.array([0, 1]))

    def test_apply_struct_and_2d(self, rng):
        r = Reordering.from_perm(rng.permutation(8))
        a2d = rng.random((8, 3))
        assert np.array_equal(r.apply(a2d), a2d[r.perm])
        dt = np.dtype([("pos", "f8", 3), ("m", "f8")])
        s = np.zeros(8, dtype=dt)
        s["m"] = np.arange(8)
        assert np.array_equal(r.apply(s)["m"], r.perm)

    def test_apply_rejects_wrong_length(self):
        r = Reordering.identity(4)
        with pytest.raises(ValueError):
            r.apply(np.zeros(5))

    def test_remap_indices_consistency(self, rng):
        """After moving objects and remapping an index array, dereferencing
        yields the same objects as before — the core invariant that keeps
        interaction lists correct."""
        n = 50
        perm = rng.permutation(n)
        r = Reordering.from_perm(perm)
        objects = rng.random(n)
        idx = rng.integers(0, n, 200)
        new_objects = r.apply(objects)
        new_idx = r.remap_indices(idx)
        assert np.array_equal(new_objects[new_idx], objects[idx])

    def test_remap_preserves_sentinel(self):
        r = Reordering.from_perm(np.array([1, 0]))
        out = r.remap_indices(np.array([-1, 0, 1, -1]))
        assert out.tolist() == [-1, 1, 0, -1]

    def test_remap_preserves_dtype(self):
        r = Reordering.identity(4)
        out = r.remap_indices(np.array([0, 1], dtype=np.int32))
        assert out.dtype == np.int32

    def test_remap_rejects_floats(self):
        with pytest.raises(TypeError):
            Reordering.identity(3).remap_indices(np.array([0.5]))

    def test_remap_rejects_out_of_range(self):
        """Regression: entries >= n used to be silently clipped onto the
        last object — a stale interaction-list entry must fail loudly."""
        r = Reordering.from_perm(np.array([1, 2, 0]))
        with pytest.raises(ValueError, match="out of range"):
            r.remap_indices(np.array([0, 3]))
        with pytest.raises(ValueError, match="out of range"):
            r.remap_indices(np.array([[1, 10_000]]))
        # Negative sentinels stay allowed alongside valid entries.
        out = r.remap_indices(np.array([-1, 2, -7]))
        assert out.tolist() == [-1, r.rank[2], -7]

    def test_remap_empty_is_fine(self):
        out = Reordering.identity(3).remap_indices(np.empty(0, dtype=np.int64))
        assert out.shape == (0,)

    def test_compose(self, rng):
        a = Reordering.from_perm(rng.permutation(10))
        b = Reordering.from_perm(rng.permutation(10))
        x = rng.random(10)
        assert np.array_equal(a.compose(b).apply(x), b.apply(a.apply(x)))

    def test_compose_size_mismatch(self):
        with pytest.raises(ValueError):
            Reordering.identity(3).compose(Reordering.identity(4))

    def test_inverse_undoes(self, rng):
        r = Reordering.from_perm(rng.permutation(12))
        x = rng.random(12)
        assert np.array_equal(r.inverse().apply(r.apply(x)), x)


class TestPaperStyleFunctions:
    def test_hilbert_reorder_sorts_by_curve(self, rng):
        pts = rng.random((300, 3))
        r = hilbert_reorder(pts)
        from repro.core.sfc import hilbert_keys

        keys = hilbert_keys(pts, bits=16)
        assert np.all(np.diff(keys[r.perm].astype(np.int64)) >= 0)

    def test_column_reorder_sorts_by_x(self, rng):
        pts = rng.random((300, 3))
        r = column_reorder(pts)
        xs = r.apply(pts)[:, 0]
        # x is the most significant key component: quantized-x monotone.
        qx = (xs * 0.999 * 65536).astype(int) >> 16
        assert np.all(np.diff(qx) >= 0)

    @pytest.mark.parametrize(
        "fn,name",
        [
            (hilbert_reorder, "hilbert"),
            (morton_reorder, "morton"),
            (column_reorder, "column"),
            (row_reorder, "row"),
        ],
    )
    def test_method_recorded_and_valid_permutation(self, fn, name, rng):
        pts = rng.random((100, 2))
        r = fn(pts)
        assert r.method == name
        assert np.array_equal(np.sort(r.perm), np.arange(100))

    def test_coords_kwarg(self, rng):
        objects = rng.random(64)  # 1-D payload, coords given separately
        coords = rng.random((64, 3))
        r = reorder("hilbert", coords=coords)
        assert r.apply(objects).shape == (64,)

    def test_structured_pos_field(self, rng):
        dt = np.dtype([("pos", "f8", 3), ("m", "f8")])
        s = np.zeros(32, dtype=dt)
        s["pos"] = rng.random((32, 3))
        r = hilbert_reorder(s)
        assert r.n == 32

    def test_coord_accessor_matches_coords(self, rng):
        """The C-style per-element accessor must agree with the array path."""
        pts = rng.random((40, 3))

        def coord(objs, i, d):
            return pts[i, d]

        r1 = reorder("hilbert", objects=pts, coord=coord, ndim=3)
        r2 = reorder("hilbert", coords=pts)
        assert np.array_equal(r1.perm, r2.perm)

    def test_coord_accessor_called_per_element(self, rng):
        """The fromiter batching must keep element-wise semantics: the
        accessor still sees one scalar (i, dim) at a time, n*ndim calls."""
        pts = rng.random((17, 2))
        calls = []

        def coord(objs, i, d):
            calls.append((i, d))
            assert isinstance(i, int) and isinstance(d, int)
            return pts[i, d]

        reorder("morton", objects=pts, coord=coord, ndim=2)
        assert len(calls) == 17 * 2
        assert set(calls) == {(i, d) for i in range(17) for d in range(2)}

    def test_accessor_requires_ndim(self, rng):
        with pytest.raises(ValueError):
            reorder("hilbert", objects=rng.random((4, 3)), coord=lambda o, i, d: 0.0)

    def test_no_coordinates_raises(self):
        with pytest.raises(ValueError):
            reorder("hilbert")

    def test_idempotent(self, rng):
        """Reordering an already-reordered array is a no-op (stable ties)."""
        pts = rng.random((256, 3))
        r1 = hilbert_reorder(pts)
        pts2 = r1.apply(pts)
        r2 = hilbert_reorder(pts2)
        assert np.array_equal(r2.perm, np.arange(256))

    def test_reorder_by_keys(self, rng):
        keys = rng.integers(0, 50, 100)
        r = reorder_by_keys(keys, method="custom")
        assert np.all(np.diff(keys[r.perm]) >= 0)
