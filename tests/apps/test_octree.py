"""Tests for the octree and the Barnes-Hut walk."""

import numpy as np
import pytest

from repro.apps.distributions import plummer, uniform_box
from repro.apps.octree import build_octree, walk


class TestBuild:
    def test_every_body_in_exactly_one_leaf(self, rng):
        pos = rng.random((500, 3))
        tree = build_octree(pos, leaf_capacity=8)
        assert np.array_equal(np.sort(tree.leaf_bodies), np.arange(500))
        assert np.all(tree.body_leaf >= 0)
        for i in range(0, 500, 37):
            assert i in tree.leaf_members(tree.body_leaf[i]).tolist()

    def test_leaf_capacity_respected(self, rng):
        pos = rng.random((300, 3))
        tree = build_octree(pos, leaf_capacity=4)
        leaves = tree.leaf_ids()
        assert tree.leaf_count[leaves].max() <= 4

    def test_bodies_inside_their_cells(self, rng):
        pos = rng.random((200, 3))
        tree = build_octree(pos)
        for c in tree.leaf_ids().tolist():
            mem = tree.leaf_members(c)
            if mem.shape[0]:
                d = np.abs(pos[mem] - tree.center[c][None, :])
                assert np.all(d <= tree.half[c] * (1 + 1e-6))

    def test_mass_and_com(self, rng):
        pos = rng.random((100, 3))
        mass = rng.random(100) + 0.1
        tree = build_octree(pos, mass)
        assert tree.mass[0] == pytest.approx(mass.sum())
        com = (mass[:, None] * pos).sum(axis=0) / mass.sum()
        assert np.allclose(tree.com[0], com)

    def test_children_created_after_parent(self, rng):
        """Creation (DFS) order: every child id exceeds its parent's."""
        pos = rng.random((200, 3))
        tree = build_octree(pos)
        for c in range(tree.ncells):
            kids = tree.children[c][tree.children[c] >= 0]
            assert np.all(kids > c)

    def test_inorder_is_spatially_local(self):
        pos = plummer(1000, seed=1)
        tree = build_octree(pos)
        order = tree.inorder_bodies()
        d_tree = np.linalg.norm(np.diff(pos[order], axis=0), axis=1).mean()
        d_array = np.linalg.norm(np.diff(pos, axis=0), axis=1).mean()
        assert d_tree < d_array / 3

    def test_2d_tree(self, rng):
        pos = rng.random((100, 2))
        tree = build_octree(pos)
        assert tree.ndim == 2
        assert tree.children.shape[1] == 4

    def test_single_body(self):
        tree = build_octree(np.array([[0.5, 0.5, 0.5]]))
        assert tree.ncells == 1
        assert tree.is_leaf[0]

    def test_coincident_bodies_hit_max_depth(self):
        pos = np.zeros((20, 3))
        tree = build_octree(pos, leaf_capacity=2, max_depth=5)
        assert tree.depth <= 5
        assert np.array_equal(np.sort(tree.leaf_bodies), np.arange(20))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_octree(np.empty((0, 3)))


class TestWalk:
    def test_every_pair_accounted_once(self):
        """Each (body, other) interaction appears exactly once — either as
        a direct pair or inside exactly one accepted ancestor cell."""
        pos = uniform_box(60, seed=2)
        tree = build_octree(pos, leaf_capacity=4)
        wr = walk(tree, pos, theta=0.5)
        for b in range(0, 60, 7):
            covered = np.zeros(60, dtype=int)
            covered[wr.direct_other[wr.direct_body == b]] += 1
            for c in wr.cell_id[wr.cell_body == b]:
                covered[tree.leaf_members(c) if tree.is_leaf[c] else _subtree_bodies(tree, c)] += 1
            covered[b] += 1  # self
            assert np.all(covered == 1)

    def test_small_theta_more_direct_work(self):
        pos = uniform_box(200, seed=3)
        tree = build_octree(pos)
        strict = walk(tree, pos, theta=0.2)
        loose = walk(tree, pos, theta=1.0)
        n_strict = strict.cell_body.shape[0] + strict.direct_body.shape[0]
        n_loose = loose.cell_body.shape[0] + loose.direct_body.shape[0]
        assert n_strict > n_loose

    def test_no_self_pairs(self):
        pos = uniform_box(100, seed=4)
        tree = build_octree(pos)
        wr = walk(tree, pos, theta=0.6)
        assert np.all(wr.direct_body != wr.direct_other)

    def test_active_subset(self):
        pos = uniform_box(100, seed=5)
        tree = build_octree(pos)
        active = np.array([3, 7, 11])
        wr = walk(tree, pos, theta=0.6, active=active)
        touched = set(wr.cell_body.tolist()) | set(wr.direct_body.tolist())
        assert touched <= set(active.tolist())

    def test_interactions_per_body_counts(self):
        pos = uniform_box(80, seed=6)
        tree = build_octree(pos)
        wr = walk(tree, pos, theta=0.6)
        counts = wr.interactions_per_body(80)
        assert counts.sum() == wr.cell_body.shape[0] + wr.direct_body.shape[0]
        assert np.all(counts > 0)

    def test_rejects_bad_theta(self):
        pos = uniform_box(10, seed=8)
        tree = build_octree(pos)
        with pytest.raises(ValueError):
            walk(tree, pos, theta=0.0)


def _subtree_bodies(tree, c):
    out = []
    stack = [int(c)]
    while stack:
        node = stack.pop()
        if tree.is_leaf[node]:
            out.append(tree.leaf_members(node))
        else:
            stack.extend(int(k) for k in tree.children[node] if k >= 0)
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)
