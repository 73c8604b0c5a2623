"""Batch numerics against their scalar loop oracles.

Each vectorized stage of the app physics is checked against the scalar
formulation in ``tests/oracles/numerics.py`` — the level-synchronous
octree builder against the recursive one, the frontier-walk forces
against the per-body walk, the interaction list against the per-cell
scan — plus the FMM translation stacks and the shared bincount scatter
helper.  Equality is bitwise wherever the batch form claims it; the
whole-app consequence (unchanged trace bytes) is pinned by
``tests/apps/test_golden_traces.py``.
"""

import numpy as np
import pytest
from oracles import numerics as oracle

from repro.apps import APP_REGISTRY, AppConfig
from repro.apps import fmm_math as fm
from repro.apps import numerics as nx
from repro.apps.base import scatter_add
from repro.apps.moldyn import build_interaction_list
from repro.apps.octree import build_octree, walk


class TestScatterAdd:
    """The shared bincount scatter that replaced ``np.add.at``."""

    def test_1d_matches_add_at_bitwise(self, rng):
        idx = rng.integers(0, 50, 4000)
        vals = rng.standard_normal(4000)
        a = np.zeros(50)
        b = np.zeros(50)
        scatter_add(a, idx, vals)
        np.add.at(b, idx, vals)
        assert np.array_equal(a, b)

    def test_2d_matches_add_at_bitwise(self, rng):
        idx = rng.integers(0, 40, 2000)
        vals = rng.standard_normal((2000, 3))
        a = np.zeros((40, 3))
        b = np.zeros((40, 3))
        scatter_add(a, idx, vals)
        np.add.at(b, idx, vals)
        assert np.array_equal(a, b)

    def test_complex_matches_sequential_fold(self, rng):
        idx = rng.integers(0, 20, 500)
        vals = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        a = np.zeros(20, dtype=np.complex128)
        scatter_add(a, idx, vals)
        b = np.zeros(20, dtype=np.complex128)
        for i, v in zip(idx.tolist(), vals.tolist()):
            b[i] += v
        assert np.array_equal(a, b)

    def test_untouched_bins_keep_signed_zero(self):
        # -0.0 + 0.0 flips to +0.0; scatter_add must not touch empty bins.
        out = np.array([-0.0, 1.0])
        scatter_add(out, np.array([1]), np.array([2.0]))
        assert np.signbit(out[0]) and out[1] == 3.0

    def test_nonzero_accumulator_close(self, rng):
        # Onto a nonzero accumulator, bincount folds a bin's contributions
        # before the running value while add.at interleaves — equal to
        # rounding, not necessarily bitwise.
        idx = rng.integers(0, 10, 1000)
        vals = rng.standard_normal(1000)
        start = rng.standard_normal(10)
        a = start.copy()
        b = start.copy()
        scatter_add(a, idx, vals)
        np.add.at(b, idx, vals)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_not_slower_than_add_at(self, rng):
        from time import perf_counter

        idx = rng.integers(0, 4096, 200_000)
        vals = rng.standard_normal((200_000, 3))
        out = np.zeros((4096, 3))

        def best(fn, rounds=3):
            t = []
            for _ in range(rounds):
                t0 = perf_counter()
                fn()
                t.append(perf_counter() - t0)
            return min(t)

        t_at = best(lambda: np.add.at(out, idx, vals))
        t_sc = best(lambda: scatter_add(out, idx, vals))
        # scatter_add is typically ~10x faster; 3x slack keeps this a
        # regression tripwire rather than a flaky microbenchmark.
        assert t_sc < 3.0 * t_at


class TestOctreeEngines:
    @pytest.mark.parametrize("seed,n,cap", [(0, 500, 8), (1, 300, 4), (2, 64, 1)])
    def test_batch_tree_identical_to_recursive(self, seed, n, cap):
        rng = np.random.default_rng(seed)
        pos = rng.random((n, 3))
        mass = rng.random(n) + 0.1
        a = oracle.build_octree_recursive(pos, mass, leaf_capacity=cap)
        b = build_octree(pos, mass, leaf_capacity=cap)
        for f in (
            "center",
            "half",
            "mass",
            "com",
            "children",
            "is_leaf",
            "leaf_start",
            "leaf_count",
            "leaf_bodies",
            "body_leaf",
            "node_level",
        ):
            assert np.array_equal(getattr(a, f), getattr(b, f)), f
        assert a.ncells == b.ncells and a.depth == b.depth

    def test_coincident_points_hit_max_depth_identically(self):
        pos = np.zeros((20, 3))
        pos[10:] = 0.75
        a = oracle.build_octree_recursive(pos, leaf_capacity=2, max_depth=5)
        b = build_octree(pos, leaf_capacity=2, max_depth=5)
        assert a.ncells == b.ncells and a.depth == b.depth
        assert np.array_equal(a.leaf_bodies, b.leaf_bodies)

    def test_subtree_spans_match_reverse_scan(self, rng):
        pos = rng.random((400, 3))
        tree = build_octree(pos, leaf_capacity=4)
        lo, hi = nx.subtree_spans(tree)
        lo_ref, hi_ref = oracle.subtree_spans(tree)
        assert np.array_equal(lo, lo_ref) and np.array_equal(hi, hi_ref)


class TestBarnesHutForces:
    def test_frontier_matches_per_body_walk(self, rng):
        n = 300
        pos = rng.random((n, 3))
        mass = rng.random(n) / n + 1e-3
        tree = build_octree(pos, mass, leaf_capacity=8)
        order = rng.permutation(n)
        acc_l, cost_l, csr_l = oracle.bh_walk_forces(
            tree, pos, mass, 0.7, 0.05, order
        )
        wr = walk(tree, pos, 0.7)
        acc_b = nx.bh_forces_batch(tree, pos, mass, wr, 0.05)
        assert np.array_equal(acc_l, acc_b)
        assert np.array_equal(cost_l, wr.interactions_per_body(n))
        for x, y in zip(csr_l, wr.per_body_csr(n, order=order)):
            assert np.array_equal(x, y)


class TestFMMNumerics:
    def test_p2m_batch_matches_per_cell(self, rng):
        p = 8
        z = rng.random(60) + 1j * rng.random(60)
        q = rng.standard_normal(60)
        g = np.sort(rng.integers(0, 5, 60))
        z0 = np.arange(5) + 0.5 + 0.5j
        d = z - z0[g]
        batch = nx.p2m_batch(d, q, g, 5, p)
        for c in range(5):
            m = g == c
            assert np.array_equal(batch[c], fm.p2m(z[m], q[m], z0[c], p))

    @pytest.mark.parametrize("kind", ["m2m", "m2l", "l2l"])
    def test_stacks_match_scalar_matrices(self, rng, kind):
        # Not bitwise: numpy's vectorized complex multiply fuses the cross
        # terms (FMA) while the scalar path doesn't.  The apps share the
        # stack constructors across engines for exactly this reason.
        p = 8
        binom = fm.binomial_table(2 * p)
        zs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        zs += 3.0  # keep M2L separations well away from zero
        stack = {"m2m": nx.m2m_stack, "m2l": nx.m2l_stack, "l2l": nx.l2l_stack}[
            kind
        ](zs, p, binom)
        scalar = {"m2m": fm.m2m_matrix, "m2l": fm.m2l_matrix, "l2l": fm.l2l_matrix}[
            kind
        ]
        for i, z in enumerate(zs.tolist()):
            assert np.allclose(stack[i], scalar(z, p, binom), rtol=1e-13, atol=1e-13)

    def test_eval_local_deriv_batch_matches_per_cell(self, rng):
        p = 8
        b = rng.standard_normal((4, p + 1)) + 1j * rng.standard_normal((4, p + 1))
        z = rng.random(40) + 1j * rng.random(40)
        g = rng.integers(0, 4, 40)
        z0 = np.arange(4) * (1 + 1j)
        out = nx.eval_local_deriv_batch(b[g], z - z0[g])
        for c in range(4):
            m = g == c
            assert np.array_equal(out[m], fm.eval_local_deriv(b[c], z[m], z0[c]))

    def test_batched_translations_accurate_vs_direct(self, rng):
        # P2M -> M2M -> M2L -> L2L (all via the batched stacks) -> L2P
        # must reproduce the direct potential to expansion accuracy.
        p = 16
        binom = fm.binomial_table(2 * p)
        src = (rng.random(40) + 1j * rng.random(40)) * 0.25  # in [0, .25]^2
        q = rng.standard_normal(40)
        child = 0.125 + 0.125j
        parent = 0.25 + 0.25j
        local0 = 6.25 + 0.25j  # well separated from the parent box
        local1 = 6.125 + 0.125j
        targets = local1 + (rng.random(25) + 1j * rng.random(25) - 0.5 - 0.5j) * 0.2

        a = nx.p2m_batch(src - child, q, np.zeros(40, dtype=np.int64), 1, p)[0]
        a = nx.m2m_stack(np.array([child - parent]), p, binom)[0] @ a
        b = nx.m2l_stack(np.array([parent - local0]), p, binom)[0] @ a
        b = nx.l2l_stack(np.array([local1 - local0]), p, binom)[0] @ b
        phi = fm.eval_local(b, targets, local1)
        direct = fm.direct_potential(src, q, targets)
        assert np.allclose(phi, direct, rtol=0, atol=1e-10)


class TestInteractionListOracle:
    @pytest.mark.parametrize("seed,n", [(3, 200), (4, 500)])
    def test_loop_list_equals_batch_list(self, seed, n):
        rng = np.random.default_rng(seed)
        pos = rng.random((n, 3))
        for cutoff in (0.2, 0.34):
            a = oracle.interaction_list(pos, cutoff, 1.0)
            b = build_interaction_list(pos, cutoff, 1.0)
            assert np.array_equal(a, b)

    def test_empty_and_tiny(self):
        pos = np.array([[0.5, 0.5, 0.5]])
        assert oracle.interaction_list(pos, 0.3, 1.0).shape == (0, 2)
        assert build_interaction_list(pos, 0.3, 1.0).shape == (0, 2)


class TestByteIdenticalBundles:
    def test_physics_stages_populated(self):
        app = APP_REGISTRY["barnes-hut"](
            AppConfig(n=192, nprocs=4, iterations=3, seed=11)
        )
        app.run()
        assert app.physics_seconds > 0.0
        assert set(app.physics_stages) == {
            "tree_build",
            "partition",
            "walk",
            "forces",
            "integrate",
        }
        total = sum(app.physics_stages.values())
        assert total == pytest.approx(app.physics_seconds)
