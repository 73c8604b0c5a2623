"""Tests for the per-access LRU cache models the replay kernels are
checked against (``tests/oracles/cache.py``), and for ``collapse_runs``."""

import numpy as np
import pytest
from oracles.cache import LRUCache, SetAssocCache

from repro.machines.kernels import collapse_runs


class TestCollapseRuns:
    def test_collapses_consecutive(self):
        out = collapse_runs(np.array([1, 1, 2, 2, 2, 1]))
        assert out.tolist() == [1, 2, 1]

    def test_empty_and_single(self):
        assert collapse_runs(np.array([], dtype=np.int64)).shape == (0,)
        assert collapse_runs(np.array([7])).tolist() == [7]


class TestLRUCache:
    def test_cold_misses(self):
        c = LRUCache(4)
        assert c.access_stream(np.array([1, 2, 3])) == 3
        assert c.misses == 3

    def test_hit_on_rereference(self):
        c = LRUCache(4)
        c.access_stream(np.array([1, 2]))
        assert c.access(1) is True
        assert c.misses == 2

    def test_lru_eviction_order(self):
        c = LRUCache(2)
        c.access_stream(np.array([1, 2, 3]))  # evicts 1
        assert 1 not in c
        assert 2 in c and 3 in c
        assert c.evictions == 1

    def test_access_refreshes_recency(self):
        c = LRUCache(2)
        c.access_stream(np.array([1, 2, 1, 3]))  # 2 is LRU, evicted
        assert 1 in c and 3 in c and 2 not in c

    def test_stream_equals_singles(self, rng):
        keys = rng.integers(0, 30, 500)
        a, b = LRUCache(8), LRUCache(8)
        a.access_stream(keys, collapse=False)
        for k in keys.tolist():
            b.access(k)
        assert a.misses == b.misses
        assert a.resident().tolist() == b.resident().tolist()

    def test_collapse_does_not_change_misses(self, rng):
        keys = np.repeat(rng.integers(0, 20, 100), rng.integers(1, 4, 100))
        a, b = LRUCache(8), LRUCache(8)
        a.access_stream(keys, collapse=True)
        b.access_stream(keys, collapse=False)
        assert a.misses == b.misses

    def test_classic_stack_distance_property(self):
        """Miss iff >= capacity distinct keys intervened since last use."""
        c = LRUCache(3)
        c.access_stream(np.array([1, 2, 3]))
        assert c.access(1) is True  # distance 2 < 3
        c.access_stream(np.array([4, 5, 6]))
        assert c.access(1) is False  # flushed

    def test_invalidate(self):
        c = LRUCache(4)
        c.access_stream(np.array([1, 2, 3]))
        assert c.invalidate(np.array([2, 9])) == 1
        assert 2 not in c
        assert c.access(2) is False

    def test_invalidate_counts_every_present_key(self):
        """Regression for the `pop(key, False) is None` idiom: the count is
        an explicit membership count, all present / none present / dupes."""
        c = LRUCache(8)
        c.access_stream(np.array([1, 2, 3, 4]))
        assert c.invalidate(np.array([1, 2, 3, 4])) == 4
        assert c.invalidate(np.array([1, 2, 3, 4])) == 0
        c.access_stream(np.array([5]))
        assert c.invalidate(np.array([5, 5])) == 1  # second is absent

    def test_invalidate_present_matches_invalidate(self, rng):
        a, b = LRUCache(16), LRUCache(16)
        keys = rng.integers(0, 40, 200)
        a.access_stream(keys, collapse=False)
        b.access_stream(keys, collapse=False)
        targets = rng.integers(0, 40, 10)
        assert a.invalidate(targets) == b.invalidate_present(targets).shape[0]
        assert a.resident().tolist() == b.resident().tolist()

    def test_accesses_counted_pre_collapse(self):
        """Streaming with collapse must report the same `accesses` as the
        per-access path would."""
        keys = np.array([1, 1, 1, 2, 2, 3])
        a, b = LRUCache(4), LRUCache(4)
        a.access_stream(keys, collapse=True)
        for k in keys.tolist():
            b.access(k)
        assert a.accesses == b.accesses == 6
        assert a.misses == b.misses

    def test_flush(self):
        c = LRUCache(4)
        c.access_stream(np.array([1, 2]))
        c.flush()
        assert len(c) == 0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class TestSetAssocCache:
    def test_capacity(self):
        c = SetAssocCache(8, 2)
        assert c.capacity == 16

    def test_degenerates_to_lru_with_one_set(self, rng):
        keys = rng.integers(0, 40, 800)
        sa = SetAssocCache(1, 16)
        fa = LRUCache(16)
        sa.access_stream(keys)
        fa.access_stream(keys)
        assert sa.misses == fa.misses

    def test_conflict_misses(self):
        """Keys mapping to the same set thrash a direct-mapped cache even
        though total capacity would hold them."""
        c = SetAssocCache(4, 1)
        keys = np.array([0, 4, 0, 4, 0, 4])  # same set (0), assoc 1
        assert c.access_stream(keys) == 6
        c2 = SetAssocCache(4, 2)
        assert c2.access_stream(keys) == 2

    def test_set_isolation(self):
        c = SetAssocCache(2, 1)
        c.access(0)  # set 0
        c.access(1)  # set 1
        assert 0 in c and 1 in c  # different sets, no eviction

    def test_invalidate_and_len(self):
        c = SetAssocCache(4, 2)
        c.access_stream(np.array([0, 1, 2, 3]))
        assert len(c) == 4
        assert c.invalidate(np.array([0, 1, 17])) == 2
        assert len(c) == 2

    def test_invalidate_counts_every_present_key(self):
        c = SetAssocCache(4, 2)
        c.access_stream(np.array([0, 1, 2, 3]))
        assert c.invalidate(np.array([0, 1, 2, 3])) == 4
        assert c.invalidate(np.array([0, 1, 2, 3])) == 0

    def test_invalidate_present_matches_invalidate(self, rng):
        a, b = SetAssocCache(8, 2), SetAssocCache(8, 2)
        keys = rng.integers(0, 64, 300)
        a.access_stream(keys, collapse=False)
        b.access_stream(keys, collapse=False)
        targets = rng.integers(0, 64, 12)
        assert a.invalidate(targets) == b.invalidate_present(targets).shape[0]
        assert a.resident().tolist() == b.resident().tolist()

    def test_stream_equals_singles(self, rng):
        keys = rng.integers(0, 64, 500)
        a, b = SetAssocCache(8, 2), SetAssocCache(8, 2)
        a.access_stream(keys, collapse=False)
        for k in keys.tolist():
            b.access(k)
        assert a.misses == b.misses

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            SetAssocCache(3, 2)
        with pytest.raises(ValueError):
            SetAssocCache(4, 0)
