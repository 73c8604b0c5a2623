"""Equivalence tests: vectorized replay kernels vs the loop reference.

The kernels must be *count-for-count* identical to the OrderedDict
reference in ``tests/oracles/cache.py`` — misses, evictions, resident
set, and per-set LRU order — on randomized streams with interleaved
invalidations, including the empty-stream and collapse edge cases.  The
kernel side carries its state as the resident array between calls, as
the production replay does.  The whole-simulator test then checks that
the batched ``simulate_hardware`` agrees with the per-processor
reference replay.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.cache import LRUCache, SetAssocCache

from repro.machines.kernels import (
    collapse_runs,
    count_left_le,
    lru_kernel,
    reuse_distances,
    setassoc_kernel,
)


class KernelCache:
    """Kernel-side twin of an oracle cache: the resident array carried
    between :func:`setassoc_kernel` (one set: :func:`lru_kernel`) calls,
    invalidated with ``np.isin``."""

    def __init__(self, nsets, assoc):
        self.nsets, self.assoc = nsets, assoc
        self._resident = np.empty(0, dtype=np.int64)
        self.misses = self.evictions = self.accesses = 0

    def access_stream(self, keys, *, collapse=True):
        keys = np.asarray(keys, dtype=np.int64)
        self.accesses += keys.shape[0]
        if collapse:
            keys = collapse_runs(keys)
        if self.nsets == 1:
            res = lru_kernel(keys, self.assoc, self._resident)
        else:
            res = setassoc_kernel(keys, self.nsets, self.assoc, self._resident)
        self._resident = res.resident
        self.misses += res.misses
        self.evictions += res.evictions
        return res.misses

    def invalidate_present(self, keys):
        hit = np.isin(self._resident, keys)
        removed = self._resident[hit]
        self._resident = self._resident[~hit]
        return removed

    def resident(self):
        return self._resident


class TestCountLeftLe:
    def brute(self, vals):
        return [
            sum(1 for t in range(i) if vals[t] <= vals[i]) for i in range(len(vals))
        ]

    def test_small_cases(self):
        for vals in ([], [5], [3, 1, 2, 2, 0], [1, 1, 1], list(range(9, -1, -1))):
            arr = np.array(vals, dtype=np.int64)
            assert count_left_le(arr).tolist() == self.brute(vals)

    def test_random_matches_brute_force(self, rng):
        for n in (2, 3, 17, 64, 100, 257):
            vals = rng.integers(-5, 30, n)
            assert count_left_le(vals).tolist() == self.brute(vals.tolist())

    def test_non_power_of_two_lengths(self, rng):
        vals = rng.integers(0, 7, 1000)
        assert count_left_le(vals).tolist() == self.brute(vals.tolist())


class TestReuseDistances:
    def test_known_stream(self):
        # keys:  1  2  3  1  4  1
        # dist:  ∞  ∞  ∞  2  ∞  1
        d = reuse_distances(np.array([1, 2, 3, 1, 4, 1]))
        cold = np.iinfo(np.int64).max
        assert d.tolist() == [cold, cold, cold, 2, cold, 1]

    def test_miss_rule_matches_lru(self, rng):
        keys = rng.integers(0, 25, 400)
        for cap in (1, 2, 5, 16):
            expected = LRUCache(cap)
            misses = [not expected.access(int(k)) for k in keys]
            got = reuse_distances(keys) >= cap
            assert got.tolist() == misses


def _long_gap_stream(n_long, period, cycles, base=0):
    """``n_long`` keys, each followed by ``period`` accesses to 2 fillers.

    Every long key recurs once a cycle at reuse distance ``n_long + 1``,
    but the recent accesses before it hold only the two fillers and a few
    long keys, so the miss kernel's lookback cannot decide it until the
    window covers most of the gap.
    """
    filler = base + 1000 + np.arange(period) % 2
    one = np.concatenate(
        [np.concatenate([[base + i], filler]) for i in range(n_long)]
    )
    return np.tile(one, cycles).astype(np.int64)


class TestMissMaskDeepRounds:
    """``_miss_mask`` on streams whose long-gap rows defeat the lookback.

    ``deep`` needs three 4x retry rounds (rows undecided until the window
    covers ~3000 positions); ``sliver`` leaves fewer than n/64 undecided
    rows after the first pass, and ``sliver_after_round`` after one retry
    round — both finish with the per-query exact count.  Every verdict is
    checked against the exact reuse distances.
    """

    CASES = {
        "deep": (_long_gap_stream(30, 40, 4), (31, 32), False),
        "sliver": (_long_gap_stream(6, 200, 4), (7, 8), True),
        "sliver_after_round": (
            np.concatenate(
                [_long_gap_stream(3, 12, 40), _long_gap_stream(6, 200, 2, base=5000)]
            ),
            (7, 8),
            True,
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_reuse_distances(self, case, monkeypatch):
        from repro.machines import kernels

        keys, capacities, sliver = self.CASES[case]
        calls = []
        real = kernels._count_left_le_at

        def spy(vals, idx):
            calls.append(idx.size)
            return real(vals, idx)

        monkeypatch.setattr(kernels, "_count_left_le_at", spy)
        n = keys.shape[0]
        prev = kernels._prev_occurrence(keys)
        dist = reuse_distances(keys)
        for cap in capacities:
            miss = kernels._miss_mask(prev, np.full(n, n), cap)
            np.testing.assert_array_equal(miss, dist >= cap)
        # The boundary capacities give both verdicts on the long-gap rows.
        assert (dist[prev >= 0] == capacities[0]).any()
        assert bool(calls) == sliver
        assert all(m * 64 <= n for m in calls)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_clamped_distances_retry_like_miss_mask(self, case, monkeypatch):
        """``_clamped_distances`` shares the retry rounds: exact clamped
        distances, and no full O(n log^2 n) count on these streams."""
        from repro.machines import kernels

        keys, capacities, _ = self.CASES[case]
        n = keys.shape[0]
        prev = kernels._prev_occurrence(keys)
        dist = reuse_distances(keys)
        full = []
        real = kernels.count_left_le
        monkeypatch.setattr(
            kernels, "count_left_le", lambda v: full.append(1) or real(v)
        )
        for cmax in capacities:
            got = kernels._clamped_distances(prev, np.full(n, n), cmax)
            np.testing.assert_array_equal(got, np.minimum(dist, cmax))
        assert full == []


def _loop_twin(kind, nsets, assoc):
    if kind == "lru":
        return LRUCache(assoc)
    return SetAssocCache(nsets, assoc)


def assert_twins_equal(loop, kern):
    assert loop.misses == kern.misses
    assert loop.evictions == kern.evictions
    assert loop.accesses == kern.accesses
    assert loop.resident().tolist() == kern.resident().tolist()


@pytest.mark.parametrize(
    "kind,nsets,assoc",
    [("lru", 1, 1), ("lru", 1, 7), ("lru", 1, 64), ("sa", 4, 2), ("sa", 8, 1), ("sa", 16, 4)],
)
def test_kernel_equals_loop_with_invalidations(kind, nsets, assoc, rng):
    """Segmented replay with invalidations between segments: all counters
    and the exact resident order must match the reference at every step."""
    loop = _loop_twin(kind, nsets, assoc)
    kern = KernelCache(nsets, assoc)
    for seg in range(6):
        keys = rng.integers(0, 80, int(rng.integers(0, 300)))
        assert loop.access_stream(keys, collapse=False) == kern.access_stream(
            keys, collapse=False
        )
        assert_twins_equal(loop, kern)
        targets = np.unique(rng.integers(0, 80, int(rng.integers(0, 20))))
        n_loop = loop.invalidate(targets)
        removed = kern.invalidate_present(targets)
        assert n_loop == removed.shape[0]
        assert loop.resident().tolist() == kern.resident().tolist()


def test_empty_stream_and_empty_cache():
    for nsets, assoc in ((1, 4), (4, 2)):
        for c in (SetAssocCache(nsets, assoc), KernelCache(nsets, assoc)):
            assert c.access_stream(np.empty(0, dtype=np.int64)) == 0
            assert c.misses == 0 and c.resident().shape == (0,)
    res = setassoc_kernel(np.empty(0, dtype=np.int64), 4, 2, None)
    assert res.misses == 0 and res.evictions == 0 and res.resident.shape == (0,)
    res = lru_kernel(np.array([3, 3, 3]), 2)
    assert res.misses == 1 and res.resident.tolist() == [3]


def test_collapse_runs_same_counts_both_engines(rng):
    raw = np.repeat(rng.integers(0, 30, 200), rng.integers(1, 5, 200))
    for make in (lambda: LRUCache(8), lambda: KernelCache(1, 8)):
        a, b = make(), make()
        a.access_stream(raw, collapse=True)
        b.access_stream(raw, collapse=False)
        assert a.misses == b.misses
        # accesses counts the pre-collapse stream either way
        assert a.accesses == b.accesses == raw.shape[0]
        assert a.resident().tolist() == b.resident().tolist()


@given(
    data=st.data(),
    nsets=st.sampled_from([1, 2, 8]),
    assoc=st.integers(1, 5),
)
@settings(max_examples=40, deadline=None)
def test_property_streams_with_invalidations(data, nsets, assoc):
    loop = SetAssocCache(nsets, assoc)
    kern = KernelCache(nsets, assoc)
    nsegs = data.draw(st.integers(1, 4))
    for _ in range(nsegs):
        keys = np.array(
            data.draw(st.lists(st.integers(0, 40), max_size=120)), dtype=np.int64
        )
        collapse = data.draw(st.booleans())
        assert loop.access_stream(keys, collapse=collapse) == kern.access_stream(
            keys, collapse=collapse
        )
        inval = np.unique(
            np.array(data.draw(st.lists(st.integers(0, 40), max_size=10)), dtype=np.int64)
        )
        assert loop.invalidate(inval) == kern.invalidate_present(inval).shape[0]
        assert_twins_equal(loop, kern)


def test_simulate_hardware_engine_equivalence():
    """Whole-simulator equality: the per-processor loop replay on the
    Moldyn trace and the batched ``simulate_hardware`` give identical
    counters and timing."""
    from oracles import hardware as oracle
    from repro.apps import AppConfig, Moldyn
    from repro.machines.hardware import simulate_hardware
    from repro.machines.params import origin2000_scaled

    app = Moldyn(AppConfig(n=256, nprocs=4, iterations=2, seed=11))
    trace = app.run()
    params = origin2000_scaled(256, 4)
    a = oracle.simulate_hardware(trace, params)[0]
    b = simulate_hardware(trace, params)
    assert np.array_equal(a.l2_misses, b.l2_misses)
    assert np.array_equal(a.tlb_misses, b.tlb_misses)
    assert np.array_equal(a.invalidations, b.invalidations)
    assert np.array_equal(a.cold_misses, b.cold_misses)
    assert np.array_equal(a.coherence_misses, b.coherence_misses)
    assert np.array_equal(a.capacity_misses, b.capacity_misses)
    assert a.time == b.time
