"""Equivalence tests: vectorized replay kernels vs the loop reference.

The kernels must be *count-for-count* identical to the OrderedDict
reference — misses, evictions, resident set, and per-set LRU order —
on randomized streams with interleaved invalidations, including the
empty-stream and collapse edge cases.  The whole-simulator test then
checks that the per-processor reference replay produces identical results
whichever engine its caches dispatch to, and that the batched
``simulate_hardware`` agrees with it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines import cache as cache_mod
from repro.machines.cache import LRUCache, SetAssocCache, collapse_runs
from repro.machines.kernels import (
    count_left_le,
    lru_kernel,
    reuse_distances,
    setassoc_kernel,
)


@pytest.fixture
def force_engine(monkeypatch):
    def _force(name):
        monkeypatch.setattr(cache_mod, "DEFAULT_ENGINE", name)

    return _force


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


def _loop_twin(kind, nsets, assoc):
    if kind == "lru":
        return LRUCache(assoc)
    return SetAssocCache(nsets, assoc)


@pytest.mark.parametrize(
    "kind,nsets,assoc",
    [("lru", 1, 1), ("lru", 1, 7), ("lru", 1, 64), ("sa", 4, 2), ("sa", 8, 1), ("sa", 16, 4)],
)
def test_kernel_equals_loop_with_invalidations(kind, nsets, assoc, rng):
    """Segmented replay with invalidations between segments: all counters
    and the exact resident order must match the reference at every step."""
    loop = _loop_twin(kind, nsets, assoc)
    kern = _loop_twin(kind, nsets, assoc)
    for seg in range(6):
        keys = rng.integers(0, 80, int(rng.integers(0, 300)))
        m_loop = loop.access_stream(keys, collapse=False, engine="loop")
        m_kern = kern.access_stream(keys, collapse=False, engine="kernel")
        assert m_loop == m_kern
        assert loop.misses == kern.misses
        assert loop.evictions == kern.evictions
        assert loop.accesses == kern.accesses
        assert loop.resident().tolist() == kern.resident().tolist()
        targets = np.unique(rng.integers(0, 80, int(rng.integers(0, 20))))
        n_loop = loop.invalidate(targets)
        removed = kern.invalidate_present(targets)
        assert n_loop == removed.shape[0]
        assert loop.resident().tolist() == kern.resident().tolist()


def test_empty_stream_and_empty_cache():
    for c in (LRUCache(4), SetAssocCache(4, 2)):
        assert c.access_stream(np.empty(0, dtype=np.int64), engine="kernel") == 0
        assert c.misses == 0 and len(c) == 0
    res = setassoc_kernel(np.empty(0, dtype=np.int64), 4, 2, None)
    assert res.misses == 0 and res.evictions == 0 and res.resident.shape == (0,)
    res = lru_kernel(np.array([3, 3, 3]), 2)
    assert res.misses == 1 and res.resident.tolist() == [3]


def test_collapse_runs_same_counts_both_engines(rng):
    raw = np.repeat(rng.integers(0, 30, 200), rng.integers(1, 5, 200))
    for engine in ("loop", "kernel"):
        a = LRUCache(8)
        b = LRUCache(8)
        a.access_stream(raw, collapse=True, engine=engine)
        b.access_stream(raw, collapse=False, engine=engine)
        assert a.misses == b.misses
        # accesses counts the pre-collapse stream either way
        assert a.accesses == b.accesses == raw.shape[0]
        assert a.resident().tolist() == b.resident().tolist()


def test_kernel_threshold_dispatch(force_engine):
    """auto uses the kernel for long streams and whenever state is already
    in array form (so hot loops never materialize dicts)."""
    force_engine("auto")
    c = LRUCache(16)
    c.access_stream(np.arange(cache_mod.KERNEL_THRESHOLD + 1))  # kernel path
    assert c._arr is not None and c._entries is None
    c.access_stream(np.array([1, 2]))  # short, but state is array: stays kernel
    assert c._arr is not None
    assert c.access(1) is True  # point op materializes the dict form
    assert c._entries is not None and c._arr is None


@given(
    data=st.data(),
    nsets=st.sampled_from([1, 2, 8]),
    assoc=st.integers(1, 5),
)
@settings(max_examples=40, deadline=None)
def test_property_streams_with_invalidations(data, nsets, assoc):
    loop = SetAssocCache(nsets, assoc)
    kern = SetAssocCache(nsets, assoc)
    nsegs = data.draw(st.integers(1, 4))
    for _ in range(nsegs):
        keys = np.array(
            data.draw(st.lists(st.integers(0, 40), max_size=120)), dtype=np.int64
        )
        collapse = data.draw(st.booleans())
        assert loop.access_stream(
            keys, collapse=collapse, engine="loop"
        ) == kern.access_stream(keys, collapse=collapse, engine="kernel")
        inval = np.unique(
            np.array(data.draw(st.lists(st.integers(0, 40), max_size=10)), dtype=np.int64)
        )
        assert loop.invalidate(inval) == kern.invalidate_present(inval).shape[0]
        assert loop.resident().tolist() == kern.resident().tolist()
        assert loop.misses == kern.misses
        assert loop.evictions == kern.evictions


def test_simulate_hardware_engine_equivalence(force_engine):
    """Whole-simulator equality: the per-processor reference replay on the
    Moldyn trace gives identical counters and timing whether its caches
    run the loop engine or the kernel engine, and the batched
    ``simulate_hardware`` matches both."""
    from oracles import hardware as oracle
    from repro.apps import AppConfig, Moldyn
    from repro.machines.hardware import simulate_hardware
    from repro.machines.params import origin2000_scaled

    app = Moldyn(AppConfig(n=256, nprocs=4, iterations=2, seed=11))
    trace = app.run()
    params = origin2000_scaled(256, 4)
    results = {}
    for engine in ("loop", "kernel"):
        force_engine(engine)
        results[engine] = oracle.simulate_hardware(trace, params)[0]
    results["batched"] = simulate_hardware(trace, params)
    a = results["loop"]
    for b in (results["kernel"], results["batched"]):
        assert np.array_equal(a.l2_misses, b.l2_misses)
        assert np.array_equal(a.tlb_misses, b.tlb_misses)
        assert np.array_equal(a.invalidations, b.invalidations)
        assert np.array_equal(a.cold_misses, b.cold_misses)
        assert np.array_equal(a.coherence_misses, b.coherence_misses)
        assert np.array_equal(a.capacity_misses, b.capacity_misses)
        assert a.time == b.time
