"""Property tests for the multi-capacity sweep kernels.

The sweep machinery answers *every* capacity from one replay; these
tests pin it count-for-count to the per-capacity reference engines:

* :func:`miss_curve` / :func:`stack_distance_histogram` vs one
  ``oracles.cache.SetAssocCache`` replay per capacity;
* :class:`SetAssocSweep` vs per-capacity replays across epoch
  boundaries *and* interleaved barrier invalidations — the hard case,
  since eviction under invalidation is where naive stack algorithms
  break inclusion;
* :func:`simulate_hardware_sweep` vs per-point
  :func:`simulate_hardware` on real app traces: every counter, the
  miss classification, the timing, and the phase breakdown.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.cache import SetAssocCache

from repro.apps import AppConfig
from repro.apps.moldyn import Moldyn
from repro.errors import SimulationInputError
from repro.machines.hardware import simulate_hardware, simulate_hardware_sweep
from repro.machines.kernels import (
    SetAssocSweep,
    miss_curve,
    stack_distance_histogram,
)
from repro.machines.params import origin2000_scaled


class TestMissCurve:
    def _reference(self, keys, caps, nsets):
        return [
            SetAssocCache(nsets, int(c)).access_stream(keys) for c in caps
        ]

    def test_known_stream(self):
        keys = np.array([1, 2, 3, 1, 2, 3, 4, 1], dtype=np.int64)
        caps = np.array([1, 2, 3, 4, 8])
        assert miss_curve(keys, caps).tolist() == self._reference(keys, caps, 1)

    def test_random_fully_associative(self, rng):
        for n in (1, 17, 300, 2000):
            keys = rng.integers(0, max(n // 3, 2), n)
            caps = np.array([1, 2, 3, 5, 8, 16, 64, 10**6])
            assert (
                miss_curve(keys, caps).tolist()
                == self._reference(keys, caps, 1)
            )

    def test_random_set_associative(self, rng):
        for nsets in (2, 8, 64):
            keys = rng.integers(0, 500, 1500)
            caps = np.arange(1, 10)
            assert (
                miss_curve(keys, caps, nsets=nsets).tolist()
                == self._reference(keys, caps, nsets)
            )

    def test_histogram_totals(self, rng):
        keys = rng.integers(0, 100, 800)
        hist, cold = stack_distance_histogram(keys, nsets=4)
        assert cold == np.unique(keys).shape[0]
        assert hist.sum() + cold == keys.shape[0]
        # Misses at capacity 1 = everything except distance-0 repeats.
        assert miss_curve(keys, np.array([1]), nsets=4)[0] == cold + hist[1:].sum()

    def test_empty_stream(self):
        hist, cold = stack_distance_histogram(np.empty(0, dtype=np.int64))
        assert cold == 0 and hist.shape[0] == 0
        assert miss_curve(np.empty(0, dtype=np.int64), np.array([1, 4])).tolist() == [0, 0]

    @given(
        keys=st.lists(st.integers(0, 40), min_size=0, max_size=300),
        nsets=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_reference(self, keys, nsets):
        arr = np.array(keys, dtype=np.int64)
        caps = np.array([1, 2, 3, 4, 7, 50])
        assert (
            miss_curve(arr, caps, nsets=nsets).tolist()
            == self._reference(arr, caps, nsets)
        )


class TestSetAssocSweep:
    """One sweep replay vs per-associativity caches, with invalidations."""

    def _run_both(self, nsets, cmax, epochs):
        """Replay (stream, invalidate) epoch pairs through both engines.

        Returns (sweep per-assoc misses+removals, reference ditto).
        """
        sweep = SetAssocSweep(nsets, cmax)
        assocs = range(1, cmax + 1)
        refs = {a: SetAssocCache(nsets, a) for a in assocs}
        misses = np.zeros(cmax + 1, dtype=np.int64)
        removed_at = np.zeros(cmax + 1, dtype=np.int64)
        ref_miss = {a: 0 for a in assocs}
        ref_removed = {a: 0 for a in assocs}
        for keys, inval in epochs:
            if keys.size:
                hist = sweep.access_stream(keys)
                misses[1:] += np.asarray(
                    [hist[a:].sum() for a in assocs], dtype=np.int64
                )
                for a in assocs:
                    ref_miss[a] += refs[a].access_stream(keys)
            if inval.size:
                _, thr = sweep.invalidate_present(inval)
                removed_at[1:] += np.asarray(
                    [(thr < a).sum() for a in assocs], dtype=np.int64
                )
                for a in assocs:
                    ref_removed[a] += refs[a].invalidate_present(inval).shape[0]
        got = {a: (int(misses[a]), int(removed_at[a])) for a in assocs}
        want = {a: (ref_miss[a], ref_removed[a]) for a in assocs}
        return got, want

    def test_known_interleaving(self):
        epochs = [
            (np.array([1, 2, 3, 1, 5, 7, 3]), np.array([3, 9])),
            (np.array([3, 1, 1, 2]), np.array([1])),
            (np.array([5, 7, 2, 3]), np.empty(0, dtype=np.int64)),
        ]
        got, want = self._run_both(1, 4, epochs)
        assert got == want

    def test_random_epochs_with_invalidations(self, rng):
        for trial in range(12):
            nsets = int(rng.choice([1, 2, 8]))
            cmax = int(rng.integers(1, 9))
            nkeys = int(rng.integers(4, 120))
            epochs = []
            for _ in range(int(rng.integers(1, 6))):
                keys = rng.integers(0, nkeys, int(rng.integers(0, 400)))
                inval = np.unique(rng.integers(0, nkeys, int(rng.integers(0, 30))))
                epochs.append((keys, inval))
            got, want = self._run_both(nsets, cmax, epochs)
            assert got == want, (trial, nsets, cmax)

    @given(
        data=st.lists(
            st.tuples(
                st.lists(st.integers(0, 25), min_size=0, max_size=120),
                st.lists(st.integers(0, 25), min_size=0, max_size=10),
            ),
            min_size=1,
            max_size=4,
        ),
        nsets=st.sampled_from([1, 4]),
        cmax=st.integers(1, 6),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_epochs_with_invalidations(self, data, nsets, cmax):
        epochs = [
            (
                np.array(keys, dtype=np.int64),
                np.unique(np.array(inval, dtype=np.int64)),
            )
            for keys, inval in data
        ]
        got, want = self._run_both(nsets, cmax, epochs)
        assert got == want

    def test_tracked_key_reaccessed_at_call_start(self):
        """Key 1 is the only tracked key after 2 is invalidated, but it was
        pushed to depth 1 first: its first access in the next call misses
        with one way, and the repeat right after it hits."""
        epochs = [
            (np.array([1, 2]), np.array([2])),
            (np.array([1, 1, 3, 3, 1]), np.empty(0, dtype=np.int64)),
        ]
        got, want = self._run_both(1, 2, epochs)
        assert got == want
        assert want[1] == (5, 1)

    @given(
        data=st.data(),
        log_sets=st.integers(0, 6),
        cmax=st.integers(1, 5),
        nepochs=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_owner_blocks_and_drops(self, data, log_sets, cmax, nepochs):
        """Few keys per set over up to 64 sets, fed as production feeds
        it: each epoch in blocks of whole owners (ascending set ranges),
        per-owner histograms, and a drop of tracked keys after the epoch.
        Each owner's sets are a cache of their own, so its misses and
        invalidations must match per-capacity oracle replays of its keys
        alone."""
        nsets = 1 << log_sets
        owner_bits = data.draw(st.integers(0, min(2, log_sets)))
        nown = 1 << owner_bits
        oshift = log_sets - owner_bits
        nkeys = data.draw(st.integers(1, 3 * nsets))
        assocs = range(1, cmax + 1)
        refs = [[SetAssocCache(nsets, a) for a in assocs] for _ in range(nown)]
        sweep = SetAssocSweep(nsets, cmax)

        def owner(keys):
            return (keys & (nsets - 1)) >> oshift

        for _ in range(nepochs):
            keys = np.array(
                data.draw(st.lists(st.integers(0, nkeys - 1), max_size=150)),
                dtype=np.int64,
            )
            cuts = sorted(set(data.draw(
                st.lists(st.integers(1, nown - 1), max_size=3)
            ) if nown > 1 else []))
            for lo, hi in zip([0, *cuts], [*cuts, nown]):
                block = keys[(owner(keys) >= lo) & (owner(keys) < hi)]
                hist = sweep.access_stream(block, owner_bits=owner_bits or None)
                hist = hist.reshape(-1, cmax + 1)
                assert hist.shape == (nown, cmax + 1)
                for o in range(nown):
                    mine = block[owner(block) == o]
                    assert hist[o].sum() == mine.shape[0]
                    for a in assocs:
                        want = refs[o][a - 1].access_stream(mine)
                        assert hist[o, a:].sum() == want, (o, a)
            tracked = sweep.keys
            mask = np.array(data.draw(st.lists(
                st.booleans(), min_size=tracked.shape[0],
                max_size=tracked.shape[0],
            )), dtype=bool)
            removed, thr = sweep.drop(mask)
            assert removed.tolist() == tracked[mask].tolist()
            for o in range(nown):
                mine = owner(removed) == o
                for a in assocs:
                    want = refs[o][a - 1].invalidate_present(removed[mine])
                    assert (thr[mine] < a).sum() == want.shape[0], (o, a)

    def test_curve_from_histogram(self):
        sweep = SetAssocSweep(1, 8)
        hist = sweep.access_stream(np.array([1, 2, 3, 1, 2, 3, 1]))
        caps = np.array([1, 2, 3, 4, 8])
        ref = [SetAssocCache(1, int(c)).access_stream(
            np.array([1, 2, 3, 1, 2, 3, 1])) for c in caps]
        assert SetAssocSweep.curve(hist, caps).tolist() == ref


class TestHardwareSweep:
    """simulate_hardware_sweep == per-point simulate_hardware, exactly."""

    @pytest.fixture(scope="class")
    def trace(self):
        app = Moldyn(AppConfig(n=768, nprocs=8, iterations=2, seed=3))
        app.reorder("hilbert")
        return app.run()

    def test_matches_per_point(self, trace):
        base = origin2000_scaled(32, 8)
        l2_list = [base.l2_bytes, base.l2_bytes * 2, base.l2_bytes * 4]
        line_sizes = [base.line_size, base.line_size * 2]
        results = simulate_hardware_sweep(
            trace, base, l2_bytes=l2_list, line_sizes=line_sizes
        )
        assert len(results) == len(l2_list) * len(line_sizes)
        from dataclasses import replace

        for res in results:
            p = res.params
            nsets = base.l2_bytes // (p.line_size * base.l2_assoc)
            assert p.l2_bytes // (nsets * p.line_size) == p.l2_assoc
            ref = simulate_hardware(trace, p)
            for f in ("l2_misses", "tlb_misses", "invalidations",
                      "cold_misses", "coherence_misses", "capacity_misses",
                      "classification_overcount", "work", "lock_acquires"):
                assert np.array_equal(getattr(res, f), getattr(ref, f)), f
            assert res.time == ref.time
            assert res.phase_times == ref.phase_times
            assert res.barriers == ref.barriers

    def test_base_point_is_base_run(self, trace):
        base = origin2000_scaled(32, 8)
        (res,) = simulate_hardware_sweep(trace, base, l2_bytes=[base.l2_bytes])
        assert res.params == base

    def test_rejects_bad_geometry(self, trace):
        base = origin2000_scaled(32, 8)
        with pytest.raises(SimulationInputError):
            simulate_hardware_sweep(trace, base, l2_bytes=[base.l2_bytes + 1])
