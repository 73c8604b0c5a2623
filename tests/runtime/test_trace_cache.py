"""The persistent trace cache: hits, misses, quarantine, atomicity."""

import json
import threading

import numpy as np
import pytest

from repro.runtime.cache import CacheKey, TraceCache
from repro.runtime.faults import garble_file, truncate_file, write_with_version
from repro.trace.builder import TraceBuilder


def make_trace(nprocs=2, n=32):
    tb = TraceBuilder(nprocs)
    r = tb.add_region("objs", n, 8)
    tb.read(0, r, list(range(n)))
    tb.write(1, r, [0, 1])
    tb.work(0, 1.0)
    return tb.finish()


KEY = CacheKey(app="moldyn", version="hilbert", n=32, iterations=2,
               nprocs=2, seed=42)


@pytest.fixture
def cache(tmp_path):
    return TraceCache(tmp_path / "cache")


class TestRoundtrip:
    def test_miss_then_hit(self, cache):
        assert cache.load(KEY) is None
        assert cache.stats() == {"hits": 0, "misses": 1, "quarantined": 0}
        cache.store(KEY, make_trace())
        loaded = cache.load(KEY)
        assert loaded is not None
        assert loaded.nprocs == 2
        assert cache.hits == 1

    def test_content_preserved(self, cache):
        t = make_trace()
        cache.store(KEY, t)
        t2 = cache.load(KEY)
        assert t2.total_accesses == t.total_accesses
        assert [r.name for r in t2.regions] == ["objs"]

    def test_distinct_keys_distinct_files(self, cache):
        other = CacheKey(app="moldyn", version="hilbert", n=64, iterations=2,
                         nprocs=2, seed=42)
        assert KEY.filename() != other.filename()
        cache.store(KEY, make_trace())
        assert cache.load(other) is None  # different n: a miss, not a hit

    def test_store_is_atomic_no_temp_debris(self, cache):
        cache.store(KEY, make_trace())
        leftovers = [p for p in cache.root.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


class TestQuarantine:
    def test_truncated_entry_quarantined(self, cache):
        cache.store(KEY, make_trace())
        truncate_file(cache.path(KEY), keep_fraction=0.3)
        assert cache.load(KEY) is None
        assert cache.quarantined == 1
        assert not cache.path(KEY).exists()
        assert list(cache.quarantine_dir.glob("*.npt"))
        assert list(cache.quarantine_dir.glob("*.reason.txt"))

    def test_garbled_entry_quarantined(self, cache):
        cache.store(KEY, make_trace())
        garble_file(cache.path(KEY), seed=1, nbytes=128)
        assert cache.load(KEY) is None
        assert cache.quarantined == 1

    def test_version_mismatch_quarantined(self, cache):
        cache.store(KEY, make_trace())
        write_with_version(cache.path(KEY), version=99, nprocs=2)
        assert cache.load(KEY) is None
        assert cache.quarantined == 1

    def test_legacy_npz_entry_quarantined(self, cache):
        """A zip/.npz archive under an entry's name is a typed format
        rejection: quarantined, counted as a miss, then regenerated."""
        cache.store(KEY, make_trace())
        np.savez_compressed(cache.path(KEY).with_suffix(".npz"), x=np.zeros(3))
        cache.path(KEY).with_suffix(".npz").replace(cache.path(KEY))
        assert cache.load(KEY) is None
        assert cache.stats() == {"hits": 0, "misses": 1, "quarantined": 1}
        reason = next(cache.quarantine_dir.glob("*.reason.txt")).read_text()
        assert "zip archive" in reason and "supported formats" in reason
        cache.store(KEY, make_trace())
        assert cache.load(KEY) is not None

    def test_key_mismatch_quarantined(self, cache):
        """A tampered sidecar (entry stored under another key) is refused."""
        cache.store(KEY, make_trace())
        sidecar = cache._sidecar(KEY)
        meta = json.loads(sidecar.read_text())
        meta["n"] = 9999
        sidecar.write_text(json.dumps(meta))
        assert cache.load(KEY) is None
        assert cache.quarantined == 1

    def test_missing_sidecar_quarantined(self, cache):
        """An interrupted store (trace but no sidecar) is regenerated."""
        cache.store(KEY, make_trace())
        cache._sidecar(KEY).unlink()
        assert cache.load(KEY) is None
        assert cache.quarantined == 1

    def test_regenerate_after_quarantine(self, cache):
        cache.store(KEY, make_trace())
        garble_file(cache.path(KEY), seed=2)
        assert cache.load(KEY) is None
        cache.store(KEY, make_trace())  # the runner's regeneration
        assert cache.load(KEY) is not None

    def test_repeated_quarantine_keeps_history(self, cache):
        for _ in range(2):
            cache.store(KEY, make_trace())
            truncate_file(cache.path(KEY), keep_fraction=0.2)
            assert cache.load(KEY) is None
        assert len(list(cache.quarantine_dir.glob("*.npt"))) == 2


class TestKey:
    def test_filename_is_readable_and_complete(self):
        name = KEY.filename()
        for part in ("moldyn", "hilbert", "n32", "i2", "p2", "s42", "fv"):
            assert part in name

    def test_format_version_in_key(self):
        from repro.trace.io import _FORMAT_VERSION

        assert KEY.format_version == _FORMAT_VERSION
        future = CacheKey(app="moldyn", version="hilbert", n=32, iterations=2,
                          nprocs=2, seed=42, format_version=_FORMAT_VERSION + 1)
        assert future.filename() != KEY.filename()


class TestConcurrentQuarantine:
    def test_late_mover_counts_nothing_and_keeps_winner_reason(self, cache):
        # Two processes can both observe a damaged entry and race to
        # quarantine it; here the race is decided (the loser arrives
        # after the winner moved everything).
        loser = TraceCache(cache.root)
        cache.store(KEY, make_trace())
        truncate_file(cache.path(KEY), keep_fraction=0.3)
        dest = cache.quarantine(KEY, reason="winner saw truncation")
        reason = dest.with_suffix(".reason.txt")
        assert cache.quarantined == 1
        assert reason.read_text() == "winner saw truncation\n"

        loser.quarantine(KEY, reason="loser would overwrite this")
        assert loser.quarantined == 0  # moved nothing, counts nothing
        assert reason.read_text() == "winner saw truncation\n"  # preserved
        assert len(list(cache.quarantine_dir.glob("*.npt"))) == 1

    def test_racing_movers_never_double_quarantine(self, tmp_path):
        # N threads x M rounds all quarantining the same entry at once:
        # each round must move the entry exactly once, the mover's
        # .reason.txt must survive, and losers must not crash or
        # double-count.  (Threads stand in for worker processes; the
        # race window is the same os.replace.)
        root = tmp_path / "cache"
        seeder = TraceCache(root)
        movers = [TraceCache(root) for _ in range(4)]
        rounds = 3
        for _ in range(rounds):
            seeder.store(KEY, make_trace())
            barrier = threading.Barrier(len(movers))

            def race(mover):
                barrier.wait()
                mover.quarantine(KEY, reason="raced")

            threads = [threading.Thread(target=race, args=(m,))
                       for m in movers]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not seeder.path(KEY).exists()  # off the hot path

        quarantined_traces = sorted(seeder.quarantine_dir.glob("*.npt"))
        assert len(quarantined_traces) == rounds  # never lost or doubled
        for trace_path in quarantined_traces:
            # Whoever moved the trace wrote the reason alongside it.
            assert trace_path.with_suffix(".reason.txt").exists()
        # Each round, the trace mover counts 1; the sidecar may be moved
        # by a different thread (who also counts 1); nobody else counts.
        total = sum(m.quarantined for m in movers)
        assert rounds <= total <= 2 * rounds

    def test_stats_counters_are_per_process(self, cache):
        # Documented contract: stats() reflects only this process's
        # cache object, not cluster-wide truth — a second handle on the
        # same directory starts from zero.
        cache.store(KEY, make_trace())
        assert cache.load(KEY) is not None
        other = TraceCache(cache.root)
        assert cache.stats()["hits"] == 1
        assert other.stats() == {"hits": 0, "misses": 0, "quarantined": 0}
