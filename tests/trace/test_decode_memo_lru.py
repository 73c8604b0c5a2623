"""Bounded decode-memo behaviour (LRU eviction of decoded epochs).

The default memo is unbounded — the platform-sharing tests pin that — but
lazily-decoded compressed traces advertise ``decode_memo_max_epochs`` so
a long trace does not pin every decoded epoch in memory at once.
"""

import gc
import weakref

import numpy as np

from repro.apps import AppConfig, Moldyn
from repro.trace.io import load_trace, save_trace
from repro.trace.layout import DecodeMemo, Layout, decode_memo


def make_trace():
    return Moldyn(AppConfig(n=256, nprocs=4, iterations=3, seed=3)).run()


class TestMemoLRU:
    def test_unbounded_by_default(self):
        trace = make_trace()
        memo = decode_memo(trace)
        assert memo.max_epochs is None
        layout = Layout.for_trace(trace, align=4096)
        for ei in range(len(trace.epochs)):
            memo.epoch(layout, 128, ei)
        assert memo.evictions == 0
        assert memo.decodes == len(trace.epochs)

    def test_bounded_memo_evicts_oldest(self):
        trace = make_trace()
        assert len(trace.epochs) >= 4
        memo = DecodeMemo(trace, max_epochs=2)
        layout = Layout.for_trace(trace, align=4096)
        for ei in range(len(trace.epochs)):
            memo.epoch(layout, 128, ei)
        assert memo.evictions == len(trace.epochs) - 2
        # Oldest epochs were dropped: touching them again re-decodes.
        decodes = memo.decodes
        memo.epoch(layout, 128, 0)
        assert memo.decodes == decodes + 1
        # Most-recent epochs are still held.
        decodes = memo.decodes
        memo.epoch(layout, 128, len(trace.epochs) - 1)
        assert memo.decodes == decodes

    def test_hit_refreshes_recency(self):
        trace = make_trace()
        memo = DecodeMemo(trace, max_epochs=2)
        layout = Layout.for_trace(trace, align=4096)
        memo.epoch(layout, 128, 0)
        memo.epoch(layout, 128, 1)
        memo.epoch(layout, 128, 0)  # refresh 0
        memo.epoch(layout, 128, 2)  # evicts 1, not 0
        decodes = memo.decodes
        memo.epoch(layout, 128, 0)
        assert memo.decodes == decodes  # still cached
        memo.epoch(layout, 128, 1)
        assert memo.decodes == decodes + 1  # was evicted

    def test_results_identical_under_eviction(self):
        trace = make_trace()
        layout = Layout.for_trace(trace, align=4096)
        unbounded = DecodeMemo(trace)
        bounded = DecodeMemo(trace, max_epochs=1)
        for ei in range(len(trace.epochs)):
            a = unbounded.epoch(layout, 128, ei)
            b = bounded.epoch(layout, 128, ei)
            for p in range(trace.nprocs):
                assert np.array_equal(a.units[p], b.units[p])

    def test_clear_resets_lru(self):
        trace = make_trace()
        memo = DecodeMemo(trace, max_epochs=2)
        layout = Layout.for_trace(trace, align=4096)
        memo.epoch(layout, 128, 0)
        memo.clear()
        memo.epoch(layout, 128, 0)
        assert memo.decodes == 2

    def test_lazy_trace_advertises_bound(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "t.npt"
        save_trace(trace, path, compression="zlib")
        lazy = load_trace(path)
        assert lazy.decode_memo_max_epochs == 64
        memo = decode_memo(lazy)
        assert memo.max_epochs == 64


class TestMemoLifetime:
    """The trace owns its memo and the memo holds the trace weakly, so a
    dropped trace frees its decodes at once, without the cyclic GC."""

    def test_dropped_trace_frees_its_decodes(self):
        from repro.machines.dsm.intervals import build_interval_ladder

        gc.disable()
        try:
            trace = make_trace()
            layout = Layout.for_trace(trace, align=4096)
            decoded = decode_memo(trace).epoch(layout, 128, 0)
            ladder, _ = build_interval_ladder(trace, (1024, 4096))
            refs = [weakref.ref(decoded.units[0]),
                    weakref.ref(ladder[4096][0].acc_pages)]
            del decoded, ladder
            assert all(r() is not None for r in refs)
            del trace
            assert all(r() is None for r in refs)
        finally:
            gc.enable()

    def test_drop_decodes_forgets_only_those_units(self):
        trace = make_trace()
        memo = DecodeMemo(trace, max_epochs=8)
        layout = Layout.for_trace(trace, align=4096)
        memo.epoch(layout, 128, 0)
        memo.epoch(layout, 4096, 0)
        memo.drop_decodes((128,))
        decodes = memo.decodes
        memo.epoch(layout, 4096, 0)
        assert memo.decodes == decodes  # still cached
        memo.epoch(layout, 128, 0)
        assert memo.decodes == decodes + 1  # decoded again
        assert len(memo._lru) == 2
