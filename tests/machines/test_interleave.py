"""Equivalence of the batched epoch interleave against the cursor walk.

:func:`oracles.coherence._interleave` merges every processor's
line stream with one lexsort; :func:`tests.oracles.interleave.interleave`
is the original cursor-walk generator.  They must agree element-for-element on every
epoch — including processors with empty streams and epochs with no
accesses at all — and the MESI simulator built on the batched merge must
reproduce the counters it had on the loop path.
"""

import numpy as np
import pytest

from repro.apps import APP_REGISTRY, AppConfig
from oracles.coherence import _interleave, simulate_mesi
from repro.machines.params import HardwareParams
from repro.trace.builder import TraceBuilder
from repro.trace.layout import Layout
from oracles.interleave import interleave as interleave_ref


def interleave_tuples(epoch, layout, line_size, nprocs):
    procs, lines, writes = _interleave(epoch, layout, line_size, nprocs)
    return list(zip(procs.tolist(), lines.tolist(), writes.tolist()))


class TestInterleaveEquivalence:
    def test_app_trace(self):
        app = APP_REGISTRY["barnes-hut"](
            AppConfig(n=256, nprocs=4, iterations=2, seed=7)
        )
        trace = app.run()
        params = HardwareParams()
        layout = Layout.for_trace(trace, align=params.page_size)
        for epoch in trace.epochs:
            ref = list(
                interleave_ref(epoch, layout, params.line_size, trace.nprocs)
            )
            got = interleave_tuples(epoch, layout, params.line_size, trace.nprocs)
            assert got == ref

    def test_uneven_and_empty_streams(self):
        tb = TraceBuilder(4, label="a")
        r = tb.add_region("o", 128, 32)
        tb.read(0, r, [0, 1, 2, 3, 4, 5])
        tb.write(2, r, [7])
        # procs 1 and 3 idle this epoch
        tb.barrier("b")
        tb.read(3, r, [9, 10])
        trace = tb.finish()
        layout = Layout.for_trace(trace, align=4096)
        for epoch in trace.epochs:
            ref = list(interleave_ref(epoch, layout, 128, 4))
            assert interleave_tuples(epoch, layout, 128, 4) == ref

    def test_empty_epoch(self):
        tb = TraceBuilder(2)
        tb.add_region("o", 16, 8)
        tb.barrier()
        trace = tb.finish()
        layout = Layout.for_trace(trace, align=4096)
        for epoch in trace.epochs:
            assert interleave_tuples(epoch, layout, 64, 2) == []

    @pytest.mark.parametrize("app_name", ["moldyn", "water-spatial"])
    def test_mesi_counters_stable_across_forms(self, app_name, tmp_path):
        """MESI counters agree between the in-memory trace and the
        mmap-loaded packed bundle (which routes through the decode memo)."""
        from repro.trace.io import load_trace, save_trace

        app = APP_REGISTRY[app_name](
            AppConfig(n=192, nprocs=4, iterations=1, seed=11)
        )
        trace = app.run()
        path = tmp_path / "t.npt"
        save_trace(trace, path)
        params = HardwareParams()
        a = simulate_mesi(trace, params)
        b = simulate_mesi(load_trace(path), params)
        assert np.array_equal(a.misses, b.misses)
        assert np.array_equal(a.upgrades, b.upgrades)
        assert np.array_equal(a.invalidations, b.invalidations)
        assert np.array_equal(a.writebacks, b.writebacks)
        assert a.total_misses > 0
