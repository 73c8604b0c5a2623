"""Lifetimes of decoded epochs and of the per-trace memo.

No simulator caches a decoded epoch: each decodes an epoch, uses it and
drops it.  The trace's :class:`~repro.trace.layout.DecodeMemo` keeps only
derived products (the DSM interval summaries), and the trace owns it.
"""

import gc
import weakref

import pytest

from repro.apps import AppConfig, Moldyn
from repro.experiments import Scale, SweepGrid, SweepPlan
from repro.experiments.sweep import run_sweep_group
from repro.machines import (
    simulate_hardware,
    simulate_hardware_sweep,
    simulate_treadmarks,
)
from repro.machines.dsm.intervals import build_interval_ladder
from repro.machines.params import cluster_scaled, origin2000_scaled

SCALE = Scale(
    n={k: 256 for k in Scale().n},
    iterations={k: 2 for k in Scale().n},
    nprocs=4,
    hw_scale=128.0,
)


def make_trace():
    return Moldyn(AppConfig(n=256, nprocs=4, iterations=3, seed=3)).run()


def _hardware(trace, tmp_path):
    simulate_hardware(trace, origin2000_scaled(64, 4))


def _hardware_sweep(trace, tmp_path):
    base = origin2000_scaled(64, 4)
    simulate_hardware_sweep(
        trace, base, l2_bytes=[base.l2_bytes, 2 * base.l2_bytes],
        line_sizes=[64, 128],
    )


def _treadmarks(trace, tmp_path):
    simulate_treadmarks(trace, cluster_scaled(nprocs=4))


def _sweep_group(trace, tmp_path):
    grid = SweepGrid(apps=("moldyn",), versions=("hilbert",),
                     platforms=("origin", "treadmarks", "hlrc"),
                     l2_bytes=(32768, 65536), page_sizes=(1024, 4096))
    (group,) = SweepPlan(grid, SCALE).groups()
    run_sweep_group(str(tmp_path), group, SCALE)


class TestMemoLifetime:
    """The trace owns its memo and the memo holds no reference back, so a
    dropped trace frees its summaries at once, without the cyclic GC."""

    def test_dropped_trace_frees_its_decodes(self):
        gc.disable()
        try:
            trace = make_trace()
            ladder, _ = build_interval_ladder(trace, (1024, 4096))
            refs = [weakref.ref(ladder[s][0].acc_pages) for s in (1024, 4096)]
            del ladder
            assert all(r() is not None for r in refs)
            del trace
            assert all(r() is None for r in refs)
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "call", [_hardware, _hardware_sweep, _treadmarks, _sweep_group]
    )
    def test_no_decode_outlives_the_call(self, call, decode_calls, tmp_path):
        """Every array ``decode_epoch`` returned during the call is freed
        by the time it returns (by reference counting alone), although
        the trace it decoded is still alive."""
        trace = make_trace()
        gc.disable()
        try:
            call(trace, tmp_path)
            assert decode_calls
            assert all(r() is None for refs in decode_calls for r in refs)
        finally:
            gc.enable()
