"""Batched TreadMarks and HLRC folds vs the per-processor reference folds.

:func:`repro.machines.dsm.simulate_treadmarks` and
:func:`repro.machines.dsm.simulate_hlrc` fold each interval for all
processors at once over flat ``(page, proc)`` rows.  These tests hold
them to the per-processor oracle (:mod:`oracles.dsm`) on every
:class:`repro.machines.dsm.DSMResult` field, ``time`` and ``phase_times``
bit for bit.  The shapes a batched fold can get wrong are covered on
purpose: processor counts that are not powers of two, processors idle in
an interval, intervals with only work, only writes or only locks, a
single-page region, explicit homes, and every ladder size of a
page-size sweep.
"""

import dataclasses
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dsm as oracle
from repro.apps import AppConfig, BarnesHut, Moldyn
from repro.machines.dsm import (
    build_interval_ladder,
    build_intervals,
    simulate_dsm_sweep,
    simulate_hlrc,
    simulate_treadmarks,
    total_pages,
)
from repro.machines.params import cluster_scaled
from repro.machines.replay import build_intervals_parallel
from repro.runtime.executor import ExecutorConfig
from repro.trace.builder import TraceBuilder
from repro.trace.io import save_trace
from repro.trace.layout import Layout

PAGE_SIZES = (256, 512, 1024, 2048)
KINDS = ("mixed", "work", "write", "lock")


def random_trace(rng, nprocs, kinds, idle=0.3):
    """Random program, one epoch per entry of ``kinds``: ``mixed`` epochs
    read and write local walks (some processors idle), ``write`` epochs
    only write, ``work`` and ``lock`` epochs touch no page at all."""
    tb = TraceBuilder(nprocs)
    regions = [tb.add_region("a", 96, 8), tb.add_region("b", 40, 24),
               tb.add_region("c", 12, 100), tb.add_region("d", 300, 64),
               tb.add_region("one", 1, 8)]
    sizes = [96, 40, 12, 300, 1]
    for e, kind in enumerate(kinds):
        for p in range(nprocs):
            if kind in ("mixed", "write"):
                if rng.random() < idle:
                    continue
                for _ in range(int(rng.integers(1, 4))):
                    r = int(rng.integers(0, len(regions)))
                    start = int(rng.integers(0, sizes[r]))
                    steps = rng.integers(-3, 4, int(rng.integers(1, 40)))
                    idx = np.abs(start + np.cumsum(steps)) % sizes[r]
                    write = kind == "write" or rng.random() < 0.4
                    (tb.write if write else tb.read)(p, regions[r], idx)
            if kind != "lock" and rng.random() < 0.8:
                tb.work(p, float(rng.integers(1, 50)))
            if kind == "lock" or rng.random() < 0.2:
                tb.lock(p, int(rng.integers(1, 4)))
        tb.barrier(["force", "update", ""][e % 3])
    return tb.finish()


def assert_same(got, want):
    for f in dataclasses.fields(want):
        g, w = getattr(got, f.name), getattr(want, f.name)
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype, f.name
            np.testing.assert_array_equal(g, w, err_msg=f.name)
        elif isinstance(w, float):
            assert g.hex() == w.hex(), f.name
        elif isinstance(w, dict):
            assert [(k, v.hex()) for k, v in g.items()] == [
                (k, v.hex()) for k, v in w.items()
            ], f.name
        else:
            assert g == w, f.name


@given(
    nprocs=st.sampled_from([1, 2, 3, 16]),
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_batched_folds_match_per_processor_folds(nprocs, seed, kinds):
    """Every ladder size of a sweep, and a standalone run with explicit
    homes, equal the per-processor folds on every field."""
    rng = np.random.default_rng(seed)
    trace = random_trace(rng, nprocs, kinds)
    base = cluster_scaled(nprocs=nprocs, page_size=PAGE_SIZES[0])
    layout = Layout.for_trace(trace, align=PAGE_SIZES[-1])
    out = simulate_dsm_sweep(trace, base, PAGE_SIZES, layout=layout)
    for size in PAGE_SIZES:
        prm = dataclasses.replace(base, page_size=size)
        intervals, _ = build_intervals(trace, layout, size)
        assert_same(
            out["treadmarks"][size],
            oracle.simulate_treadmarks(trace, prm, layout, intervals=intervals),
        )
        assert_same(
            out["hlrc"][size],
            oracle.simulate_hlrc(trace, prm, layout, intervals=intervals),
        )

    prm = cluster_scaled(nprocs=nprocs, page_size=512)
    own = Layout.for_trace(trace, align=512)
    homes = rng.integers(0, nprocs, total_pages(own, 512))
    assert_same(simulate_treadmarks(trace, prm), oracle.simulate_treadmarks(trace, prm))
    assert_same(
        simulate_hlrc(trace, prm, homes=homes),
        oracle.simulate_hlrc(trace, prm, homes=homes),
    )


@given(
    nprocs=st.sampled_from([1, 2, 3, 16]),
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(KINDS), min_size=2, max_size=4),
)
@settings(max_examples=20, deadline=None)
def test_written_pages_are_accessed(nprocs, seed, kinds):
    """The :class:`EpochPageInfo` precondition the TreadMarks fold relies
    on: the serial builder, the ladder and the parallel builder list each
    processor's written pages among its accessed pages."""
    trace = random_trace(np.random.default_rng(seed), nprocs, kinds)
    layout = Layout.for_trace(trace, align=PAGE_SIZES[-1])
    builds = list(build_interval_ladder(trace, PAGE_SIZES, layout)[0].values())
    for size in PAGE_SIZES:
        fresh = random_trace(np.random.default_rng(seed), nprocs, kinds)
        builds.append(build_intervals(fresh, layout, size)[0])
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/t.npt"
        save_trace(trace, path)
        serial = ExecutorConfig(jobs=1, task_timeout=None)
        builds.append(build_intervals_parallel(
            path, PAGE_SIZES[0], jobs=2, executor=serial
        )[0])
    for infos in builds:
        for info in infos:
            for acc, wr in zip(info.accesses, info.writes, strict=True):
                assert np.isin(wr, acc).all()


def test_app_traces_match_oracle():
    for app in (
        Moldyn(AppConfig(n=256, nprocs=16, iterations=2, seed=11)),
        BarnesHut(AppConfig(n=256, nprocs=3, iterations=1, seed=4)),
    ):
        trace = app.run()
        for size in (1024, 4096):
            prm = cluster_scaled(nprocs=trace.nprocs, page_size=size)
            assert_same(simulate_treadmarks(trace, prm),
                        oracle.simulate_treadmarks(trace, prm))
            assert_same(simulate_hlrc(trace, prm), oracle.simulate_hlrc(trace, prm))
