"""Property tests: the columnar fast paths against per-burst oracles.

Every decoder that works on whole column slices — the hardware
simulator's line/page/written streams, the DSM interval summaries (per
size and through the page-size ladder), and the page read/write sets of
``trace.stats`` — must equal, byte for byte, what the per-burst oracles
in ``tests/oracles/bursts.py`` compute from the definitions, across
randomized traces with locks, work, empty processors and empty epochs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import bursts as oracle

from repro.machines import simulate_hardware, simulate_hlrc, simulate_treadmarks
from repro.machines.dsm.intervals import (
    _epoch_info_packed,
    build_interval_ladder,
    build_intervals,
)
from repro.machines.hardware import _proc_streams_packed
from repro.machines.params import cluster_scaled, origin2000_scaled
from repro.trace import stats
from repro.trace.builder import TraceBuilder
from repro.trace.io import load_trace, save_trace
from repro.trace.layout import Layout, decode_memo


@st.composite
def trace_ops(draw):
    """A random trace as a replayable op list: (nprocs, regions, epochs)."""
    nprocs = draw(st.integers(min_value=1, max_value=4))
    nregions = draw(st.integers(min_value=1, max_value=3))
    regions = [
        (f"r{i}", draw(st.integers(min_value=1, max_value=60)),
         draw(st.sampled_from([8, 72, 104, 680])))
        for i in range(nregions)
    ]
    epochs = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        bursts = []
        for p in range(nprocs):
            for _ in range(draw(st.integers(min_value=0, max_value=3))):
                region = draw(st.integers(min_value=0, max_value=nregions - 1))
                limit = regions[region][1]
                idx = draw(
                    st.lists(
                        st.integers(min_value=0, max_value=limit - 1),
                        min_size=0,
                        max_size=8,
                    )
                )
                write = draw(st.booleans())
                bursts.append((p, region, write, idx))
        work = [draw(st.floats(min_value=0, max_value=5)) for _ in range(nprocs)]
        locks = [draw(st.integers(min_value=0, max_value=3)) for _ in range(nprocs)]
        epochs.append((bursts, work, locks))
    return nprocs, regions, epochs


def build(ops):
    """Replay one op list through a builder, one call per burst."""
    nprocs, regions, epochs = ops
    tb = TraceBuilder(nprocs, label="e0")
    for name, count, size in regions:
        tb.add_region(name, count, size)
    for ei, (bursts, work, locks) in enumerate(epochs):
        for p, region, write, idx in bursts:
            (tb.write if write else tb.read)(p, region, idx)
        for p in range(nprocs):
            if work[p]:
                tb.work(p, work[p])
            if locks[p]:
                tb.lock(p, locks[p])
        if ei < len(epochs) - 1:
            tb.barrier(f"e{ei + 1}")
    return tb.finish()


@given(trace_ops())
@settings(max_examples=100, deadline=None)
def test_structural_equivalence(ops):
    """The burst columns hold exactly the non-empty recorded bursts."""
    nprocs, _regions, epochs = ops
    trace = build(ops)
    assert trace.total_accesses == sum(
        len(idx) for bursts, _, _ in epochs for *_, idx in bursts
    )
    # An all-empty trailing epoch is dropped by finish(); all others stay.
    assert len(trace.epochs) in (len(epochs), len(epochs) - 1)
    for ei, epoch in enumerate(trace.epochs):
        bursts, work, locks = epochs[ei]
        assert epoch.label == f"e{ei}"
        np.testing.assert_array_equal(epoch.work, work)
        np.testing.assert_array_equal(epoch.lock_acquires, locks)
        for p in range(nprocs):
            want = [(r, w, idx) for q, r, w, idx in bursts if q == p and idx]
            got = oracle.bursts(epoch, p)
            assert [(r, w, idx.tolist()) for r, w, idx in got] == want
            regs, idx, writes = epoch.flat(p)
            assert epoch.accesses(p) == idx.shape[0]
            assert idx.tolist() == [i for *_, b in want for i in b]
            assert regs.tolist() == [r for r, _, b in want for _ in b]
            assert writes.tolist() == [w for _, w, b in want for _ in b]
            np.testing.assert_array_equal(epoch.write_flags(p), writes)


def assert_simulators_agree(a, b):
    """Identical miss/message/byte counters across two traces."""
    ha = simulate_hardware(a, origin2000_scaled(64, a.nprocs))
    hb = simulate_hardware(b, origin2000_scaled(64, b.nprocs))
    np.testing.assert_array_equal(ha.l2_misses, hb.l2_misses)
    np.testing.assert_array_equal(ha.tlb_misses, hb.tlb_misses)
    np.testing.assert_array_equal(ha.invalidations, hb.invalidations)
    np.testing.assert_array_equal(ha.cold_misses, hb.cold_misses)
    np.testing.assert_array_equal(ha.coherence_misses, hb.coherence_misses)
    assert ha.time == hb.time
    for sim in (simulate_treadmarks, simulate_hlrc):
        ra = sim(a, cluster_scaled(nprocs=a.nprocs))
        rb = sim(b, cluster_scaled(nprocs=b.nprocs))
        np.testing.assert_array_equal(ra.messages, rb.messages)
        np.testing.assert_array_equal(ra.data_bytes, rb.data_bytes)
        np.testing.assert_array_equal(ra.page_fetches, rb.page_fetches)
        np.testing.assert_array_equal(ra.time, rb.time)


@given(trace_ops(), st.sampled_from([32, 64, 128]), st.sampled_from([256, 4096]))
@settings(max_examples=50, deadline=None)
def test_simulator_equivalence(ops, line_size, page_size):
    """The hardware front end's line/page/written streams match the oracle."""
    trace = build(ops)
    layout = Layout.for_trace(trace, align=4096)
    nlines = (layout.total_bytes // line_size) + 1
    memo = decode_memo(trace)
    for ei, epoch in enumerate(trace.epochs):
        decoded = memo.epoch(layout, line_size, ei)
        for p in range(trace.nprocs):
            got = _proc_streams_packed(
                epoch, decoded, p, line_size, page_size, nlines
            )
            want = oracle.proc_streams(epoch, layout, line_size, page_size, p)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)


def assert_info_equal(got, want):
    assert got.label == want.label
    np.testing.assert_array_equal(got.work, want.work)
    np.testing.assert_array_equal(got.lock_acquires, want.lock_acquires)
    for field in ("accesses", "writes", "write_bytes"):
        for g, w in zip(getattr(got, field), getattr(want, field), strict=True):
            assert g.dtype == np.int64
            np.testing.assert_array_equal(g, w)


@given(trace_ops())
@settings(max_examples=50, deadline=None)
def test_interval_equivalence(ops):
    """Interval summaries — per epoch, per size and through the page-size
    ladder — match the oracle."""
    trace = build(ops)
    sizes = (256, 512, 1024, 4096)
    layout = Layout.for_trace(trace, align=max(sizes))
    memo = decode_memo(trace)
    for size in sizes:
        want = [oracle.epoch_info(e, layout, size) for e in trace.epochs]
        for ei, epoch in enumerate(trace.epochs):
            got = _epoch_info_packed(
                epoch, memo.epoch(layout, size, ei), layout, size
            )
            assert_info_equal(got, want[ei])
        ladder, _ = build_interval_ladder(build(ops), sizes, layout)
        for got, w in zip(ladder[size], want, strict=True):
            assert_info_equal(got, w)
        for got, w in zip(build_intervals(trace, layout, size)[0], want, strict=True):
            assert_info_equal(got, w)


@given(trace_ops())
@settings(max_examples=25, deadline=None)
def test_stats_equivalence(ops):
    """Page read/write sets and the other statistics match the oracle."""
    trace = build(ops)
    layout = Layout.for_trace(trace)
    reads: dict[int, set[int]] = {}
    writes: dict[int, set[int]] = {}
    owner = np.full(trace.regions[0].num_objects, -1, dtype=np.int64)
    lines: set[int] = set()
    nreads = nwrites = 0
    for epoch in trace.epochs:
        info = oracle.epoch_info(epoch, layout, 4096)
        for p in range(trace.nprocs):
            for pg in info.accesses[p].tolist():
                reads.setdefault(pg, set()).add(p)
            for pg in info.writes[p].tolist():
                writes.setdefault(pg, set()).add(p)
        for p in reversed(range(trace.nprocs)):
            for region, write, idx in oracle.bursts(epoch, p):
                lines.update(oracle.burst_units(layout, region, idx, 128).tolist())
                nwrites += len(idx) if write else 0
                nreads += 0 if write else len(idx)
                if write and region == 0:
                    owner[idx] = p
    assert stats.page_read_sets(trace, layout, 4096) == reads
    assert stats.page_write_sets(trace, layout, 4096) == writes
    np.testing.assert_array_equal(stats.update_map(trace, layout, 0), owner)
    assert stats.footprint(trace, layout, 128) == len(lines)
    counts = stats.access_counts(trace)
    assert int(counts.reads.sum()) == nreads
    assert int(counts.writes.sum()) == nwrites


@given(ops=trace_ops())
@settings(max_examples=10, deadline=None)
def test_mmap_equivalence(ops, tmp_path_factory):
    """A mmap-loaded trace produces identical results to the in-memory one."""
    trace = build(ops)
    path = tmp_path_factory.mktemp("mmap") / "t.npt"
    save_trace(trace, path)
    mapped = load_trace(path, mmap=True)
    assert_simulators_agree(mapped, trace)
    in_memory = load_trace(path, mmap=False)
    assert_simulators_agree(in_memory, trace)


class TestDecodeMemo:
    def make_trace(self):
        from repro.apps import AppConfig, Moldyn

        return Moldyn(AppConfig(n=256, nprocs=4, iterations=2, seed=3)).run()

    def test_platforms_share_one_decode(self):
        """TreadMarks then HLRC at the same page size: the HLRC run adds no
        decoding work (intervals come from the derived cache)."""
        trace = self.make_trace()
        memo = decode_memo(trace)
        simulate_treadmarks(trace, cluster_scaled(nprocs=4))
        decodes_after_tmk = memo.decodes
        assert decodes_after_tmk == len(trace.epochs)
        assert memo.distinct_geometries == 1
        simulate_hlrc(trace, cluster_scaled(nprocs=4))
        assert memo.decodes == decodes_after_tmk
        assert memo.hits > 0

    def test_sweep_decodes_once_per_geometry(self):
        """A page-size sweep decodes O(distinct geometries), not O(points)."""
        trace = self.make_trace()
        memo = decode_memo(trace)
        sizes = (1024, 4096, 16384)
        for page in sizes:
            simulate_treadmarks(trace, cluster_scaled(nprocs=4, page_size=page))
        assert memo.distinct_geometries == len(sizes)
        assert memo.decodes == len(sizes) * len(trace.epochs)
        # Re-running the whole sweep performs zero additional decodes.
        before = memo.decodes
        for page in sizes:
            simulate_treadmarks(trace, cluster_scaled(nprocs=4, page_size=page))
            simulate_hlrc(trace, cluster_scaled(nprocs=4, page_size=page))
        assert memo.decodes == before

    def test_hardware_uses_memo(self):
        trace = self.make_trace()
        memo = decode_memo(trace)
        params = origin2000_scaled(64, 4)
        simulate_hardware(trace, params)
        decodes = memo.decodes
        assert decodes == len(trace.epochs)
        simulate_hardware(trace, params)
        assert memo.decodes == decodes  # second run: all hits
        assert memo.hits > 0

    def test_memo_clear(self):
        trace = self.make_trace()
        memo = decode_memo(trace)
        simulate_treadmarks(trace)
        assert memo.distinct_geometries == 1
        memo.clear()
        assert memo.distinct_geometries == 0
