"""Ragged (CSR) burst emission: equivalence with per-burst loops.

The contract under test: any sequence of ``emit_ragged`` /
``read_ragged`` / ``write_ragged`` / ``update_ragged`` calls produces a
trace **byte-identical** to the equivalent sequence of per-burst
``read`` / ``write`` calls — same columns, same ``.npt`` bundle — with
zero-length bursts dropped identically.
That equivalence is what lets the applications stage whole partitions
as CSR lanes instead of one builder call per object without perturbing a
single downstream statistic.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import bursts as oracle

from repro.trace.builder import TraceBuilder
from repro.trace.io import save_trace

REGION_SIZES = (40, 17)


@st.composite
def ragged_programs(draw):
    """A random program: per-epoch lists of (proc, lanes) ragged calls.

    Each lane is (region, is_write, per-burst lengths); all lanes of one
    call share the burst count, and zero lengths are legal anywhere.
    """
    nprocs = draw(st.integers(min_value=1, max_value=3))
    epochs = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        calls = []
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            proc = draw(st.integers(min_value=0, max_value=nprocs - 1))
            k = draw(st.integers(min_value=0, max_value=5))
            lanes = []
            for _ in range(draw(st.integers(min_value=1, max_value=3))):
                region = draw(st.integers(min_value=0, max_value=1))
                write = draw(st.booleans())
                lens = [
                    draw(st.integers(min_value=0, max_value=4)) for _ in range(k)
                ]
                idx = [
                    draw(
                        st.integers(
                            min_value=0, max_value=REGION_SIZES[region] - 1
                        )
                    )
                    for _ in range(sum(lens))
                ]
                lanes.append((region, write, lens, idx))
            calls.append((proc, lanes))
        epochs.append(calls)
    return nprocs, epochs


def _build(nprocs, epochs, ragged):
    tb = TraceBuilder(nprocs, label="e0")
    for region, size in enumerate(REGION_SIZES):
        tb.add_region(f"r{region}", size, 8 * (region + 1))
    for e, calls in enumerate(epochs):
        for proc, lanes in calls:
            if ragged:
                tb.emit_ragged(
                    proc,
                    [
                        (
                            region,
                            write,
                            np.array(idx, dtype=np.int64),
                            np.concatenate(
                                [[0], np.cumsum(np.array(lens, dtype=np.int64))]
                            ),
                        )
                        for region, write, lens, idx in lanes
                    ],
                )
            else:
                k = len(lanes[0][2])
                for j in range(k):
                    for region, write, lens, idx in lanes:
                        lo = sum(lens[:j])
                        burst = np.array(idx[lo : lo + lens[j]], dtype=np.int64)
                        if write:
                            tb.write(proc, region, burst)
                        else:
                            tb.read(proc, region, burst)
        tb.work(0, float(e + 1))
        tb.barrier(f"e{e + 1}")
    return tb.finish()


@given(ragged_programs())
@settings(max_examples=120, deadline=None)
def test_ragged_matches_loop_packed_bytes(program):
    """Ragged and per-burst emission serialize to identical .npt bundles."""
    nprocs, epochs = program
    bufs = []
    for ragged in (False, True):
        trace = _build(nprocs, epochs, ragged)
        buf = io.BytesIO()
        save_trace(trace, buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]


# ---- API validation ------------------------------------------------------


def _builder():
    tb = TraceBuilder(2, label="x")
    tb.add_region("r", 100, 8)
    return tb


def test_mismatched_lane_burst_counts_rejected():
    tb = _builder()
    with pytest.raises(ValueError, match="disagree on burst count"):
        tb.emit_ragged(
            0,
            [
                (0, False, np.arange(4), np.array([0, 2, 4])),
                (0, True, np.arange(3), np.array([0, 1, 2, 3])),
            ],
        )


def test_bad_offsets_rejected():
    tb = _builder()
    with pytest.raises(ValueError, match="start at 0"):
        tb.read_ragged(0, 0, np.arange(4), np.array([1, 4]))
    with pytest.raises(ValueError, match="start at 0"):
        tb.read_ragged(0, 0, np.arange(4), np.array([0, 3]))
    with pytest.raises(ValueError, match="non-decreasing"):
        tb.read_ragged(0, 0, np.arange(4), np.array([0, 3, 2, 4]))


def test_uniform_width_offsets():
    tb = _builder()
    with pytest.raises(ValueError, match="does not split"):
        tb.read_ragged(0, 0, np.arange(5), 2)
    with pytest.raises(ValueError, match="must be positive"):
        tb.read_ragged(0, 0, np.arange(4), 0)
    tb.read_ragged(0, 0, np.arange(6), 2)
    trace = tb.finish()
    (ep,) = trace.epochs
    assert ep.accesses(0) == 6
    assert np.array_equal(ep.burst_length, [2, 2, 2])


def test_update_ragged_interleaves_read_write():
    """update_ragged gives R0 W0 R1 W1 ..., not bulk read then bulk write."""
    tb = TraceBuilder(1)
    tb.add_region("r", 100, 8)
    tb.update_ragged(0, 0, np.array([1, 2, 3]), np.array([0, 2, 3]))
    trace = tb.finish()
    (ep,) = trace.epochs
    flags = [w for _, w, _ in oracle.bursts(ep, 0)]
    runs = [idx.tolist() for _, _, idx in oracle.bursts(ep, 0)]
    assert flags == [False, True, False, True]
    assert runs == [[1, 2], [1, 2], [3], [3]]


def test_zero_length_bursts_dropped_and_empty_stages_nothing():
    tb = _builder()
    # All-empty lanes stage nothing: trace stays empty.
    tb.read_ragged(0, 0, np.empty(0, dtype=np.int64), np.array([0, 0, 0]))
    tb.emit_ragged(
        0, [(0, False, np.empty(0, dtype=np.int64), np.array([0, 0]))]
    )
    assert tb.finish().epochs == []
    # Interior zero-length bursts vanish; the rest keep their order.
    tb2 = _builder()
    tb2.read_ragged(0, 0, np.array([5, 6, 7]), np.array([0, 2, 2, 3]))
    (ep,) = tb2.finish().epochs
    assert np.array_equal(ep.burst_length, [2, 1])
    assert np.array_equal(ep.index, [5, 6, 7])


def test_record_does_not_copy_contiguous_int64():
    """The satellite fix: staging a contiguous int64 array is zero-copy."""
    tb = _builder()
    idx = np.arange(10, dtype=np.int64)
    tb.read(0, 0, idx)
    staged = tb._staged[0][0][2]
    assert np.shares_memory(staged, idx)
    # Views that are contiguous also stage as-is.
    tb.read(0, 0, idx[2:7])
    assert np.shares_memory(tb._staged[0][1][2], idx)
