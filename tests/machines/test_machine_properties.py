"""Property-based tests (hypothesis) for the machine models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import bursts as oracle

from repro.machines.cache import LRUCache, SetAssocCache, collapse_runs
from repro.machines.dsm import simulate_hlrc, simulate_treadmarks
from repro.machines.hardware import simulate_hardware
from repro.machines.params import HardwareParams, cluster_scaled
from repro.trace.builder import TraceBuilder


# ---------------------------------------------------------------- caches


class ReferenceLRU:
    """Brain-dead reference: a python list ordered by recency."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.order: list[int] = []
        self.misses = 0

    def access(self, key):
        if key in self.order:
            self.order.remove(key)
        else:
            self.misses += 1
            if len(self.order) >= self.capacity:
                self.order.pop(0)
        self.order.append(key)


@given(
    st.integers(min_value=1, max_value=12),
    st.lists(st.integers(min_value=0, max_value=20), min_size=0, max_size=300),
)
@settings(max_examples=100, deadline=None)
def test_lru_matches_reference(capacity, keys):
    fast = LRUCache(capacity)
    ref = ReferenceLRU(capacity)
    fast.access_stream(np.array(keys, dtype=np.int64), collapse=False)
    for k in keys:
        ref.access(k)
    assert fast.misses == ref.misses
    assert fast.resident().tolist() == ref.order


@given(
    st.integers(min_value=0, max_value=3),  # log2 nsets
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=0, max_value=40), min_size=0, max_size=200),
)
@settings(max_examples=100, deadline=None)
def test_setassoc_matches_per_set_reference(log_nsets, assoc, keys):
    nsets = 1 << log_nsets
    fast = SetAssocCache(nsets, assoc)
    refs = [ReferenceLRU(assoc) for _ in range(nsets)]
    fast.access_stream(np.array(keys, dtype=np.int64), collapse=False)
    for k in keys:
        refs[k & (nsets - 1)].access(k)
    assert fast.misses == sum(r.misses for r in refs)


@given(st.lists(st.integers(min_value=0, max_value=8), min_size=0, max_size=200))
@settings(max_examples=100, deadline=None)
def test_collapse_runs_never_changes_lru_misses(keys):
    arr = np.array(keys, dtype=np.int64)
    a, b = LRUCache(3), LRUCache(3)
    a.access_stream(arr, collapse=True)
    b.access_stream(arr, collapse=False)
    assert a.misses == b.misses


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=200),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=100, deadline=None)
def test_lru_miss_count_monotone_in_capacity(keys, capacity):
    """Belady-ish inclusion property of LRU: more capacity never misses more."""
    arr = np.array(keys, dtype=np.int64)
    small, big = LRUCache(capacity), LRUCache(capacity + 1)
    small.access_stream(arr, collapse=False)
    big.access_stream(arr, collapse=False)
    assert big.misses <= small.misses


# ---------------------------------------------------------------- traces


@st.composite
def random_traces(draw):
    nprocs = draw(st.integers(min_value=1, max_value=4))
    nobjects = draw(st.integers(min_value=4, max_value=64))
    nepochs = draw(st.integers(min_value=1, max_value=4))
    tb = TraceBuilder(nprocs)
    r = tb.add_region("o", nobjects, draw(st.sampled_from([8, 64, 104])))
    for e in range(nepochs):
        for p in range(nprocs):
            n_ops = draw(st.integers(min_value=0, max_value=3))
            for _ in range(n_ops):
                count = draw(st.integers(min_value=1, max_value=10))
                idx = draw(
                    st.lists(
                        st.integers(min_value=0, max_value=nobjects - 1),
                        min_size=count,
                        max_size=count,
                    )
                )
                if draw(st.booleans()):
                    tb.write(p, r, np.array(idx))
                else:
                    tb.read(p, r, np.array(idx))
            tb.work(p, 1.0)
        if e < nepochs - 1:
            tb.barrier()
    return tb.finish()


SMALL_HW = HardwareParams(
    nprocs=4, line_size=64, l2_bytes=64 * 16, l2_assoc=16, page_size=4096,
    tlb_entries=4,
)


@given(random_traces())
@settings(max_examples=60, deadline=None)
def test_hardware_counters_sane(trace):
    res = simulate_hardware(trace, SMALL_HW)
    assert (res.l2_misses >= 0).all()
    assert res.time >= 0.0
    # A proc can never miss more than it accesses (after line expansion an
    # access can touch at most 2+size/line lines).
    for p in range(trace.nprocs):
        accesses = sum(e.accesses(p) for e in trace.epochs)
        assert res.tlb_misses[p] <= 3 * accesses + 1


@given(random_traces())
@settings(max_examples=60, deadline=None)
def test_dsm_conservation_properties(trace):
    params = cluster_scaled(nprocs=max(trace.nprocs, 2), page_size=4096)
    tm = simulate_treadmarks(trace, params)
    hl = simulate_hlrc(trace, params)
    assert tm.messages >= 0 and hl.messages >= 0
    assert tm.data_bytes >= 0 and hl.data_bytes >= 0
    # Byte accounting: payloads cannot exceed what was counted as moved.
    assert tm.diff_bytes.sum() <= tm.data_bytes
    assert tm.barriers == len(trace.epochs)
    assert hl.barriers == len(trace.epochs)


@given(random_traces())
@settings(max_examples=30, deadline=None)
def test_simulators_are_deterministic(trace):
    params = cluster_scaled(nprocs=max(trace.nprocs, 2))
    a = simulate_treadmarks(trace, params)
    b = simulate_treadmarks(trace, params)
    assert a.messages == b.messages and a.data_bytes == b.data_bytes
    c = simulate_hardware(trace, SMALL_HW)
    d = simulate_hardware(trace, SMALL_HW)
    assert c.total_l2_misses == d.total_l2_misses
    assert c.time == d.time


@given(random_traces())
@settings(max_examples=30, deadline=None)
def test_burst_splitting_invariance_for_dsm(trace):
    """DSM accounting depends on per-epoch page sets, not burst shapes:
    splitting every burst in two must not change messages or bytes."""
    tb = TraceBuilder(trace.nprocs, label=trace.epochs[0].label)
    for spec in trace.regions:
        tb.add_region(spec.name, spec.num_objects, spec.object_size)
    for ei, e in enumerate(trace.epochs):
        if ei:
            tb.barrier(e.label)
        for p in range(e.nprocs):
            for region, write, idx in oracle.bursts(e, p):
                emit = tb.write if write else tb.read
                half = max(len(idx) // 2, 1)
                emit(p, region, idx[:half])
                emit(p, region, idx[half:])  # an empty half is dropped
            tb.work(p, e.work[p])
            tb.lock(p, int(e.lock_acquires[p]))
    split = tb.finish()
    assert len(split.epochs) == len(trace.epochs)
    params = cluster_scaled(nprocs=max(trace.nprocs, 2))
    a = simulate_treadmarks(trace, params)
    b = simulate_treadmarks(split, params)
    assert a.messages == b.messages
    assert a.data_bytes == b.data_bytes
    c = simulate_hlrc(trace, params)
    d = simulate_hlrc(split, params)
    assert c.messages == d.messages
    assert c.data_bytes == d.data_bytes
