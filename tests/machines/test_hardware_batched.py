"""Batched Origin replay vs the per-processor reference replay.

:func:`repro.machines.hardware.simulate_hardware` replays all processors'
L2s in one kernel call per epoch and all TLBs in one pass per trace, over
keys that carry the processor in their low bits.  These tests hold it to
the per-processor oracle (:mod:`oracles.hardware`): every counter, the
per-(epoch, processor) L2 and TLB miss matrices, and ``time`` /
``phase_times`` bit for bit, including key order.  The shapes that a
batched encoding can get wrong are covered on purpose: processor counts
that are not powers of two (a decode by ``& (P - 1)`` would mis-attribute
misses), idle processors, empty epochs, epochs where every processor
writes, direct-mapped/2-way/4-way L2s and a TLB larger than the stream.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import hardware as oracle
from repro.apps import AppConfig, BarnesHut, Moldyn
from repro.machines import hardware
from repro.machines.params import HardwareParams, origin2000_scaled
from repro.trace.builder import TraceBuilder
from repro.trace.layout import Layout

RESULT_ARRAYS = (
    "l2_misses", "tlb_misses", "invalidations", "work", "lock_acquires",
    "cold_misses", "coherence_misses", "capacity_misses",
    "classification_overcount",
)


def params(nprocs, nsets=4, assoc=2, tlb=3, page_size=512):
    return HardwareParams(
        nprocs=nprocs,
        line_size=64,
        l2_bytes=64 * nsets * assoc,
        l2_assoc=assoc,
        page_size=page_size,
        tlb_entries=tlb,
    )


def random_trace(rng, nprocs, nepochs=6, idle=0.25, empty_epochs=(2,), all_write=(3,)):
    """Random program: per epoch, each processor reads/writes a local walk.

    Object sizes of 24 and 100 bytes straddle 64-byte lines, so some
    accesses expand to several lines.  ``empty_epochs`` are barriers with
    no accesses at all; in ``all_write`` epochs every processor writes.
    """
    tb = TraceBuilder(nprocs)
    regions = [tb.add_region("a", 96, 8), tb.add_region("b", 40, 24),
               tb.add_region("c", 12, 100)]
    sizes = [96, 40, 12]
    for e in range(nepochs):
        if e not in empty_epochs:
            for p in range(nprocs):
                if e not in all_write and rng.random() < idle:
                    continue
                for _ in range(int(rng.integers(1, 4))):
                    r = int(rng.integers(0, 3))
                    start = int(rng.integers(0, sizes[r]))
                    steps = rng.integers(-2, 3, int(rng.integers(1, 30)))
                    idx = np.abs(start + np.cumsum(steps)) % sizes[r]
                    if e in all_write or rng.random() < 0.4:
                        tb.write(p, regions[r], idx)
                    else:
                        tb.read(p, regions[r], idx)
                tb.work(p, float(rng.integers(1, 50)))
                if rng.random() < 0.3:
                    tb.lock(p, int(rng.integers(1, 3)))
        tb.barrier(["force", "update", ""][e % 3])
    return tb.finish()


def assert_matches_oracle(trace, prm):
    ref, ref_l2, ref_tlb = oracle.simulate_hardware(trace, prm)
    got = hardware.simulate_hardware(trace, prm)
    for name in RESULT_ARRAYS:
        np.testing.assert_array_equal(
            getattr(got, name), getattr(ref, name), err_msg=name
        )
    assert got.barriers == ref.barriers
    assert got.time.hex() == ref.time.hex()
    assert [(k, v.hex()) for k, v in got.phase_times.items()] == [
        (k, v.hex()) for k, v in ref.phase_times.items()
    ]
    layout = Layout.for_trace(trace, align=prm.page_size)
    epoch_l2, epoch_tlb, *_ = hardware._replay_counters(
        trace, prm, layout, 0, trace.nprocs
    )
    np.testing.assert_array_equal(epoch_l2, ref_l2)
    np.testing.assert_array_equal(epoch_tlb, ref_tlb)
    return got


@pytest.mark.parametrize("nprocs", [1, 2, 3, 6, 16])
@pytest.mark.parametrize("assoc", [1, 2, 4])
def test_random_programs_match_oracle(nprocs, assoc):
    rng = np.random.default_rng(1000 * nprocs + assoc)
    for _ in range(3):
        trace = random_trace(rng, nprocs)
        res = assert_matches_oracle(trace, params(nprocs, assoc=assoc))
        assert res.total_l2_misses > 0


@pytest.mark.parametrize("nprocs", [3, 6])
def test_non_power_of_two_procs_attribute_misses(nprocs):
    """Only the last processor works: every miss must land on it."""
    tb = TraceBuilder(nprocs)
    r = tb.add_region("o", 64, 64)
    last = nprocs - 1
    tb.read(last, r, np.arange(64))
    tb.barrier()
    tb.write(last, r, np.arange(0, 64, 5))
    res = assert_matches_oracle(tb.finish(), params(nprocs))
    assert res.l2_misses[last] == res.total_l2_misses > 0
    assert res.tlb_misses[last] == res.total_tlb_misses > 0


def test_every_processor_writes_one_line():
    """All processors write the same line each epoch: ping-pong invalidations."""
    nprocs = 6
    tb = TraceBuilder(nprocs)
    r = tb.add_region("o", 8, 8)  # one 64-byte line
    for _ in range(4):
        for p in range(nprocs):
            tb.write(p, r, [p])
        tb.barrier()
    res = assert_matches_oracle(tb.finish(), params(nprocs))
    assert res.invalidations.sum() > 0
    assert res.coherence_misses.sum() > 0


def test_idle_and_empty_epochs_only():
    tb = TraceBuilder(3)
    tb.add_region("o", 8, 8)
    tb.barrier("a")
    tb.barrier("b")
    tb.work(1, 5.0)
    tb.barrier("a")
    res = assert_matches_oracle(tb.finish(), params(3))
    assert res.total_l2_misses == 0 and res.total_tlb_misses == 0
    assert list(res.phase_times) == ["a", "b"]


@pytest.mark.parametrize("nprocs", [1, 3, 16])
def test_tlb_larger_than_stream(nprocs):
    rng = np.random.default_rng(nprocs)
    trace = random_trace(rng, nprocs)
    res = assert_matches_oracle(trace, params(nprocs, tlb=4096))
    # Only first touches of each processor's pages can miss.
    npages = Layout.for_trace(trace, align=512).total_bytes // 512 + 1
    assert (res.tlb_misses <= npages).all()


@pytest.mark.parametrize("page_size", [32, 64, 4096])
def test_page_sizes_around_the_line_size(page_size):
    rng = np.random.default_rng(page_size)
    assert_matches_oracle(random_trace(rng, 3), params(3, page_size=page_size))


@pytest.mark.parametrize("budget", [1, 40, 300])
def test_processor_blocks_match_oracle(monkeypatch, budget):
    """Streams past the per-call key budget replay in processor blocks."""
    monkeypatch.setattr(hardware, "_BATCH_KEYS", budget)
    rng = np.random.default_rng(budget)
    for nprocs, assoc in ((6, 2), (3, 4), (16, 1)):
        assert_matches_oracle(random_trace(rng, nprocs), params(nprocs, assoc=assoc))


@pytest.mark.parametrize("nprocs", [1, 6])
def test_sweep_points_match_oracle(nprocs):
    """The one-pass sweep shares the batched TLB replay: every grid point
    must still equal the per-processor reference."""
    rng = np.random.default_rng(50 + nprocs)
    trace = random_trace(rng, nprocs)
    base = params(nprocs, assoc=2)
    points = hardware.simulate_hardware_sweep(
        trace, base, l2_bytes=[base.l2_bytes // 2, base.l2_bytes, 2 * base.l2_bytes]
    )
    for got in points:
        ref = oracle.simulate_hardware(trace, got.params)[0]
        for name in RESULT_ARRAYS:
            np.testing.assert_array_equal(
                getattr(got, name), getattr(ref, name), err_msg=name
            )
        assert got.time.hex() == ref.time.hex()


def assert_same_result(got, ref):
    assert got.params == ref.params
    assert got.nprocs == ref.nprocs and got.barriers == ref.barriers
    for name in RESULT_ARRAYS:
        np.testing.assert_array_equal(
            getattr(got, name), getattr(ref, name), err_msg=name
        )
    assert got.time.hex() == ref.time.hex()
    assert [(k, v.hex()) for k, v in got.phase_times.items()] == [
        (k, v.hex()) for k, v in ref.phase_times.items()
    ]


@given(
    nprocs=st.sampled_from([1, 2, 3, 5, 16]),
    seed=st.integers(0, 2**32 - 1),
    ways=st.lists(st.integers(1, 9), min_size=1, max_size=4, unique=True),
    budget=st.sampled_from([hardware._SWEEP_KEYS, 64, 1]),
)
@settings(max_examples=40, deadline=None)
def test_batched_sweep_matches_per_processor_sweep(nprocs, seed, ways, budget):
    """Every field of every sweep point equals the per-processor sweep
    oracle and the per-point replay: two line sizes, associativity lists
    that skip values, idle processors, lines written by one processor and
    by several, and (small budgets) epochs cut into processor blocks."""
    rng = np.random.default_rng(seed)
    trace = random_trace(rng, nprocs, idle=0.4)
    base = params(nprocs, nsets=4, assoc=2)
    set_span = base.l2_bytes // base.l2_assoc
    l2_bytes = [set_span * w for w in ways]
    line_sizes = [64, 128]
    with mock.patch.object(hardware, "_SWEEP_KEYS", budget):
        got = hardware.simulate_hardware_sweep(
            trace, base, l2_bytes=l2_bytes, line_sizes=line_sizes
        )
    want = [
        r for s in line_sizes
        for r in oracle.simulate_hardware_sweep(trace, base, l2_bytes, line_size=s)
    ]
    assert len(got) == len(want) == len(l2_bytes) * len(line_sizes)
    for g, w in zip(got, want):
        assert_same_result(g, w)
        assert_same_result(g, hardware.simulate_hardware(trace, g.params))


def test_app_traces_match_oracle():
    for app in (
        Moldyn(AppConfig(n=256, nprocs=16, iterations=2, seed=11)),
        BarnesHut(AppConfig(n=256, nprocs=3, iterations=1, seed=4)),
    ):
        trace = app.run()
        assert_matches_oracle(trace, origin2000_scaled(256, trace.nprocs))
