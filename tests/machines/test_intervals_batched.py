"""Block-batched DSM front end vs the per-processor reference.

:func:`repro.trace.layout.decode_epoch` decodes whole blocks of
processors per call, and the interval builder keeps every ladder level
as flat proc-major keys ``proc << pbits | page``.  These tests hold both
to the per-processor oracle (:mod:`oracles.intervals`) bit for bit: the
decoded streams and their ``None`` counts, every ladder level's
``(accesses, writes, ub, cross)`` per processor, and the materialized
``EpochPageInfo`` lists.  The shapes a batched encoding can get wrong are
covered on purpose: processor counts that are not powers of two, idle
processors, epochs with no writes and epochs where everyone writes,
680-byte objects straddling pages and crossing sibling boundaries, and
processor blocks of every shape the access budget can produce.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import intervals as oracle
from repro.errors import SimulationInputError
from repro.machines.dsm import build_interval_ladder, build_intervals
from repro.machines.dsm import intervals
from repro.trace import layout as layout_mod
from repro.trace.builder import TraceBuilder
from repro.trace.layout import Layout, decode_epoch, epoch_blocks

PAGE_SIZES = (256, 512, 1024, 2048)


def random_trace(rng, nprocs, nepochs=6, idle=0.25, empty=(2,), all_write=(3,),
                 read_only=(4,)):
    """Random program over regions of 8-, 24-, 100- and 680-byte objects.

    ``empty`` epochs have no accesses at all, in ``all_write`` epochs every
    processor writes, and ``read_only`` epochs have no writes.
    """
    tb = TraceBuilder(nprocs)
    sizes = {"a": (96, 8), "b": (40, 24), "c": (30, 100), "w": (12, 680)}
    regions = [(tb.add_region(name, n, sz), n) for name, (n, sz) in sizes.items()]
    for e in range(nepochs):
        if e not in empty:
            for p in range(nprocs):
                if e not in all_write and rng.random() < idle:
                    continue
                for _ in range(int(rng.integers(1, 4))):
                    r, n = regions[int(rng.integers(0, len(regions)))]
                    steps = rng.integers(-2, 3, int(rng.integers(1, 30)))
                    idx = np.abs(int(rng.integers(0, n)) + np.cumsum(steps)) % n
                    writes = e in all_write or rng.random() < 0.4
                    writes = writes and e not in read_only
                    (tb.write if writes else tb.read)(p, r, idx)
                tb.work(p, float(rng.integers(1, 50)))
        tb.barrier(["force", "update", ""][e % 3])
    return tb.finish()


def per_proc(level, nprocs):
    """Split a proc-major level into per-processor ``(acc, wr, ub, cross)``."""
    pmask = (1 << level.pbits) - 1
    for keys in (level.acc, level.wr):
        assert (np.diff(keys) > 0).all()
        assert keys.shape[0] == 0 or keys[-1] >> level.pbits < nprocs
    acc_of = level.acc >> level.pbits
    wr_of = level.wr >> level.pbits
    return (
        [level.acc[acc_of == p] & pmask for p in range(nprocs)],
        [level.wr[wr_of == p] & pmask for p in range(nprocs)],
        [level.ub[wr_of == p] for p in range(nprocs)],
        [level.cross[wr_of == p] for p in range(nprocs)],
    )


def assert_arrays_equal(got, want):
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def assert_decoded_equal(got, want):
    assert len(got.units) == len(want.units)
    for p, (gu, wu) in enumerate(zip(got.units, want.units)):
        assert_arrays_equal(gu, wu)
        assert (got.counts[p] is None) == (want.counts[p] is None), p
        if want.counts[p] is not None:
            assert_arrays_equal(got.counts[p], want.counts[p])


def assert_infos_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.label == w.label
        assert_arrays_equal(g.work, w.work)
        assert_arrays_equal(g.lock_acquires, w.lock_acquires)
        assert g.nprocs == w.nprocs
        for name in ("accesses", "writes", "write_bytes"):
            for ga, wa in zip(getattr(g, name), getattr(w, name), strict=True):
                assert_arrays_equal(ga, wa)


def assert_matches_oracle(trace):
    layout = Layout.for_trace(trace, align=PAGE_SIZES[-1])
    for unit in (64, *PAGE_SIZES):
        for epoch in trace.epochs:
            assert_decoded_equal(
                decode_epoch(epoch, layout, unit),
                oracle.decode_epoch(epoch, layout, unit),
            )
    for epoch in trace.epochs:
        level = intervals._epoch_ladder_packed(
            epoch, decode_epoch(epoch, layout, PAGE_SIZES[0]), layout, PAGE_SIZES[0]
        )
        want = oracle.epoch_ladder(
            epoch, oracle.decode_epoch(epoch, layout, PAGE_SIZES[0]), layout,
            PAGE_SIZES[0],
        )
        for size in PAGE_SIZES:
            for got_col, want_col in zip(per_proc(level, trace.nprocs), want):
                for g, w in zip(got_col, want_col, strict=True):
                    assert_arrays_equal(g, w)
            level = intervals._fold_ladder(level)
            want = oracle.fold_ladder(*want)
    ladder, _ = build_interval_ladder(trace, PAGE_SIZES, layout)
    for size in PAGE_SIZES:
        want = oracle.build_intervals(trace, layout, size)
        assert_infos_equal(build_intervals(trace, layout, size)[0], want)
        assert_infos_equal(ladder[size], want)


@pytest.mark.parametrize("nprocs", [1, 2, 3, 16])
def test_random_programs_match_oracle(nprocs):
    rng = np.random.default_rng(700 + nprocs)
    for _ in range(3):
        assert_matches_oracle(random_trace(rng, nprocs))


@pytest.mark.parametrize("budget", [1, 40])
def test_processor_blocks_match_oracle(monkeypatch, budget):
    """Tiny budgets: every working processor its own block, or blocks of
    a few."""
    monkeypatch.setattr(layout_mod, "DECODE_BLOCK", budget)
    rng = np.random.default_rng(budget)
    for nprocs in (3, 16):
        trace = random_trace(rng, nprocs)
        if budget == 1:
            # Idle processors join the block before them.
            lens = np.diff(trace.epochs[0].offsets)
            for lo, hi in epoch_blocks(trace.epochs[0]):
                assert np.count_nonzero(lens[lo:hi]) <= 1
        assert_matches_oracle(trace)


def test_processor_over_budget_forms_own_block(monkeypatch):
    monkeypatch.setattr(layout_mod, "DECODE_BLOCK", 50)
    tb = TraceBuilder(4)
    r = tb.add_region("w", 64, 680)
    tb.read(0, r, np.arange(10))
    tb.write(1, r, np.arange(0, 64, 3).repeat(10))  # 220 accesses
    tb.write(2, r, np.arange(5, 25))
    tb.read(3, r, np.arange(30, 40))
    tb.barrier()
    trace = tb.finish()
    assert epoch_blocks(trace.epochs[0]) == [(0, 1), (1, 2), (2, 4)]
    assert_matches_oracle(trace)


def test_idle_epochs_and_processors():
    tb = TraceBuilder(5)
    r = tb.add_region("o", 40, 24)
    tb.barrier("empty")
    tb.read(3, r, np.arange(8))
    tb.barrier("one reader")
    for p in range(5):
        tb.write(p, r, [p, 39 - p])
    tb.barrier("all write")
    assert_matches_oracle(tb.finish())


def test_object_crossing_sibling_boundary():
    """A 680-byte object over bytes 0..679 dirties both 512-byte pages of
    the first 1024-byte page: inclusion-exclusion counts it once."""
    tb = TraceBuilder(2)
    r = tb.add_region("w", 4, 680)
    tb.write(1, r, [0, 0])
    tb.barrier()
    trace = tb.finish()
    layout = Layout.for_trace(trace, align=2048)
    epoch = trace.epochs[0]
    level = intervals._epoch_ladder_packed(
        epoch, decode_epoch(epoch, layout, 512), layout, 512
    )
    _, wr, ub, cross = per_proc(level, 2)
    assert wr[1].tolist() == [0, 1] and ub[1].tolist() == [680, 680]
    assert cross[1].tolist() == [0, 680] and wr[0].shape == (0,)
    _, wr, ub, cross = per_proc(intervals._fold_ladder(level), 2)
    assert wr[1].tolist() == [0] and ub[1].tolist() == [680]
    assert cross[1].tolist() == [0]
    assert_matches_oracle(trace)


def unique_written_pages(epoch, layout, page_size):
    """``{(proc, page): (ub, cross)}`` from the written objects found by
    one ``np.unique`` over ``proc << abits | start_byte`` (distinct
    objects are distinct start bytes), expanded page by page."""
    abits = layout.total_bytes.bit_length()
    bases = np.asarray(layout.bases, dtype=np.int64)
    osizes = layout._object_sizes()
    objs = [np.empty(0, dtype=np.int64)]
    for p in range(epoch.nprocs):
        wacc = oracle._write_accesses(epoch, p)
        if wacc is not None:
            wregs, widx = wacc
            objs.append((p << abits) + bases[wregs] + widx * osizes[wregs])
    out = {}
    for key in np.unique(np.concatenate(objs)).tolist():
        proc, start = key >> abits, key & ((1 << abits) - 1)
        size = int(osizes[np.searchsorted(bases, start, side="right") - 1])
        first = start // page_size
        for page in range(first, (start + size - 1) // page_size + 1):
            ub, cross = out.get((proc, page), (0, 0))
            out[proc, page] = (ub + size, cross + size * (page > first))
    return out


@given(
    data=st.data(),
    nprocs=st.integers(1, 5),
    empty_at=st.integers(0, 3),
)
@settings(max_examples=40, deadline=None)
def test_property_written_objects_match_unique_reference(data, nprocs, empty_at):
    """The ``(proc, object)`` table finds the same written objects, in the
    same order, as a ``np.unique`` over start bytes: with an empty region
    among the others, 1000-byte objects over several 256-byte pages, one
    processor, and idle processors."""
    sizes = [("a", 40, 8), ("b", 20, 100), ("w", 6, 1000)]
    sizes.insert(empty_at, ("e", 0, 24))
    tb = TraceBuilder(nprocs)
    regions = [(tb.add_region(name, n, sz), n) for name, n, sz in sizes]
    for p in range(nprocs):
        for r, n in regions:
            if n == 0:
                continue
            idx = data.draw(st.lists(st.integers(0, n - 1), max_size=8))
            if idx:
                (tb.write if data.draw(st.booleans()) else tb.read)(p, r, idx)
    tb.barrier()
    trace = tb.finish()
    layout = Layout.for_trace(trace, align=256)
    epoch = trace.epochs[0]
    level = intervals._epoch_ladder_packed(
        epoch, decode_epoch(epoch, layout, 256), layout, 256
    )
    want = unique_written_pages(epoch, layout, 256)
    pmask = (1 << level.pbits) - 1
    got = [(k >> level.pbits, k & pmask) for k in level.wr.tolist()]
    assert got == sorted(want)
    assert list(zip(level.ub.tolist(), level.cross.tolist())) == [
        want[k] for k in got
    ]


def test_decoded_and_interval_arrays_are_read_only():
    """Processors share one buffer per block: an in-place write must fail."""
    trace = random_trace(np.random.default_rng(3), 4)
    layout = Layout.for_trace(trace, align=512)
    decoded = decode_epoch(trace.epochs[0], layout, 512)
    arrays = list(decoded.units) + [c for c in decoded.counts if c is not None]
    infos, _ = build_intervals(trace, layout, 512)
    for info in infos:
        arrays += info.accesses + info.writes + info.write_bytes
    ladder, _ = build_interval_ladder(trace, (256, 512), layout)
    for info in ladder[512]:
        arrays += info.accesses + info.writes + info.write_bytes
    assert any(a.shape[0] for a in arrays)
    for a in arrays:
        assert not a.flags.writeable
        if a.shape[0]:
            with pytest.raises(ValueError):
                a[0] = 0


@pytest.mark.parametrize("page_size, field", [(4096, "bytes"), (1, "pages")])
def test_key_overflow_raises(page_size, field):
    """16 processors over a 2^60-byte address space cannot be encoded in
    int64 proc-major keys: object keys overflow at any page size, page
    keys at one-byte pages."""
    tb = TraceBuilder(16)
    r = tb.add_region("huge", 2**57, 8)
    tb.write(3, r, [5, 2**56])
    tb.barrier()
    with pytest.raises(SimulationInputError, match=field):
        build_intervals(tb.finish(), page_size=page_size)
