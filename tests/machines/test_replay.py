"""Tests for the parallel replay backend (:mod:`repro.machines.replay`).

The load-bearing property is *byte-identical results*: the parallel fold
must reproduce every counter array, the float ``time``, and
``phase_times`` of the serial engine exactly — across worker counts,
uneven processor blocks, non-power-of-two and single-processor traces,
workers running several batch blocks, and mapped (v2) or compressed (v3)
bundles.  The mmap-sharing
tests pin the zero-copy contract: workers attach to the trace file's
pages, they do not receive pickled columns.
"""

import numpy as np
import pytest

from repro.apps import APP_REGISTRY, AppConfig
from repro.machines import hardware
from repro.machines.hardware import simulate_hardware
from repro.machines.params import HardwareParams
from repro.machines.replay import (
    _proc_blocks,
    _replay_block,
    build_intervals_parallel,
    simulate_hardware_parallel,
)
from repro.runtime.executor import ExecutorConfig
from repro.trace.io import load_trace, save_trace
from repro.trace.layout import Layout

RESULT_ARRAYS = (
    "l2_misses", "tlb_misses", "invalidations", "work", "lock_acquires",
    "cold_misses", "coherence_misses", "capacity_misses",
    "classification_overcount",
)


def _save_moldyn(directory, nprocs, compression="none"):
    app = APP_REGISTRY["moldyn"](
        AppConfig(n=384, nprocs=nprocs, iterations=2, seed=3)
    )
    app.reorder("hilbert")
    path = directory / f"t{nprocs}_{compression}.npt"
    save_trace(app.run(), path, compression=compression)
    return path


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    return _save_moldyn(tmp_path_factory.mktemp("replay"), 8)


@pytest.fixture(scope="module", params=["none", "zlib"])
def codec_files(request, tmp_path_factory):
    """P=6 and P=1 bundles, uncompressed (mapped v2) or zlib v3."""
    directory = tmp_path_factory.mktemp(f"codec_{request.param}")
    return {p: _save_moldyn(directory, p, request.param) for p in (1, 6)}


def assert_results_identical(a, b):
    for name in RESULT_ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.time == b.time
    assert a.phase_times == b.phase_times
    assert a.barriers == b.barriers and a.nprocs == b.nprocs


class TestEquivalence:
    @pytest.mark.parametrize("jobs", [2, 3, 4, 8])
    def test_byte_identical_to_serial(self, trace_file, jobs):
        params = HardwareParams()
        serial = simulate_hardware(load_trace(trace_file), params)
        parallel = simulate_hardware_parallel(trace_file, params, jobs=jobs)
        assert_results_identical(serial, parallel)

    def test_jobs_one_routes_serial(self, trace_file):
        params = HardwareParams()
        serial = simulate_hardware(load_trace(trace_file), params)
        assert_results_identical(
            serial, simulate_hardware_parallel(trace_file, params, jobs=1)
        )

    def test_compressed_v3_input(self, trace_file, tmp_path):
        v3 = tmp_path / "t3.npt"
        save_trace(load_trace(trace_file), v3, compression="zlib")
        params = HardwareParams()
        serial = simulate_hardware(load_trace(trace_file), params)
        for jobs in (2, 3, 4, 8):
            assert_results_identical(
                serial, simulate_hardware_parallel(v3, params, jobs=jobs)
            )

    def test_block_fn_matches_serial_counters(self, trace_file):
        """The worker body itself (in-process) reproduces the serial
        counters of its block, and zeros elsewhere."""
        params = HardwareParams()
        serial = simulate_hardware(load_trace(trace_file), params)
        l2, tlb, inval, cold, coherence = _replay_block(
            str(trace_file), 2, 5, params
        )
        for got, want in (
            (l2.sum(axis=0), serial.l2_misses),
            (tlb.sum(axis=0), serial.tlb_misses),
            (inval, serial.invalidations),
            (cold, serial.cold_misses),
            (coherence, serial.coherence_misses),
        ):
            assert np.array_equal(got[2:5], want[2:5])
            assert not got[:2].any() and not got[5:].any()


class TestWorkerCases:
    """The parallel replay on the shapes a processor block can take, from
    a mapped v2 bundle and from a zlib v3 bundle."""

    def test_uneven_blocks_non_power_of_two(self, codec_files):
        path = codec_files[6]
        assert _proc_blocks(6, 4) == [(0, 1), (1, 3), (3, 4), (4, 6)]
        params = HardwareParams()
        serial = simulate_hardware(load_trace(path), params)
        assert_results_identical(
            serial, simulate_hardware_parallel(path, params, jobs=4)
        )

    def test_single_processor(self, codec_files):
        path = codec_files[1]
        params = HardwareParams()
        serial = simulate_hardware(load_trace(path), params)
        assert_results_identical(
            serial, simulate_hardware_parallel(path, params, jobs=2)
        )
        l2, tlb, inval, cold, coherence = _replay_block(str(path), 0, 1, params)
        assert np.array_equal(l2.sum(axis=0), serial.l2_misses)
        assert np.array_equal(tlb.sum(axis=0), serial.tlb_misses)
        assert np.array_equal(cold, serial.cold_misses)

    def test_worker_runs_several_batch_blocks(self, codec_files, monkeypatch):
        path = codec_files[6]
        params = HardwareParams()
        serial = simulate_hardware(load_trace(path), params)
        calls = []
        real = hardware._l2_epoch_misses

        def spy(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(hardware, "_BATCH_KEYS", 256)
        monkeypatch.setattr(hardware, "_l2_epoch_misses", spy)
        # An in-process executor keeps the patches in effect.
        parallel = simulate_hardware_parallel(
            path, params, jobs=2,
            executor=ExecutorConfig(jobs=1, task_timeout=None),
        )
        assert_results_identical(serial, parallel)
        nepochs = len(load_trace(path).epochs)
        assert len(calls) > 2 * nepochs  # several blocks per worker epoch


class TestBlocks:
    def test_blocks_cover_every_proc(self):
        for nprocs in (1, 3, 7, 16):
            for jobs in (1, 2, 4, 9, 32):
                blocks = _proc_blocks(nprocs, jobs)
                covered = [p for lo, hi in blocks for p in range(lo, hi)]
                assert covered == list(range(nprocs))
                assert all(hi > lo for lo, hi in blocks)

    def test_written_sets_match_serial(self, trace_file):
        """The write-burst decode of the processors outside a block marks
        exactly the written lines the serial decode finds for them."""
        params = HardwareParams()
        trace = load_trace(trace_file)
        layout = Layout.for_trace(trace, align=params.page_size)
        nlines = (layout.total_bytes >> (params.line_size.bit_length() - 1)) + 1
        bits = (trace.nprocs - 1).bit_length()
        from oracles.hardware import _proc_streams_packed

        from repro.machines.hardware import _mark_outside_writes
        from repro.trace.layout import decode_epoch

        lo, hi = 3, 6
        for ei, epoch in enumerate(trace.epochs):
            wrote = np.zeros(nlines << bits, dtype=bool)
            _mark_outside_writes(
                epoch, layout, params.line_size, bits, lo, hi, wrote
            )
            keys = np.flatnonzero(wrote)
            decoded = decode_epoch(epoch, layout, params.line_size)
            for p in range(trace.nprocs):
                _, _, written = _proc_streams_packed(
                    epoch, decoded, p, params.line_size, params.page_size, nlines
                )
                if lo <= p < hi:
                    written = written[:0]
                got = keys[(keys & ((1 << bits) - 1)) == p] >> bits
                assert np.array_equal(got, written), (ei, p)


def _probe_column_sharing(trace_path):
    """Worker probe: are the index columns views over the mapped file?"""
    trace = load_trace(trace_path, mmap=True, validate=False)
    epoch = trace.epochs[0]
    idx = np.asarray(epoch.index)
    base = idx
    while getattr(base, "base", None) is not None:
        base = base.base
    return {
        "owndata": bool(idx.flags["OWNDATA"]),
        "base_type": type(base).__name__,
    }


class TestZeroCopy:
    def test_worker_columns_are_mmap_views(self, trace_file):
        """Workers attach to the file: no copied, no pickled index columns."""
        from repro.runtime.executor import ExecutorConfig, Task, run_tasks

        tasks = [Task(key="probe", fn=_probe_column_sharing,
                      args=(str(trace_file),))]
        out = run_tasks(tasks, ExecutorConfig(jobs=2, task_timeout=None))["probe"]
        assert out["owndata"] is False
        # The view chain bottoms out at the mapped file (np.memmap, whose
        # own buffer is an mmap.mmap) — never a heap-allocated copy.
        assert out["base_type"] in ("memmap", "mmap")

    def test_no_index_widening_on_load(self, trace_file):
        """int32 disk columns stay narrow — the premise of page sharing."""
        trace = load_trace(trace_file)
        for epoch in trace.epochs:
            idx = np.asarray(epoch.index)
            assert idx.dtype in (np.dtype(np.int32), np.dtype(np.int64))
            assert not idx.flags["OWNDATA"]


class TestIntervalsParallel:
    def test_matches_serial_build(self, trace_file):
        from repro.machines.dsm.intervals import build_intervals

        trace = load_trace(trace_file)
        a, layout_a = build_intervals(trace, None, 4096)
        infos, layout_b = build_intervals_parallel(trace_file, 4096, jobs=3)
        assert layout_a.bases == layout_b.bases
        assert len(infos) == len(a)
        for x, y in zip(a, infos):
            assert x.label == y.label
            assert np.array_equal(x.work, y.work)
            for p in range(x.nprocs):
                assert np.array_equal(x.accesses[p], y.accesses[p])
                assert np.array_equal(x.writes[p], y.writes[p])
                assert np.array_equal(x.write_bytes[p], y.write_bytes[p])

    def test_installs_into_memo(self, trace_file, decode_calls):
        from repro.machines.dsm import simulate_treadmarks
        from repro.machines.params import CLUSTER_16

        serial = simulate_treadmarks(load_trace(trace_file), CLUSTER_16)
        trace = load_trace(trace_file)
        build_intervals_parallel(
            trace_file, CLUSTER_16.page_size, jobs=3, trace=trace
        )
        decodes_before = len(decode_calls)
        res = simulate_treadmarks(trace, CLUSTER_16)
        assert res.messages == serial.messages
        assert res.data_bytes == serial.data_bytes
        assert res.time == serial.time
        # The protocol model reused the installed summaries: no fresh
        # interval decode happened on this trace.
        assert len(decode_calls) == decodes_before

    def test_summaries_are_read_only(self, trace_file):
        """Workers' summaries come back pickled, which drops numpy's
        read-only flag; the installed ones are frozen again, like a
        serial build's."""
        from repro.machines.dsm.intervals import build_intervals

        serial, _ = build_intervals(load_trace(trace_file), None, 4096)
        infos, _ = build_intervals_parallel(
            trace_file, 4096, jobs=3,
            executor=ExecutorConfig(jobs=3, task_timeout=None),
        )
        for info in serial + infos:
            for a in (info.acc_pages, info.wr_pages, info.wr_bytes,
                      info.work, info.lock_acquires):
                assert not a.flags.writeable
                if a.shape[0]:
                    with pytest.raises(ValueError):
                        a[0] = 0
