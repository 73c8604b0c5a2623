"""Micro-benchmarks of the simulators themselves (pytest-benchmark stats).

Not a paper artifact — these track the replay engines' throughput so
regressions in the hot loops (OrderedDict LRU, interval group-bys) are
visible across commits.

``test_kernel_replay_speedup`` is the acceptance benchmark for the
vectorized kernel layer (:mod:`repro.machines.kernels`): on the
Barnes-Hut n=8192, P=16 trace the batch engine must replay the decoded
access streams at >= 5x the throughput of the reference loop engine,
with identical miss/invalidation counts.  Its numbers are persisted to
``benchmarks/results/bench_simulator_kernels.txt`` via the ``emit``
fixture.
"""

import time

import numpy as np
import pytest

from repro.apps import AppConfig, BarnesHut, Moldyn
from repro.machines import (
    LRUCache,
    SetAssocCache,
    simulate_hardware,
    simulate_hlrc,
    simulate_treadmarks,
)
from repro.machines import cache as cache_mod
from repro.machines.params import origin2000_scaled
from repro.trace.layout import Layout, decode_memo


@pytest.fixture(scope="module")
def trace():
    app = Moldyn(AppConfig(n=1024, nprocs=8, iterations=3, seed=7))
    app.reorder("column")
    return app.run()


def test_lru_stream_throughput(benchmark):
    keys = np.random.default_rng(0).integers(0, 4096, 200_000)
    def run():
        c = LRUCache(1024)
        c.access_stream(keys, collapse=False)
        return c.misses
    misses = benchmark(run)
    assert misses > 0


def test_setassoc_stream_throughput(benchmark):
    keys = np.random.default_rng(1).integers(0, 4096, 200_000)
    def run():
        c = SetAssocCache(256, 4)
        c.access_stream(keys, collapse=False)
        return c.misses
    misses = benchmark(run)
    assert misses > 0


def test_hardware_replay_throughput(benchmark, trace):
    params = origin2000_scaled(64, 8)
    res = benchmark.pedantic(
        simulate_hardware, args=(trace, params), rounds=3, iterations=1
    )
    assert res.total_l2_misses > 0


def test_treadmarks_replay_throughput(benchmark, trace):
    res = benchmark.pedantic(simulate_treadmarks, args=(trace,), rounds=3, iterations=1)
    assert res.messages > 0


def test_hlrc_replay_throughput(benchmark, trace):
    res = benchmark.pedantic(simulate_hlrc, args=(trace,), rounds=3, iterations=1)
    assert res.messages > 0


# --------------------------------------------------------------------------
# Kernel-vs-loop acceptance benchmark (Barnes-Hut n=8192, P=16)
# --------------------------------------------------------------------------


def _decode_streams(trace, params, layout):
    """Decode every (epoch, proc) access stream into line/page/written arrays.

    This is the shared front end both engines pay inside
    ``simulate_hardware``; pre-extracting it isolates the cache *replay*
    cost, which is what the kernel layer vectorizes.
    """
    memo = decode_memo(trace)
    streams = []
    for ei, epoch in enumerate(trace.epochs):
        decoded = memo.epoch(layout, params.line_size, ei)
        per_proc = []
        for p in range(trace.nprocs):
            lines = decoded.units[p]
            written = np.unique(lines[decoded.expand(p, epoch.write_flags(p))])
            pages = lines * params.line_size // params.page_size
            per_proc.append((lines, pages, written))
        streams.append(per_proc)
    return streams


def _replay(streams, params, nprocs, engine):
    """Replay pre-decoded streams through L2s+TLBs with barrier invalidation.

    Returns (seconds, accesses replayed, l2 misses, tlb misses,
    invalidations) so callers can both time the engines and assert they
    agree count-for-count.
    """
    caches = [SetAssocCache(params.l2_sets, params.l2_assoc) for _ in range(nprocs)]
    tlbs = [LRUCache(params.tlb_entries) for _ in range(nprocs)]
    l2 = np.zeros(nprocs, dtype=np.int64)
    tlb = np.zeros(nprocs, dtype=np.int64)
    inval = np.zeros(nprocs, dtype=np.int64)
    naccesses = 0
    t0 = time.perf_counter()
    for epoch_streams in streams:
        for p, (lines, pages, _written) in enumerate(epoch_streams):
            if lines.shape[0]:
                l2[p] += caches[p].access_stream(lines, engine=engine)
                tlb[p] += tlbs[p].access_stream(pages, engine=engine)
                naccesses += lines.shape[0] + pages.shape[0]
        for q, (_l, _p, written_q) in enumerate(epoch_streams):
            if written_q.shape[0] == 0:
                continue
            for p in range(nprocs):
                if p != q:
                    inval[p] += caches[p].invalidate_present(
                        written_q, assume_unique=True
                    ).shape[0]
    return time.perf_counter() - t0, naccesses, l2, tlb, inval


@pytest.mark.slow
def test_kernel_replay_speedup(emit):
    """Acceptance: batch kernels replay the BH trace >= 5x faster than the loop.

    The trace is decoded once; both engines then replay the identical
    line/page streams (including barrier invalidations).  Counts must
    match exactly — the speedup is only meaningful if the engines agree.
    End-to-end ``simulate_hardware`` wall times (decode included) are
    recorded as secondary data.
    """
    trace = BarnesHut(AppConfig(n=8192, nprocs=16, iterations=2, seed=5)).run()
    params = origin2000_scaled(8, 16)
    layout = Layout.for_trace(trace, align=params.page_size)
    streams = _decode_streams(trace, params, layout)

    # Warm-up pass (first-touch page faults, allocator growth), then take
    # the best of two rounds per engine — wall-clock noise on a shared
    # machine is the main threat to a ratio assertion.
    _replay(streams, params, trace.nprocs, "kernel")
    t_kernel, n_kernel, l2_k, tlb_k, inv_k = min(
        (_replay(streams, params, trace.nprocs, "kernel") for _ in range(2)),
        key=lambda r: r[0],
    )
    t_loop, n_loop, l2_l, tlb_l, inv_l = min(
        (_replay(streams, params, trace.nprocs, "loop") for _ in range(2)),
        key=lambda r: r[0],
    )
    assert n_kernel == n_loop
    np.testing.assert_array_equal(l2_k, l2_l)
    np.testing.assert_array_equal(tlb_k, tlb_l)
    np.testing.assert_array_equal(inv_k, inv_l)

    speedup = t_loop / t_kernel
    tput_kernel = n_kernel / t_kernel
    tput_loop = n_loop / t_loop

    # Secondary: whole-simulation wall time, decode and classification
    # included (shared overhead both engines pay identically).
    e2e = {}
    saved = cache_mod.DEFAULT_ENGINE
    try:
        for eng in ("kernel", "loop"):
            cache_mod.DEFAULT_ENGINE = eng
            t0 = time.perf_counter()
            simulate_hardware(trace, params, layout=layout)
            e2e[eng] = time.perf_counter() - t0
    finally:
        cache_mod.DEFAULT_ENGINE = saved

    lines = [
        "Simulator kernel throughput — Barnes-Hut n=8192, P=16, 2 iterations",
        f"machine: origin2000_scaled(8, 16); accesses replayed: {n_kernel:,}",
        "",
        f"{'engine':<8} {'replay s':>9} {'Maccess/s':>10} {'end-to-end s':>13}",
        f"{'loop':<8} {t_loop:>9.2f} {tput_loop / 1e6:>10.2f} {e2e['loop']:>13.2f}",
        f"{'kernel':<8} {t_kernel:>9.2f} {tput_kernel / 1e6:>10.2f} {e2e['kernel']:>13.2f}",
        "",
        f"replay speedup: {speedup:.2f}x (acceptance floor: 5x)",
        f"end-to-end speedup: {e2e['loop'] / e2e['kernel']:.2f}x",
        "counts: l2/tlb misses and invalidations identical across engines",
    ]
    emit("bench_simulator_kernels", "\n".join(lines))
    assert speedup >= 5.0, (
        f"kernel replay only {speedup:.2f}x faster than loop "
        f"(kernel {t_kernel:.2f}s, loop {t_loop:.2f}s); acceptance floor is 5x"
    )
