"""Acceptance benchmark for the one-pass multi-configuration sweep engine.

``test_sweep_engine_speedup`` runs a 16-point L2-capacity sweep plus a
4-point DSM page-size sweep on the Barnes-Hut n=8192, P=16 trace two
ways:

* **per-point** — one full ``simulate_hardware`` / ``simulate_treadmarks``
  replay per grid point, the pre-sweep-engine cost model;
* **sweep** — ``simulate_hardware_sweep`` (every capacity read off one
  stack-distance replay per line-size family) and
  ``simulate_dsm_sweep`` for TreadMarks (interval summaries built at the finest
  page size and folded up the 2x ladder).

Every grid point's counters — L2/TLB misses, invalidations, modelled
time, DSM messages and payload bytes — must be identical between the
two paths; the speedup is only meaningful if the results are.  The
acceptance floor is >= 5x on the combined grid.

Both paths reload the trace fresh from its ``.npt`` bundle each round,
so neither inherits the other's decode memo (per-point round 2 would
otherwise reuse the sweep's cached intervals and look faster than it
is).  Numbers are persisted to ``benchmarks/results/bench_sweep_engine
.txt`` and ``benchmarks/results/BENCH_sweep.json``.
"""

import gc
import json
import pathlib
import time
from dataclasses import replace

import pytest

from repro.apps import AppConfig, BarnesHut
from repro.machines import (
    simulate_hardware,
    simulate_hardware_sweep,
    simulate_dsm_sweep,
    simulate_treadmarks,
)
from repro.machines.params import cluster_scaled, origin2000_scaled
from repro.trace.io import load_trace, save_trace

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

APP_N = 8192
NPROCS = 16
ITERATIONS = 2
SEED = 5
HW_SCALE = 8
L2_POINTS = 16
PAGE_SIZES = (1024, 2048, 4096, 8192)
FLOOR = 5.0
ROUNDS = 2


def _grid(base):
    """The 16 L2 capacities of the base line-size geometry family."""
    set_span = base.l2_bytes // base.l2_assoc
    return [set_span * k for k in range(1, L2_POINTS + 1)]


def _hw_counters(res):
    return {
        "time": res.time,
        "l2_misses": res.total_l2_misses,
        "tlb_misses": res.total_tlb_misses,
        "invalidations": int(res.invalidations.sum()),
    }


def _dsm_counters(res):
    return {"time": res.time, "messages": res.messages, "data_bytes": res.data_bytes}


def _run_sweep(path, base, cluster):
    trace = load_trace(path, mmap=True)
    t0 = time.perf_counter()
    hw = simulate_hardware_sweep(trace, base, l2_bytes=_grid(base))
    t_hw = time.perf_counter() - t0
    t0 = time.perf_counter()
    dsm = simulate_dsm_sweep(
        trace, cluster, PAGE_SIZES, protocols=("treadmarks",)
    )["treadmarks"]
    t_dsm = time.perf_counter() - t0
    counters = {
        **{f"l2@{r.params.l2_bytes}": _hw_counters(r) for r in hw},
        **{f"page@{s}": _dsm_counters(dsm[s]) for s in PAGE_SIZES},
    }
    del trace, hw, dsm
    gc.collect()
    return t_hw, t_dsm, counters


def _run_per_point(path, base, cluster):
    trace = load_trace(path, mmap=True)
    counters = {}
    t0 = time.perf_counter()
    for nbytes in _grid(base):
        assoc = nbytes // (base.l2_bytes // base.l2_assoc)
        params = replace(base, l2_bytes=nbytes, l2_assoc=assoc)
        counters[f"l2@{nbytes}"] = _hw_counters(simulate_hardware(trace, params))
    t_hw = time.perf_counter() - t0
    t0 = time.perf_counter()
    for size in PAGE_SIZES:
        res = simulate_treadmarks(trace, replace(cluster, page_size=size))
        counters[f"page@{size}"] = _dsm_counters(res)
    t_dsm = time.perf_counter() - t0
    del trace
    gc.collect()
    return t_hw, t_dsm, counters


@pytest.mark.slow
def test_sweep_engine_speedup(tmp_path, emit):
    """Acceptance: one-pass sweeps are >= 5x faster than per-point loops."""
    base = origin2000_scaled(HW_SCALE, NPROCS)
    cluster = cluster_scaled(nprocs=NPROCS)

    trace = BarnesHut(
        AppConfig(n=APP_N, nprocs=NPROCS, iterations=ITERATIONS, seed=SEED)
    ).run()
    path = tmp_path / "t.npt"
    save_trace(trace, path)
    del trace
    gc.collect()

    t_sweep = {"hw": 1e30, "dsm": 1e30}
    t_point = {"hw": 1e30, "dsm": 1e30}
    for _ in range(ROUNDS):
        hw, dsm, c_sweep = _run_sweep(path, base, cluster)
        t_sweep["hw"] = min(t_sweep["hw"], hw)
        t_sweep["dsm"] = min(t_sweep["dsm"], dsm)
        hw, dsm, c_point = _run_per_point(path, base, cluster)
        t_point["hw"] = min(t_point["hw"], hw)
        t_point["dsm"] = min(t_point["dsm"], dsm)

    # Byte-for-byte identical counters at every grid point.
    assert set(c_sweep) == set(c_point)
    for point in c_point:
        assert c_sweep[point] == c_point[point], (
            f"{point}: sweep {c_sweep[point]} != per-point {c_point[point]}"
        )

    sweep_total = t_sweep["hw"] + t_sweep["dsm"]
    point_total = t_point["hw"] + t_point["dsm"]
    speedup = point_total / sweep_total
    hw_speedup = t_point["hw"] / t_sweep["hw"]
    dsm_speedup = t_point["dsm"] / t_sweep["dsm"]

    lines = [
        f"Sweep engine — Barnes-Hut n={APP_N}, P={NPROCS}, "
        f"{ITERATIONS} iterations (seed {SEED})",
        f"grid: {L2_POINTS} L2 capacities (assoc 1..{L2_POINTS}) + "
        f"{len(PAGE_SIZES)} TreadMarks page sizes {PAGE_SIZES}",
        f"timings: min of {ROUNDS} rounds, fresh mmap load (cold decode memo)"
        " each round",
        "",
        f"{'stage':<22} {'per-point s':>12} {'sweep s':>9} {'speedup':>8}",
        f"{'origin L2 sweep':<22} {t_point['hw']:>12.3f} {t_sweep['hw']:>9.3f}"
        f" {hw_speedup:>7.2f}x",
        f"{'treadmarks page sweep':<22} {t_point['dsm']:>12.3f}"
        f" {t_sweep['dsm']:>9.3f} {dsm_speedup:>7.2f}x",
        f"{'combined grid':<22} {point_total:>12.3f} {sweep_total:>9.3f}"
        f" {speedup:>7.2f}x",
        "",
        f"acceptance floor: {FLOOR:.0f}x on the combined grid",
        f"counters: all {len(c_point)} grid points identical across paths",
    ]
    emit("bench_sweep_engine", "\n".join(lines))

    payload = {
        "bench": "sweep_engine",
        "app": "barnes_hut",
        "n": APP_N,
        "nprocs": NPROCS,
        "iterations": ITERATIONS,
        "seed": SEED,
        "hw_scale": HW_SCALE,
        "l2_points": L2_POINTS,
        "page_sizes": list(PAGE_SIZES),
        "floor": FLOOR,
        "rounds": ROUNDS,
        "per_point_s": {k: round(v, 4) for k, v in t_point.items()},
        "sweep_s": {k: round(v, 4) for k, v in t_sweep.items()},
        "speedup": {
            "origin": round(hw_speedup, 3),
            "treadmarks": round(dsm_speedup, 3),
            "combined": round(speedup, 3),
        },
        "counters": c_point,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_sweep.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    assert speedup >= FLOOR, (
        f"sweep engine only {speedup:.2f}x faster than per-point loops"
        f" ({point_total:.2f}s -> {sweep_total:.2f}s); floor is {FLOOR:.0f}x"
    )
