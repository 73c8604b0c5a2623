"""Command-line interface: regenerate the paper's artifacts directly.

Usage::

    python -m repro list
    python -m repro reproduce fig7 table2 --n 2048
    python -m repro reproduce all --paper-scale
    python -m repro run barnes-hut --version hilbert --platform treadmarks
    python -m repro sweep barnes-hut --grid l2=256K,1M --grid line_size=64,128
    python -m repro serve --state-dir svc --workers 4
    python -m repro submit moldyn --grid l2=256K,1M --wait
    python -m repro jobs

Resilience flags (accepted before or after the subcommand)::

    --jobs 8               generate traces across 8 worker processes
    --replay-jobs 4        fan machine-model replay of cached traces across
                           4 worker processes (byte-identical results)
    --trace-compression zlib   write chunked compressed v3 cache entries
    --cache-dir DIR        persistent trace cache; interrupted runs resume
    --no-resume            keep writing the cache but never read it
    --task-timeout 600     wall-clock seconds per trace-generation worker
    --quiet                suppress per-cell progress logging

``--cache-dir`` defaults to ``$REPRO_CACHE_DIR`` when that is set.

Exit codes follow the :mod:`repro.errors` hierarchy
(:func:`repro.errors.exit_code_for`): 0 success, 2 configuration error
(also argparse usage errors), 3 corrupt on-disk data, 4 worker failure,
5 job-service failure, 1 any other structured failure, 130 interrupted.
Every structured failure prints a one-line message instead of a
traceback.

The pytest benchmark harness (`pytest benchmarks/ --benchmark-only`) does
the same with timing statistics and assertions; the CLI is the quick path.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .apps import APP_REGISTRY
from .core.keys import ORDERINGS
from .errors import ReproError, exit_code_for
from .experiments import (
    Scale,
    SweepGrid,
    SweepPlan,
    curve_quality,
    fig1_fig4,
    fig2_fig5,
    fig3,
    fig6,
    fig7,
    fig8_fig9,
    object_size_sweep,
    page_size_sweep,
    parse_grid,
    run_one,
    sequential_locality,
    table1,
    table2,
    table3,
    table4,
)
from .experiments.report import (
    hbar,
    render_path,
    render_series,
    render_table,
    render_update_map,
)
from .experiments.runner import prefetch_traces
from .experiments.tables import TABLE4_PHASES
from .runtime import ExecutorConfig, RuntimeContext, TraceCache, set_runtime

__all__ = ["main", "ARTIFACTS"]

#: Every data-ordering version a CLI flag accepts: the untouched layout
#: plus the full ordering zoo of :data:`repro.core.keys.ORDERINGS`.
VERSION_CHOICES = ("original", *ORDERINGS)

#: Defaults for options addable both before and after the subcommand (the
#: parsers use ``SUPPRESS`` so a later occurrence overrides an earlier one).
_COMMON_DEFAULTS = {
    "n": 0,
    "nprocs": 16,
    "paper_scale": False,
    "jobs": 1,
    "replay_jobs": 0,
    "trace_compression": "none",
    "cache_dir": None,
    "resume": True,
    "task_timeout": 300.0,
    "quiet": False,
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    S = argparse.SUPPRESS
    parser.add_argument("--n", type=int, default=S,
                        help="objects per app (default: Scale())")
    parser.add_argument("--nprocs", type=int, default=S)
    parser.add_argument("--paper-scale", action="store_true", default=S,
                        help="the paper's Table 1 sizes")
    parser.add_argument("--jobs", type=int, default=S, metavar="N",
                        help="worker processes for trace generation (default 1)")
    parser.add_argument("--replay-jobs", type=int, default=S, metavar="N",
                        help="worker processes for machine-model replay of"
                             " cached traces (default 0: replay in-process);"
                             " requires --cache-dir")
    parser.add_argument("--trace-compression", default=S,
                        choices=["none", "zlib", "lz4"],
                        help="on-disk codec for cached traces (default none:"
                             " mmap-friendly v2; zlib/lz4 write chunked v3"
                             " bundles ~10-50x smaller)")
    parser.add_argument("--cache-dir", default=S, metavar="DIR",
                        help="persistent trace cache (default: $REPRO_CACHE_DIR)")
    parser.add_argument("--resume", action=argparse.BooleanOptionalAction,
                        default=S,
                        help="read completed cells back from the cache"
                             " (default: yes)")
    parser.add_argument("--task-timeout", type=float, default=S,
                        metavar="SECONDS",
                        help="wall-clock budget per trace worker (default 300)")
    parser.add_argument("--quiet", action="store_true", default=S,
                        help="suppress progress logging")


def _resolve_common(args) -> argparse.Namespace:
    for name, default in _COMMON_DEFAULTS.items():
        if not hasattr(args, name):
            setattr(args, name, default)
    if args.cache_dir is None:
        args.cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
    return args


def _install_runtime(args) -> None:
    cache = TraceCache(args.cache_dir) if args.cache_dir else None
    set_runtime(
        RuntimeContext(
            cache=cache,
            executor=ExecutorConfig(
                jobs=max(1, args.jobs), task_timeout=args.task_timeout
            ),
            resume=args.resume,
            replay_jobs=max(0, args.replay_jobs) or None,
            trace_compression=args.trace_compression,
        )
    )
    for name in ("repro.runtime", "repro.service"):
        logger = logging.getLogger(name)
        logger.setLevel(logging.WARNING if args.quiet else logging.INFO)
        existing = [h for h in logger.handlers
                    if getattr(h, "name", "") == "repro-cli"]
        if existing:
            existing[0].stream = sys.stderr  # rebind: stderr may be redirected
        else:
            handler = logging.StreamHandler(sys.stderr)
            handler.set_name("repro-cli")
            handler.setFormatter(logging.Formatter("[repro] %(message)s"))
            logger.addHandler(handler)


def _scale(args) -> Scale:
    if args.paper_scale:
        return Scale.paper()
    if args.n:
        return Scale(n={k: args.n for k in APP_REGISTRY}, nprocs=args.nprocs,
                     hw_scale=max(65536 / args.n, 1.0))
    return Scale(nprocs=args.nprocs)


def _emit_fig1_fig4(scale: Scale) -> str:
    out = fig1_fig4()
    parts = []
    for version, figure in (("original", "Figure 1"), ("hilbert", "Figure 4")):
        page, owner = out[version]
        parts.append(render_update_map(page, owner, 4, title=f"{figure} ({version})"))
        parts.append("")
    return "\n".join(parts)


def _emit_fig2_fig5(scale: Scale) -> str:
    out = fig2_fig5(n=min(scale.n["barnes-hut"] * 2, 32768))
    parts = []
    for version, figure in (("original", "Figure 2"), ("hilbert", "Figure 5")):
        series = {f"P={p}": c.astype(float) for p, c in out[version].items()}
        parts.append(render_series(series, title=f"{figure} ({version})", xlabel="page"))
    return "\n".join(parts)


def _emit_fig3(scale: Scale) -> str:
    return "\n\n".join(
        render_path(path, 8, title=f"Figure 3 ({name}):")
        for name, path in fig3(8).items()
    )


def _emit_fig6(scale: Scale) -> str:
    rows = fig6(n=scale.n["moldyn"], nprocs=scale.nprocs, seed=scale.seed)
    return render_table(
        ["ordering", "remote partners", "their pages", "their owners"],
        [[r.ordering, round(r.remote_partners, 1), round(r.remote_partner_pages, 1),
          round(r.partner_procs, 2)] for r in rows],
        title="Figure 6: Moldyn boundary structure",
    )


def _emit_fig7(scale: Scale) -> str:
    out = fig7(scale)
    vmax = max(s for v in out.values() for s in v.values())
    rows = [
        [app, version, round(s, 2), hbar(s, vmax)]
        for app, versions in out.items()
        for version, s in versions.items()
    ]
    return render_table(["application", "version", "speedup", ""], rows,
                        title="Figure 7: Origin 2000 speedups")


def _emit_fig8_fig9(scale: Scale) -> str:
    out = fig8_fig9(scale)
    parts = []
    for platform, figure in (("treadmarks", "Figure 8"), ("hlrc", "Figure 9")):
        vmax = max(s for v in out[platform].values() for s in v.values())
        rows = [
            [app, version, round(s, 2), hbar(s, vmax)]
            for app, versions in out[platform].items()
            for version, s in versions.items()
        ]
        parts.append(render_table(["application", "version", "speedup", ""], rows,
                                  title=f"{figure}: {platform} speedups"))
    return "\n\n".join(parts)


def _emit_table1(scale: Scale) -> str:
    rows = table1(scale)
    return render_table(
        ["Application", "Size", "Iter", "Sync", "Object bytes", "Category"],
        [[r["application"], r["size"], r["iterations"], r["sync"],
          r["object_size"], r["category"]] for r in rows],
        title="Table 1",
    )


def _emit_table2(scale: Scale) -> str:
    rows = table2(scale)
    return render_table(
        ["Application", "Version", "Reorder s", "1p time", "1p L2", "1p TLB",
         "16p time", "16p L2", "16p TLB"],
        [[r.app, r.version, round(r.reorder_time, 4), round(r.time_1p, 3),
          r.l2_misses_1p, r.tlb_misses_1p, round(r.time_16p, 4),
          r.l2_misses_16p, r.tlb_misses_16p] for r in rows],
        title="Table 2 (simulated Origin 2000)",
    )


def _emit_table3(scale: Scale) -> str:
    rows = table3(scale)
    return render_table(
        ["Application", "Version", "Seq s", "Reorder s", "TM s", "TM MB",
         "TM msgs", "HLRC s", "HLRC MB", "HLRC msgs"],
        [[r.app, r.version, round(r.seq_time, 2), round(r.reorder_time, 4),
          round(r.tm_time, 2), round(r.tm_data_mbytes, 1), r.tm_messages,
          round(r.hlrc_time, 2), round(r.hlrc_data_mbytes, 1), r.hlrc_messages]
         for r in rows],
        title="Table 3 (simulated software DSMs)",
    )


def _emit_table4(scale: Scale) -> str:
    out = table4(scale)
    rows = []
    for phase in (*TABLE4_PHASES, "total"):
        o, h = out["original"][phase], out["hilbert"][phase]
        rows.append([phase, round(o, 3), round(h, 3),
                     round(o / h, 2) if h > 0 else float("inf")])
    return render_table(["Phase", "Original s", "Reordered s", "ratio"], rows,
                        title="Table 4: FMM breakdown on TreadMarks")


def _emit_ablations(scale: Scale) -> str:
    parts = []
    sweep = page_size_sweep(n=scale.n["moldyn"] // 2, nprocs=scale.nprocs)
    parts.append(render_table(
        ["unit", "column msgs", "hilbert msgs", "winner"],
        [[r["page_size"], r["column_messages"], r["hilbert_messages"],
          "column" if r["column_messages"] < r["hilbert_messages"] else "hilbert"]
         for r in sweep],
        title="Ablation: crossover vs consistency-unit size",
    ))
    osweep = object_size_sweep(n=scale.n["barnes-hut"] // 4, nprocs=scale.nprocs)
    parts.append(render_table(
        ["object bytes", "orig shared frac", "hilbert shared frac"],
        [[r["object_size"],
          round(r["original_shared_lines"] / r["original_lines"], 3),
          round(r["hilbert_shared_lines"] / r["hilbert_lines"], 3)]
         for r in osweep],
        title="Ablation: false sharing vs object size",
    ))
    cq = curve_quality(n=scale.n["moldyn"] // 2)
    parts.append(render_table(
        ["ordering", "rank gap", "partner pages"],
        [[r.ordering, round(r.mean_neighbor_gap, 1), round(r.page_spread, 2)] for r in cq],
        title="Ablation: curve quality",
    ))
    sl = sequential_locality(n=scale.n["barnes-hut"] // 2)
    parts.append(render_table(
        ["version", "TLB misses", "page refs"],
        [[v, d["tlb_misses"], d["accesses"]] for v, d in sl.items()],
        title="Ablation: sequential TLB locality",
    ))
    return "\n\n".join(parts)


ARTIFACTS = {
    "fig1": _emit_fig1_fig4,
    "fig2": _emit_fig2_fig5,
    "fig3": _emit_fig3,
    "fig4": _emit_fig1_fig4,
    "fig5": _emit_fig2_fig5,
    "fig6": _emit_fig6,
    "fig7": _emit_fig7,
    "fig8": _emit_fig8_fig9,
    "fig9": _emit_fig8_fig9,
    "table1": _emit_table1,
    "table2": _emit_table2,
    "table3": _emit_table3,
    "table4": _emit_table4,
    "ablations": _emit_ablations,
}


def _cmd_list(args) -> int:
    print("artifacts:", " ".join(sorted(set(ARTIFACTS))), "all")
    print("applications:", " ".join(APP_REGISTRY))
    print("platforms: origin treadmarks hlrc")
    return 0


def _cmd_reproduce(args) -> int:
    scale = _scale(args)
    if args.jobs > 1 and args.cache_dir:
        # Fan the matrix's trace generation out before rendering anything;
        # each artifact below then hits the persistent cache.
        prefetch_traces(scale=scale)
    names = args.artifact
    if "all" in names:
        names = sorted({"fig1", "fig2", "fig3", "fig6", "fig7", "fig8",
                        "table1", "table2", "table3", "table4", "ablations"})
    seen = set()
    for name in names:
        if name not in ARTIFACTS:
            print(f"unknown artifact {name!r}; try `python -m repro list`",
                  file=sys.stderr)
            return 2
        fn = ARTIFACTS[name]
        if fn in seen:
            continue
        seen.add(fn)
        print(fn(scale))
        print()
    return 0


def _cmd_run(args) -> int:
    scale = _scale(args)
    if args.app not in APP_REGISTRY:
        print(f"unknown application {args.app!r}", file=sys.stderr)
        return 2
    rec = run_one(args.app, args.version, args.platform, scale)
    fields = {
        "app": rec.app,
        "version": rec.version,
        "platform": rec.platform,
        "nprocs": rec.nprocs,
        "time_s": round(rec.time, 4),
        "reorder_s": round(rec.reorder_time, 4),
        "seq_s": round(rec.seq_time, 3),
        "speedup": round(rec.speedup, 2),
    }
    if rec.platform == "origin":
        fields.update(l2_misses=rec.l2_misses, tlb_misses=rec.tlb_misses)
    else:
        fields.update(messages=rec.messages, data_mbytes=round(rec.data_mbytes, 2))
    for k, v in fields.items():
        print(f"{k:>12}: {v}")
    return 0


def _grid_from_args(args) -> SweepGrid:
    axes = parse_grid(args.grid)
    return SweepGrid(
        apps=tuple(args.app),
        versions=tuple(args.versions) if args.versions else None,
        platforms=tuple(args.sweep_platforms or ("origin",)),
        **axes,
    )


def _render_sweep_rows(rows: list[dict], title: str) -> str:
    from .experiments.sweep import ROW_KEYS

    cols = [k for k in ROW_KEYS if any(k in r for r in rows)]
    body = []
    for r in rows:
        cells = []
        for k in cols:
            v = r.get(k, "")
            cells.append(round(v, 4) if isinstance(v, float) else v)
        body.append(cells)
    return render_table(cols, body, title=title)


def _cmd_sweep(args) -> int:
    scale = _scale(args)
    grid = _grid_from_args(args)
    rows = SweepPlan(grid, scale).run()
    ngroups = len(SweepPlan(grid, scale).groups())
    print(_render_sweep_rows(
        rows,
        f"Sweep: {len(rows)} point(s) from {ngroups} batched group(s)",
    ))
    return 0


def _service_address(args, state_dir: str | None = None) -> str:
    if getattr(args, "socket", None):
        return args.socket
    env = os.environ.get("REPRO_SERVICE_SOCKET")
    if env:
        return env
    base = state_dir or os.environ.get("REPRO_STATE_DIR") or "repro-service"
    return os.path.join(base, "repro.sock")


def _cmd_serve(args) -> int:
    import asyncio

    from .service import EngineConfig, SweepEngine, SweepServer

    state_dir = (args.state_dir or os.environ.get("REPRO_STATE_DIR")
                 or "repro-service")
    address = _service_address(args, state_dir)
    engine = SweepEngine(
        state_dir,
        config=EngineConfig(
            lease_ttl=args.lease_ttl,
            retry_budget=args.retry_budget,
            task_timeout=args.task_timeout,
            use_pool=not args.serial,
        ),
        cache_root=args.cache_dir or None,
    )
    server = SweepServer(engine, address, workers=max(1, args.workers))
    print(f"[repro] sweep service on {address} (state: {state_dir};"
          f" SIGTERM drains, SIGINT stops)", file=sys.stderr)
    asyncio.run(server.serve_forever())
    return 0


def _cmd_submit(args) -> int:
    from .service import ServiceClient

    scale = _scale(args)
    grid = _grid_from_args(args)
    client = ServiceClient(_service_address(args))
    client.ping()
    job_id = client.submit(grid, scale)
    print(f"submitted {job_id}")
    if args.wait:
        status = client.wait(job_id, timeout=args.wait_timeout)
        rows = client.results(job_id)
        print(_render_sweep_rows(
            rows,
            f"{job_id}: {len(rows)} point(s) from"
            f" {status['groups']['total']} group(s)",
        ))
    return 0


def _cmd_jobs(args) -> int:
    from .service import ServiceClient

    jobs = ServiceClient(_service_address(args)).jobs()
    body = []
    for info in jobs:
        groups = info["groups"]
        body.append([
            info["job"], info["status"], groups["total"],
            groups.get("done", 0), groups.get("pending", 0),
            groups.get("quarantined", 0),
        ])
    print(render_table(
        ["job", "status", "groups", "done", "pending", "quarantined"],
        body, title=f"{len(jobs)} job(s)",
    ))
    return 0


def _cmd_tune(args) -> int:
    from .experiments.tune import RecommendationLibrary, TuneSpec, tune

    if args.smoke:
        n, iterations, nprocs = 256, 1, min(args.nprocs, 4)
    else:
        n, iterations, nprocs = args.n or 4096, None, args.nprocs
    lib_dir = (args.tune_dir or os.environ.get("REPRO_TUNE_DIR")
               or "repro-tune")
    library = RecommendationLibrary(lib_dir)
    apps = args.app or sorted(APP_REGISTRY)
    for name in apps:
        if name not in APP_REGISTRY:
            print(f"unknown application {name!r}", file=sys.stderr)
            return 2
        spec = TuneSpec(
            app=name,
            machine=args.machine,
            n=n,
            nprocs=nprocs,
            iterations=iterations,
            candidates=tuple(args.candidates or ()),
        )
        result = tune(spec, library=library, force=args.force)
        rows = [
            [s.version, round(s.score * 1e3, 4), round(s.access_cost * 1e3, 4),
             round(s.reorder_cost * 1e3, 4),
             "<- best" if s.version == result.best else ""]
            for s in sorted(result.scores, key=lambda s: s.score)
        ]
        origin = "library" if result.source == "library" else "measured"
        print(render_table(
            ["version", "cost ms", "access ms", "reorder ms", ""],
            rows,
            title=f"tune {name} on {args.machine}"
                  f" (n={n}, P={nprocs}, {origin})",
        ))
        print(f"recommendation: {name}/{args.machine} -> {result.best}\n")
    return 0


def _cmd_adaptive(args) -> int:
    from .experiments.adaptive import (
        ADAPTIVE_POLICIES,
        DYNAMIC_APPS,
        AdaptiveSpec,
        adaptive_breakeven,
        breakeven_report,
    )

    if args.smoke:
        n, iterations, nprocs = 256, 4, min(args.nprocs, 8)
    else:
        n, iterations, nprocs = args.n or 2048, 12, args.nprocs
    apps = args.app or ["moldyn", "water-spatial"]
    for name in apps:
        if name not in DYNAMIC_APPS:
            print(f"{name!r} is not a dynamic application; choose from"
                  f" {' '.join(DYNAMIC_APPS)}", file=sys.stderr)
            return 2
    policies = tuple(args.adapt_policies or ADAPTIVE_POLICIES)
    specs = [
        AdaptiveSpec(
            app=name,
            n=n,
            nprocs=nprocs,
            iterations=iterations,
            every=args.adapt_every,
            threshold=args.adapt_threshold,
            hw_scale=max(65536 / n, 1.0),
        )
        for name in apps
    ]
    cells = adaptive_breakeven(specs, policies=policies)
    print(breakeven_report(cells))
    return 0


def _cmd_diagnose(args) -> int:
    from .experiments.analysis import diagnose
    from .experiments.runner import _trace_for, _trace_key

    scale = _scale(args)
    if args.app not in APP_REGISTRY:
        print(f"unknown application {args.app!r}", file=sys.stderr)
        return 2
    trace = _trace_for(_trace_key(args.app, args.version, scale, scale.nprocs))
    d = diagnose(trace, scale.hardware(), scale.cluster())
    print(
        render_table(
            ["metric", "value"],
            d.rows(),
            title=f"Diagnosis: {args.app} ({args.version}), {d.nprocs} processors",
        )
    )
    for note in d.notes:
        print(f"note: {note}")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce Hu, Cox & Zwaenepoel (SC 2000): data "
        "reordering for fine-grained irregular shared-memory benchmarks.",
    )
    _add_common(ap)
    sub = ap.add_subparsers(dest="cmd", required=True)

    lst = sub.add_parser("list", help="list artifacts, applications, platforms")
    _add_common(lst)

    rep = sub.add_parser("reproduce", help="regenerate tables/figures")
    rep.add_argument("artifact", nargs="+", help="fig1..fig9, table1..table4, ablations, all")
    _add_common(rep)

    run = sub.add_parser("run", help="run one app/version/platform cell")
    run.add_argument("app", choices=sorted(APP_REGISTRY))
    run.add_argument("--version", default="original",
                     choices=VERSION_CHOICES)
    run.add_argument("--platform", default="origin",
                     choices=["origin", "treadmarks", "hlrc"])
    _add_common(run)

    swp = sub.add_parser(
        "sweep",
        help="batched parameter-grid sweep (one trace replay per geometry"
             " family, not per point)",
    )
    swp.add_argument("app", nargs="+", choices=sorted(APP_REGISTRY))
    swp.add_argument("--version", action="append", dest="versions",
                     choices=VERSION_CHOICES,
                     help="data ordering; repeatable (default: the paper's"
                          " orderings per app)")
    swp.add_argument("--platform", action="append", dest="sweep_platforms",
                     choices=["origin", "treadmarks", "hlrc"],
                     help="platform; repeatable (default: origin)")
    swp.add_argument("--grid", action="append", default=[],
                     metavar="AXIS=V1,V2,...",
                     help="sweep axis (l2_bytes, line_size, page_size);"
                          " sizes accept K/M suffixes; repeatable")
    _add_common(swp)

    srv = sub.add_parser(
        "serve",
        help="durable sweep job service: journaled state, lease-based"
             " workers, crash recovery",
    )
    srv.add_argument("--state-dir", default=None, metavar="DIR",
                     help="journal + snapshot + result store (default:"
                          " $REPRO_STATE_DIR or ./repro-service)")
    srv.add_argument("--socket", default=None, metavar="ADDR",
                     help="unix socket path, or host:port for TCP (default:"
                          " $REPRO_SERVICE_SOCKET or <state-dir>/repro.sock)")
    srv.add_argument("--workers", type=int, default=2,
                     help="concurrent group workers (default 2)")
    srv.add_argument("--serial", action="store_true",
                     help="run groups in-process instead of worker processes")
    srv.add_argument("--lease-ttl", type=float, default=60.0,
                     metavar="SECONDS",
                     help="heartbeat budget per leased group (default 60)")
    srv.add_argument("--retry-budget", type=int, default=2, metavar="N",
                     help="failed leases tolerated before a group is"
                          " quarantined (default 2)")
    _add_common(srv)

    sbm = sub.add_parser(
        "submit", help="submit a sweep grid to a running `repro serve`"
    )
    sbm.add_argument("app", nargs="+", choices=sorted(APP_REGISTRY))
    sbm.add_argument("--version", action="append", dest="versions",
                     choices=VERSION_CHOICES)
    sbm.add_argument("--platform", action="append", dest="sweep_platforms",
                     choices=["origin", "treadmarks", "hlrc"])
    sbm.add_argument("--grid", action="append", default=[],
                     metavar="AXIS=V1,V2,...",
                     help="sweep axis (l2_bytes, line_size, page_size)")
    sbm.add_argument("--socket", default=None, metavar="ADDR",
                     help="server address (default: $REPRO_SERVICE_SOCKET"
                          " or <$REPRO_STATE_DIR>/repro.sock)")
    sbm.add_argument("--wait", action="store_true",
                     help="block until the job finishes and print its rows")
    sbm.add_argument("--wait-timeout", type=float, default=None,
                     metavar="SECONDS")
    _add_common(sbm)

    jbs = sub.add_parser("jobs", help="list jobs on a running `repro serve`")
    jbs.add_argument("--socket", default=None, metavar="ADDR")
    _add_common(jbs)

    tun = sub.add_parser(
        "tune",
        help="select the best ordering per (app, machine, size) via the"
             " sweep engines; recommendations persist in a library",
    )
    tun.add_argument("app", nargs="*",
                     help="application(s) to tune (default: all)")
    tun.add_argument("--machine", default="treadmarks",
                     choices=["origin", "treadmarks", "hlrc"],
                     help="machine family to tune for (default: treadmarks)")
    tun.add_argument("--candidates", action="append", default=[],
                     choices=VERSION_CHOICES,
                     help="candidate ordering; repeatable (default:"
                          " original + the app's declared orderings)")
    tun.add_argument("--tune-dir", default=None, metavar="DIR",
                     help="recommendation library directory (default:"
                          " $REPRO_TUNE_DIR or ./repro-tune)")
    tun.add_argument("--force", action="store_true",
                     help="re-measure even when the library has an answer")
    tun.add_argument("--smoke", action="store_true",
                     help="tiny problem (n=256, 1 iteration) — CI wiring"
                          " check, not a meaningful recommendation")
    _add_common(tun)

    adp = sub.add_parser(
        "adaptive",
        help="re-reordering breakeven: drifting workloads under the"
             " never/every-k/adaptive policies on all three protocols",
    )
    adp.add_argument("app", nargs="*",
                     help="dynamic application(s) (default: moldyn"
                          " water-spatial)")
    adp.add_argument("--adapt-policy", action="append",
                     dest="adapt_policies",
                     choices=["never", "every", "adaptive"],
                     help="policy column; repeatable (default: all three)")
    adp.add_argument("--adapt-every", type=int, default=3, metavar="K",
                     help="period of the 'every' policy (default 3)")
    adp.add_argument("--adapt-threshold", type=float, default=0.10,
                     metavar="FRAC",
                     help="cell-crosser fraction that triggers the"
                          " 'adaptive' policy (default 0.10)")
    adp.add_argument("--smoke", action="store_true",
                     help="tiny problem (n=256, 4 iterations) — CI wiring"
                          " check, not a meaningful breakeven")
    _add_common(adp)

    diag = sub.add_parser(
        "diagnose", help="full layout diagnosis of one app run"
    )
    diag.add_argument("app", choices=sorted(APP_REGISTRY))
    diag.add_argument("--version", default="original",
                      choices=VERSION_CHOICES)
    _add_common(diag)

    args = _resolve_common(ap.parse_args(argv))
    handlers = {
        "list": _cmd_list,
        "reproduce": _cmd_reproduce,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
        "tune": _cmd_tune,
        "adaptive": _cmd_adaptive,
        "diagnose": _cmd_diagnose,
    }
    previous = None
    installed = False
    try:
        from .runtime import get_runtime

        previous = get_runtime()
        _install_runtime(args)
        installed = True
        return handlers[args.cmd](args)
    except KeyboardInterrupt:
        print("interrupted; completed cells persist in the cache"
              if args.cache_dir else "interrupted", file=sys.stderr)
        return 130
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    finally:
        if installed:
            set_runtime(previous)
