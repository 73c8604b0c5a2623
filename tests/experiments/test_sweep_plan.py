"""Sweep planner: grouping, grid parsing, executor dispatch, resume.

The planner must return the same rows whether groups run serially
in-process or as batched executor tasks against the persistent trace
cache, and its per-point rows must match direct per-point simulator
calls.  Resume must reuse on-disk group checkpoints.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.errors import (
    EXIT_CONFIG,
    ConfigError,
    UnknownAppError,
    UnknownPlatformError,
)
from repro.experiments import (
    Scale,
    SweepGrid,
    SweepPlan,
    clear_cache,
    parse_grid,
    run_suite,
    scaling_curve,
)
from repro.experiments.runner import make_app
from repro.experiments.sweep import grid_from_dict
from repro.machines import simulate_hardware, simulate_treadmarks
from repro.machines.params import cluster_scaled
from repro.runtime.faults import garble_file, truncate_file
from repro.runtime import (
    ExecutorConfig,
    RuntimeContext,
    TraceCache,
    set_runtime,
)

SCALE = Scale(
    n={k: 512 for k in Scale().n},
    iterations={k: 2 for k in Scale().n},
    nprocs=4,
    hw_scale=128.0,
)

GRID = SweepGrid(
    apps=("moldyn",),
    versions=("original", "hilbert"),
    platforms=("origin", "treadmarks"),
    l2_bytes=(32768, 131072),
    page_sizes=(1024, 4096),
)


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_cache()
    yield
    clear_cache()
    set_runtime(None)


class TestGridValidation:
    def test_unknown_app(self):
        with pytest.raises(UnknownAppError):
            SweepGrid(apps=("nonesuch",))

    def test_unknown_platform(self):
        with pytest.raises(UnknownPlatformError):
            SweepGrid(platforms=("cray",))

    def test_bad_axis(self):
        with pytest.raises(ConfigError):
            SweepGrid(l2_bytes=(0,))

    def test_page_sizes_must_be_powers_of_two(self):
        with pytest.raises(ConfigError, match="powers of two"):
            SweepGrid(platforms=("treadmarks",), page_sizes=(4096, 3000))
        with pytest.raises(ConfigError, match="powers of two"):
            grid_from_dict({"platforms": ["hlrc"], "page_sizes": [3000]})

    def test_cli_rejects_page_size_before_generating(self, capsys, tmp_path):
        from repro.cli import main

        cache = tmp_path / "cache"
        code = main([
            "sweep", "water-spatial", "--n", "64", "--nprocs", "2",
            "--cache-dir", str(cache), "--platform", "treadmarks",
            "--grid", "page_size=3000",
        ])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "powers of two" in err
        assert not list(cache.glob("*.npt"))

    @pytest.mark.parametrize("axes", [{"l2_bytes": (32768, 3)},
                                      {"line_sizes": (100,)}])
    def test_origin_axes_must_be_powers_of_two(self, axes):
        with pytest.raises(ConfigError, match="powers of two"):
            SweepGrid(**axes)

    def test_plan_checks_origin_points_against_the_base_cache(self):
        # SCALE's L2 is 64 KB, 2-way, 128-byte lines: a 32 KB set span.
        SweepPlan(GRID, SCALE)
        for axes in ({"l2_bytes": (16384,)}, {"line_sizes": (65536,)}):
            grid = SweepGrid(apps=("moldyn",), **axes)
            with pytest.raises(ConfigError, match="Origin sweep axes"):
                SweepPlan(grid, SCALE)
        # The Origin axes do not constrain a DSM-only plan.
        SweepPlan(SweepGrid(apps=("moldyn",), platforms=("hlrc",),
                            l2_bytes=(16384,)), SCALE)

    @pytest.mark.parametrize(
        "spec", ["line_size=100", "l2=3", "l2=2K", "line_size=8K"]
    )
    def test_cli_rejects_origin_axes_before_generating(
        self, capsys, tmp_path, spec
    ):
        from repro.cli import main

        cache = tmp_path / "cache"
        code = main([
            "sweep", "water-spatial", "--n", "64", "--nprocs", "2",
            "--cache-dir", str(cache), "--grid", spec,
        ])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("error: ")
        assert not list(cache.glob("*.npt"))

    @pytest.mark.parametrize(
        "data",
        [
            ["moldyn"],
            "moldyn",
            {"page_sizes": ["4k"]},
            {"page_sizes": 4096},
            {"l2_bytes": [1.5]},
            {"l2_bytes": [True]},
            {"page_sizes": [4096.0]},
            {"apps": "moldyn"},
            {"apps": [1]},
            {"page_size": [4096]},
        ],
        ids=["list", "string", "text-size", "scalar-axis", "float", "bool",
             "integral-float", "string-apps", "int-app", "unknown-key"],
    )
    def test_grid_from_dict_is_strict(self, data):
        with pytest.raises(ConfigError):
            grid_from_dict(data)

    def test_grid_from_dict_round_trip(self):
        from repro.experiments.sweep import grid_to_dict

        wire = json.loads(json.dumps(grid_to_dict(GRID)))
        assert grid_from_dict(wire) == GRID
        assert grid_from_dict({"versions": None}) == SweepGrid()

    def test_groups_split_by_trace_and_family(self):
        groups = SweepPlan(GRID, SCALE).groups()
        # One task per trace (2 versions), each carrying both platforms;
        # its checkpoints stay one per (trace, platform).
        assert len(groups) == 2
        assert sum(g.points() for g in groups) == 8
        assert [g.platforms for g in groups] == [("origin", "treadmarks")] * 2
        parts = [p for g in groups for p in g.per_platform()]
        assert [(p.platform, p.l2_bytes, p.page_sizes) for p in parts] == [
            ("origin", (32768, 131072), None),
            ("treadmarks", None, (1024, 4096)),
        ] * 2


class TestParseGrid:
    def test_axes_and_suffixes(self):
        axes = parse_grid(["l2=32K,1M", "page_size=1024,8K", "line_size=64"])
        assert axes == {
            "l2_bytes": (32768, 1048576),
            "page_sizes": (1024, 8192),
            "line_sizes": (64,),
        }

    @pytest.mark.parametrize("spec", ["l2", "volts=3", "l2=12Q", "l2=;"])
    def test_rejects_malformed(self, spec):
        with pytest.raises(ConfigError):
            parse_grid([spec])


class TestSerialRows:
    def test_rows_match_per_point_simulators(self):
        rows = SweepPlan(GRID, SCALE).run()
        assert len(rows) == 8
        by = {
            (r["version"], r["platform"], r.get("l2_bytes"), r.get("page_size")): r
            for r in rows
        }
        # Spot-check one origin and one DSM point against direct runs.
        app = make_app("moldyn", SCALE.config("moldyn"), "hilbert")
        trace = app.run()
        from dataclasses import replace

        base = SCALE.hardware()
        nsets = base.l2_bytes // (base.line_size * base.l2_assoc)
        params = replace(
            base, l2_bytes=131072, l2_assoc=131072 // (nsets * base.line_size)
        )
        ref = simulate_hardware(trace, params)
        row = by[("hilbert", "origin", 131072, None)]
        assert row["l2_misses"] == ref.total_l2_misses
        assert row["tlb_misses"] == ref.total_tlb_misses
        assert row["time"] == ref.time

        ref = simulate_treadmarks(
            trace, cluster_scaled(nprocs=SCALE.nprocs, page_size=4096)
        )
        row = by[("hilbert", "treadmarks", None, 4096)]
        assert row["messages"] == ref.messages
        assert row["time"] == ref.time


class TestExecutorDispatchAndResume:
    def test_parallel_equals_serial_and_resumes(self, tmp_path):
        serial = SweepPlan(GRID, SCALE).run()

        set_runtime(RuntimeContext(
            cache=TraceCache(tmp_path),
            executor=ExecutorConfig(jobs=2),
            resume=True,
        ))
        clear_cache()
        parallel = SweepPlan(GRID, SCALE).run()
        assert parallel == serial

        ckpts = sorted((tmp_path / "sweeps").glob("*.json"))
        assert len(ckpts) == 4
        # Poison one checkpoint's rows: resume must read it back verbatim
        # (proof the planner trusts checkpoints instead of recomputing).
        rows = json.loads(ckpts[0].read_text())
        rows[0]["time"] = -1.0
        ckpts[0].write_text(json.dumps(rows))
        clear_cache()
        resumed = SweepPlan(GRID, SCALE).run()
        assert any(r["time"] == -1.0 for r in resumed)
        assert len(resumed) == len(serial)


class TestOneTaskPerTrace:
    """A task loads its trace once and builds one interval ladder for
    both DSM protocols; checkpoints stay one per (trace, platform)."""

    DSM = SweepGrid(
        apps=("moldyn",),
        versions=("original", "hilbert"),
        platforms=("treadmarks", "hlrc"),
        page_sizes=(1024, 4096),
    )

    def test_one_ladder_pass_per_epoch_per_trace(self, tmp_path, monkeypatch):
        from repro.machines.dsm import intervals

        serial = SweepPlan(self.DSM, SCALE).run()
        clear_cache()
        set_runtime(RuntimeContext(
            cache=TraceCache(tmp_path),
            executor=ExecutorConfig(jobs=1, task_timeout=None),
        ))
        real = intervals._epoch_ladder_packed
        calls = []

        def counting(epoch, *args):
            calls.append(epoch)
            return real(epoch, *args)

        monkeypatch.setattr(intervals, "_epoch_ladder_packed", counting)
        assert SweepPlan(self.DSM, SCALE).run() == serial
        epochs = [len(make_app("moldyn", SCALE.config("moldyn"), v)
                      .run().epochs) for v in ("original", "hilbert")]
        assert len(calls) == sum(epochs)
        assert len(set(map(id, calls))) == len(calls)

    def test_origin_decodes_leave_before_the_dsm_ladder(
        self, monkeypatch, decode_calls
    ):
        from repro.experiments.sweep import _group_rows
        from repro.machines import dsm

        trace = make_app("moldyn", SCALE.config("moldyn"), "hilbert").run()
        real = dsm.simulate_dsm_sweep
        held = []

        def probe(trace, *args, **kwargs):
            held.append(sum(r() is not None for refs in decode_calls for r in refs))
            return real(trace, *args, **kwargs)

        monkeypatch.setattr(dsm, "simulate_dsm_sweep", probe)
        (group,) = SweepPlan(dataclasses.replace(GRID, versions=("hilbert",)),
                             SCALE).groups()
        rows = _group_rows(trace, group, SCALE)
        assert [r["platform"] for r in rows] == ["origin"] * 2 + ["treadmarks"] * 2
        assert decode_calls and held == [0]

    def test_resume_runs_only_the_missing_platform(self, tmp_path, monkeypatch):
        import repro.experiments.sweep as sweep_mod

        set_runtime(RuntimeContext(
            cache=TraceCache(tmp_path),
            executor=ExecutorConfig(jobs=1, task_timeout=None),
            resume=True,
        ))
        baseline = SweepPlan(GRID, SCALE).run()
        ckpts = sorted((tmp_path / "sweeps").glob("*.json"))
        assert [p.name.split("_")[2] for p in ckpts] == [
            "origin", "treadmarks", "origin", "treadmarks"]
        victim = ckpts[1]
        victim.unlink()
        real = sweep_mod.run_sweep_group
        ran = []

        def counting(cache_root, group, scale):
            ran.append(group.key(scale))
            return real(cache_root, group, scale)

        monkeypatch.setattr(sweep_mod, "run_sweep_group", counting)
        clear_cache()
        assert SweepPlan(GRID, SCALE).run() == baseline
        assert ran == [victim.stem]
        assert victim.exists()


class TestMatrixThroughPlanner:
    def test_run_suite_parallel_equals_serial(self, tmp_path):
        serial = run_suite(apps=("moldyn",), scale=SCALE)
        set_runtime(RuntimeContext(
            cache=TraceCache(tmp_path),
            executor=ExecutorConfig(jobs=2),
            resume=True,
        ))
        clear_cache()
        parallel = run_suite(apps=("moldyn",), scale=SCALE)
        assert parallel == serial

    def test_scaling_curve_parallel_equals_serial(self, tmp_path):
        serial = scaling_curve(
            "moldyn", "treadmarks", procs=(1, 2, 4), scale=SCALE
        )
        set_runtime(RuntimeContext(
            cache=TraceCache(tmp_path),
            executor=ExecutorConfig(jobs=2),
            resume=True,
        ))
        clear_cache()
        parallel = scaling_curve(
            "moldyn", "treadmarks", procs=(1, 2, 4), scale=SCALE
        )
        assert parallel == serial

    def test_memoized_cells_not_redispatched(self, tmp_path):
        set_runtime(RuntimeContext(
            cache=TraceCache(tmp_path),
            executor=ExecutorConfig(jobs=2),
            resume=True,
        ))
        first = run_suite(apps=("moldyn",), scale=SCALE)
        second = run_suite(apps=("moldyn",), scale=SCALE)
        assert first == second


class TestCheckpointCorruption:
    """A torn or garbled ``sweeps/*.json`` checkpoint must be detected,
    quarantined, and resume must regenerate exactly the damaged group."""

    GRID2 = SweepGrid(
        apps=("moldyn",),
        versions=("original", "hilbert"),
        platforms=("origin",),
        l2_bytes=(32768, 131072),
    )

    @pytest.mark.parametrize(
        "damage",
        [
            lambda p: truncate_file(p, keep_fraction=0.4),
            lambda p: garble_file(p, seed=3),
            lambda p: p.write_text("definitely not json {"),
            lambda p: p.write_text('{"rows": "not a list"}'),
        ],
        ids=["torn", "garbled", "junk", "wrong-shape"],
    )
    def test_resume_regenerates_only_the_damaged_group(
        self, tmp_path, monkeypatch, damage
    ):
        set_runtime(RuntimeContext(
            cache=TraceCache(tmp_path),
            executor=ExecutorConfig(jobs=1, task_timeout=None),
            resume=True,
        ))
        baseline = SweepPlan(self.GRID2, SCALE).run()
        ckpts = sorted((tmp_path / "sweeps").glob("*.json"))
        assert len(ckpts) == 2
        victim = ckpts[0]
        damage(victim)
        clear_cache()

        import repro.experiments.sweep as sweep_mod

        real = sweep_mod.run_sweep_group
        ran = []

        def counting(cache_root, group, scale):
            ran.append(group.key(scale))
            return real(cache_root, group, scale)

        monkeypatch.setattr(sweep_mod, "run_sweep_group", counting)
        resumed = SweepPlan(self.GRID2, SCALE).run()
        assert resumed == baseline            # regenerated identically
        assert ran == [victim.stem]           # ONLY the damaged group
        qdir = tmp_path / "sweeps" / "quarantine"
        assert list(qdir.glob(f"{victim.stem}*.json"))  # preserved, not deleted
        reasons = list(qdir.glob(f"{victim.stem}*.reason.txt"))
        assert reasons and reasons[0].read_text().strip()

        # Third run: the regenerated checkpoint is healthy again.
        ran.clear()
        clear_cache()
        assert SweepPlan(self.GRID2, SCALE).run() == baseline
        assert ran == []


class TestTraceCodec:
    """The sweep stores and reads traces under the runtime's codec, like
    ``repro run`` does: a zlib runtime leaves only v3 cache entries."""

    SMALL = Scale(
        n={k: 256 for k in Scale().n},
        iterations={k: 2 for k in Scale().n},
        nprocs=4,
        hw_scale=128.0,
    )

    def test_cli_sweep_honours_trace_compression(self, capsys, tmp_path):
        from repro.cli import main

        cache = tmp_path / "cache"
        code = main([
            "sweep", "fmm", "--n", "256", "--nprocs", "4",
            "--cache-dir", str(cache), "--trace-compression", "zlib",
            "--platform", "hlrc", "--grid", "page_size=1K,4K",
        ])
        capsys.readouterr()
        assert code == 0
        names = sorted(p.name for p in cache.glob("*.npt"))
        assert names and all(n.endswith("_fv3.npt") for n in names), names

    def test_plan_with_zlib_runtime_writes_only_v3(self, tmp_path):
        grid = SweepGrid(apps=("moldyn",), versions=("hilbert",),
                         platforms=("origin", "treadmarks"),
                         l2_bytes=(32768,), page_sizes=(4096,))
        serial = SweepPlan(grid, self.SMALL).run()
        clear_cache()
        set_runtime(RuntimeContext(
            cache=TraceCache(tmp_path),
            executor=ExecutorConfig(jobs=1, task_timeout=None),
            trace_compression="zlib",
        ))
        assert SweepPlan(grid, self.SMALL).run() == serial
        names = [p.name for p in tmp_path.glob("*.npt")]
        assert names == ["moldyn__hilbert__n256_i2_p4_s42_fv3.npt"]

    def test_codec_is_not_part_of_the_group_key(self):
        plain = SweepPlan(GRID, SCALE).groups()
        zlib = SweepPlan(GRID, SCALE).groups("zlib")
        assert [g.compression for g in plain] == ["none"] * len(plain)
        assert [g.key(SCALE) for g in plain] == [g.key(SCALE) for g in zlib]

    def test_only_the_origin_key_holds_hw_scale(self):
        # hw_scale shapes the Origin's caches alone: a DSM checkpoint
        # stays valid when only the Origin scaling changes.
        from repro.experiments.sweep import SweepGroup

        other = dataclasses.replace(SCALE, hw_scale=2 * SCALE.hw_scale)
        dsm = SweepGroup("moldyn", "original", "hlrc", page_sizes=(4096,))
        origin = SweepGroup("moldyn", "original", "origin",
                            l2_bytes=(32768,), line_sizes=(128,))
        assert dsm.key(SCALE) == dsm.key(other)
        assert origin.key(SCALE) != origin.key(other)

    def test_parent_era_group_spec_loads(self):
        from repro.experiments.sweep import SweepGroup

        spec = {"app": "moldyn", "version": "hilbert", "platform": "hlrc",
                "l2_bytes": None, "line_sizes": None, "page_sizes": [4096]}
        group = SweepGroup.from_dict(spec)
        assert group.compression == "none"
        assert group.page_sizes == (4096,)
        assert SweepGroup.from_dict(group.to_dict()) == group
