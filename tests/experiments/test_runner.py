"""Tests for the experiment runner."""

import dataclasses
import json

import numpy as np
import pytest

from repro.apps import AppConfig
from repro.experiments.runner import (
    RunRecord,
    Scale,
    _outcome_key,
    _params,
    _trace_key,
    clear_cache,
    make_app,
    prefetch_traces,
    run_one,
    run_suite,
    versions_for,
)
from repro.service.engine import scale_from_dict


@pytest.fixture
def tiny():
    return Scale.tiny()


class TestScaleValidation:
    def test_nonpositive_n_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="must be positive"):
            Scale(n={"moldyn": 0})

    def test_nonpositive_iterations_rejected(self):
        with pytest.raises(ValueError, match="iterations"):
            Scale(iterations={"moldyn": 0})

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError, match="unknown application"):
            Scale(n={"not-an-app": 128})

    def test_bad_nprocs_rejected(self):
        with pytest.raises(ValueError, match="nprocs"):
            Scale(nprocs=0)

    def test_bad_hw_scale_rejected(self):
        with pytest.raises(ValueError, match="hw_scale"):
            Scale(hw_scale=0.0)

    def test_config_errors_are_value_errors(self):
        """Backwards compatibility: ConfigError subclasses ValueError."""
        from repro.errors import ConfigError, ReproError

        assert issubclass(ConfigError, ValueError)
        assert issubclass(ConfigError, ReproError)


class TestSpeedupGuard:
    def test_zero_denominator_raises_clearly(self):
        from repro.errors import MetricError

        rec = RunRecord(app="moldyn", version="original", platform="origin",
                        nprocs=16, time=0.0, reorder_time=0.0, seq_time=1.0)
        with pytest.raises(MetricError, match="speedup undefined"):
            rec.speedup

    def test_metric_error_is_value_error(self):
        rec = RunRecord(app="moldyn", version="original", platform="origin",
                        nprocs=16, time=0.0, reorder_time=0.0, seq_time=1.0)
        with pytest.raises(ValueError):
            rec.speedup

    def test_normal_speedup_unchanged(self):
        rec = RunRecord(app="moldyn", version="original", platform="origin",
                        nprocs=16, time=2.0, reorder_time=0.5, seq_time=10.0)
        assert rec.speedup == pytest.approx(4.0)


class TestStructuredErrors:
    def test_unknown_app_is_structured(self, tiny):
        from repro.errors import UnknownAppError

        with pytest.raises(UnknownAppError):
            make_app("nope", tiny.config("moldyn"))

    def test_unknown_platform_is_structured(self, tiny):
        from repro.errors import UnknownPlatformError

        with pytest.raises(UnknownPlatformError):
            run_one("moldyn", "original", "mars", tiny)

    def test_versions_for_unknown_app(self):
        with pytest.raises(ValueError, match="unknown application"):
            versions_for("nope")


class TestScale:
    def test_default_covers_all_apps(self):
        s = Scale()
        from repro.apps import APP_REGISTRY

        assert set(s.n) == set(APP_REGISTRY)
        assert set(s.iterations) == set(APP_REGISTRY)

    def test_paper_sizes(self):
        s = Scale.paper()
        assert s.n["barnes-hut"] == 65536
        assert s.n["moldyn"] == 32000
        assert s.iterations["moldyn"] == 40
        assert s.hw_scale == 1.0

    def test_config(self, tiny):
        cfg = tiny.config("moldyn")
        assert cfg.n == tiny.n["moldyn"]
        assert cfg.nprocs == 16
        assert tiny.config("moldyn", nprocs=1).nprocs == 1

    def test_hardware_params_scaled(self, tiny):
        hp = tiny.hardware()
        assert hp.l2_bytes < 8 * 1024 * 1024


#: One perturbation per :class:`Scale` field, for the key-completeness
#: checks below.  A new field must be added here before those pass.
PERTURB = {
    "n": lambda s, app: {"n": {**s.n, app: s.n[app] + 1}},
    "iterations": lambda s, app: {"iterations": {**s.iterations, app: s.iterations[app] + 1}},
    "nprocs": lambda s, app: {"nprocs": s.nprocs + 1},
    "seed": lambda s, app: {"seed": s.seed + 1},
    "hw_scale": lambda s, app: {"hw_scale": s.hw_scale * 2},
}


class TestKeyCompleteness:
    """Every :class:`Scale` input that reaches an app's :class:`AppConfig`
    changes the trace key (the cache key, which is also the trace memo
    key) and the outcome memo key, so no cache can serve a trace
    generated from different inputs."""

    APP = "moldyn"
    # An L2 of 64 lines, so doubling hw_scale changes the Origin times.
    SMALL = Scale(n={"moldyn": 256}, iterations={"moldyn": 2}, nprocs=4,
                  hw_scale=1024.0)

    def _keys(self, scale):
        key = _trace_key(self.APP, "hilbert", scale, scale.nprocs)
        return key, _outcome_key(key, "origin", _params("origin", scale))

    @pytest.mark.parametrize("platform", ["origin", "hlrc"])
    @pytest.mark.parametrize("field", sorted(PERTURB))
    def test_record_does_not_depend_on_earlier_scales(self, field, platform):
        # A memo entry left by the base scale must never serve the
        # perturbed one: the record equals a fresh-memo record.
        base = self.SMALL
        other = dataclasses.replace(base, **PERTURB[field](base, self.APP))
        fresh = run_one(self.APP, "hilbert", platform, other)
        clear_cache()
        run_one(self.APP, "hilbert", platform, base)
        assert run_one(self.APP, "hilbert", platform, other) == fresh

    def test_outcome_key_ignores_the_codec(self):
        # Every codec decodes to the same trace, so they share outcomes.
        none, zlib = (_trace_key(self.APP, "hilbert", self.SMALL, 4, codec)
                      for codec in ("none", "zlib"))
        assert none != zlib
        params = _params("origin", self.SMALL)
        assert _outcome_key(none, "origin", params) == _outcome_key(
            zlib, "origin", params)

    def test_config_carries_no_extra(self, tiny):
        assert tiny.config(self.APP).extra == {}
        assert Scale.paper().config(self.APP).extra == {}

    def test_every_scale_field_has_a_perturbation(self):
        assert set(PERTURB) == {f.name for f in dataclasses.fields(Scale)}

    def test_config_inputs_change_every_key(self, tiny):
        base_cfg = dataclasses.asdict(tiny.config(self.APP))
        reached = set()
        for name, perturb in PERTURB.items():
            other = dataclasses.replace(tiny, **perturb(tiny, self.APP))
            cfg = dataclasses.asdict(other.config(self.APP))
            changed = {f for f in cfg if cfg[f] != base_cfg[f]}
            if not changed:
                continue
            reached |= changed
            for a, b in zip(self._keys(tiny), self._keys(other)):
                assert a != b, (name, a)
        # Every AppConfig field but the (always empty) extra is driven by
        # some Scale field, so the loop above checked all of them.
        fields = {f.name for f in dataclasses.fields(AppConfig)}
        assert reached == fields - {"extra"}

    def test_parent_era_journal_scale_loads(self):
        # A submit record journaled while Scale still had an ``extra``
        # field; the field is ignored on load.
        record = json.loads(
            '{"extra": {}, "hw_scale": 128.0, "iterations": {"moldyn": 2},'
            ' "n": {"moldyn": 256}, "nprocs": 4, "seed": 3}'
        )
        scale = scale_from_dict(record)
        assert scale.n["moldyn"] == 256 and scale.iterations["moldyn"] == 2
        assert (scale.nprocs, scale.seed, scale.hw_scale) == (4, 3, 128.0)
        assert not hasattr(scale, "extra")


class TestOneTracePath:
    """Every way into a cell's trace names the same cache entry: the one
    :func:`_trace_key`, under the runtime's codec."""

    SCALE = Scale(n={"moldyn": 256}, iterations={"moldyn": 2}, nprocs=4,
                  hw_scale=128.0)

    @pytest.mark.parametrize("codec", ["none", "zlib"])
    def test_all_sites_touch_the_same_file(self, tmp_path, codec):
        from repro.experiments.sweep import (
            SweepGrid, SweepGroup, SweepPlan, run_sweep_group,
        )
        from repro.runtime import (
            ExecutorConfig, RuntimeContext, TraceCache, use_runtime,
        )

        scale = self.SCALE
        want = _trace_key("moldyn", "hilbert", scale, 4, codec).filename()
        sites = {
            "run_one": lambda root: run_one("moldyn", "hilbert", "origin", scale),
            "prefetch_traces": lambda root: prefetch_traces(("moldyn",), scale),
            "SweepPlan.run": lambda root: SweepPlan(
                SweepGrid(apps=("moldyn",), versions=("hilbert",)), scale
            ).run(),
            "run_sweep_group": lambda root: run_sweep_group(
                str(root), SweepGroup("moldyn", "hilbert", "origin",
                                      compression=codec), scale
            ),
        }
        for site, call in sites.items():
            clear_cache()
            root = tmp_path / site
            ctx = RuntimeContext(
                cache=TraceCache(root),
                executor=ExecutorConfig(jobs=1, task_timeout=None),
                trace_compression=codec,
            )
            with use_runtime(ctx):
                call(root)
            names = {p.name for p in root.glob("*.npt")}
            assert want in names, (site, names)
            assert all(n.endswith(want[-8:]) for n in names), (site, names)


class TestReplayFanOut:
    def test_cold_cells_fan_out(self, tmp_path, monkeypatch):
        # A trace generated in this run is on disk before its replay, so
        # with replay_jobs > 1 the cell and its P=1 baseline both fan out.
        from repro.experiments import runner
        from repro.runtime import (
            ExecutorConfig, RuntimeContext, TraceCache, use_runtime,
        )

        scale = TestOneTracePath.SCALE
        serial = run_one("moldyn", "hilbert", "origin", scale)
        clear_cache()
        fanned = []
        real = runner.simulate_hardware_parallel
        monkeypatch.setattr(
            runner, "simulate_hardware_parallel",
            lambda path, params, jobs: fanned.append(path) or real(
                path, params, jobs=jobs),
        )
        ctx = RuntimeContext(
            cache=TraceCache(tmp_path),
            executor=ExecutorConfig(jobs=1, task_timeout=None),
            replay_jobs=2,
        )
        with use_runtime(ctx):
            assert run_one("moldyn", "hilbert", "origin", scale) == serial
        assert len(fanned) == 2


class TestVersionsFor:
    def test_category2_gets_column(self):
        assert versions_for("moldyn") == ("original", "hilbert", "column")
        assert versions_for("unstructured") == ("original", "hilbert", "column")

    def test_category1_hilbert_only(self):
        assert versions_for("barnes-hut") == ("original", "hilbert")
        assert versions_for("water-spatial") == ("original", "hilbert")


class TestMakeApp:
    def test_applies_version(self, tiny):
        app = make_app("moldyn", tiny.config("moldyn"), "column")
        assert app.reordered_by == "column"

    def test_unknown_app(self, tiny):
        with pytest.raises(ValueError, match="unknown application"):
            make_app("nope", tiny.config("moldyn"))


class TestRunOne:
    def test_origin_record_fields(self, tiny):
        rec = run_one("moldyn", "original", "origin", tiny)
        assert rec.time > 0
        assert rec.seq_time > 0
        assert rec.l2_misses > 0
        assert rec.reorder_time == 0.0
        assert rec.messages == 0  # DSM-only field

    def test_dsm_record_fields(self, tiny):
        rec = run_one("moldyn", "column", "treadmarks", tiny)
        assert rec.messages > 0
        assert rec.data_mbytes > 0
        assert rec.reorder_time > 0  # reordered version pays the cost

    def test_speedup_includes_reorder_cost(self, tiny):
        rec = run_one("moldyn", "column", "hlrc", tiny)
        assert rec.speedup == pytest.approx(
            rec.seq_time / (rec.time + rec.reorder_time)
        )

    def test_memoized(self, tiny, monkeypatch):
        from repro.experiments import runner

        a = run_one("moldyn", "original", "origin", tiny)
        replays = []
        real = runner.simulate_hardware
        monkeypatch.setattr(runner, "simulate_hardware",
                            lambda *args: replays.append(args) or real(*args))
        b = run_one("moldyn", "original", "origin", tiny)
        assert b == a and not replays  # built from memoized outcomes
        clear_cache()
        c = run_one("moldyn", "original", "origin", tiny)
        assert len(replays) == 2  # the cell and its P=1 baseline
        assert c == a  # deterministic

    def test_unknown_platform(self, tiny):
        with pytest.raises(ValueError, match="unknown platform"):
            run_one("moldyn", "original", "mars", tiny)


class TestRunSuite:
    def test_one_app_all_platforms(self, tiny):
        recs = run_suite(apps=("moldyn",), scale=tiny)
        assert len(recs) == 3 * 3  # 3 versions x 3 platforms
        assert {r.platform for r in recs} == {"origin", "treadmarks", "hlrc"}

    def test_record_speedups_positive(self, tiny):
        recs = run_suite(apps=("moldyn",), platforms=("treadmarks",), scale=tiny)
        assert all(r.speedup > 0 for r in recs)


class TestScalingCurve:
    def test_baseline_consistency(self, tiny):
        """All points share the 1-proc original baseline; at P=1 the
        speedup of the original is ~1 by construction."""
        from repro.experiments.scaling import scaling_curve

        pts = scaling_curve(
            "moldyn", "hlrc", versions=("original",), procs=(1, 4), scale=tiny
        )
        by = {(p.nprocs, p.version): p for p in pts}
        assert by[(1, "original")].speedup == pytest.approx(1.0, rel=0.15)

    def test_all_cells_present(self, tiny):
        from repro.experiments.scaling import scaling_curve

        pts = scaling_curve(
            "moldyn", "hlrc", versions=("original", "column"), procs=(2,), scale=tiny
        )
        assert {(p.nprocs, p.version) for p in pts} == {
            (2, "original"), (2, "column"),
        }
