"""End-to-end resilience: a run killed mid-matrix resumes from the
persistent cache and produces results identical to an uninterrupted run;
corrupted cache entries degrade to regeneration, never a crash."""

import pytest

from repro.apps import APP_REGISTRY, AppConfig
from repro.experiments.runner import (
    Scale,
    _trace_key,
    clear_cache,
    make_app,
    prefetch_traces,
    run_suite,
    versions_for,
)
from repro.runtime import (
    ExecutorConfig,
    FaultPlan,
    RuntimeContext,
    TraceCache,
    use_runtime,
)
from repro.runtime.faults import garble_file

APPS = ("moldyn",)


@pytest.fixture
def scale():
    return Scale(
        n={k: 256 for k in APP_REGISTRY},
        iterations={k: 2 for k in APP_REGISTRY},
        nprocs=4,
        hw_scale=128.0,
    )


def record_fingerprint(records):
    """Every numeric field of every cell, exactly."""
    return [
        (r.app, r.version, r.platform, r.nprocs, r.time, r.reorder_time,
         r.seq_time, r.messages, r.data_mbytes, r.l2_misses, r.tlb_misses)
        for r in records
    ]


def runtime(tmp_path, **kw):
    return RuntimeContext(
        cache=TraceCache(tmp_path / "cache"),
        executor=ExecutorConfig(jobs=1, task_timeout=None),
        **kw,
    )


class TestResumeAfterInterrupt:
    def test_identical_results_after_kill_mid_matrix(self, tmp_path, scale):
        # Cold run, no runtime at all: the ground truth.
        cold = record_fingerprint(run_suite(apps=APPS, scale=scale))
        clear_cache()

        # Interrupted run: the fault harness kills it after 2 of the 6
        # distinct traces (3 versions at P=4 and at P=1).
        ctx = runtime(tmp_path, fault_plan=FaultPlan(interrupt_after=2))
        with use_runtime(ctx):
            with pytest.raises(KeyboardInterrupt):
                prefetch_traces(apps=APPS, scale=scale)
        clear_cache()
        cached = list(ctx.cache.root.glob("*.npt"))
        assert len(cached) == 2  # exactly the completed cells persist

        # Resumed run: completes from cell 3 and matches the cold run.
        ctx2 = runtime(tmp_path)
        with use_runtime(ctx2):
            generated = prefetch_traces(apps=APPS, scale=scale)
            assert generated == 4  # only the missing cells were generated
            resumed = record_fingerprint(run_suite(apps=APPS, scale=scale))
        assert resumed == cold
        assert ctx2.cache.hits >= 2

    def test_second_run_is_all_cache_hits(self, tmp_path, scale):
        ctx = runtime(tmp_path)
        with use_runtime(ctx):
            first = record_fingerprint(run_suite(apps=APPS, scale=scale))
        clear_cache()
        ctx2 = runtime(tmp_path)
        with use_runtime(ctx2):
            second = record_fingerprint(run_suite(apps=APPS, scale=scale))
            # The suite never reads the reordered P=1 traces of Table 2.
            assert prefetch_traces(apps=APPS, scale=scale) == len(
                versions_for("moldyn")
            ) - 1
            assert prefetch_traces(apps=APPS, scale=scale) == 0
        assert second == first
        assert ctx2.cache.hits == 4  # every distinct trace came from disk

    def test_table2_reads_only_prefetched_traces(self, tmp_path, monkeypatch):
        """Prefetch lists every trace Table 2 reads, the P=1 run of each
        ordering included, so Table 2 generates none itself."""
        from repro.experiments import runner
        from repro.experiments.tables import table2

        small = Scale(
            n={k: 128 for k in APP_REGISTRY},
            iterations={k: 1 for k in APP_REGISTRY},
            nprocs=2,
            hw_scale=128.0,
        )
        ctx = runtime(tmp_path)
        with use_runtime(ctx):
            assert prefetch_traces(scale=small) > 0
            generated = []
            real = runner.make_app
            monkeypatch.setattr(
                runner, "make_app",
                lambda *a, **kw: generated.append(a) or real(*a, **kw),
            )
            table2(small)
        assert generated == []
        assert ctx.cache.misses == 0

    def test_no_resume_regenerates_but_matches(self, tmp_path, scale):
        ctx = runtime(tmp_path)
        with use_runtime(ctx):
            first = record_fingerprint(run_suite(apps=APPS, scale=scale))
        clear_cache()
        ctx2 = runtime(tmp_path, resume=False)
        with use_runtime(ctx2):
            second = record_fingerprint(run_suite(apps=APPS, scale=scale))
        assert ctx2.cache.hits == 0  # never read
        assert second == first  # deterministic regeneration


class TestCorruptionDegradesGracefully:
    def test_corrupt_cache_entry_regenerated_identically(self, tmp_path, scale):
        ctx = runtime(tmp_path)
        with use_runtime(ctx):
            first = record_fingerprint(run_suite(apps=APPS, scale=scale))
        clear_cache()

        # Garble every cached trace: a disk gone bad under the cache.
        for path in ctx.cache.root.glob("*.npt"):
            garble_file(path, seed=11, nbytes=512)

        ctx2 = runtime(tmp_path)
        with use_runtime(ctx2):
            second = record_fingerprint(run_suite(apps=APPS, scale=scale))
        assert second == first
        assert ctx2.cache.quarantined == 4
        assert list(ctx2.cache.quarantine_dir.glob("*.npt"))

    def test_quarantined_entries_replaced_on_disk(self, tmp_path, scale):
        ctx = runtime(tmp_path)
        with use_runtime(ctx):
            run_suite(apps=APPS, scale=scale)
        for path in ctx.cache.root.glob("*.npt"):
            garble_file(path, seed=5)
        clear_cache()
        ctx2 = runtime(tmp_path)
        with use_runtime(ctx2):
            run_suite(apps=APPS, scale=scale)
        clear_cache()
        # Third run: the regenerated entries are valid again.
        ctx3 = runtime(tmp_path)
        with use_runtime(ctx3):
            run_suite(apps=APPS, scale=scale)
        assert ctx3.cache.quarantined == 0
        assert ctx3.cache.hits == 4


class TestParallelPrefetch:
    def test_pool_prefetch_matches_serial(self, tmp_path, scale):
        cold = record_fingerprint(run_suite(apps=APPS, scale=scale))
        clear_cache()
        ctx = RuntimeContext(
            cache=TraceCache(tmp_path / "cache"),
            executor=ExecutorConfig(jobs=2, task_timeout=120.0),
        )
        with use_runtime(ctx):
            assert prefetch_traces(apps=APPS, scale=scale) == 6
            parallel = record_fingerprint(run_suite(apps=APPS, scale=scale))
        assert parallel == cold
        assert ctx.cache.hits >= 4  # the suite consumed the prefetched traces

    def test_parent_replays_nothing(self, tmp_path, scale, monkeypatch):
        # Every outcome an executor run needs, Origin baselines included,
        # comes back from the workers; the parent only assembles records.
        from repro.experiments import runner
        from repro.experiments.scaling import scaling_curve

        serial = scaling_curve("moldyn", "origin", procs=(1, 2), scale=scale)
        clear_cache()
        replays = []
        real = runner.simulate_hardware
        monkeypatch.setattr(runner, "simulate_hardware",
                            lambda *args: replays.append(args) or real(*args))
        ctx = RuntimeContext(
            cache=TraceCache(tmp_path / "cache"),
            executor=ExecutorConfig(jobs=2, task_timeout=120.0),
        )
        with use_runtime(ctx):
            parallel = scaling_curve("moldyn", "origin", procs=(1, 2),
                                     scale=scale)
        assert parallel == serial
        assert not replays


class TestNoResumeRegenerates:
    def test_parallel_no_resume_rewrites_stale_entries(self, tmp_path, scale):
        """``resume=False`` with ``jobs > 1``: the prefetch regenerates
        every entry instead of trusting what is on disk, reports the true
        count, and the matrix workers then read the fresh files."""
        cold = record_fingerprint(run_suite(apps=APPS, scale=scale))
        clear_cache()
        clean = runtime(tmp_path / "clean")
        with use_runtime(clean):
            assert prefetch_traces(apps=APPS, scale=scale) == 6
        clear_cache()

        # A stale cache: every entry is a valid trace, stored under the
        # right key, but generated from another seed.
        keys = [_trace_key(a, v, scale, nprocs) for a in APPS
                for nprocs in (scale.nprocs, 1) for v in versions_for(a)]
        stale = TraceCache(tmp_path / "stale")
        for key in keys:
            config = AppConfig(n=key.n, nprocs=key.nprocs,
                               iterations=key.iterations, seed=key.seed + 1)
            stale.store(key, make_app(key.app, config, key.version).run())
            assert (stale.path(key).read_bytes()
                    != clean.cache.path(key).read_bytes())

        ctx = RuntimeContext(
            cache=TraceCache(stale.root),  # a new run over the stale cache
            executor=ExecutorConfig(jobs=2, task_timeout=120.0),
            resume=False,
        )
        with use_runtime(ctx):
            assert prefetch_traces(apps=APPS, scale=scale) == 6
            for key in keys:
                assert (stale.path(key).read_bytes()
                        == clean.cache.path(key).read_bytes()), key
            # Rewritten once per run: nothing left to regenerate.
            assert prefetch_traces(apps=APPS, scale=scale) == 0
            parallel = record_fingerprint(run_suite(apps=APPS, scale=scale))
        assert parallel == cold
