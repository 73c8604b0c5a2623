"""Tests for the ordering auto-tuner and its recommendation library."""

import json

import numpy as np
import pytest

import importlib

from repro.errors import ConfigError, UnknownAppError, UnknownPlatformError

# ``repro.experiments``'s ``from .tune import tune`` rebinds the package
# attribute ``tune`` to the function, so a plain import would resolve to
# the function, not the module.
tune_mod = importlib.import_module("repro.experiments.tune")
from repro.experiments.tune import (
    COST_MODEL_VERSION,
    RecommendationLibrary,
    TuneSpec,
    default_candidates,
    tune,
)

SMOKE = dict(n=256, nprocs=4, iterations=1)


@pytest.fixture(scope="module")
def unstructured_tm():
    """One fresh tuning run, shared by the tests that only inspect it."""
    spec = TuneSpec(app="unstructured", machine="treadmarks", **SMOKE)
    return spec, tune(spec)


class TestSpecValidation:
    def test_unknown_app(self):
        with pytest.raises(UnknownAppError):
            TuneSpec(app="nope", machine="origin")

    def test_unknown_machine(self):
        with pytest.raises(UnknownPlatformError):
            TuneSpec(app="moldyn", machine="cray")

    def test_unknown_candidate(self):
        with pytest.raises(ConfigError, match="zigzag"):
            TuneSpec(app="moldyn", machine="origin", candidates=("zigzag",))

    def test_bad_sizes(self):
        with pytest.raises(ConfigError):
            TuneSpec(app="moldyn", machine="origin", n=0)
        with pytest.raises(ConfigError):
            TuneSpec(app="moldyn", machine="origin", nprocs=0)

    def test_default_candidates_follow_app(self):
        assert default_candidates("unstructured") == (
            "original", "column", "hilbert", "gray", "rcm",
        )
        spec = TuneSpec(app="unstructured", machine="origin")
        assert spec.candidates == default_candidates("unstructured")

    def test_key_covers_cost_model_and_candidates(self):
        a = TuneSpec(app="moldyn", machine="origin", **SMOKE)
        b = TuneSpec(app="moldyn", machine="origin",
                     candidates=("original", "hilbert"), **SMOKE)
        c = TuneSpec(app="moldyn", machine="treadmarks", **SMOKE)
        assert len({a.key(), b.key(), c.key()}) == 3
        assert a.key_fields()["cost_model"] == COST_MODEL_VERSION


class TestTuning:
    def test_scores_every_candidate(self, unstructured_tm):
        spec, result = unstructured_tm
        assert tuple(s.version for s in result.scores) == spec.candidates
        assert result.source == "fresh"
        best = min(result.scores, key=lambda s: s.score)
        assert result.best == best.version

    def test_original_has_no_reorder_cost(self, unstructured_tm):
        _, result = unstructured_tm
        assert result.score_of("original").reorder_cost == 0.0
        assert result.score_of("hilbert").reorder_cost > 0.0

    def test_dsm_counters_present(self, unstructured_tm):
        _, result = unstructured_tm
        counters = result.score_of("original").counters
        assert counters["messages"] > 0
        assert counters["data_bytes"] > 0
        assert counters["points"] == len(tune_mod.DSM_PAGE_SIZES)

    def test_selects_non_hilbert_zoo_winner(self, unstructured_tm):
        """The acceptance pair: Unstructured on TreadMarks reproducibly
        picks reverse Cuthill-McKee over the mesh-edge graph — a member of
        the new zoo, not in the paper's original four."""
        _, result = unstructured_tm
        assert result.best == "rcm"
        assert result.score_of("rcm").score < result.score_of("hilbert").score

    def test_hardware_machine_scores(self):
        spec = TuneSpec(app="moldyn", machine="origin",
                        candidates=("original", "hilbert"), **SMOKE)
        result = tune(spec)
        counters = result.score_of("original").counters
        assert counters["l2_misses"] > 0
        assert counters["points"] == len(tune_mod.HW_CAPACITY_FRACTIONS)

    def test_deterministic(self, unstructured_tm):
        spec, first = unstructured_tm
        again = tune(spec)
        assert again.best == first.best
        assert [s.score for s in again.scores] == [s.score for s in first.scores]


class TestLibrary:
    def test_warm_lookup_skips_simulation(self, tmp_path, monkeypatch,
                                          unstructured_tm):
        spec, fresh = unstructured_tm
        lib = RecommendationLibrary(tmp_path)
        lib.store(fresh)
        # A warm hit must not touch trace generation at all.
        monkeypatch.setattr(
            tune_mod, "_memoize",
            lambda *a, **k: pytest.fail("simulated on a warm library hit"),
        )
        warm = tune(spec, library=lib)
        assert warm.source == "library"
        assert warm.best == fresh.best
        assert [s.score for s in warm.scores] == [s.score for s in fresh.scores]

    def test_tune_populates_library(self, tmp_path):
        lib = RecommendationLibrary(tmp_path)
        spec = TuneSpec(app="unstructured", machine="treadmarks", **SMOKE)
        assert lib.lookup(spec) is None
        result = tune(spec, library=lib)
        assert result.source == "fresh"
        stored = lib.lookup(spec)
        assert stored is not None and stored.best == result.best
        assert len(lib.entries()) == 1

    def test_force_remeasures(self, tmp_path, unstructured_tm):
        spec, fresh = unstructured_tm
        lib = RecommendationLibrary(tmp_path)
        lib.store(fresh)
        forced = tune(spec, library=lib, force=True)
        assert forced.source == "fresh"

    def test_different_specs_different_entries(self, tmp_path, unstructured_tm):
        spec, fresh = unstructured_tm
        lib = RecommendationLibrary(tmp_path)
        lib.store(fresh)
        other = TuneSpec(app=spec.app, machine="hlrc", **SMOKE)
        assert lib.lookup(other) is None

    def test_corrupt_file_quarantined(self, tmp_path, unstructured_tm):
        spec, fresh = unstructured_tm
        lib = RecommendationLibrary(tmp_path)
        lib.store(fresh)
        lib.path.write_text("{not json")
        assert lib.lookup(spec) is None  # restarted empty, no crash
        assert lib.path.with_suffix(".json.corrupt").exists()
        lib.store(fresh)  # and it can store again afterwards
        assert lib.lookup(spec) is not None

    def test_library_json_is_readable(self, tmp_path, unstructured_tm):
        """The on-disk format is plain JSON with the documented fields."""
        spec, fresh = unstructured_tm
        lib = RecommendationLibrary(tmp_path)
        lib.store(fresh)
        data = json.loads(lib.path.read_text())
        assert data["format"] == RecommendationLibrary.FORMAT
        (entry,) = data["entries"].values()
        assert entry["best"] == fresh.best
        assert entry["spec"]["app"] == spec.app
        assert {s["version"] for s in entry["scores"]} == set(spec.candidates)
