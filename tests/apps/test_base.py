"""Tests for the application base machinery."""

import re

import numpy as np
import pytest

from repro.apps import APP_REGISTRY
from repro.apps.base import ADAPT_KNOBS, AppConfig, block_partition, reorder_work_units
from repro.errors import ConfigError
from repro.experiments.adaptive import ADAPTIVE_POLICIES, DYNAMIC_APPS, AdaptiveSpec


class TestAppConfig:
    def test_defaults(self):
        cfg = AppConfig()
        assert cfg.n > 0 and cfg.nprocs > 0 and cfg.iterations > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            AppConfig(n=0)
        with pytest.raises(ValueError):
            AppConfig(nprocs=0)
        with pytest.raises(ValueError):
            AppConfig(iterations=0)


class TestBlockPartition:
    def test_covers_range_disjointly(self):
        parts = block_partition(100, 7)
        allidx = np.concatenate(parts)
        assert np.array_equal(allidx, np.arange(100))

    def test_balanced(self):
        parts = block_partition(100, 7)
        sizes = [p.shape[0] for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_more_procs_than_items(self):
        parts = block_partition(3, 8)
        assert sum(p.shape[0] for p in parts) == 3

    def test_single_proc(self):
        parts = block_partition(10, 1)
        assert np.array_equal(parts[0], np.arange(10))


class TestReorderWork:
    def test_monotone_in_n_and_size(self):
        assert reorder_work_units(1000, 104) < reorder_work_units(2000, 104)
        assert reorder_work_units(1000, 104) < reorder_work_units(1000, 680)

    def test_zero(self):
        assert reorder_work_units(0, 8) == 0.0


class TestRegistry:
    def test_five_apps(self):
        assert len(APP_REGISTRY) == 5

    @pytest.mark.parametrize("name", sorted(APP_REGISTRY))
    def test_table1_metadata(self, name):
        cls = APP_REGISTRY[name]
        assert cls.category in (1, 2)
        assert cls.object_size > 0
        assert cls.sync in ("b", "b,l")
        assert len(cls.orderings) >= 1

    def test_paper_object_sizes(self):
        """Table 1's data object sizes."""
        assert APP_REGISTRY["barnes-hut"].object_size == 104
        assert APP_REGISTRY["fmm"].object_size == 104
        assert APP_REGISTRY["water-spatial"].object_size == 680
        assert APP_REGISTRY["moldyn"].object_size == 72
        assert APP_REGISTRY["unstructured"].object_size == 32

    @pytest.mark.parametrize("name", sorted(APP_REGISTRY))
    def test_describe(self, name):
        cfg = AppConfig(n=128, nprocs=2, iterations=1)
        app = APP_REGISTRY[name](cfg)
        d = app.describe()
        assert d["reordered_by"] == "original"
        assert d["n"] == 128


def _tiny(name, extra):
    return APP_REGISTRY[name](AppConfig(n=64, nprocs=2, iterations=1, seed=0, extra=extra))


class TestExtraKeys:
    """``AppConfig.extra`` accepts exactly the knobs an app reads."""

    @pytest.mark.parametrize("name", sorted(APP_REGISTRY))
    @pytest.mark.parametrize(
        "extra",
        [{"leaf_capacty": 2}, {"engine": "loop"}, {"emit": "none"}],
        ids=["misspelled", "engine", "emit"],
    )
    def test_unknown_keys_rejected(self, name, extra):
        with pytest.raises(ConfigError, match=f"{next(iter(extra))}.*accepted"):
            _tiny(name, extra)

    @pytest.mark.parametrize("name", DYNAMIC_APPS)
    @pytest.mark.parametrize("policy", ADAPTIVE_POLICIES)
    def test_adaptive_experiment_keys_accepted(self, name, policy):
        spec = AdaptiveSpec(app=name, extra={"adapt_bits": 4})
        _tiny(name, spec.policy_extra(policy))

    @pytest.mark.parametrize("initial", ["lattice", "random"])
    def test_example_keys_accepted(self, initial):
        _tiny("water-spatial", {"initial_order": initial})

    @pytest.mark.parametrize("name", sorted(APP_REGISTRY))
    def test_documented_knobs_accepted(self, name):
        cls = APP_REGISTRY[name]
        doc = cls.__doc__.split("``config.extra`` knobs:", 1)[1]
        named = set(re.findall(r"``([a-z_]+)``", doc))
        assert named, cls.__doc__
        assert named <= set(cls.knobs) | set(ADAPT_KNOBS)
        assert set(cls.knobs) <= named, "undocumented knob"
