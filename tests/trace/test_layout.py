"""Tests for the object-to-address layout."""

import numpy as np
import pytest

from repro.trace.events import RegionSpec
from repro.trace.layout import Layout


def make_layout(specs, align=4096):
    return Layout.for_regions([RegionSpec(*s) for s in specs], align=align)


def units(lay, region, indices, unit):
    """Unit ids of a single-region access stream."""
    return lay.units_batch(np.full(len(indices), region), indices, unit)


class TestPlacement:
    def test_regions_page_aligned(self):
        lay = make_layout([("a", 10, 104), ("b", 5, 8)], align=4096)
        assert lay.bases[0] == 0
        assert lay.bases[1] == 4096  # 1040 bytes round up to one page
        assert lay.total_bytes == 8192

    def test_alignment_must_be_pow2(self):
        with pytest.raises(ValueError):
            make_layout([("a", 1, 8)], align=3000)

    def test_empty_layout(self):
        lay = Layout.for_regions([], align=4096)
        assert lay.total_bytes == 0


class TestUnits:
    def test_no_expansion_small_objects(self):
        lay = make_layout([("a", 100, 8)])
        lines = units(lay, 0, np.array([0, 15, 16]), 128)
        assert lines.tolist() == [0, 0, 1]

    def test_expansion_for_straddling_objects(self):
        """A 680-byte object at offset 0 covers lines 0..5 of 128 bytes."""
        lay = make_layout([("a", 4, 680)])
        lines = units(lay, 0, np.array([0]), 128)
        assert lines.tolist() == [0, 1, 2, 3, 4, 5]

    def test_expansion_preserves_access_order(self):
        lay = make_layout([("a", 100, 104)])
        # Object 39 spans bytes 4056..4159: pages 0 and 1 at 4096.
        pages = units(lay, 0, np.array([39, 0]), 4096)
        assert pages.tolist() == [0, 1, 0]

    def test_unit_must_be_pow2(self):
        lay = make_layout([("a", 4, 8)])
        with pytest.raises(ValueError):
            units(lay, 0, np.array([0]), 100)

    def test_units_across_regions_distinct(self):
        lay = make_layout([("a", 10, 104), ("b", 10, 104)], align=4096)
        pa = units(lay, 0, np.array([0]), 4096)
        pb = units(lay, 1, np.array([0]), 4096)
        assert pa[0] != pb[0]


class TestRegionPages:
    def test_covers_whole_region(self):
        lay = make_layout([("a", 168, 96)], align=4096)  # the Fig 1 setup
        pages = lay.region_pages(0, 4096)
        assert pages.tolist() == [0, 1, 2, 3]

    def test_one_object_region(self):
        lay = make_layout([("a", 1, 8)])
        assert lay.region_pages(0, 4096).tolist() == [0]

    def test_second_region_offset(self):
        lay = make_layout([("a", 100, 104), ("b", 100, 104)], align=8192)
        pb = lay.region_pages(1, 4096)
        assert pb[0] == 4  # region b starts at byte 16384
