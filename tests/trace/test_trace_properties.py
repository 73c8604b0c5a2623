"""Property-based tests for the trace layer (layout and statistics)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.events import RegionSpec
from repro.trace.layout import Layout


@st.composite
def layouts(draw):
    nregions = draw(st.integers(min_value=1, max_value=3))
    specs = [
        RegionSpec(
            f"r{i}",
            draw(st.integers(min_value=1, max_value=200)),
            draw(st.sampled_from([8, 32, 72, 104, 680])),
        )
        for i in range(nregions)
    ]
    align = draw(st.sampled_from([4096, 8192, 16384]))
    return Layout.for_regions(specs, align=align)


def units(layout, region, indices, unit):
    """Unit ids of a single-region access stream."""
    return layout.units_batch(np.full(len(indices), region), indices, unit)


@given(layouts())
@settings(max_examples=100, deadline=None)
def test_regions_never_overlap(layout):
    spans = []
    for i, spec in enumerate(layout.regions):
        spans.append((layout.bases[i], layout.bases[i] + spec.nbytes))
    spans.sort()
    for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
        assert a1 <= b0


@given(layouts(), st.data())
@settings(max_examples=100, deadline=None)
def test_expanded_units_cover_exactly_the_object_bytes(layout, data):
    region = data.draw(st.integers(min_value=0, max_value=len(layout.regions) - 1))
    spec = layout.regions[region]
    idx = data.draw(st.integers(min_value=0, max_value=spec.num_objects - 1))
    unit = data.draw(st.sampled_from([64, 128, 4096]))
    got = units(layout, region, np.array([idx]), unit)
    start = layout.bases[region] + idx * spec.object_size
    end = start + spec.object_size - 1
    assert got[0] == start // unit
    assert got[-1] == end // unit
    # Consecutive units, no gaps.
    assert np.array_equal(got, np.arange(got[0], got[-1] + 1))


@given(layouts(), st.data())
@settings(max_examples=100, deadline=None)
def test_units_of_distinct_objects_disjoint_when_aligned(layout, data):
    """Objects whose size divides the unit never share units with their
    non-neighbours."""
    region = data.draw(st.integers(min_value=0, max_value=len(layout.regions) - 1))
    spec = layout.regions[region]
    unit = 4096
    if spec.num_objects < 3:
        return
    a, b = 0, spec.num_objects - 1
    ua = set(units(layout, region, np.array([a]), unit).tolist())
    ub = set(units(layout, region, np.array([b]), unit).tolist())
    if (b - a) * spec.object_size > 2 * unit:
        assert not (ua & ub)


@given(layouts())
@settings(max_examples=50, deadline=None)
def test_region_pages_cover_all_object_pages(layout):
    page = 4096
    for region, spec in enumerate(layout.regions):
        pages = set(layout.region_pages(region, page).tolist())
        touched = set(
            units(layout, region, np.arange(spec.num_objects), page).tolist()
        )
        assert touched <= pages
