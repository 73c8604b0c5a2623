"""Sibling traces: one app pass emits the traces of several processor
counts, each byte-identical to a run of its own at that count.

The physics of a run does not depend on the processor count, so
``run(siblings=...)`` keeps one builder per count and runs the physics
once.  Every sibling's ``save_trace`` bundle and the final positions must
equal a standalone run's, for every app and ordering and for the
re-reordering policies, whose drift checks run once for all counts.
"""

import functools
import hashlib
import io

import pytest

from repro.apps import APP_REGISTRY, AppConfig
from repro.experiments.runner import make_app, versions_for
from repro.trace import save_trace

N, ITERATIONS, SEED = 160, 2, 5

#: (primary P, sibling Ps): Table 2's 16 + 1 and a small case.
P_SETS = [(4, (1,)), (16, (1,))]

#: Re-reordering policies and BH's deepest tree, on the apps they reach.
EXTRAS = [
    ("moldyn", "hilbert", {"adapt_policy": "adaptive", "adapt_threshold": 0.0}),
    ("moldyn", "column", {"adapt_policy": "every", "adapt_every": 1}),
    ("water-spatial", "hilbert",
     {"adapt_policy": "adaptive", "adapt_threshold": 0.0}),
    ("water-spatial", "original", {"adapt_policy": "every", "adapt_every": 1,
                                   "adapt_method": "hilbert"}),
    ("barnes-hut", "hilbert",
     {"adapt_policy": "adaptive", "adapt_threshold": 0.0}),
    ("barnes-hut", "hilbert", {"adapt_policy": "every", "adapt_every": 1}),
    ("barnes-hut", "original", {"leaf_capacity": 2}),
]


def _digest(trace) -> str:
    buf = io.BytesIO()
    save_trace(trace, buf)
    return hashlib.sha256(buf.getvalue()).hexdigest()


def _app(name, version, nprocs, extra):
    config = AppConfig(n=N, nprocs=nprocs, iterations=ITERATIONS, seed=SEED,
                       extra=dict(extra))
    return make_app(name, config, version)


@functools.lru_cache(maxsize=None)
def _standalone(name, version, nprocs, extra=()):
    """(bundle digest, positions bytes) of a plain run at ``nprocs``."""
    app = _app(name, version, nprocs, extra)
    trace = app.run()
    assert app.sibling_traces == {}
    return _digest(trace), app.positions().tobytes()


def _check_siblings(name, version, primary, siblings, extra=()):
    app = _app(name, version, primary, extra)
    traces = {primary: app.run(siblings=siblings), **app.sibling_traces}
    assert sorted(traces) == sorted({primary, *siblings})
    for nprocs, trace in traces.items():
        assert trace.nprocs == nprocs
        digest, positions = _standalone(name, version, nprocs, extra)
        assert _digest(trace) == digest, (name, version, nprocs)
        assert app.positions().tobytes() == positions, (name, version, nprocs)


CELLS = [(name, version) for name in APP_REGISTRY for version in versions_for(name)]


@pytest.mark.parametrize("primary,siblings", P_SETS,
                         ids=[f"p{p}+{'+'.join(map(str, s))}" for p, s in P_SETS])
@pytest.mark.parametrize("name,version", CELLS, ids=[f"{a}-{v}" for a, v in CELLS])
def test_siblings_match_standalone_runs(name, version, primary, siblings):
    _check_siblings(name, version, primary, siblings)


@pytest.mark.parametrize(
    "name,version,extra", EXTRAS,
    ids=[f"{a}-{v}-{'-'.join(map(str, e.values()))}" for a, v, e in EXTRAS],
)
def test_policies_and_knobs_keep_siblings_identical(name, version, extra):
    _check_siblings(name, version, 4, (1,), tuple(sorted(extra.items())))


def test_policy_fires_once_for_all_siblings():
    # The adaptive check and its migration are physics: one pass fires
    # them once, and every sibling traces the same reorder epochs.
    extra = (("adapt_policy", "every"), ("adapt_every", 1))
    app = _app("moldyn", "hilbert", 4, extra)
    trace = app.run(siblings=(1,))
    assert app.reorder_events == ITERATIONS - 1
    labels = [e.label for e in trace.epochs]
    assert labels.count("reorder") == ITERATIONS - 1
    assert [e.label for e in app.sibling_traces[1].epochs] == labels


def test_primary_count_in_siblings_is_not_duplicated():
    app = _app("moldyn", "original", 4, ())
    trace = app.run(siblings=(4, 1, 1))
    assert sorted(app.sibling_traces) == [1]
    assert _digest(trace) == _standalone("moldyn", "original", 4)[0]
