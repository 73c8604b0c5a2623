"""Shared fixtures for the test suite."""

import sys
import weakref

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def _clear_experiment_cache():
    """Keep the runner's memoization (and any installed runtime context)
    from leaking across tests."""
    yield
    from repro.experiments import clear_cache
    from repro.runtime import set_runtime

    clear_cache()
    set_runtime(None)


@pytest.fixture
def decode_calls(monkeypatch):
    """Watch :func:`repro.trace.layout.decode_epoch` in every module that
    imported it.  One entry per call, in call order: weak references to
    the arrays the call returned (each stream view and the block array
    under it), so a test can count decodes and see which are still alive
    without keeping any alive itself."""
    import repro.machines.replay  # noqa: F401 - every decode site loaded
    from repro.trace.layout import decode_epoch

    calls = []

    def watched(*args, **kwargs):
        decoded = decode_epoch(*args, **kwargs)
        arrays = [a for a in (*decoded.units, *decoded.counts) if a is not None]
        arrays += [a.base for a in arrays if a.base is not None]
        calls.append([weakref.ref(a) for a in arrays])
        return decoded

    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get("decode_epoch") is decode_epoch:
            monkeypatch.setattr(module, "decode_epoch", watched)
    return calls
