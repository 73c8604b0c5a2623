"""Golden v3 layout digests: the compressed ``.npt`` layout never changes.

``test_golden_traces`` pins the uncompressed v2 bundle bytes.  The v3
bundle's compressed bytes depend on the zlib build, so this pins what the
writer decides instead: the JSON header (key order, dtype narrowing, delta
flags, element counts) with the compressor-dependent fields removed —
each chunk's ``offset``/``nbytes``/``crc`` and the total ``data_bytes`` —
plus the uncompressed meta-array segment and every chunk's decompressed
payload in file order.  A change that moves a digest changes the v3
format; re-record only with a reason.
"""

import functools
import hashlib
import io
import json
import zlib

import pytest

from repro.apps import APP_REGISTRY, AppConfig
from repro.trace import save_trace
from repro.trace.io import _parse_packed_header

#: (app, n, nprocs, iterations, seed, v3 layout sha256)
GOLDEN_V3 = [
    ("barnes-hut", 96, 4, 2, 7,
     "3bb53433239e2c3c7c0600218323996352b998e12a36d4ca9c67764ea8d0f79e"),
    ("moldyn", 64, 4, 3, 7,
     "a403be563befba728cd391b1f41a7d4f208c556a92987f820e336b816e09c919"),
]


def layout_digest(blob: bytes) -> str:
    """sha256 of a v3 bundle's codec-independent content."""
    header, data_start = _parse_packed_header(blob)
    assert header["version"] == 3
    chunks = sorted(
        (spec["offset"], spec["nbytes"], name, ei)
        for name, specs in header["chunks"].items()
        for ei, spec in enumerate(specs)
    )
    stable = dict(header)
    del stable["data_bytes"]
    stable["chunks"] = {
        name: [
            {k: v for k, v in spec.items() if k not in ("offset", "nbytes", "crc")}
            for spec in specs
        ]
        for name, specs in header["chunks"].items()
    }
    h = hashlib.sha256(json.dumps(stable, separators=(",", ":")).encode("utf-8"))
    first = chunks[0][0] if chunks else header["data_bytes"]
    h.update(blob[data_start : data_start + first])
    for offset, nbytes, name, ei in chunks:
        h.update(f"{name}[{ei}]".encode("utf-8"))
        start = data_start + offset
        h.update(zlib.decompress(blob[start : start + nbytes]))
    return h.hexdigest()


@functools.lru_cache(maxsize=None)
def _v3_digest(app, n, nprocs, iterations, seed):
    a = APP_REGISTRY[app](
        AppConfig(n=n, nprocs=nprocs, iterations=iterations, seed=seed)
    )
    buf = io.BytesIO()
    save_trace(a.run(), buf, compression="zlib")
    return layout_digest(buf.getvalue())


@pytest.mark.parametrize(
    "app,n,nprocs,iterations,seed,digest",
    GOLDEN_V3,
    ids=[f"{c[0]}-n{c[1]}-i{c[3]}-s{c[4]}" for c in GOLDEN_V3],
)
def test_golden_v3_layout(app, n, nprocs, iterations, seed, digest):
    assert _v3_digest(app, n, nprocs, iterations, seed) == digest
