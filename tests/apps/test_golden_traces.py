"""Golden trace digests: the generated traces never change.

Every number in the paper's tables is a function of the access trace an
app emits, so the trace bytes are pinned here.  Each case runs one app
and stores two sha256 digests: of the ``save_trace`` bundle, and of
``positions().tobytes()`` after ``run()`` (the physics state the next
iteration's trace would depend on).  The digests were recorded when two
independent implementations still agreed on every case — the per-object
loop physics with per-burst emission, and the vectorized physics with
ragged emission — with one and with two BLAS threads.  A change that
moves a digest changes a trace; re-record only with a reason.
"""

import functools
import hashlib
import io

import pytest

from repro.apps import APP_REGISTRY, AppConfig
from repro.trace import save_trace

#: (app, n, nprocs, iterations, seed, bundle sha256, positions sha256)
GOLDEN = [
    ("barnes-hut", 192, 4, 3, 11,
     "f03e73c0b550f0e3b1eab9ed63913a542c69df96aa17581db9346fe40033055f",
     "9bff8d67cd44e835349178eed3b1b86bd22fa6629b768791b27c138fbd61e078"),
    ("barnes-hut", 224, 4, 3, 23,
     "fb60b2ba3829377abb6c7fc410653ec7a5fdb8f20def59cae2891f44ec565f24",
     "ec2c187a46fe956b15daa58303ca6ad589e497057693179691f44f8315e4b06e"),
    ("fmm", 256, 4, 3, 11,
     "def17ccb36e34160a0910b546e2c262ddb63bd02ec2dab351a6786b4fdaa0803",
     "ce1d248f92113c1f1d39b4d032cf4b6ce4115c3159a3e591730f375bcd04e552"),
    ("fmm", 288, 4, 3, 23,
     "6bbeba18ec595ecfc570f5314f03894188c9c397bcb9ae01b0e649ad19370ff3",
     "0807cc1fbb05b6500b97c31df6c9478424cc208ebb409763a3aa9c1171c1da9e"),
    ("moldyn", 256, 4, 3, 11,
     "cf0aa86d5ddedf1ed347d5755252b4dadb3a0cbee412b364aa1c501d25320f86",
     "2c4c1f81691ee2447c6105a90116eceac0bf464c0eb3a94a1a3a5f4906bd7593"),
    ("moldyn", 288, 4, 3, 23,
     "fbbdf6f7dab1e95b1cb17001821d0824da6d54b030c2f8e25de46d1c58a0d1ea",
     "25b6ec29bf809206b008981a751242a6562d1d636c814d5b705d7e6030ac6e74"),
    ("unstructured", 200, 4, 3, 11,
     "30012e3047ebed2e0ae25fb3c081361687ba6e806bbfbe159d92cf3ecb838d81",
     "d4cf8bf72d3c5ed9b003a60e3675eaf4feda9232ca3b7b9041b7d961c10f8b24"),
    ("unstructured", 232, 4, 3, 23,
     "d006895b5555347d6ededdabeb0d8f597e7d83c7997bcd8d8ca37982158c7b5c",
     "b7ef849f4a4be8a7b680d84da389329b6403d6c05d99d7be29b7a312e7c7302e"),
    ("water-spatial", 216, 4, 3, 11,
     "07502e002c2a41a82b2446ff7e13ee58cdae8d5887d2d004c71d06430951e7c1",
     "9514aac2ee4ae80112b93151f8684a91102bdf770ac077426e02cd090b7bb19a"),
    ("water-spatial", 248, 4, 3, 23,
     "ad6989fc4aae9801003c0b2a58a250a676b719e3115ad2630355140c856958b6",
     "181c7a01f4d59ce61f8295d1c1fbb2874e389b2b2a26a50871a559229b31c808"),
    ("barnes-hut", 96, 4, 2, 7,
     "e981521bd5b366058f1fe6a53ee5e726f19438a40edbb0c215f9a8d732a0f514",
     "70dd9ae76acbd1993bdf0c020cb381dad80f6233a09e8b7ca84c47fc60047e5d"),
    ("moldyn", 64, 4, 3, 7,
     "fd3848afea5c456823215c29f332bfcc26b7cc456a9b5bbbfbae35b017122329",
     "d4130fbb2b75effe498db2865702a8df38d733739a984a0f82c2845bedc6d002"),
    ("water-spatial", 64, 4, 2, 7,
     "dc2a0f574209bf5dff2b05e01fb877467236df6df080a18daf9916d383a7f48f",
     "72119be0b95ae7f5a5e87dc2309005ceef9558d09d3238452f20a32df6f415d5"),
    ("fmm", 96, 4, 1, 7,
     "7852eb59e077aa37cc9d86bb6cc1180f1d0fa6f11973408807ca4e26d730264c",
     "ad9ed3169cc8c38be20e80dfe2b3fc50ba8d6dcb6d9051fcfb4da8f5ae75dea1"),
    ("unstructured", 80, 4, 2, 7,
     "cd84d12dcd5528b3b6c88bafade7bbcfff158139f0c0b5fd4e8478bb107e7182",
     "e33e9fa884dbc62f638d392cdc44f8e368b114ad4a0a11b8af1314ba7325bb75"),
]


CASES = pytest.mark.parametrize(
    "app,n,nprocs,iterations,seed,bundle,positions",
    GOLDEN,
    ids=[f"{c[0]}-n{c[1]}-i{c[3]}-s{c[4]}" for c in GOLDEN],
)


@functools.lru_cache(maxsize=None)
def _digests(app, n, nprocs, iterations, seed):
    """Run one case once; return (bundle sha256, positions sha256)."""
    a = APP_REGISTRY[app](
        AppConfig(n=n, nprocs=nprocs, iterations=iterations, seed=seed)
    )
    buf = io.BytesIO()
    save_trace(a.run(), buf)
    return (
        hashlib.sha256(buf.getvalue()).hexdigest(),
        hashlib.sha256(a.positions().tobytes()).hexdigest(),
    )


@CASES
def test_golden_trace(app, n, nprocs, iterations, seed, bundle, positions):
    assert _digests(app, n, nprocs, iterations, seed)[0] == bundle


@CASES
def test_golden_positions(app, n, nprocs, iterations, seed, bundle, positions):
    assert _digests(app, n, nprocs, iterations, seed)[1] == positions
