"""End-to-end: asyncio server + blocking client over a unix socket."""

import asyncio
import threading
import time

import pytest

from repro.errors import ConfigError, ServiceError
from repro.experiments.sweep import SweepPlan
from repro.service import ServiceClient, SweepServer
from repro.service.server import split_address


# ---- address parsing (pure) ---------------------------------------------


@pytest.mark.parametrize(
    "address,expected",
    [
        ("127.0.0.1:8080", ("127.0.0.1", 8080)),
        ("localhost:9", ("localhost", 9)),
        ("/tmp/repro.sock", None),
        ("state/repro.sock", None),
        ("./sock:5", None),      # path separators win over the colon
        ("just-a-name", None),   # no port -> treated as a unix path
    ],
)
def test_split_address(address, expected):
    assert split_address(address) == expected


# ---- live server ---------------------------------------------------------


class LiveServer:
    def __init__(self, server, client, engine, thread):
        self.server = server
        self.client = client
        self.engine = engine
        self.thread = thread


@pytest.fixture
def live_server(tmp_path, make_engine):
    """A serving SweepServer in a background thread + a connected client."""
    engine = make_engine()
    sock = tmp_path / "repro.sock"
    server = SweepServer(engine, str(sock), workers=2, poll_interval=0.01)
    thread = threading.Thread(
        target=asyncio.run, args=(server.serve_forever(),), daemon=True
    )
    thread.start()
    client = ServiceClient(str(sock), timeout=30.0)
    deadline = time.monotonic() + 15.0
    while True:
        try:
            client.ping()
            break
        except ServiceError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.02)
    yield LiveServer(server, client, engine, thread)
    if thread.is_alive():
        engine.drain()
        thread.join(60.0)
    assert not thread.is_alive(), "server failed to shut down"


def test_submit_wait_results_over_the_socket(
    live_server, tiny_grid, tiny_scale
):
    client = live_server.client
    job_id = client.submit(tiny_grid, tiny_scale)
    assert job_id == "job0001"
    status = client.wait(job_id, poll=0.05, timeout=120.0)
    assert status["status"] == "done"
    assert status["groups"]["total"] == 3
    # Rows from the service == rows from a direct in-process run.
    assert client.results(job_id) == SweepPlan(tiny_grid, tiny_scale).run()

    jobs = client.jobs()
    assert [j["job"] for j in jobs] == [job_id]
    stats = client.stats()
    assert stats["groups"] == 3 and stats["pending"] == 0
    assert stats["counters"]["groups_computed"] == 3


def test_duplicate_submission_is_warm_over_the_socket(
    live_server, tiny_grid, tiny_scale
):
    client, engine = live_server.client, live_server.engine
    first = client.submit(tiny_grid, tiny_scale)
    client.wait(first, poll=0.05, timeout=120.0)
    computed = engine.counters["groups_computed"]
    second = client.submit(tiny_grid, tiny_scale)
    assert client.status(second)["status"] == "done"  # no wait needed
    assert engine.counters["groups_computed"] == computed


def test_structured_errors_cross_the_socket(live_server):
    client = live_server.client
    with pytest.raises(ServiceError, match="unknown job"):
        client.status("job9999")
    with pytest.raises(ServiceError, match="unknown op"):
        client.request({"op": "reboot"})
    with pytest.raises(ServiceError, match="missing field"):
        client.request({"op": "status"})


@pytest.mark.parametrize(
    "grid",
    [["moldyn"], {"page_sizes": ["4k"]}, {"page_sizes": 4096},
     {"l2_bytes": [1.5]}, {"l2_bytes": [True]}, {"volts": [3]}],
    ids=["not-an-object", "text-size", "scalar-axis", "float", "bool",
         "unknown-key"],
)
def test_bad_grid_is_a_config_error(live_server, tiny_scale, grid):
    with pytest.raises(ConfigError):
        live_server.client.submit(grid, tiny_scale)
    assert live_server.engine.state.jobs_submitted == 0


def test_drain_rejects_new_work_then_shuts_down(
    live_server, tiny_grid, tiny_scale
):
    client = live_server.client
    job_id = client.submit(tiny_grid, tiny_scale)
    client.drain()
    # Draining: no new submissions, but accepted work still completes —
    # then the server exits on its own (SIGTERM shares this path).
    with pytest.raises(ServiceError, match="draining"):
        client.submit(tiny_grid, tiny_scale)
    live_server.thread.join(120.0)
    assert not live_server.thread.is_alive()
    assert live_server.engine.job_status(job_id)["status"] == "done"
