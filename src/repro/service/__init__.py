"""Durable sweep job service.

A long-running, crash-tolerant server for sweep campaigns: clients
submit parameter grids (``repro submit``), the server shards them into
(trace, platform) groups, runs each group through the
:mod:`repro.runtime` process pool under a lease, and persists every
state transition to an append-only checksummed journal so a crashed or
killed server resumes exactly where it stopped — finished groups are
never recomputed, identical groups across concurrent jobs are computed
once, and warm queries are answered straight from the on-disk result
store.

Layers (bottom up):

* :mod:`repro.service.journal` — write-ahead journal + snapshot
  compaction (crash-safe persistence primitive);
* :mod:`repro.service.leases` — lease table with heartbeats and
  deterministic expiry (who may run a group right now);
* :mod:`repro.service.state` — pure in-memory state machine replayed
  from the journal (jobs, groups, dedup subscriptions);
* :mod:`repro.service.engine` — ties the above to the executor and the
  sweep checkpoints; all durability invariants live here;
* :mod:`repro.service.protocol` / :mod:`repro.service.server` /
  :mod:`repro.service.client` — newline-JSON wire format, the asyncio
  socket server (``repro serve``), and the blocking client
  (``repro submit`` / ``repro jobs``).
"""

from .client import ServiceClient
from .engine import EngineConfig, SweepEngine
from .journal import Journal, load_snapshot, write_snapshot
from .leases import Lease, LeaseTable
from .protocol import PROTOCOL_VERSION
from .server import SweepServer

__all__ = [
    "EngineConfig",
    "Journal",
    "Lease",
    "LeaseTable",
    "PROTOCOL_VERSION",
    "ServiceClient",
    "SweepEngine",
    "SweepServer",
    "load_snapshot",
    "write_snapshot",
]
