"""The sweep engine: durable scheduling over the runtime executor.

This is where every robustness invariant is enforced:

**Durability.**  Every state transition is journaled before it is
applied (:class:`~repro.service.journal.Journal` fsyncs each append).
Group results are persisted as the same ``sweeps/<key>.json``
checkpoints the CLI's ``repro sweep --resume`` writes — the checkpoint
is the *result* truth, the journal is the *bookkeeping* truth, and
recovery reconciles the two: a group journaled done whose checkpoint is
missing or damaged goes back to pending (a ``reset`` record); a pending
group that already has a valid checkpoint — from a torn ``done`` append,
a previous CLI sweep, or a concurrent job — is healed to done without
recomputation.

**Leases.**  A worker claims a group, runs it (in a child process via
:func:`repro.runtime.executor.run_tasks`, or serially in-process when
the pool is unavailable — the executor's own degradation path), and
settles the result.  A worker that dies or stalls lets its lease expire;
the group is simply claimable again.  Each failed lease burns one unit
of the group's retry budget; past the budget the group is quarantined
(journaled + a reason file under ``sweeps/quarantine/``, mirroring
:meth:`repro.runtime.cache.TraceCache.quarantine`) so a poison group can
fail its subscribers without wedging the service.

**Dedup.**  Identical (trace, platform) groups across jobs share
one :class:`~repro.service.state.GroupRecord`; one computation fans out
to every subscriber, and a fully warm submission completes without
scheduling anything.

**Stale settlements.**  A lease may expire under a healthy worker
(delayed heartbeats); when its result finally arrives the engine accepts
it idempotently if the group is still unfinished — deterministic results
make a late answer exactly as good as a fresh one — and drops it if a
faster replacement already finished.

Threading contract: all methods mutate state on the caller's thread and
must be called from a single scheduler thread (the asyncio event loop in
:mod:`repro.service.server`); the one exception is
:meth:`SweepEngine.run_claimed`, which touches no shared state and is
exactly the part workers run concurrently.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from ..errors import ConfigError, ReproError, ServiceError, WorkerError
from ..experiments.runner import Scale
from ..experiments.sweep import (
    SweepGrid,
    SweepGroup,
    SweepPlan,
    grid_to_dict,
    load_group_checkpoint,
    run_sweep_group,
    write_group_checkpoint,
)
from ..runtime.cache import atomic_write_text
from ..runtime.executor import ExecutorConfig, Task, run_tasks
from ..runtime.faults import FaultPlan, garble_file
from .journal import Journal, load_snapshot, write_snapshot
from .leases import LeaseTable
from .state import ServiceState

__all__ = [
    "Claim",
    "EngineConfig",
    "SweepEngine",
    "scale_from_dict",
    "scale_to_dict",
]

log = logging.getLogger("repro.service")


def scale_to_dict(scale: Scale) -> dict:
    """JSON-safe :class:`Scale` for the protocol and the journal."""
    return asdict(scale)


def scale_from_dict(data: dict) -> Scale:
    """Rebuild a validated :class:`Scale`; raises ``ConfigError`` on junk."""
    try:
        return Scale(
            n={str(k): int(v) for k, v in data["n"].items()},
            iterations={str(k): int(v) for k, v in data["iterations"].items()},
            nprocs=int(data["nprocs"]),
            seed=int(data["seed"]),
            hw_scale=float(data["hw_scale"]),
        )
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad scale spec: {exc}") from exc


@dataclass(frozen=True)
class EngineConfig:
    """Service knobs (all deterministic behaviour, no policy surprises)."""

    lease_ttl: float = 60.0
    retry_budget: int = 2       # failed leases tolerated before quarantine
    task_timeout: float | None = 300.0
    use_pool: bool = True       # False: serial in-process execution
    compact_every: int = 256    # journal appends between snapshots

    def __post_init__(self) -> None:
        if self.retry_budget < 0:
            raise ConfigError("retry_budget must be >= 0")
        if self.compact_every < 1:
            raise ConfigError("compact_every must be >= 1")


@dataclass
class Claim:
    """Everything a worker needs to run one leased group, detached from
    shared state so :meth:`SweepEngine.run_claimed` is thread-safe."""

    key: str
    worker: str
    attempt: int
    spec: dict
    scale: dict


_COUNTER_NAMES = (
    "groups_computed", "checkpoint_heals", "checkpoints_lost",
    "warm_group_hits", "stale_settlements_accepted",
    "stale_settlements_dropped", "delayed_heartbeats", "quarantined_groups",
    "journal_replayed", "journal_truncated_bytes", "snapshots_written",
    "injected_checkpoint_corruptions",
)


class SweepEngine:
    """Durable, recoverable scheduler for sweep-grid jobs.

    ``state_dir`` holds ``journal.jsonl``, ``snapshot.json``, and (by
    default) the trace cache + checkpoints under ``cache/``; pass
    ``cache_root`` to share a cache with CLI sweeps.  Construction *is*
    recovery: replay snapshot + journal, self-heal a torn tail, and
    reconcile group state against the checkpoint store.
    """

    def __init__(self, state_dir, *, config: EngineConfig | None = None,
                 cache_root=None, fault_plan: FaultPlan | None = None,
                 clock=time.monotonic):
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.config = config or EngineConfig()
        self.fault_plan = fault_plan
        self.cache_root = Path(cache_root) if cache_root else (
            self.state_dir / "cache"
        )
        self.sweep_dir = self.cache_root / "sweeps"
        self.sweep_dir.mkdir(parents=True, exist_ok=True)
        self.journal = Journal(self.state_dir / "journal.jsonl")
        self.snapshot_path = self.state_dir / "snapshot.json"
        self.leases = LeaseTable(ttl=self.config.lease_ttl, clock=clock)
        self.state = ServiceState()
        self.counters: dict[str, int] = dict.fromkeys(_COUNTER_NAMES, 0)
        self.executions: dict[str, int] = {}  # per-key runs, this incarnation
        self._draining = False
        self._recover()

    # ---- recovery --------------------------------------------------------
    def _recover(self) -> None:
        snap_seq = 0
        snap = load_snapshot(self.snapshot_path)
        if snap is not None:
            state_dict, snap_seq = snap
            self.state = ServiceState.from_dict(state_dict)
        records, truncated = self.journal.replay(min_seq=snap_seq)
        for record in records:
            self.state.apply(record)
        self.counters["journal_replayed"] = len(records)
        self.counters["journal_truncated_bytes"] = truncated
        if truncated:
            log.warning("journal: truncated %d byte torn tail", truncated)

        # Reconcile bookkeeping truth against result truth.  Whatever was
        # mid-flight when the previous incarnation died holds no lease
        # here, so every non-done group is schedulable again by default.
        for key, group in self.state.groups.items():
            if group.status == "done":
                if load_group_checkpoint(self._checkpoint(key)) is None:
                    self.counters["checkpoints_lost"] += 1
                    self._append_apply({
                        "type": "reset", "key": key,
                        "reason": "checkpoint missing or corrupt at recovery",
                    })
                    log.warning("group %s: checkpoint lost; re-queued", key)
            elif group.status == "pending":
                if load_group_checkpoint(self._checkpoint(key)) is not None:
                    self.counters["checkpoint_heals"] += 1
                    self._append_apply({"type": "done", "key": key})
                    log.info("group %s: healed from existing checkpoint", key)

    # ---- journal plumbing ------------------------------------------------
    def _append_apply(self, record: dict) -> None:
        tear = (self.fault_plan is not None
                and self.fault_plan.journal_torn(self.journal.next_seq))
        self.journal.append(record, tear=tear)  # raises on tear: "crash"
        self.state.apply(record)

    def _maybe_compact(self) -> None:
        if self.journal.appended >= self.config.compact_every:
            self.compact()

    def compact(self) -> None:
        """Snapshot the state and truncate the journal."""
        write_snapshot(self.snapshot_path, self.state.to_dict(),
                       self.journal.next_seq - 1)
        self.journal.truncate()
        self.counters["snapshots_written"] += 1

    def close(self) -> None:
        """Clean shutdown: compact so the next start replays nothing."""
        if self.journal.appended:
            self.compact()
        self.journal.close()

    def _checkpoint(self, key: str) -> Path:
        return self.sweep_dir / f"{key}.json"

    # ---- submission ------------------------------------------------------
    def submit(self, grid: SweepGrid, scale: Scale) -> str:
        """Accept one grid; returns its job id (journaled before ack).

        Groups dedup by key against every previous submission; groups
        whose results already sit in the store complete instantly (warm
        query).  Raises :class:`ServiceError` while draining.
        """
        if self._draining:
            raise ServiceError(
                "server is draining and not accepting new submissions"
            )
        # Leases stay per (trace, platform): the journal's dedup keys
        # are the checkpoint keys.
        plan_groups = [part for g in SweepPlan(grid, scale).groups()
                       for part in g.per_platform()]
        job_id = f"job{self.state.jobs_submitted + 1:04d}"
        groups = [{"key": g.key(scale), "spec": g.to_dict()}
                  for g in plan_groups]
        self._append_apply({
            "type": "submit", "job": job_id, "grid": grid_to_dict(grid),
            "scale": scale_to_dict(scale), "groups": groups,
        })
        warm = 0
        for g in groups:
            record = self.state.groups[g["key"]]
            if record.status == "done":
                warm += 1
                continue
            if record.status != "pending" or self.leases.holder(g["key"]):
                continue
            if load_group_checkpoint(self._checkpoint(g["key"])) is not None:
                warm += 1
                self.counters["warm_group_hits"] += 1
                self._append_apply({"type": "done", "key": g["key"]})
        self._maybe_compact()
        log.info("job %s: %d group(s), %d already warm", job_id,
                 len(groups), warm)
        return job_id

    # ---- scheduling ------------------------------------------------------
    def claim_next(self, worker: str) -> Claim | None:
        """Lease the next schedulable group to ``worker`` (or ``None``)."""
        self.reap_expired()
        for key in self.state.pending_keys():
            if self.leases.holder(key) is not None:
                continue
            lease = self.leases.claim(key, worker)
            group = self.state.groups[key]
            return Claim(key=key, worker=worker, attempt=lease.attempt,
                         spec=dict(group.spec), scale=dict(group.scale))
        return None

    def reap_expired(self) -> int:
        """Re-queue every group whose lease deadline passed."""
        expired = self.leases.pop_expired()
        for lease in expired:
            log.warning("lease on %s (worker %s, attempt %d) expired;"
                        " re-queued", lease.key, lease.worker, lease.attempt)
        return len(expired)

    def heartbeat(self, claim: Claim) -> bool:
        """Extend a worker's lease; ``False`` means the lease is gone.

        The ``delayed_heartbeats`` fault drops the heartbeat on the floor
        (models a stalled worker or a partitioned connection): the lease
        is left to expire even though the worker is healthy.
        """
        if (self.fault_plan is not None
                and self.fault_plan.heartbeat_delayed(claim.key, claim.attempt)):
            return True  # the worker *thinks* it heartbeated; nothing lands
        return self.leases.heartbeat(claim.key, claim.worker)

    # ---- execution (thread-safe: touches no shared state) ---------------
    def run_claimed(self, claim: Claim) -> tuple[list[dict] | None, str | None]:
        """Run one leased group to rows; returns ``(rows, error)``.

        Execution goes through :func:`repro.runtime.executor.run_tasks`
        with retries disabled — the *lease* is the retry mechanism here —
        in one child process (``use_pool``) or serially in-process.  If
        the pool cannot be started at all, the executor's own degradation
        runs the group serially; the service never notices.
        """
        group = SweepGroup.from_dict(claim.spec)
        scale = scale_from_dict(claim.scale)
        kind = (self.fault_plan.worker_fault(claim.key, claim.attempt)
                if self.fault_plan is not None else None)
        plan = FaultPlan(worker={claim.key: [kind]}) if kind else FaultPlan()
        cfg = ExecutorConfig(
            jobs=2 if self.config.use_pool else 1,
            task_timeout=self.config.task_timeout,
            max_retries=0,
            serial_fallback=False,
        )
        self.executions[claim.key] = self.executions.get(claim.key, 0) + 1
        try:
            out = run_tasks(
                [Task(key=claim.key, fn=run_sweep_group,
                      args=(str(self.cache_root), group, scale))],
                cfg, fault_plan=plan,
            )
        except WorkerError as exc:
            return None, f"{type(exc).__name__}: {exc}"
        except ReproError as exc:
            return None, f"{type(exc).__name__}: {exc}"
        rows, _cache_counts = out[claim.key]
        return rows, None

    # ---- settlement ------------------------------------------------------
    def settle(self, claim: Claim, rows: list[dict] | None,
               error: str | None = None) -> None:
        """Commit one finished lease attempt (success or failure).

        Ordering on success is checkpoint first, journal second: if the
        server dies between the two, recovery finds a pending group with
        a valid checkpoint and heals it — the stronger of the two partial
        states.  The reverse order could journal "done" for a result that
        never reached disk.
        """
        key = claim.key
        if (self.fault_plan is not None
                and self.fault_plan.heartbeat_delayed(key, claim.attempt)):
            # The suppressed heartbeats caught up with the lease.
            self.leases.force_expire(key)
            self.counters["delayed_heartbeats"] += 1
        self.reap_expired()
        held = self.leases.release(key, claim.worker)
        group = self.state.groups.get(key)
        if group is None or group.status == "quarantined":
            return
        if group.status == "done":
            if rows is not None:
                self.counters["stale_settlements_dropped"] += 1
            return

        if error is not None or rows is None:
            self._append_apply({
                "type": "fail", "key": key,
                "error": (error or "worker returned no rows")[:500],
            })
            failures = self.state.groups[key].failures
            log.warning("group %s: attempt %d failed (%d/%d budget): %s",
                        key, claim.attempt, failures,
                        self.config.retry_budget + 1, error)
            if failures > self.config.retry_budget:
                self._quarantine(key, f"{failures} failed lease attempts;"
                                      f" last error: {error}")
            self._maybe_compact()
            return

        if not held:
            # Our lease expired mid-run but nobody finished the group yet:
            # the result is deterministic, accept it and cancel the requeue.
            self.counters["stale_settlements_accepted"] += 1
            log.info("group %s: accepting result from expired lease", key)
        path = self._checkpoint(key)
        write_group_checkpoint(path, rows)
        if (self.fault_plan is not None
                and self.fault_plan.checkpoint_corrupt(key)):
            garble_file(path, seed=claim.attempt)
            self.counters["injected_checkpoint_corruptions"] += 1
        self._append_apply({"type": "done", "key": key})
        self.counters["groups_computed"] += 1
        self._maybe_compact()

    def _quarantine(self, key: str, reason: str) -> None:
        qdir = self.sweep_dir / "quarantine"
        qdir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(qdir / f"{key}.reason.txt", reason + "\n")
        self._append_apply({"type": "quarantine", "key": key,
                            "reason": reason[:500]})
        self.counters["quarantined_groups"] += 1
        log.error("group %s: quarantined (%s)", key, reason)

    # ---- queries ---------------------------------------------------------
    def job_status(self, job_id: str) -> dict:
        job = self.state.job(job_id)
        by_status: dict[str, int] = {}
        for key in job.groups:
            s = self.state.groups[key].status
            by_status[s] = by_status.get(s, 0) + 1
        info = {
            "job": job_id,
            "status": self.state.job_status(job_id),
            "groups": {"total": len(job.groups), **by_status},
        }
        if info["status"] == "failed":
            reasons = [self.state.groups[k].reason for k in job.groups
                       if self.state.groups[k].status == "quarantined"]
            info["error"] = "; ".join(r for r in reasons if r) or "quarantined"
        return info

    def job_results(self, job_id: str) -> list[dict]:
        """Every row of a finished job, straight from the result store."""
        job = self.state.job(job_id)
        status = self.state.job_status(job_id)
        if status != "done":
            raise ServiceError(f"job {job_id} is {status}, not done")
        rows: list[dict] = []
        for key in job.groups:
            group_rows = load_group_checkpoint(self._checkpoint(key))
            if group_rows is None:
                raise ServiceError(
                    f"results for group {key} are no longer readable;"
                    " resubmit the job to recompute them"
                )
            rows.extend(group_rows)
        return rows

    def list_jobs(self) -> list[dict]:
        return [self.job_status(job_id) for job_id in self.state.jobs]

    def idle(self) -> bool:
        return not self.state.pending_keys() and not len(self.leases)

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self) -> None:
        """Stop accepting submissions; in-flight work still completes."""
        if not self._draining:
            log.info("drain requested: no new submissions accepted")
        self._draining = True

    def stats(self) -> dict:
        return {
            "jobs": len(self.state.jobs),
            "groups": len(self.state.groups),
            "pending": len(self.state.pending_keys()),
            "draining": self._draining,
            "leases": self.leases.stats(),
            "counters": dict(self.counters),
        }

    # ---- synchronous driver (tests, chaos harness, --serve-inline) -----
    def run_until_idle(self, worker: str = "w0",
                       max_settles: int | None = None) -> int:
        """Claim/run/settle in a loop until nothing is schedulable.

        Returns the number of settlements.  ``max_settles`` stops early —
        the chaos harness's "server killed mid-campaign" lever.  Faults
        injected along the way surface exactly as they would under the
        asyncio server (a torn append raises ``InjectedServiceCrash``
        out of this loop, mid-campaign).
        """
        settles = 0
        while max_settles is None or settles < max_settles:
            claim = self.claim_next(worker)
            if claim is None:
                break
            rows, error = self.run_claimed(claim)
            self.settle(claim, rows, error)
            settles += 1
        return settles
