"""Pure in-memory service state, rebuilt by replaying the journal.

The state machine is deliberately tiny and side-effect free: **every**
mutation flows through :meth:`ServiceState.apply` with a journal record,
so the invariant "state == replay(snapshot, journal)" holds by
construction — there is no code path that changes state without a
corresponding durable record.

Three record types::

    {"type": "submit", "job": id, "grid": {...}, "scale": {...},
     "groups": [{"key": k, "spec": {...}}, ...]}
    {"type": "fail",       "key": k, "error": "..."}
    {"type": "done",       "key": k}
    {"type": "reset",      "key": k, "reason": "..."}
    {"type": "quarantine", "key": k, "reason": "..."}

``reset`` is recovery's correction record: a group journaled as done
whose checkpoint turned out lost or corrupt goes back to pending
(without burning its retry budget — the *group* never misbehaved, its
file did).

Group status is only ever ``pending``, ``done``, or ``quarantined`` —
"running" is a property of the volatile lease table, not of durable
state, which is what makes crash recovery trivial: whatever was running
is simply pending again.  Job status is *derived* from its groups, never
stored, so it can never disagree with them.

Dedup lives here: a submitted group whose key already exists just adds
the new job to the group's ``subscribers`` — one computation fans out to
every subscribed job, and a group that is already ``done`` satisfies the
new job instantly (the warm-query path).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import JobNotFoundError, ServiceError

__all__ = ["GroupRecord", "JobRecord", "ServiceState"]


@dataclass
class GroupRecord:
    """One (trace, platform) unit of work and who wants it."""

    key: str
    spec: dict            # serialized SweepGroup
    scale: dict           # serialized Scale
    status: str = "pending"   # pending | done | quarantined
    failures: int = 0
    reason: str = ""          # last failure / quarantine reason
    subscribers: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "key": self.key, "spec": self.spec, "scale": self.scale,
            "status": self.status, "failures": self.failures,
            "reason": self.reason, "subscribers": list(self.subscribers),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GroupRecord":
        return cls(**d)


@dataclass
class JobRecord:
    """One submitted grid: its spec and the group keys it fans into."""

    job_id: str
    grid: dict
    scale: dict
    groups: list[str]

    def to_dict(self) -> dict:
        return {"job_id": self.job_id, "grid": self.grid,
                "scale": self.scale, "groups": list(self.groups)}

    @classmethod
    def from_dict(cls, d: dict) -> "JobRecord":
        return cls(**d)


class ServiceState:
    """Jobs + groups + dedup index; mutated only via :meth:`apply`."""

    def __init__(self):
        self.jobs: dict[str, JobRecord] = {}
        self.groups: dict[str, GroupRecord] = {}
        self.jobs_submitted = 0

    # ---- journal interface ---------------------------------------------
    def apply(self, record: dict) -> None:
        handler = getattr(self, f"_apply_{record.get('type')}", None)
        if handler is None:
            raise ServiceError(
                f"journal record type {record.get('type')!r} is unknown —"
                " refusing to replay a journal written by a newer version"
            )
        handler(record)

    def _apply_submit(self, record: dict) -> None:
        job_id = record["job"]
        self.jobs[job_id] = JobRecord(
            job_id=job_id, grid=record["grid"], scale=record["scale"],
            groups=[g["key"] for g in record["groups"]],
        )
        self.jobs_submitted += 1
        for g in record["groups"]:
            existing = self.groups.get(g["key"])
            if existing is None:
                self.groups[g["key"]] = GroupRecord(
                    key=g["key"], spec=g["spec"], scale=record["scale"],
                    subscribers=[job_id],
                )
            elif job_id not in existing.subscribers:
                existing.subscribers.append(job_id)

    def _apply_fail(self, record: dict) -> None:
        group = self.groups[record["key"]]
        group.failures += 1
        group.reason = record.get("error", "")
        if group.status != "done":
            group.status = "pending"

    def _apply_done(self, record: dict) -> None:
        group = self.groups[record["key"]]
        group.status = "done"
        group.reason = ""

    def _apply_reset(self, record: dict) -> None:
        group = self.groups[record["key"]]
        if group.status != "quarantined":
            group.status = "pending"
            group.reason = record.get("reason", "")

    def _apply_quarantine(self, record: dict) -> None:
        group = self.groups[record["key"]]
        group.status = "quarantined"
        group.reason = record.get("reason", "")

    # ---- queries --------------------------------------------------------
    def job(self, job_id: str) -> JobRecord:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise JobNotFoundError(f"unknown job {job_id!r}") from None

    def job_status(self, job_id: str) -> str:
        """Derived status: quarantined group -> failed; all done -> done."""
        job = self.job(job_id)
        statuses = [self.groups[k].status for k in job.groups]
        if any(s == "quarantined" for s in statuses):
            return "failed"
        if all(s == "done" for s in statuses):
            return "done"
        return "running"

    def pending_keys(self) -> list[str]:
        """Schedulable groups, in deterministic insertion order."""
        return [k for k, g in self.groups.items() if g.status == "pending"]

    # ---- snapshots -------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "jobs": [j.to_dict() for j in self.jobs.values()],
            "groups": [g.to_dict() for g in self.groups.values()],
            "jobs_submitted": self.jobs_submitted,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ServiceState":
        state = cls()
        for j in data.get("jobs", ()):
            job = JobRecord.from_dict(j)
            state.jobs[job.job_id] = job
        for g in data.get("groups", ()):
            group = GroupRecord.from_dict(g)
            state.groups[group.key] = group
        state.jobs_submitted = int(data.get("jobs_submitted", len(state.jobs)))
        return state
