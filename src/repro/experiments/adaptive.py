"""Time-evolving benchmark mode: when does re-reordering pay for itself?

The paper reorders once, up front.  Its dynamic applications drift, so the
locality the ordering bought decays — and any re-reordering policy trades
reorder cost against recovered locality.  This module replays drifting
workloads (aggressive timesteps on the three dynamic apps) under the
re-reordering policies of :class:`repro.apps.base.AdaptivePolicy` and
reports the **breakeven point** per protocol: how many iterations a
re-layout must survive before the per-iteration locality benefit has paid
back its reorder cost.

Traces are generated by constructing the apps directly rather than through
:func:`repro.experiments.runner.run_one` — the runner's memoization keys
deliberately exclude ``extra`` knobs, and the policy lives in ``extra``;
each trace is then priced through the runner's one platform dispatch
(:func:`repro.experiments.runner._simulate`), outside its outcome memo.
The reorder cost is measured *inside* the trace: every policy firing is a
dedicated ``reorder`` epoch, so each simulator's ``phase_times["reorder"]``
is that protocol's own price for the migrations (a full re-sort streams
all n objects through processor 0; an incremental migration reads the
movers' old slots and writes only the slots that change).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ..errors import ConfigError
from ..machines.params import CLUSTER_16, origin2000_scaled
from .runner import PLATFORMS, _simulate, make_app

__all__ = [
    "DYNAMIC_APPS",
    "ADAPTIVE_POLICIES",
    "AdaptiveSpec",
    "AdaptiveCell",
    "run_policy",
    "adaptive_breakeven",
    "breakeven_report",
]

#: The apps whose objects move between iterations — the only ones a
#: re-reordering policy can help.
DYNAMIC_APPS = ("moldyn", "water-spatial", "barnes-hut")

#: The three policies the breakeven table compares.
ADAPTIVE_POLICIES = ("never", "every", "adaptive")

#: Initial ordering per app: the paper's recommendation for the app's
#: category (column for the block-partitioned Moldyn, Hilbert for the
#: spatially-partitioned apps).
DEFAULT_VERSION = {
    "moldyn": "column",
    "water-spatial": "hilbert",
    "barnes-hut": "hilbert",
}

#: Drift-inducing timesteps: large enough that molecules cross detection
#: cells within a few iterations (the regime where policies differ).
DRIFT_DT = {"moldyn": 3e-3, "water-spatial": 3e-3, "barnes-hut": 0.05}


@dataclass(frozen=True)
class AdaptiveSpec:
    """One drifting workload to replay under the policies."""

    app: str = "moldyn"
    n: int = 2048
    nprocs: int = 16
    iterations: int = 12
    seed: int = 1
    version: str | None = None  # initial ordering; DEFAULT_VERSION if None
    every: int = 3  # period of the "every" policy
    threshold: float = 0.10  # crosser fraction for the "adaptive" policy
    hw_scale: float = 16.0  # Origin cache scaling, as in Scale
    extra: dict = field(default_factory=dict)  # forwarded app knobs

    def __post_init__(self) -> None:
        if self.app not in DYNAMIC_APPS:
            raise ConfigError(
                f"adaptive benchmarks need a dynamic app; got {self.app!r}, "
                f"expected one of {DYNAMIC_APPS}"
            )
        if self.iterations < 2:
            raise ConfigError("AdaptiveSpec.iterations must be >= 2")
        if self.every < 1:
            raise ConfigError("AdaptiveSpec.every must be >= 1")

    @property
    def initial_version(self) -> str:
        return self.version or DEFAULT_VERSION[self.app]

    def policy_extra(self, policy: str) -> dict:
        """The ``AppConfig.extra`` knobs that select ``policy``."""
        if policy not in ADAPTIVE_POLICIES:
            raise ConfigError(
                f"unknown policy {policy!r}; expected one of {ADAPTIVE_POLICIES}"
            )
        base = {"dt": DRIFT_DT[self.app], **self.extra}
        if policy == "every":
            base.update(adapt_policy="every", adapt_every=self.every)
        elif policy == "adaptive":
            base.update(adapt_policy="adaptive", adapt_threshold=self.threshold)
        return base


@dataclass
class AdaptiveCell:
    """One (app, policy, platform) row of the breakeven table."""

    app: str
    policy: str
    platform: str
    time: float  # modelled parallel time, reorder epochs included
    reorder_cost: float  # phase time of the "reorder" epochs
    compute_time: float  # time - reorder_cost
    messages: int = 0
    data_mbytes: float = 0.0
    l2_misses: int = 0
    reorder_events: int = 0
    reorder_moved: int = 0
    # Relative to the same (app, platform) "never" row:
    benefit: float = 0.0  # compute-time saved by the better layout
    net: float = 0.0  # total time saved, reorder cost deducted
    breakeven_iterations: float = float("inf")  # cost / per-iter benefit

    def as_dict(self) -> dict:
        return {**asdict(self), "data_mbytes": round(self.data_mbytes, 3)}


def run_policy(spec: AdaptiveSpec, policy: str):
    """Generate one policy's drifting trace; returns ``(app, trace)``."""
    from ..apps import AppConfig

    config = AppConfig(
        n=spec.n,
        nprocs=spec.nprocs,
        iterations=spec.iterations,
        seed=spec.seed,
        extra=spec.policy_extra(policy),
    )
    app = make_app(spec.app, config, version=spec.initial_version)
    trace = app.run()
    return app, trace


def adaptive_breakeven(
    specs,
    platforms=PLATFORMS,
    policies=ADAPTIVE_POLICIES,
) -> list[AdaptiveCell]:
    """The breakeven table: every (spec, policy, platform) cell.

    Each spec's workload is generated once per policy (the trace is a pure
    function of the app + policy), then priced by every protocol.  Cells
    carry ``benefit`` / ``net`` / ``breakeven_iterations`` relative to the
    same platform's ``"never"`` row — which is always computed, even when
    excluded from ``policies``, since it is the baseline.
    """
    cells: list[AdaptiveCell] = []
    for spec in specs:
        wanted = list(policies)
        run_order = list(dict.fromkeys(["never", *wanted]))
        results: dict[str, dict[str, AdaptiveCell]] = {}
        hardware = origin2000_scaled(max(spec.hw_scale, 1.0), spec.nprocs)
        for policy in run_order:
            app, trace = run_policy(spec, policy)
            results[policy] = {}
            for platform in platforms:
                params = hardware if platform == "origin" else CLUSTER_16
                out = _simulate(trace, platform, params)
                reorder_cost = float(out.phase_times.get("reorder", 0.0))
                cell = AdaptiveCell(
                    app=spec.app,
                    policy=policy,
                    platform=platform,
                    time=float(out.time),
                    reorder_cost=reorder_cost,
                    compute_time=float(out.time) - reorder_cost,
                    messages=int(out.counters.get("messages", 0)),
                    data_mbytes=float(out.counters.get("data_mbytes", 0.0)),
                    l2_misses=int(out.counters.get("l2_misses", 0)),
                    reorder_events=app.reorder_events,
                    reorder_moved=app.reorder_moved,
                )
                results[policy][platform] = cell
        for policy in wanted:
            for platform in platforms:
                cell = results[policy][platform]
                base = results["never"][platform]
                cell.benefit = base.compute_time - cell.compute_time
                cell.net = base.time - cell.time
                per_iter = cell.benefit / spec.iterations
                cell.breakeven_iterations = (
                    cell.reorder_cost / per_iter if per_iter > 0 else float("inf")
                )
                cells.append(cell)
    return cells


def breakeven_report(cells) -> str:
    """Human-readable breakeven table (one block per app)."""
    lines: list[str] = []
    apps = list(dict.fromkeys(c.app for c in cells))
    for app in apps:
        lines.append(f"== {app} ==")
        lines.append(
            f"{'platform':<12} {'policy':<10} {'time':>10} {'reorder':>10} "
            f"{'benefit':>10} {'net':>10} {'breakeven':>10} {'events':>7} "
            f"{'moved':>8} {'messages':>10}"
        )
        for c in (c for c in cells if c.app == app):
            brk = (
                f"{c.breakeven_iterations:10.2f}"
                if np.isfinite(c.breakeven_iterations)
                else f"{'-':>10}"
            )
            lines.append(
                f"{c.platform:<12} {c.policy:<10} {c.time:10.4f} "
                f"{c.reorder_cost:10.4f} {c.benefit:10.4f} {c.net:10.4f} "
                f"{brk} {c.reorder_events:7d} {c.reorder_moved:8d} "
                f"{c.messages:10d}"
            )
        lines.append("")
    return "\n".join(lines)
