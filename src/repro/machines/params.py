"""Machine parameter sets.

Two platforms from the paper's section 4.1, plus scaled variants used when
running reduced problem sizes (the simulator keeps the *ratio* of working set
to cache/TLB reach representative; see EXPERIMENTS.md).

All times are in seconds, all sizes in bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import SimulationInputError

__all__ = [
    "HardwareParams",
    "ClusterParams",
    "ORIGIN2000",
    "origin2000_scaled",
    "CLUSTER_16",
    "cluster_scaled",
]


@dataclass(frozen=True)
class HardwareParams:
    """A hardware cache-coherent shared-memory machine (Origin-2000-like).

    Cache geometry from section 4.1.1: per processor a unified 8 MB
    second-level cache with 128-byte blocks; 16 KB pages; the R10K/R12K TLB
    holds 64 entries.  Miss penalties are representative published figures
    for the Origin 2000 (local ~0.34 us, remote ~0.9 us memory latency);
    only ratios matter for speedup shapes.
    """

    name: str = "Origin 2000"
    nprocs: int = 16
    line_size: int = 128
    l2_bytes: int = 8 * 1024 * 1024
    l2_assoc: int = 2
    page_size: int = 16384
    tlb_entries: int = 64
    # Timing model knobs.
    cycle_time: float = 1.0 / 300e6  # 300 MHz R12000
    # Cycles per abstract work unit; the R12000 runs the same force
    # kernels ~3x faster than the cluster's Pentium II (paper: Moldyn
    # 33.7 s sequential vs 99.1 s), hence 150 vs the cluster's 500.
    work_cycles: float = 150.0
    l2_hit_time: float = 0.0  # folded into work_cycles
    l2_local_miss_time: float = 0.34e-6
    l2_remote_miss_time: float = 0.90e-6
    remote_fraction: float = 0.5  # fraction of misses served remotely
    tlb_miss_time: float = 0.20e-6  # software-refilled TLB exception
    barrier_time: float = 8.0e-6
    lock_time: float = 0.5e-6  # uncontended LL/SC lock

    def __post_init__(self) -> None:
        """Validate cache geometry at construction.

        The simulators index sets with ``key & (nsets - 1)``, which is only
        a set index when the set count is a power of two.  An invalid
        geometry is an error here — it is never silently rounded, because
        rounding changes cache capacity (and therefore every miss count)
        without a word.
        """
        for name in ("line_size", "page_size"):
            v = getattr(self, name)
            if v <= 0 or v & (v - 1):
                raise SimulationInputError(
                    f"{self.name}: {name} must be a positive power of two, got {v}"
                )
        if self.nprocs < 1:
            raise SimulationInputError(f"{self.name}: nprocs must be >= 1")
        if self.tlb_entries < 1:
            raise SimulationInputError(f"{self.name}: tlb_entries must be >= 1")
        if self.l2_assoc < 1:
            raise SimulationInputError(f"{self.name}: l2_assoc must be >= 1")
        if self.l2_bytes % (self.line_size * self.l2_assoc):
            raise SimulationInputError(
                f"{self.name}: l2_bytes ({self.l2_bytes}) must be a multiple of"
                f" line_size * l2_assoc ({self.line_size * self.l2_assoc})"
            )
        sets = self.l2_sets
        if sets < 1 or sets & (sets - 1):
            raise SimulationInputError(
                f"{self.name}: derived L2 set count {sets} is not a positive"
                f" power of two (l2_bytes={self.l2_bytes},"
                f" line_size={self.line_size}, l2_assoc={self.l2_assoc});"
                " adjust l2_bytes or l2_assoc"
            )

    @property
    def l2_lines(self) -> int:
        return self.l2_bytes // self.line_size

    @property
    def l2_sets(self) -> int:
        return self.l2_lines // self.l2_assoc

    def l2_miss_time(self) -> float:
        """Average L2 miss penalty, mixing local and remote service."""
        return (
            (1.0 - self.remote_fraction) * self.l2_local_miss_time
            + self.remote_fraction * self.l2_remote_miss_time
        )


@dataclass(frozen=True)
class ClusterParams:
    """A page-based software-DSM cluster (section 4.1.2).

    The timing constants are the paper's own measurements on the 16-node
    300 MHz Pentium II / 100 Mbps switched Ethernet platform:

    * 1-byte round trip: 126 us
    * lock acquire: 178-272 us (we use the midpoint)
    * 16-processor barrier: 643 us
    * diff fetch: 313-1544 us depending on size (we model it as a fixed
      request cost plus bytes at wire bandwidth, which spans that range)
    * full page fetch: 1308 us
    """

    name: str = "16-node Pentium II cluster"
    nprocs: int = 16
    page_size: int = 4096
    rtt_1byte: float = 126e-6
    lock_time: float = 225e-6
    barrier_time: float = 643e-6
    page_fetch_time: float = 1308e-6
    diff_request_time: float = 313e-6  # smallest measured diff time
    bandwidth: float = 100e6 / 8 * 0.7  # ~70% of 100 Mbps on the wire
    diff_overhead_bytes: int = 64  # per-diff header + run-length encoding
    write_notice_bytes: int = 16  # per write notice piggybacked at sync
    msg_header_bytes: int = 40  # UDP/IP + protocol header per message
    # Software send+receive processing per message (UDP socket syscalls,
    # protocol handling, interrupt) — the reason "TreadMarks sends many
    # more messages (though with the same amount of total data) for the
    # same degree of false sharing" costs it real time (paper section 5.2).
    msg_overhead_time: float = 40e-6
    cycle_time: float = 1.0 / 300e6  # 300 MHz Pentium II
    # Cycles per abstract work unit (one pair interaction / tree visit /
    # edge update).  Calibrated so the benchmarks' sequential times land in
    # the paper's compute-to-communication regime: the Chaos/SPLASH force
    # kernels spend several hundred Pentium II cycles per interaction
    # (sqrt, exp, div), e.g. Moldyn's measured 99.1 s sequential time over
    # ~128M pair-interactions x 40 iterations is ~580 cycles per pair.
    work_cycles: float = 500.0


#: The paper's hardware platform.
ORIGIN2000 = HardwareParams()

#: The paper's software-DSM platform (TreadMarks and HLRC share it).
CLUSTER_16 = ClusterParams()


def origin2000_scaled(scale: float, nprocs: int = 16) -> HardwareParams:
    """Origin 2000 with cache/TLB reach scaled down by ``scale``.

    Running the paper's workloads at 1/``scale`` of their problem size with
    an unscaled 8 MB L2 would hide all capacity behaviour; shrinking the
    cache and TLB by the same factor preserves the working-set-to-cache
    ratio.  Line and page *sizes* are kept — they set the false-sharing
    granularity, which is the paper's subject.

    The scaled cache is floored to a power-of-two line count (minimum 16
    lines), so the derived set count stays a power of two — the geometry
    :class:`HardwareParams` validates.  Power-of-two scales are exact;
    other scales shrink to the next valid geometry below (an explicit,
    documented rounding here, never a silent one inside the simulator).
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    lines = max(int(ORIGIN2000.l2_bytes / scale) // ORIGIN2000.line_size, 16)
    lines = 1 << (lines.bit_length() - 1)  # floor to power of two
    l2 = lines * ORIGIN2000.line_size
    tlb = max(int(ORIGIN2000.tlb_entries / scale), 8)
    return replace(
        ORIGIN2000,
        name=f"Origin 2000 (1/{scale:g} scale)",
        nprocs=nprocs,
        l2_bytes=l2,
        tlb_entries=tlb,
    )


def cluster_scaled(nprocs: int = 16, page_size: int = 4096) -> ClusterParams:
    """Cluster with a different processor count / page size (ablations)."""
    return replace(
        CLUSTER_16,
        name=f"{nprocs}-node cluster, {page_size}-byte pages",
        nprocs=nprocs,
        page_size=page_size,
    )
