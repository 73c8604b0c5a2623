"""Simulated shared-memory platforms.

* :mod:`repro.machines.hardware` — Origin-2000-style cache-coherent machine
  (per-CPU L2 + TLB, directory write-invalidate coherence).
* :mod:`repro.machines.dsm` — page-based software DSMs: TreadMarks-style
  homeless LRC and home-based HLRC.
* :mod:`repro.machines.params` — machine parameter sets, including the
  paper's measured network constants.
"""

from .kernels import (
    SetAssocSweep,
    StreamResult,
    collapse_runs,
    lru_kernel,
    miss_curve,
    reuse_distances,
    setassoc_kernel,
    stack_distance_histogram,
)
from .dsm import (
    DSMResult,
    simulate_dsm_sweep,
    simulate_hlrc,
    simulate_treadmarks,
)
from .hardware import HardwareResult, simulate_hardware, simulate_hardware_sweep
from .params import (
    CLUSTER_16,
    ORIGIN2000,
    ClusterParams,
    HardwareParams,
    cluster_scaled,
    origin2000_scaled,
)

__all__ = [
    "collapse_runs",
    "StreamResult",
    "lru_kernel",
    "setassoc_kernel",
    "reuse_distances",
    "stack_distance_histogram",
    "miss_curve",
    "SetAssocSweep",
    "simulate_hardware_sweep",
    "HardwareParams",
    "ClusterParams",
    "ORIGIN2000",
    "CLUSTER_16",
    "origin2000_scaled",
    "cluster_scaled",
    "simulate_hardware",
    "HardwareResult",
    "simulate_treadmarks",
    "simulate_hlrc",
    "simulate_dsm_sweep",
    "DSMResult",
]
