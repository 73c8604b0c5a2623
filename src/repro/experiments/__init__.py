"""Experiment harness: regenerate every table and figure of the paper."""

from .adaptive import (
    ADAPTIVE_POLICIES,
    DYNAMIC_APPS,
    AdaptiveCell,
    AdaptiveSpec,
    adaptive_breakeven,
    breakeven_report,
    run_policy,
)
from .ablations import (
    curve_quality,
    object_size_sweep,
    page_size_sweep,
    sequential_locality,
)
from .figures import fig1_fig4, fig2_fig5, fig3, fig6, fig7, fig8_fig9
from .runner import (
    RunRecord,
    Scale,
    clear_cache,
    make_app,
    prefetch_outcomes,
    prefetch_traces,
    run_cells,
    run_one,
    run_suite,
    versions_for,
)
from .analysis import Diagnosis, diagnose
from .message_passing import (
    MessagePassingResult,
    dsm_overhead,
    ideal_message_passing,
)
from .scaling import ScalingPoint, scaling_curve
from .sweep import SweepGrid, SweepPlan, parse_grid
from .tables import table1, table2, table3, table4
from .tune import (
    CandidateScore,
    RecommendationLibrary,
    TuneResult,
    TuneSpec,
    default_candidates,
    tune,
)

__all__ = [
    "Scale",
    "RunRecord",
    "run_one",
    "run_cells",
    "run_suite",
    "make_app",
    "versions_for",
    "clear_cache",
    "prefetch_outcomes",
    "prefetch_traces",
    "fig1_fig4",
    "fig2_fig5",
    "fig3",
    "fig6",
    "fig7",
    "fig8_fig9",
    "table1",
    "table2",
    "table3",
    "table4",
    "page_size_sweep",
    "object_size_sweep",
    "curve_quality",
    "sequential_locality",
    "scaling_curve",
    "ScalingPoint",
    "SweepGrid",
    "SweepPlan",
    "parse_grid",
    "ideal_message_passing",
    "dsm_overhead",
    "MessagePassingResult",
    "diagnose",
    "Diagnosis",
    "TuneSpec",
    "TuneResult",
    "CandidateScore",
    "RecommendationLibrary",
    "tune",
    "default_candidates",
    "ADAPTIVE_POLICIES",
    "DYNAMIC_APPS",
    "AdaptiveSpec",
    "AdaptiveCell",
    "run_policy",
    "adaptive_breakeven",
    "breakeven_report",
]
