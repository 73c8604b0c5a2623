"""The five irregular benchmarks of the paper's evaluation.

Category 1 (tree/grid computation partition): :class:`BarnesHut`,
:class:`FMM`, :class:`WaterSpatial`.  Category 2 (block partition +
interaction lists): :class:`Moldyn`, :class:`Unstructured`.
"""

from .base import (
    AppConfig,
    Application,
    block_partition,
    reorder_cycles,
    reorder_work_units,
    scatter_add,
)
from .barnes_hut import BarnesHut
from .fmm import FMM
from .moldyn import Moldyn, build_interaction_list
from .unstructured import Unstructured
from .water_spatial import WaterSpatial

#: Registry in the paper's presentation order.
APP_REGISTRY: dict[str, type[Application]] = {
    "barnes-hut": BarnesHut,
    "fmm": FMM,
    "water-spatial": WaterSpatial,
    "moldyn": Moldyn,
    "unstructured": Unstructured,
}

__all__ = [
    "AppConfig",
    "Application",
    "scatter_add",
    "block_partition",
    "reorder_cycles",
    "reorder_work_units",
    "BarnesHut",
    "FMM",
    "WaterSpatial",
    "Moldyn",
    "Unstructured",
    "build_interaction_list",
    "APP_REGISTRY",
]
