"""Synthetic workloads with the paper's distributions and hot spots."""

from repro.workloads.generators import (
    BulkUpdateWorkload,
    PaperFileSizes,
    payload,
    small_fraction_stats,
)
from repro.workloads.makedo import MakeDoWorkload
from repro.workloads.traffic import (
    TrafficConfig,
    TrafficEngine,
    TrafficReport,
    percentile,
)

__all__ = [
    "BulkUpdateWorkload",
    "MakeDoWorkload",
    "PaperFileSizes",
    "payload",
    "small_fraction_stats",
    "TrafficConfig",
    "TrafficEngine",
    "TrafficReport",
    "percentile",
]
