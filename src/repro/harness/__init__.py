"""Experiment harness: adapters, measurement, scenarios, reporting."""

from repro.harness.adapters import CfsAdapter, FfsAdapter, FsdAdapter
from repro.harness.report import Row, Table, ratio
from repro.harness.runner import Measurement, measure
from repro.harness.scenarios import (
    FULL,
    SMALL,
    Scale,
    cfs_volume,
    ffs_volume,
    fsd_volume,
    populate,
    populate_recovery_volume,
)

__all__ = [
    "CfsAdapter",
    "FULL",
    "FfsAdapter",
    "FsdAdapter",
    "Measurement",
    "Row",
    "SMALL",
    "Scale",
    "Table",
    "cfs_volume",
    "ffs_volume",
    "fsd_volume",
    "measure",
    "populate",
    "populate_recovery_volume",
    "ratio",
]
