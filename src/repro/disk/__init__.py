"""Disk simulator substrate: geometry, timing, virtual clock, faults.

This package stands in for the paper's Dorado + Trident hardware.  All
"wall clock" numbers in the reproduced tables are the virtual
milliseconds accumulated here.
"""

from repro.disk.clock import CpuCostModel, SimClock, TimerEvent
from repro.disk.disk import FREE_LABEL, LABEL_BYTES, SimDisk
from repro.disk.faults import CrashPlan, FaultInjector
from repro.disk.mirror import MirroredDisk
from repro.disk.geometry import DiskGeometry, SMALL_DISK, TRIDENT_T300
from repro.disk.sched import IoScheduler, as_scheduler
from repro.disk.stats import DiskStats, StatsWindow
from repro.disk.trace import IoEvent, IoTracer
from repro.disk.timing import DiskTiming, TRIDENT_TIMING

__all__ = [
    "CpuCostModel",
    "CrashPlan",
    "DiskGeometry",
    "DiskStats",
    "DiskTiming",
    "FaultInjector",
    "IoEvent",
    "IoScheduler",
    "IoTracer",
    "FREE_LABEL",
    "LABEL_BYTES",
    "MirroredDisk",
    "SMALL_DISK",
    "SimClock",
    "SimDisk",
    "StatsWindow",
    "TimerEvent",
    "TRIDENT_T300",
    "TRIDENT_TIMING",
    "as_scheduler",
]
