"""Measurement plumbing shared by every benchmark.

Benchmarks measure *virtual* milliseconds and disk I/O counts, the two
metrics the paper's tables report.  A :class:`Measurement` window
snapshots the clock and the disk counters around a callable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.disk.disk import SimDisk
from repro.disk.stats import DiskStats


@dataclass
class Measurement:
    elapsed_ms: float
    cpu_ms: float
    disk_ms: float
    io: DiskStats
    result: object = None
    #: obs metrics delta over the window (when ``measure`` got an
    #: observer).
    obs_delta: object = None


def measure(
    disk: SimDisk, fn: Callable[[], object], obs=None
) -> Measurement:
    """Run ``fn`` and capture elapsed virtual time and I/O deltas.

    With an :class:`~repro.obs.Observer` in ``obs``, the measurement
    also carries the metrics delta over the window (the obs analogue of
    the ``DiskStats`` subtraction happening next to it).
    """
    clock = disk.clock
    start = clock.snapshot()
    io_start = disk.stats.copy()
    obs_start = obs.snapshot() if obs is not None else None
    result = fn()
    end = clock.snapshot()
    return Measurement(
        elapsed_ms=end["now_ms"] - start["now_ms"],
        cpu_ms=end["cpu_busy_ms"] - start["cpu_busy_ms"],
        disk_ms=end["disk_busy_ms"] - start["disk_busy_ms"],
        io=disk.stats - io_start,
        result=result,
        obs_delta=(
            obs.snapshot() - obs_start if obs_start is not None else None
        ),
    )
