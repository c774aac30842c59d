"""Disk timing model: the quantities the paper's §6 model is built on.

The paper's analytical model scripts operations in terms of *seeks*,
*short seeks* (a few cylinders), *latencies* (half a revolution),
*lost revolutions*, and *transfer time*.  This module defines those
quantities for the simulator, and the analytic model in
:mod:`repro.model` evaluates its scripts against the very same object,
so model-vs-simulation validation compares like with like.

Seek time follows the classic settle-plus-square-root curve; the
default constants give ~6 ms track-to-track, ~30 ms average, ~50 ms
full stroke — a late-1970s Trident-class drive at 3600 RPM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class DiskTiming:
    """Timing constants of a simulated drive."""

    rotation_ms: float = 16.67
    seek_settle_ms: float = 5.5       # fixed cost of any head motion
    seek_coeff_ms: float = 1.55       # multiplies sqrt(cylinder distance)
    #: Cylinder distance at or under which a seek counts as "short"
    #: in the paper's model ("a few cylinders").
    short_seek_cylinders: int = 4

    # ------------------------------------------------------------------
    # primitive times (the model's vocabulary)
    # ------------------------------------------------------------------
    def seek_ms(self, cylinder_distance: int) -> float:
        """Time to move the heads ``cylinder_distance`` cylinders."""
        if cylinder_distance < 0:
            raise ValueError("negative cylinder distance")
        if cylinder_distance == 0:
            return 0.0
        return self.seek_settle_ms + self.seek_coeff_ms * math.sqrt(
            cylinder_distance
        )

    @property
    def short_seek_ms(self) -> float:
        """Representative "short seek" (a few cylinders) used by scripts."""
        return self.seek_ms(self.short_seek_cylinders)

    @property
    def average_seek_ms(self) -> float:
        """Seek over one third of the stroke of an 830-cylinder drive,
        the usual random-seek approximation."""
        return self.seek_ms(830 // 3)

    @property
    def latency_ms(self) -> float:
        """Average rotational latency: half a revolution."""
        return self.rotation_ms / 2.0

    def sector_time_ms(self, sectors_per_track: int) -> float:
        """Time for one sector to pass under the head."""
        return self.rotation_ms / sectors_per_track

    def transfer_ms(self, sector_count: int, sectors_per_track: int) -> float:
        """Media transfer time for ``sector_count`` contiguous sectors.

        Track and cylinder switches during a long transfer are assumed
        to be hidden by track skew (as formatted drives of the era did),
        so a contiguous run transfers at the full media rate.
        """
        if sector_count < 0:
            raise ValueError("negative sector count")
        return sector_count * self.sector_time_ms(sectors_per_track)

    def track_bandwidth_bytes_per_ms(
        self, sectors_per_track: int, sector_bytes: int
    ) -> float:
        """Raw media bandwidth: one track per revolution."""
        return sectors_per_track * sector_bytes / self.rotation_ms


#: Timing used throughout the benchmarks.
TRIDENT_TIMING = DiskTiming()
