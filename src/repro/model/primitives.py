"""Script primitives for the paper's analytical disk model (§6).

"The numbers of seeks, short seeks (a few cylinders), latencies (half
a revolution), lost revolutions, and transfer time were estimated by
analyzing and scripting the necessary operations."

A script is a list of steps; each step evaluates to milliseconds
against a :class:`~repro.disk.timing.DiskTiming` and geometry — the
*same* objects the simulator runs on, so model-vs-measurement
validation compares like with like.  ``MinusTransfer`` expresses the
paper's "revolution · 3 page transfers" idiom (a rotational wait of a
revolution less the pages that just passed under the head).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.disk.geometry import DiskGeometry
from repro.disk.timing import DiskTiming


@dataclass(frozen=True)
class Step:
    """One script step; ``evaluate`` returns its cost in ms."""

    label: str

    def evaluate(self, timing: DiskTiming, geometry: DiskGeometry) -> float:
        """Cost of this step in milliseconds."""
        raise NotImplementedError


@dataclass(frozen=True)
class Seek(Step):
    """A random (average) seek."""

    label: str = "seek"

    def evaluate(self, timing: DiskTiming, geometry: DiskGeometry) -> float:
        return timing.seek_ms(geometry.cylinders // 3)


@dataclass(frozen=True)
class ShortSeek(Step):
    """A seek of a few cylinders (metadata near the data)."""

    label: str = "short seek"

    def evaluate(self, timing: DiskTiming, geometry: DiskGeometry) -> float:
        return timing.short_seek_ms


@dataclass(frozen=True)
class Latency(Step):
    """Average rotational latency: half a revolution."""

    label: str = "latency"

    def evaluate(self, timing: DiskTiming, geometry: DiskGeometry) -> float:
        return timing.latency_ms


@dataclass(frozen=True)
class Revolution(Step):
    """One or more lost revolutions."""

    label: str = "revolution"
    count: float = 1.0

    def evaluate(self, timing: DiskTiming, geometry: DiskGeometry) -> float:
        return self.count * timing.rotation_ms


@dataclass(frozen=True)
class Transfer(Step):
    """Media transfer of ``sectors`` contiguous sectors."""

    label: str = "transfer"
    sectors: float = 1.0

    def evaluate(self, timing: DiskTiming, geometry: DiskGeometry) -> float:
        return timing.transfer_ms(self.sectors, geometry.sectors_per_track)


@dataclass(frozen=True)
class MinusTransfer(Step):
    """Negative transfer time: 'revolution less N page transfers'."""

    label: str = "minus transfer"
    sectors: float = 1.0

    def evaluate(self, timing: DiskTiming, geometry: DiskGeometry) -> float:
        return -timing.transfer_ms(self.sectors, geometry.sectors_per_track)


@dataclass(frozen=True)
class SeekOver(Step):
    """A seek across ``sectors`` consecutive sectors of the disk: known
    radial locality, such as the distance between the two copies of a
    name-table page."""

    label: str = "seek over"
    sectors: int = 0

    def evaluate(self, timing: DiskTiming, geometry: DiskGeometry) -> float:
        return timing.seek_ms(-(-self.sectors // geometry.sectors_per_cylinder))


@dataclass(frozen=True)
class SlotAhead(Step):
    """Known rotational locality: ``after`` (CPU, a seek), then the
    wait for a sector that starts ``sectors`` sector times after the
    end of the previous transfer and once a revolution from then on.
    When ``after`` fits in that gap the whole step costs the gap;
    otherwise the slot has gone by and every further revolution
    ``after`` runs into is lost: the gap plus that many revolutions."""

    label: str = "slot ahead"
    sectors: int = 0
    after: tuple[Step, ...] = ()

    def evaluate(self, timing: DiskTiming, geometry: DiskGeometry) -> float:
        busy = sum(step.evaluate(timing, geometry) for step in self.after)
        gap = timing.transfer_ms(
            self.sectors % geometry.sectors_per_track,
            geometry.sectors_per_track,
        )
        return busy + (gap - busy) % timing.rotation_ms


@dataclass(frozen=True)
class Cpu(Step):
    """Fixed CPU time.  The paper's model deliberately ignored CPU; the
    scripts include it optionally so the validation bench can show both
    the paper-faithful (CPU-free) and the corrected prediction."""

    label: str = "cpu"
    ms: float = 0.0

    def evaluate(self, timing: DiskTiming, geometry: DiskGeometry) -> float:
        return self.ms


@dataclass(frozen=True)
class Fraction(Step):
    """A fractional share of a sub-script: amortized costs such as one
    log force spread over the operations in a commit interval."""

    label: str = "amortized"
    steps: tuple[Step, ...] = ()
    weight: float = 1.0

    def evaluate(self, timing: DiskTiming, geometry: DiskGeometry) -> float:
        return self.weight * sum(
            step.evaluate(timing, geometry) for step in self.steps
        )


@dataclass
class Script:
    """A named operation script with hit/miss weighting.

    ``steps`` always run; ``miss_steps`` are added with probability
    ``miss_probability`` ("Hits for leaf nodes were modeled by simple
    probability distributions" — the weighted average of §6).
    """

    name: str
    steps: list[Step] = field(default_factory=list)
    miss_steps: list[Step] = field(default_factory=list)
    miss_probability: float = 0.0
    include_cpu: bool = True

    def evaluate(
        self, timing: DiskTiming, geometry: DiskGeometry
    ) -> float:
        """Predicted operation time: base steps + weighted miss steps."""
        total = self._sum(self.steps, timing, geometry)
        if self.miss_steps and self.miss_probability > 0:
            total += self.miss_probability * self._sum(
                self.miss_steps, timing, geometry
            )
        return total

    def _sum(
        self, steps: Sequence[Step], timing: DiskTiming, geometry: DiskGeometry
    ) -> float:
        return sum(
            step.evaluate(timing, geometry)
            for step in steps
            if self.include_cpu or not _is_pure_cpu(step)
        )

    def breakdown(
        self, timing: DiskTiming, geometry: DiskGeometry
    ) -> list[tuple[str, float]]:
        """Per-step (label, ms) rows, misses weighted by probability."""
        rows = [
            (step.label, step.evaluate(timing, geometry))
            for step in self.steps
        ]
        for step in self.miss_steps:
            rows.append(
                (
                    f"miss({self.miss_probability:.0%}): {step.label}",
                    self.miss_probability * step.evaluate(timing, geometry),
                )
            )
        return rows


def _is_pure_cpu(step: Step) -> bool:
    if isinstance(step, Cpu):
        return True
    if isinstance(step, Fraction):
        return all(_is_pure_cpu(inner) for inner in step.steps)
    return False
