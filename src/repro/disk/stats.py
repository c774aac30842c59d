"""I/O accounting.

The paper's Tables 3 and 4 are measured in "disk I/O's": one I/O is one
disk operation regardless of how many contiguous sectors it transfers
(a 33-sector log record write is a single I/O).  :class:`DiskStats`
counts both I/Os and sectors, plus a breakdown of where the time went,
so benchmarks can report either metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class DiskStats:
    """Cumulative disk counters; subtract snapshots to get deltas."""

    reads: int = 0
    writes: int = 0
    label_reads: int = 0
    label_writes: int = 0
    sectors_read: int = 0
    sectors_written: int = 0
    seek_ms: float = 0.0
    rotational_ms: float = 0.0
    transfer_ms: float = 0.0
    seeks: int = 0
    short_seeks: int = 0

    @property
    def total_ios(self) -> int:
        """Total disk operations (data + label-only I/Os)."""
        return self.reads + self.writes + self.label_reads + self.label_writes

    @property
    def busy_ms(self) -> float:
        return self.seek_ms + self.rotational_ms + self.transfer_ms

    def copy(self) -> "DiskStats":
        """Independent snapshot of the counters."""
        return DiskStats(**{f.name: getattr(self, f.name) for f in fields(self)})

    def __sub__(self, other: "DiskStats") -> "DiskStats":
        return DiskStats(
            **{
                f.name: getattr(self, f.name) - getattr(other, f.name)
                for f in fields(self)
            }
        )

    def as_dict(self) -> dict[str, float]:
        """All counters (plus total_ios) as a plain dict."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["total_ios"] = self.total_ios
        return data


@dataclass
class StatsWindow:
    """Convenience: measure counter deltas across a code region.

    >>> window = StatsWindow(disk.stats)
    >>> ...  # run the workload
    >>> delta = window.delta(disk.stats)
    """

    start: DiskStats = field(default_factory=DiskStats)

    def __post_init__(self) -> None:
        self.start = self.start.copy()

    def delta(self, current: DiskStats) -> DiskStats:
        """Counters accumulated since the window opened."""
        return current - self.start
