"""Run (extent) allocator with big/small file areas (paper §5.6).

CFS' allocator "tended to fragment the free space: large free blocks
were broken up by small files."  FSD curtails this by partitioning the
disk into a small-file area and a big-file area — *hints*, not hard
boundaries: like a heap growing up and a stack growing down, small
files are allocated ascending from just above the central metadata and
big files descending from just below it, and either may overflow into
the other's area before the volume is declared full.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.layout import VolumeLayout
from repro.core.types import Run, RunTable
from repro.core.vam import VolumeAllocationMap
from repro.errors import VolumeFull


@dataclass
class AllocatorStats:
    allocations: int = 0
    runs_handed_out: int = 0
    sectors_handed_out: int = 0
    overflow_allocations: int = 0  # satisfied from the "wrong" area


class RunAllocator:
    """Next-fit run allocator over the VAM's two data areas."""

    def __init__(self, vam: VolumeAllocationMap, layout: VolumeLayout):
        self.vam = vam
        self.layout = layout
        self.stats = AllocatorStats()
        self._small_cursor = layout.small_area.start

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------
    def allocate(self, sectors: int, big: bool) -> RunTable:
        """Allocate ``sectors`` as one or more runs; raises VolumeFull
        (after rolling back) when the volume cannot satisfy it."""
        if sectors <= 0:
            raise VolumeFull(f"bad allocation request {sectors}")
        table = RunTable()
        remaining = sectors
        overflowed = False
        areas = ("big", "small") if big else ("small", "big")
        for index, area in enumerate(areas):
            remaining = self._allocate_from(area, remaining, table)
            if remaining == 0:
                break
            if index == 0:
                overflowed = True
        if remaining > 0:
            for run in table.runs:
                self.vam.mark_free(run)
            raise VolumeFull(
                f"needed {sectors} sectors, volume short by {remaining}"
            )
        if len(table.runs) > self.layout.params.max_file_runs:
            for run in table.runs:
                self.vam.mark_free(run)
            raise VolumeFull(
                f"allocation fragmented into {len(table.runs)} runs "
                f"(limit {self.layout.params.max_file_runs})"
            )
        self.stats.allocations += 1
        self.stats.runs_handed_out += len(table.runs)
        self.stats.sectors_handed_out += sectors
        if overflowed:
            self.stats.overflow_allocations += 1
        return table

    def free(self, runs: RunTable | list[Run], deferred: bool = True) -> None:
        """Release runs; ``deferred`` routes them through the shadow
        bitmap so they only become allocatable at the next commit."""
        run_list = runs.runs if isinstance(runs, RunTable) else runs
        for run in run_list:
            if deferred:
                self.vam.shadow_free(run)
            else:
                self.vam.mark_free(run)

    # ------------------------------------------------------------------
    # per-area next-fit
    # ------------------------------------------------------------------
    def _allocate_from(self, area: str, want: int, table: RunTable) -> int:
        """Allocate up to ``want`` sectors from one area; returns how
        many are still needed.

        The small area uses a next-fit cursor (creates are frequent and
        sequential placement keeps them cheap); the big area is
        first-fit from the top, so space freed by deleted large files
        is reused and large files on an aged volume acquire the
        multi-run tables they would have in service.
        """
        if area == "small":
            bounds = self.layout.small_area
            ascending = True
        else:
            bounds = self.layout.big_area
            ascending = False
        wrapped = False
        remaining = want
        end_limit = bounds.end
        while remaining > 0:
            if ascending:
                run = self.vam.find_free_run(
                    self._small_cursor, bounds.end, remaining, ascending=True
                )
            else:
                run = self.vam.find_free_run(
                    bounds.start, end_limit, remaining, ascending=False
                )
            if run is None:
                if ascending:
                    if wrapped or self._small_cursor == bounds.start:
                        break
                    wrapped = True
                    # Next-fit wrap: restart the cursor once per request.
                    self._small_cursor = bounds.start
                    continue
                break
            self.vam.mark_allocated(run)
            table.append(run)
            remaining -= run.count
            if ascending:
                self._small_cursor = run.end
            else:
                end_limit = run.start
        return remaining
