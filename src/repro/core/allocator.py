"""Run (extent) allocator with big/small file areas (paper §5.6).

CFS' allocator "tended to fragment the free space: large free blocks
were broken up by small files."  FSD curtails this by partitioning the
disk into a small-file area and a big-file area — *hints*, not hard
boundaries: like a heap growing up and a stack growing down, small
files are allocated ascending from just above the central metadata and
big files descending from just below it, and either may overflow into
the other's area before the volume is declared full.

Where the next small file starts is a question of the disk clock (the
§6 model prices every operation in seeks, latencies and lost
revolutions).  Three rules keep back-to-back small-file I/O from losing
a revolution and a file from being split:

* **next-fit survives a mount.**  The small-area cursor starts one
  sector past the highest allocated sector of the small area in the
  VAM it is handed — rebuilt after a crash or loaded after a clean
  unmount alike — so a remounted volume places its next file where a
  running one would, and the holes earlier deletes left below the
  cursor wait for the wrap instead of splitting new files.
* **a rotational gap between new files.**  A new file with data in the
  small area is searched for :data:`SMALL_FILE_GAP` sectors past the
  cursor, so the create path's CPU between one file's write and the
  next (and a read-back in creation order) finds the next file's first
  sector still ahead of the head.  Big files (in either area) and
  zero-byte files get no gap.
* **extensions grow in place, requests land whole.**  A file that grows
  first takes the free sectors right after its last sector (the gap in
  front of the next file is its room to grow); a small-area request
  takes the first free run past the cursor that holds it whole, and is
  split over holes only when no run anywhere in the area does.  Until
  the cursor wraps, everything past it is free, so this is plain
  next-fit; after the wrap it keeps new files out of the gaps.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.layout import VolumeLayout
from repro.core.types import Run, RunTable
from repro.core.vam import VolumeAllocationMap
from repro.errors import VolumeFull

#: Sectors left free in front of each new small file.  Between the end
#: of one small create's write and the next one's, the create path
#: spends 0.7–1.3 ms of CPU, and reading the files back in creation
#: order leaves about 0.7 ms between reads; on the T-300 (30 slots per
#: 16.67 ms revolution, 0.56 ms a slot) that is 1.3–2.3 slots, so with
#: no gap the next file's first sector has just passed under the head
#: and the I/O waits a whole revolution.  Measured on ``crash_recovery``
#: (seed 1, simulated seconds): gap 2 → 229.9, 3 → 208.0, 4 → 211.6 —
#: 2 still loses the revolution after the slower creates, 4 and up pay
#: the extra slot on every I/O that would have caught 3.
SMALL_FILE_GAP = 3


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
        area = layout.small_area
        top = vam.last_allocated(area.start, area.end)
        # Resume next-fit past the highest small-area allocation (the
        # area's start on an empty area or when the top sector is used).
        self._small_cursor = (
            area.start if top is None or top + 1 >= area.end else top + 1
        )

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------
    def allocate(
        self, sectors: int, big: bool, new_file: bool = False
    ) -> RunTable:
        """Allocate ``sectors`` as one or more runs; raises VolumeFull
        (after rolling back) when the volume cannot satisfy it.
        ``new_file`` starts a small file's search :data:`SMALL_FILE_GAP`
        sectors past the cursor (see the module docstring)."""
        if sectors <= 0:
            raise VolumeFull(f"bad allocation request {sectors}")
        table = RunTable()
        if big:
            remaining = self._allocate_big(sectors, table)
            overflowed = remaining > 0
            if overflowed:
                remaining = self._allocate_small(remaining, table, 0)
        else:
            gap = SMALL_FILE_GAP if new_file else 0
            remaining = self._allocate_small(sectors, table, gap)
            overflowed = remaining > 0
            if overflowed:
                remaining = self._allocate_big(remaining, table)
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
        self._count(table, sectors, overflowed)
        return table

    def extend(self, after: int, sectors: int, big: bool) -> RunTable:
        """Allocate ``sectors`` more for a file whose last sector is
        ``after - 1``: the free sectors starting at ``after`` when the
        whole extension fits there inside the same area, otherwise as
        :meth:`allocate` places them."""
        for area in (self.layout.small_area, self.layout.big_area):
            if area.start < after <= area.end:
                end = min(after + sectors, area.end)
                run = self.vam.find_whole_run(after, end, sectors)
                if run is not None:
                    self.vam.mark_allocated(run)
                    if after <= self._small_cursor < run.end:
                        # Past the cursor stays free (until the wrap).
                        self._small_cursor = run.end
                    table = RunTable()
                    table.append(run)
                    self._count(table, sectors, False)
                    return table
                break
        return self.allocate(sectors, big)

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
    # per-area placement
    # ------------------------------------------------------------------
    def _count(self, table: RunTable, sectors: int, overflowed: bool) -> None:
        self.stats.allocations += 1
        self.stats.runs_handed_out += len(table.runs)
        self.stats.sectors_handed_out += sectors
        if overflowed:
            self.stats.overflow_allocations += 1

    def _allocate_small(self, want: int, table: RunTable, gap: int) -> int:
        """Allocate up to ``want`` sectors from the small area; returns
        how many are still needed.

        Next-fit from the cursor (creates are frequent and sequential
        placement keeps them cheap), ``gap`` sectors past it: the first
        run that holds the request whole, past the cursor and then from
        the bottom of the area; only when none does is the request
        split over holes, from the cursor and wrapping once.
        """
        bounds = self.layout.small_area
        vam = self.vam
        start = min(self._small_cursor + gap, bounds.end)
        run = vam.find_free_run(start, bounds.end, want)
        if run is None or run.count < want:
            # Only an aged area gets here: the cursor has wrapped or
            # reached the area's end.
            run = vam.find_whole_run(
                start, bounds.end, want
            ) or vam.find_whole_run(bounds.start, bounds.end, want)
        if run is not None:
            vam.mark_allocated(run)
            table.append(run)
            self._small_cursor = run.end
            return 0
        wrapped = False
        remaining = want
        while remaining > 0:
            run = vam.find_free_run(self._small_cursor, bounds.end, remaining)
            if run is None:
                if wrapped or self._small_cursor == bounds.start:
                    break
                wrapped = True
                self._small_cursor = bounds.start
                continue
            vam.mark_allocated(run)
            table.append(run)
            remaining -= run.count
            self._small_cursor = run.end
        return remaining

    def _allocate_big(self, want: int, table: RunTable) -> int:
        """Allocate up to ``want`` sectors from the big area, first-fit
        from the top, so space freed by deleted large files is reused
        and large files on an aged volume acquire the multi-run tables
        they would have in service; returns how many are still needed.
        """
        bounds = self.layout.big_area
        remaining = want
        end_limit = bounds.end
        while remaining > 0:
            run = self.vam.find_free_run(
                bounds.start, end_limit, remaining, ascending=False
            )
            if run is None:
                break
            self.vam.mark_allocated(run)
            table.append(run)
            remaining -= run.count
            end_limit = run.start
        return remaining
