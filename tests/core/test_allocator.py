"""Unit tests for the big/small-area run allocator."""

from __future__ import annotations

import pytest

from repro.core.allocator import RunAllocator
from repro.core.layout import VolumeLayout, VolumeParams
from repro.core.types import Run
from repro.core.vam import VolumeAllocationMap
from repro.disk.geometry import DiskGeometry
from repro.errors import VolumeFull

GEO = DiskGeometry(cylinders=120, heads=8, sectors_per_track=24)
PARAMS = VolumeParams(nt_pages=512, log_record_sectors=300, max_file_runs=64)


@pytest.fixture
def setup():
    layout = VolumeLayout.compute(GEO, PARAMS)
    vam = VolumeAllocationMap(GEO.total_sectors)
    for run in layout.metadata_runs():
        vam.mark_allocated(run)
    return layout, vam, RunAllocator(vam, layout)


class TestAreas:
    def test_small_files_go_above_the_metadata(self, setup):
        layout, vam, allocator = setup
        table = allocator.allocate(10, big=False)
        assert table.runs[0].start >= layout.small_area.start

    def test_big_files_go_below_the_metadata(self, setup):
        layout, vam, allocator = setup
        table = allocator.allocate(100, big=True)
        assert table.runs[0].end <= layout.big_area.end
        assert table.runs[0].start >= layout.big_area.start

    def test_small_allocations_are_sequential(self, setup):
        _, _, allocator = setup
        first = allocator.allocate(4, big=False)
        second = allocator.allocate(4, big=False)
        assert second.runs[0].start == first.runs[0].end

    def test_big_first_fit_from_top_reuses_holes(self, setup):
        """Freed big-area space is found again (first-fit from end)."""
        _, vam, allocator = setup
        a = allocator.allocate(50, big=True)
        b = allocator.allocate(50, big=True)
        allocator.free(a, deferred=False)
        c = allocator.allocate(30, big=True)
        assert c.runs[0].start >= a.runs[0].start
        assert c.runs[0].end <= a.runs[0].end

    def test_fragmented_hole_yields_multiple_runs(self, setup):
        _, vam, allocator = setup
        chunks = [allocator.allocate(10, big=True) for _ in range(6)]
        for chunk in chunks[::2]:
            allocator.free(chunk, deferred=False)
        table = allocator.allocate(25, big=True)
        assert len(table.runs) >= 2
        assert table.total_sectors == 25


class TestOverflow:
    def test_small_overflows_into_big(self, setup):
        layout, vam, allocator = setup
        # Exhaust the small area.
        vam.mark_allocated(
            Run(layout.small_area.start, layout.small_area.count)
        )
        table = allocator.allocate(5, big=False)
        assert table.total_sectors == 5
        assert table.runs[0].end <= layout.big_area.end
        assert allocator.stats.overflow_allocations == 1

    def test_volume_full_rolls_back(self, setup):
        layout, vam, allocator = setup
        free_before = vam.free_count
        with pytest.raises(VolumeFull):
            allocator.allocate(GEO.total_sectors, big=False)
        assert vam.free_count == free_before

    def test_zero_request_rejected(self, setup):
        _, _, allocator = setup
        with pytest.raises(VolumeFull):
            allocator.allocate(0, big=False)

    def test_max_runs_enforced(self, setup):
        layout, vam, allocator = setup
        # Riddle the small area with single-sector holes.
        start = layout.small_area.start
        vam.mark_allocated(Run(start, 512))
        for sector in range(start, start + 512, 2):
            vam.mark_free(Run(sector, 1))
        # Block the rest of the disk so the request must use the holes.
        blocker_small = Run(start + 512, layout.small_area.end - start - 512)
        vam.mark_allocated(blocker_small)
        vam.mark_allocated(Run(layout.big_area.start, layout.big_area.count))
        free_before = vam.free_count
        with pytest.raises(VolumeFull):
            allocator.allocate(100, big=False)  # would need 100 runs > 64
        assert vam.free_count == free_before


class TestDeferredFree:
    def test_deferred_free_goes_through_shadow(self, setup):
        _, vam, allocator = setup
        table = allocator.allocate(8, big=False)
        allocator.free(table)
        assert vam.shadow_sectors == 8
        assert not vam.is_free(table.runs[0].start)
        vam.commit_shadow()
        assert vam.is_free(table.runs[0].start)

    def test_immediate_free(self, setup):
        _, vam, allocator = setup
        table = allocator.allocate(8, big=False)
        allocator.free(table, deferred=False)
        assert vam.is_free(table.runs[0].start)

    def test_free_accepts_plain_run_list(self, setup):
        _, vam, allocator = setup
        table = allocator.allocate(3, big=False)
        allocator.free(list(table.runs), deferred=False)
        assert vam.is_free(table.runs[0].start)


class TestStats:
    def test_counters(self, setup):
        _, _, allocator = setup
        allocator.allocate(4, big=False)
        allocator.allocate(6, big=True)
        stats = allocator.stats
        assert stats.allocations == 2
        assert stats.sectors_handed_out == 10
        assert stats.runs_handed_out >= 2
