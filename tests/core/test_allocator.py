"""Unit tests for the big/small-area run allocator."""

from __future__ import annotations

import pytest

from repro.core.allocator import SMALL_FILE_GAP, RunAllocator
from repro.core.fsd import FSD
from repro.core.layout import VolumeLayout, VolumeParams
from repro.core.types import Run
from repro.core.vam import VolumeAllocationMap
from repro.disk.disk import SimDisk
from repro.disk.geometry import TRIDENT_T300, DiskGeometry
from repro.disk.trace import IoTracer
from repro.errors import VolumeFull
from tests.conftest import TEST_FSD_PARAMS, TEST_GEOMETRY

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


class TestRotationalGap:
    def test_new_small_file_starts_a_gap_past_the_last(self, setup):
        _, _, allocator = setup
        first = allocator.allocate(4, big=False, new_file=True)
        second = allocator.allocate(4, big=False, new_file=True)
        assert second.runs[0].start == first.runs[0].end + SMALL_FILE_GAP

    def test_big_new_file_gets_no_gap(self, setup):
        """Big files are first-fit from the top of the big area."""
        layout, _, allocator = setup
        table = allocator.allocate(100, big=True, new_file=True)
        assert table.runs == [Run(layout.big_area.end - 100, 100)]

    def test_big_file_overflowing_into_the_small_area_gets_no_gap(
        self, setup
    ):
        layout, vam, allocator = setup
        vam.mark_allocated(layout.big_area)
        table = allocator.allocate(5, big=True, new_file=True)
        assert table.runs == [Run(layout.small_area.start, 5)]
        assert allocator.stats.overflow_allocations == 1

    def test_extension_gets_no_gap(self):
        """Growing a small file continues its last run."""
        disk = SimDisk(geometry=TEST_GEOMETRY)
        FSD.format(disk, TEST_FSD_PARAMS)
        fs = FSD.mount(disk)
        handle = fs.create("grow", b"a" * 600)
        fs.write(handle, 600, b"b" * 2000)
        assert len(handle.runs.runs) == 1
        assert handle.runs.runs[0].start == handle.props.leader_addr + 1

    def test_extension_grows_into_its_own_gap(self):
        """A file that is no longer the last one placed first takes the
        free sectors right after its last run — the gap in front of the
        next file — and stays one run."""
        disk = SimDisk(geometry=TEST_GEOMETRY)
        FSD.format(disk, TEST_FSD_PARAMS)
        fs = FSD.mount(disk)
        sector = disk.geometry.sector_bytes
        handle = fs.create("grow", b"a" * sector)
        after = fs.create("after", b"b" * sector)
        fs.write(handle, sector, b"c" * sector * SMALL_FILE_GAP)
        assert handle.runs.runs == [
            Run(handle.props.leader_addr + 1, 1 + SMALL_FILE_GAP)
        ]
        assert handle.runs.runs[0].end == after.props.leader_addr
        # One sector more does not fit in place: it goes to the cursor.
        fs.write(handle, sector * (1 + SMALL_FILE_GAP), b"d")
        assert len(handle.runs.runs) == 2
        assert handle.runs.runs[1].start == after.runs.runs[-1].end

    def test_extension_of_an_empty_file_follows_its_leader(self):
        disk = SimDisk(geometry=TEST_GEOMETRY)
        FSD.format(disk, TEST_FSD_PARAMS)
        fs = FSD.mount(disk)
        handle = fs.create("empty", b"")
        fs.create("next", b"n" * 100)
        fs.write(handle, 0, b"e" * 100)
        assert handle.runs.runs == [Run(handle.props.leader_addr + 1, 1)]

    def test_big_and_empty_creates_get_no_gap(self):
        disk = SimDisk(geometry=TEST_GEOMETRY)
        FSD.format(disk, TEST_FSD_PARAMS)
        fs = FSD.mount(disk)
        small = fs.layout.small_area
        big = fs.layout.big_area
        empty = fs.create("empty", b"")
        assert empty.props.leader_addr == small.start
        # The next file with data leaves the gap past the empty one.
        data = fs.create("data", b"d" * 100)
        assert data.props.leader_addr == small.start + 1 + SMALL_FILE_GAP
        size = fs.params.big_file_threshold_bytes
        large = fs.create("large", b"L" * size)
        sectors = 1 + size // disk.geometry.sector_bytes
        assert large.props.leader_addr == big.end - sectors

    def test_t300_back_to_back_creates_catch_their_sector(self):
        """On the T-300 the second of two back-to-back small creates
        starts SMALL_FILE_GAP sectors past the first file's end, and
        its combined leader+data write waits less than that gap: the
        head reaches the sector before it passes, no lost revolution
        (without the gap the create path's CPU lets it go by)."""
        disk = SimDisk(geometry=TRIDENT_T300)
        FSD.format(disk, VolumeParams())
        fs = FSD.mount(disk)
        fs.create("warm/up", b"w" * 1000)
        first = fs.create("pair/one", b"1" * 1000)
        tracer = IoTracer()
        disk.tracer = tracer
        second = fs.create("pair/two", b"2" * 1000)
        first_end = first.runs.runs[-1].end
        assert second.props.leader_addr == first_end + SMALL_FILE_GAP
        (write,) = tracer.events
        assert write.address == second.props.leader_addr
        slot = disk.timing.sector_time_ms(TRIDENT_T300.sectors_per_track)
        assert write.cylinder_distance == 0
        assert write.rotational_ms < SMALL_FILE_GAP * slot


class TestAgedArea:
    """Once the cursor has wrapped, a request takes a run that holds it
    whole, and is split over holes only when no run does."""

    @pytest.fixture
    def holes(self, setup):
        """Small area all allocated but three holes: 3 sectors at the
        bottom, 3 at +13 and 8 at +30; the cursor sits at +20."""
        layout, vam, _ = setup
        start = layout.small_area.start
        vam.mark_allocated(Run(start, layout.small_area.count))
        for hole in (Run(start, 3), Run(start + 13, 3), Run(start + 30, 8)):
            vam.mark_free(hole)
        allocator = RunAllocator(vam, layout)
        allocator._small_cursor = start + 20
        return start, allocator

    def test_whole_run_past_the_cursor_skips_the_gaps(self, holes):
        start, allocator = holes
        table = allocator.allocate(5, big=False, new_file=True)
        assert table.runs == [Run(start + 30, 5)]

    def test_whole_run_below_the_cursor_after_the_wrap(self, holes):
        start, allocator = holes
        allocator._small_cursor = start + 38
        table = allocator.allocate(3, big=False, new_file=True)
        assert table.runs == [Run(start, 3)]

    def test_split_from_the_cursor_only_when_nothing_holds_it(self, holes):
        start, allocator = holes
        table = allocator.allocate(12, big=False, new_file=True)
        assert table.runs == [Run(start + 30, 8), Run(start, 3),
                              Run(start + 13, 1)]

    def test_bottom_sectors_found_from_the_area_start(self, setup):
        """With the cursor at the area's start and only its bottom
        sectors free, the gap does not hide them."""
        layout, vam, _ = setup
        area = layout.small_area
        vam.mark_allocated(Run(area.start + 3, area.count - 3))
        vam.mark_allocated(layout.big_area)
        allocator = RunAllocator(vam, layout)
        assert allocator._small_cursor == area.start
        table = allocator.allocate(3, big=False, new_file=True)
        assert table.runs == [Run(area.start, 3)]


class TestCursorResume:
    """Next-fit survives a mount: a fresh allocator starts past the
    highest small-area allocation of the VAM it is handed."""

    def test_cursor_starts_past_the_highest_allocation(self, setup):
        layout, vam, _ = setup
        start = layout.small_area.start
        vam.mark_allocated(Run(start + 10, 5))
        vam.mark_allocated(Run(start + 40, 7))
        allocator = RunAllocator(vam, layout)
        assert allocator.allocate(4, big=False).runs == [Run(start + 47, 4)]
        table = allocator.allocate(4, big=False, new_file=True)
        assert table.runs == [Run(start + 51 + SMALL_FILE_GAP, 4)]

    def test_cursor_wraps_when_the_top_sector_is_used(self, setup):
        layout, vam, _ = setup
        area = layout.small_area
        vam.mark_allocated(Run(area.end - 1, 1))
        allocator = RunAllocator(vam, layout)
        assert allocator.allocate(2, big=False).runs == [Run(area.start, 2)]

    @pytest.mark.parametrize("crash", [True, False])
    def test_remount_places_past_the_top_not_in_the_first_hole(self, crash):
        """After crash + recovery (VAM rebuilt) and after unmount +
        mount (VAM loaded) alike, the next small file lands past the
        highest small-area allocation; the hole a delete left below it
        waits for the wrap."""
        disk = SimDisk(geometry=TEST_GEOMETRY)
        FSD.format(disk, TEST_FSD_PARAMS)
        fs = FSD.mount(disk)
        handles = [fs.create(f"f{i}", b"x" * 700) for i in range(6)]
        hole = handles[1].props.leader_addr
        fs.delete("f1")
        fs.force()
        top = handles[-1].runs.runs[-1].end - 1
        if crash:
            fs.crash()
        else:
            fs.unmount()
        fs = FSD.mount(disk)
        assert fs.mount_report.vam_loaded is not crash
        assert fs.vam.is_free(hole)
        placed = fs.create("next", b"n" * 700)
        assert placed.props.leader_addr == top + 1 + SMALL_FILE_GAP


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
