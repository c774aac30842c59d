"""Unit and property tests for the Volume Allocation Map."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.layout import VolumeLayout, VolumeParams
from repro.core.types import Run
from repro.core.vam import VolumeAllocationMap
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.errors import CorruptMetadata, FsError
from repro.obs import Observer


class TestBitmap:
    def test_fresh_map_all_free(self):
        vam = VolumeAllocationMap(100)
        assert vam.free_count == 100
        assert all(vam.is_free(s) for s in range(100))

    def test_mark_allocated_and_free(self):
        vam = VolumeAllocationMap(100)
        vam.mark_allocated(Run(10, 5))
        assert vam.free_count == 95
        assert not vam.is_free(12)
        vam.mark_free(Run(10, 5))
        assert vam.free_count == 100
        assert vam.is_free(12)

    def test_double_allocation_is_corruption(self):
        vam = VolumeAllocationMap(100)
        vam.mark_allocated(Run(10, 5))
        with pytest.raises(CorruptMetadata):
            vam.mark_allocated(Run(12, 2))

    def test_double_free_is_corruption(self):
        vam = VolumeAllocationMap(100)
        with pytest.raises(CorruptMetadata):
            vam.mark_free(Run(10, 1))

    def test_out_of_range(self):
        vam = VolumeAllocationMap(100)
        with pytest.raises(FsError):
            vam.is_free(100)

    @pytest.mark.parametrize("run", [Run(995, 20), Run(5000, 8)])
    def test_run_outside_the_volume_is_corruption(self, run):
        """A run that leaves [0, total_sectors) is refused like a double
        allocation, and the map is untouched: no grown bitmap, no
        sectors counted that the volume does not have."""
        vam = VolumeAllocationMap(1000)
        with pytest.raises(CorruptMetadata, match="outside volume"):
            vam.mark_allocated(run)
        with pytest.raises(CorruptMetadata, match="outside volume"):
            vam.claim([(10, 2), (run.start, run.count)])
        with pytest.raises(CorruptMetadata, match="outside volume"):
            vam.mark_free(run)
        assert len(vam._bits) == 125
        assert vam.free_count == 998  # only the claim's (10, 2)
        assert not vam.is_free(10) and vam.is_free(12)

    def test_padding_bits_not_free(self):
        """Sectors past total (bitmap padding) stay allocated."""
        vam = VolumeAllocationMap(13)  # not a multiple of 8
        vam.mark_allocated(Run(0, 13))
        assert vam.free_count == 0


def _counters(obs: Observer) -> dict:
    return {
        name: value
        for name, value in obs.snapshot().counters.items()
        if name.startswith("vam.")
    }


#: a small map whose size is not a multiple of 8, so runs meet the
#: bitmap's padding bits as well as each other.
_SECTORS = 61
_runs = st.lists(
    st.tuples(st.integers(0, _SECTORS + 6), st.integers(1, 20)), max_size=12
)


class TestBulkClaim:
    """``claim(runs)`` is the one-run claims made in turn, checked
    against a per-sector model as well as against ``mark_allocated``."""

    @given(held=_runs, runs=_runs)
    def test_bulk_claim_equals_one_run_claims(self, held, runs):
        maps = []
        for _ in range(2):
            vam = VolumeAllocationMap(_SECTORS)
            for start, count in held:
                try:
                    vam.mark_allocated(Run(start, count))
                except CorruptMetadata:
                    pass
            vam.obs = Observer()
            maps.append(vam)
        bulk, single = maps
        taken = {s for s in range(_SECTORS) if not bulk.is_free(s)}

        bulk_error = single_error = None
        try:
            bulk.claim(runs)
        except CorruptMetadata as error:
            bulk_error = error
        for start, count in runs:
            try:
                single.mark_allocated(Run(start, count))
            except CorruptMetadata as error:
                single_error = error
                break

        # The model: claim in order, stop at the first run that leaves
        # the volume or meets a taken sector.
        model_raises = False
        for start, count in runs:
            sectors = set(range(start, start + count))
            if start + count > _SECTORS or sectors & taken:
                model_raises = True
                break
            taken |= sectors

        assert (bulk_error is None) == (single_error is None)
        assert (bulk_error is not None) == model_raises
        if bulk_error is not None:
            assert str(bulk_error) == str(single_error)
        assert bulk._bits == single._bits
        assert {s for s in range(_SECTORS) if not bulk.is_free(s)} == taken
        assert bulk.free_count == single.free_count == _SECTORS - len(taken)
        assert _counters(bulk.obs) == _counters(single.obs)

    def test_counters_move_once_per_call(self):
        vam = VolumeAllocationMap(100)
        vam.obs = Observer()
        vam.claim([(0, 4), (10, 1), (20, 5)])
        assert _counters(vam.obs) == {
            "vam.allocs": 3, "vam.sectors_allocated": 10,
        }
        assert vam.obs.snapshot().gauges["vam.free_count"] == 90

    def test_empty_claim_counts_nothing(self):
        vam = VolumeAllocationMap(100)
        vam.obs = Observer()
        vam.claim([])
        assert _counters(vam.obs) == {}
        assert vam.free_count == 100

    @pytest.mark.parametrize("clash", [(12, 1), (12, 2)], ids=["one", "two"])
    def test_double_allocation_within_one_call(self, clash):
        vam = VolumeAllocationMap(100)
        with pytest.raises(CorruptMetadata, match="sector 12"):
            vam.claim([(10, 5), (30, 2), clash])
        assert vam.free_count == 93


class TestShadow:
    def test_shadow_defers_freeing(self):
        vam = VolumeAllocationMap(100)
        vam.mark_allocated(Run(10, 5))
        vam.shadow_free(Run(10, 5))
        assert not vam.is_free(10)  # not yet
        assert vam.shadow_sectors == 5
        vam.commit_shadow()
        assert vam.is_free(10)
        assert vam.shadow_sectors == 0

    def test_commit_empty_shadow(self):
        VolumeAllocationMap(10).commit_shadow()  # no error


class TestFindFreeRun:
    def test_ascending_finds_first_fit(self):
        vam = VolumeAllocationMap(64)
        vam.mark_allocated(Run(0, 10))
        run = vam.find_free_run(0, 64, 5, ascending=True)
        assert run == Run(10, 5)

    def test_ascending_partial(self):
        vam = VolumeAllocationMap(64)
        vam.mark_allocated(Run(0, 10))
        vam.mark_allocated(Run(13, 51))
        run = vam.find_free_run(0, 64, 8, ascending=True)
        assert run == Run(10, 3)

    def test_descending(self):
        vam = VolumeAllocationMap(64)
        vam.mark_allocated(Run(60, 4))
        run = vam.find_free_run(0, 64, 5, ascending=False)
        assert run == Run(55, 5)

    def test_no_space(self):
        vam = VolumeAllocationMap(16)
        vam.mark_allocated(Run(0, 16))
        assert vam.find_free_run(0, 16, 1) is None
        assert vam.find_free_run(0, 16, 1, ascending=False) is None

    def test_window_respected(self):
        vam = VolumeAllocationMap(64)
        run = vam.find_free_run(20, 30, 100, ascending=True)
        assert run is not None
        assert run.start >= 20 and run.end <= 30

    def test_bad_want(self):
        with pytest.raises(FsError):
            VolumeAllocationMap(8).find_free_run(0, 8, 0)

    @given(
        allocated=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=250),
                st.integers(min_value=1, max_value=6),
            ),
            max_size=20,
        ),
        want=st.integers(min_value=1, max_value=30),
        ascending=st.booleans(),
    )
    def test_found_runs_are_really_free(self, allocated, want, ascending):
        vam = VolumeAllocationMap(256)
        taken = set()
        for start, count in allocated:
            run = Run(start, min(count, 256 - start))
            if any(s in taken for s in range(run.start, run.end)):
                continue
            vam.mark_allocated(run)
            taken.update(range(run.start, run.end))
        run = vam.find_free_run(0, 256, want, ascending=ascending)
        if run is None:
            # no free sector at all
            assert len(taken) == 256
        else:
            assert run.count <= want
            assert all(vam.is_free(s) for s in range(run.start, run.end))
            # maximality: a free neighbour on the search side would have
            # been included unless the length cap hit first
            if run.count < want:
                if ascending:
                    assert run.end == 256 or not vam.is_free(run.end)
                else:
                    assert run.start == 0 or not vam.is_free(run.start - 1)


class TestSaveLoad:
    GEO = DiskGeometry(cylinders=120, heads=8, sectors_per_track=24)
    PARAMS = VolumeParams(nt_pages=512, log_record_sectors=300)

    def _setup(self):
        disk = SimDisk(geometry=self.GEO)
        layout = VolumeLayout.compute(self.GEO, self.PARAMS)
        vam = VolumeAllocationMap(self.GEO.total_sectors)
        for run in layout.metadata_runs():
            vam.mark_allocated(run)
        vam.mark_allocated(Run(layout.small_area.start, 37))
        return disk, layout, vam

    def test_roundtrip(self):
        disk, layout, vam = self._setup()
        vam.save(disk, layout, boot_count=5)
        loaded = VolumeAllocationMap(self.GEO.total_sectors)
        assert loaded.load(disk, layout, expect_boot_count=5)
        assert loaded.free_count == vam.free_count
        assert loaded._bits == vam._bits

    def test_stale_boot_count_rejected(self):
        disk, layout, vam = self._setup()
        vam.save(disk, layout, boot_count=5)
        loaded = VolumeAllocationMap(self.GEO.total_sectors)
        assert not loaded.load(disk, layout, expect_boot_count=6)

    def test_damaged_save_rejected(self):
        disk, layout, vam = self._setup()
        vam.save(disk, layout, boot_count=5)
        disk.faults.damage(layout.vam_start + 1)
        loaded = VolumeAllocationMap(self.GEO.total_sectors)
        assert not loaded.load(disk, layout, expect_boot_count=5)

    def test_missing_save_rejected(self):
        disk, layout, _ = self._setup()
        loaded = VolumeAllocationMap(self.GEO.total_sectors)
        assert not loaded.load(disk, layout, expect_boot_count=0)

    def test_cannot_save_with_shadow(self):
        disk, layout, vam = self._setup()
        vam.shadow_free(Run(layout.small_area.start, 1))
        with pytest.raises(FsError):
            vam.save(disk, layout, boot_count=1)
