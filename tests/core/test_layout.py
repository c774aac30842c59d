"""Unit and property tests for the FSD volume layout and root page."""

from __future__ import annotations

from zlib import crc32

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.layout import (
    NT_TWIN_SKEW,
    RootPage,
    VolumeLayout,
    VolumeParams,
)
from repro.disk.geometry import DiskGeometry, TRIDENT_T300
from repro.errors import CorruptMetadata, FsError, UnsupportedFormat
from repro.serial import Packer
from tests.conftest import vam_logging_root


def layout_for(geometry=TRIDENT_T300, **param_overrides) -> VolumeLayout:
    return VolumeLayout.compute(geometry, VolumeParams(**param_overrides))


class TestParams:
    def test_log_must_divide_in_thirds(self):
        with pytest.raises(ValueError):
            VolumeParams(log_record_sectors=100)

    def test_tiny_name_table_rejected(self):
        with pytest.raises(ValueError):
            VolumeParams(nt_pages=4)


class TestLayout:
    def test_metadata_is_central(self):
        """The name table starts the central cylinder; the log and the
        VAM save area follow it with no padding."""
        layout = layout_for()
        central = TRIDENT_T300.cylinder_start(TRIDENT_T300.central_cylinder)
        assert layout.nt_start == central
        assert layout.log_start == layout.nt_start + layout.nt_sectors
        assert layout.vam_start == layout.log_start + layout.log_sectors
        assert layout.small_area.start == layout.meta_end

    def test_trident_stripe_arithmetic(self):
        layout = layout_for()
        assert layout.twin_offset == 12 * 30 + NT_TWIN_SKEW == 363
        assert layout.stripe_pages == 357
        assert layout.nt_sectors == 12 * TRIDENT_T300.sectors_per_cylinder

    def test_regions_do_not_overlap(self):
        layout = layout_for()
        regions = [
            ("root_a", layout.root_a, 1),
            ("root_b", layout.root_b, 1),
            ("log", layout.log_start, layout.log_sectors),
            ("vam", layout.vam_start, layout.vam_sectors),
            ("big", layout.big_area.start, layout.big_area.count),
            ("small", layout.small_area.start, layout.small_area.count),
        ]
        for first, count, addr_a, addr_b in layout.nt_extents(
            0, layout.params.nt_pages
        ):
            regions.append((f"nt_a[{first}]", addr_a, count))
            regions.append((f"nt_b[{first}]", addr_b, count))
        for i, (name_a, start_a, count_a) in enumerate(regions):
            for name_b, start_b, count_b in regions[i + 1:]:
                overlap = max(
                    0,
                    min(start_a + count_a, start_b + count_b)
                    - max(start_a, start_b),
                )
                assert overlap == 0, f"{name_a} overlaps {name_b}"

    def test_everything_inside_the_disk(self):
        layout = layout_for()
        assert layout.small_area.end <= TRIDENT_T300.total_sectors
        assert layout.meta_end <= TRIDENT_T300.total_sectors

    def test_root_copies_on_different_cylinders(self):
        layout = layout_for()
        assert TRIDENT_T300.cylinder_of(layout.root_a) != TRIDENT_T300.cylinder_of(
            layout.root_b
        )

    def test_nt_page_addresses(self):
        layout = layout_for()
        a0, b0 = layout.nt_page_addresses(0)
        a5, b5 = layout.nt_page_addresses(5)
        assert a0 == layout.nt_start and b0 == a0 + layout.twin_offset
        assert a5 - a0 == 5 and b5 - b0 == 5
        # The first page of the second stripe starts the next cylinder.
        a_next, _ = layout.nt_page_addresses(layout.stripe_pages)
        assert a_next == a0 + TRIDENT_T300.sectors_per_cylinder

    def test_nt_page_out_of_range(self):
        layout = layout_for()
        with pytest.raises(FsError):
            layout.nt_page_addresses(layout.params.nt_pages)
        with pytest.raises(FsError):
            list(layout.nt_extents(layout.params.nt_pages - 1, 2))
        with pytest.raises(FsError):
            list(layout.nt_extents(0, 0))

    def test_big_area_below_small_area(self):
        layout = layout_for()
        assert layout.big_area.end <= layout.small_area.start

    def test_volume_too_small(self):
        tiny = DiskGeometry(cylinders=6, heads=2, sectors_per_track=8)
        with pytest.raises(FsError):
            VolumeLayout.compute(tiny, VolumeParams(nt_pages=64, log_record_sectors=99))

    def test_one_head_cannot_hold_two_copies(self):
        one_head = DiskGeometry(cylinders=400, heads=1, sectors_per_track=32)
        params = VolumeParams(nt_pages=64, log_record_sectors=99)
        with pytest.raises(FsError, match="different heads"):
            VolumeLayout.compute(one_head, params)
        single = VolumeLayout.compute(
            one_head, VolumeParams(
                nt_pages=64, log_record_sectors=99, single_nt_copy=True
            )
        )
        assert single.stripe_pages == 32 and single.twin_offset == 0

    def test_metadata_runs_cover_boot_and_meta(self):
        layout = layout_for()
        covered = set()
        for run in layout.metadata_runs():
            covered.update(range(run.start, run.end))
        assert layout.root_a in covered
        assert layout.root_b in covered
        assert layout.log_start in covered
        assert layout.nt_start in covered
        assert layout.vam_start + layout.vam_sectors - 1 in covered
        assert layout.big_area.start not in covered
        assert layout.small_area.start not in covered


# ----------------------------------------------------------------------
# placement properties (paper §5.1: "two different sectors with
# independent failure modes")
# ----------------------------------------------------------------------
@st.composite
def layouts(draw) -> VolumeLayout:
    heads = draw(st.integers(2, 24))
    sectors_per_track = draw(st.integers(8, 64))
    nt_pages = draw(st.integers(8, 4096))
    single = draw(st.booleans())
    # A stripe holds at least 5 pages (2 heads x 8 sectors), so a
    # quarter-cylinder a page either side of the centre, and a margin
    # for the log and the VAM, always fits.
    geometry = DiskGeometry(
        cylinders=2 * (nt_pages // 4 + 20),
        heads=heads,
        sectors_per_track=sectors_per_track,
    )
    return VolumeLayout.compute(
        geometry,
        VolumeParams(
            nt_pages=nt_pages, log_record_sectors=99, single_nt_copy=single
        ),
    )


def _copies(layout: VolumeLayout, page_no: int) -> tuple[int, ...]:
    """The distinct sectors holding ``page_no``."""
    addr_a, addr_b = layout.nt_page_addresses(page_no)
    return (addr_a,) if layout.params.single_nt_copy else (addr_a, addr_b)


@settings(max_examples=60, deadline=None)
@given(layout=layouts())
def test_every_copy_has_a_sector_of_its_own_inside_the_region(layout):
    seen: set[int] = set()
    for page_no in range(layout.params.nt_pages):
        for address in _copies(layout, page_no):
            assert (
                layout.nt_start <= address < layout.nt_start + layout.nt_sectors
            )
            assert address not in seen
            seen.add(address)
    runs = layout.metadata_runs()
    for address in seen | {
        layout.root_a, layout.root_b, layout.log_start,
        layout.vam_start - 1, layout.vam_start, layout.meta_end - 1,
    }:
        assert any(run.start <= address < run.end for run in runs)


@settings(max_examples=60, deadline=None)
@given(layout=layouts())
def test_twins_share_a_cylinder_on_disjoint_head_sets(layout):
    if layout.params.single_nt_copy:
        assert layout.twin_offset == 0
        return
    geometry = layout.geometry
    heads_a: set[int] = set()
    heads_b: set[int] = set()
    for page_no in range(layout.params.nt_pages):
        addr_a, addr_b = layout.nt_page_addresses(page_no)
        assert addr_b - addr_a == layout.twin_offset
        cylinder_a, head_a, slot_a = geometry.chs(addr_a)
        cylinder_b, head_b, slot_b = geometry.chs(addr_b)
        assert cylinder_a == cylinder_b
        assert (slot_b - slot_a) % geometry.sectors_per_track == (
            NT_TWIN_SKEW % geometry.sectors_per_track
        )
        heads_a.add(head_a)
        heads_b.add(head_b)
    # No surface (and so no track) ever holds both kinds of copy, and
    # no run of consecutive sectors shorter than the offset does.
    assert max(heads_a) < min(heads_b)
    assert layout.twin_offset > geometry.sectors_per_track


@settings(max_examples=60, deadline=None)
@given(
    layout=layouts(),
    first_seed=st.integers(min_value=0),
    count_seed=st.integers(min_value=0),
)
def test_extents_are_the_page_addresses_cut_at_stripe_boundaries(
    layout, first_seed, count_seed
):
    nt_pages = layout.params.nt_pages
    first = first_seed % nt_pages
    count = 1 + count_seed % (nt_pages - first)
    pieces = list(layout.nt_extents(first, count))
    rebuilt = []
    for piece_first, piece_count, addr_a, addr_b in pieces:
        assert piece_count >= 1
        rebuilt += [
            (piece_first + i, (addr_a + i, addr_b + i))
            for i in range(piece_count)
        ]
    assert rebuilt == [
        (page_no, layout.nt_page_addresses(page_no))
        for page_no in range(first, first + count)
    ]
    # One piece per stripe touched, never more.
    stripes = {
        page_no // layout.stripe_pages for page_no in range(first, first + count)
    }
    assert len(pieces) == len(stripes)


class TestRootPage:
    def test_roundtrip(self):
        root = RootPage(
            params=VolumeParams(nt_pages=1024, cache_pages=33),
            total_sectors=999,
            boot_count=7,
            vam_saved=True,
        )
        back = RootPage.decode(root.encode(512))
        assert back == root

    def test_checksum_detects_corruption(self):
        root = RootPage(params=VolumeParams(), total_sectors=10)
        blob = bytearray(root.encode(512))
        blob[20] ^= 0xFF
        with pytest.raises(CorruptMetadata):
            RootPage.decode(bytes(blob))

    def test_bad_magic(self):
        with pytest.raises(CorruptMetadata):
            RootPage.decode(b"\x00" * 512)

    def test_previous_format_is_refused_by_name(self):
        """An "FSD1" root is intact, not corrupt: the error says which
        format it is, which this build reads, and what to do."""
        root = RootPage(params=VolumeParams(), total_sectors=10)
        old = Packer().u32(0x46534431).bytes() + root.encode(512)[4:]
        with pytest.raises(UnsupportedFormat) as caught:
            RootPage.decode(old)
        message = str(caught.value)
        assert "FSD1" in message and "FSD2" in message
        assert "re-format" in message
        assert not isinstance(caught.value, CorruptMetadata)

    def test_encoding_is_pinned(self):
        """The reserved byte is written as 0, so an "FSD2" root is the
        same sector it was while the byte was the VAM-logging flag."""
        root = RootPage(
            params=VolumeParams(
                nt_pages=1024, cache_pages=33, single_nt_copy=True
            ),
            total_sectors=999,
            boot_count=7,
            vam_saved=True,
        )
        assert crc32(root.encode(512)) == 0x0A0A0FD1

    def test_reserved_byte_set_is_refused(self):
        """A root a VAM-logging build wrote is intact, not corrupt: it
        is refused by name, like a previous format."""
        root = RootPage(params=VolumeParams(), total_sectors=10)
        with pytest.raises(UnsupportedFormat) as caught:
            RootPage.decode(vam_logging_root(root.encode(512)))
        message = str(caught.value)
        assert "VAM logging" in message and "re-format" in message
        assert not isinstance(caught.value, CorruptMetadata)
