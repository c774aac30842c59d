"""The read-path fault escalation ladder, rung by rung.

transient retry -> duplicate-copy repair -> (mirror fallback, covered
in tests/disk/test_mirror.py) -> degraded read-only.  Plus the replay
hazard the ladder's bookkeeping exposed: stale leader images in the
log must not be redone over reallocated sectors.
"""

from __future__ import annotations

import pytest

from repro.core.fsd import FSD
from repro.core.layout import VolumeLayout, VolumeParams
from repro.core.name_table import NameTableHome
from repro.core.verify import verify_volume
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.errors import DegradedVolumeError
from repro.obs import Observer
from tests.conftest import create_until_nt_pages

GEO = DiskGeometry(cylinders=120, heads=8, sectors_per_track=24)
PARAMS = VolumeParams(nt_pages=512, log_record_sectors=300, cache_pages=48)
#: pages per one-cylinder stripe of the name table (93 on ``GEO``).
STRIPE_PAGES = VolumeLayout.compute(GEO, PARAMS).stripe_pages


@pytest.fixture
def world():
    disk = SimDisk(geometry=GEO)
    layout = VolumeLayout.compute(GEO, PARAMS)
    home = NameTableHome(disk, layout)
    return disk, layout, home


def page(byte: int) -> bytes:
    return bytes([byte]) * GEO.sector_bytes


class TestRetryRung:
    def test_transient_fault_on_both_copies_absorbed(self, world):
        """Dust on both copies: each read fails once, each retry
        succeeds — the ladder never escalates past its first rung."""
        disk, layout, home = world
        home.write_pages([(3, page(0x77))])
        addr_a, addr_b = layout.nt_page_addresses(3)
        disk.faults.damage_transient(addr_a)
        disk.faults.damage_transient(addr_b)
        assert home.read_page(3) == page(0x77)
        assert home.retries == 2
        assert home.repairs == 0

    def test_retry_costs_real_simulated_time(self, world):
        disk, layout, home = world
        home.write_pages([(3, page(0x01))])
        addr_a, _ = layout.nt_page_addresses(3)
        before = disk.clock.now_ms
        home.read_page(3)
        clean_cost = disk.clock.now_ms - before
        disk.faults.damage_transient(addr_a)
        before = disk.clock.now_ms
        home.read_page(3)
        assert disk.clock.now_ms - before > clean_cost

    def test_retry_counters_emitted(self, world):
        disk, layout, home = world
        obs = Observer()
        home.obs = obs
        home.write_pages([(4, page(0x02))])
        addr_a, _ = layout.nt_page_addresses(4)
        disk.faults.damage_transient(addr_a)
        home.read_page(4)
        counters = obs.snapshot().counters
        assert counters["ladder.retries"] == 1
        assert counters["ladder.retry_successes"] == 1


class TestRepairRung:
    def test_latent_fault_surfaces_then_repaired_from_twin(self, world):
        """A latent flaw planted long ago surfaces as permanent damage
        on read; the twin copy rebuilds it in place."""
        disk, layout, home = world
        home.write_pages([(5, page(0x33))])
        addr_a, _ = layout.nt_page_addresses(5)
        disk.faults.damage_latent(addr_a)
        assert home.read_page(5) == page(0x33)
        assert home.repairs == 1
        assert disk.faults.latent_surfaced == 1
        # Repaired for good: the next read costs no ladder work.
        assert home.read_page(5) == page(0x33)
        assert home.repairs == 1


class TestDegradedRung:
    def test_both_copies_dead_raises_degraded_not_garbage(self, world):
        """Exhausting the ladder must raise ``DegradedVolumeError`` —
        never return bytes that were not the page's contents."""
        disk, layout, home = world
        home.write_pages([(6, page(0x44))])
        addr_a, addr_b = layout.nt_page_addresses(6)
        disk.faults.damage(addr_a)
        disk.faults.damage(addr_b)
        noted: list[tuple[str, int | None]] = []
        home.on_degraded = lambda reason, site: noted.append((reason, site))
        with pytest.raises(DegradedVolumeError, match="both copies"):
            home.read_page(6)
        assert noted and "6" in noted[0][0]
        # The hook names the fault site: one of the two dead copies.
        assert noted[0][1] in (addr_a, addr_b)

    def test_fsd_flips_read_only_when_ladder_exhausts(self):
        """End to end: a mounted volume whose name-table pages all die
        serves the failure as ``DegradedVolumeError`` and then refuses
        mutations — degraded read-only, not silent corruption."""
        disk = SimDisk(geometry=GEO)
        FSD.format(disk, PARAMS)
        fs = FSD.mount(disk)
        fs.create("deg/file", b"before the fault")
        fs.force()
        layout = VolumeLayout.compute(GEO, PARAMS)
        for p in range(PARAMS.nt_pages):
            for addr in layout.nt_page_addresses(p):
                disk.faults.damaged.add(addr)
        fs.cache.discard_all()  # force the next read back to home

        with pytest.raises(DegradedVolumeError):
            fs.open("deg/file")
        assert fs.degraded
        with pytest.raises(DegradedVolumeError):
            fs.create("deg/new", b"refused")


@pytest.mark.parametrize(
    "page_no",
    [40, STRIPE_PAGES - 1, STRIPE_PAGES],
    ids=["mid-stripe", "last of a stripe", "first of the next"],
)
class TestLadderAtAStripeBoundary:
    """The same rungs wherever the page lies: copy B of a stripe's
    last page is the last sector of its cylinder, copy A of the next
    page the first sector of the next cylinder."""

    def _neighbours_intact(self, home, page_no):
        for other in (page_no - 1, page_no + 1):
            assert home.read_page(other) == page(other % 251)

    def _write_around(self, home, page_no):
        home.write_pages(
            [(no, page(no % 251)) for no in range(page_no - 1, page_no + 2)]
        )

    def test_retry_rung(self, world, page_no):
        disk, layout, home = world
        self._write_around(home, page_no)
        for address in layout.nt_page_addresses(page_no):
            disk.faults.damage_transient(address)
        assert home.read_page(page_no) == page(page_no % 251)
        assert (home.retries, home.repairs) == (2, 0)

    @pytest.mark.parametrize("copy", [0, 1])
    def test_repair_rung(self, world, page_no, copy):
        disk, layout, home = world
        self._write_around(home, page_no)
        bad = layout.nt_page_addresses(page_no)[copy]
        disk.faults.damage(bad)
        assert home.read_page(page_no) == page(page_no % 251)
        assert not disk.faults.is_damaged(bad)
        assert disk.peek(bad) == page(page_no % 251)
        self._neighbours_intact(home, page_no)
        assert home.repairs == 1

    def test_degraded_rung(self, world, page_no):
        disk, layout, home = world
        self._write_around(home, page_no)
        addr_a, addr_b = layout.nt_page_addresses(page_no)
        disk.faults.damage(addr_a)
        disk.faults.damage(addr_b)
        with pytest.raises(DegradedVolumeError, match="both copies") as caught:
            home.read_page(page_no)
        assert caught.value.fault_site == addr_a
        # The loss is that page's alone.
        self._neighbours_intact(home, page_no)


class TestIndependentFailureModes:
    """§5.1: "two different sectors with independent failure modes".
    The copies of a page share a cylinder but neither a track nor a
    surface, so the loss of a whole track — or of every copy-A sector
    of a cylinder at once — costs no page both its copies."""

    def _volume(self) -> tuple[SimDisk, FSD, dict[str, bytes]]:
        disk = SimDisk(geometry=GEO)
        FSD.format(disk, PARAMS)
        fs = FSD.mount(disk)
        contents = create_until_nt_pages(fs, "ind/f", STRIPE_PAGES + 8)
        # The tree spans two stripes.
        runs = fs.name_table.tree.pager.allocated_runs()
        assert max(first + count for first, count in runs) > STRIPE_PAGES + 8
        fs.unmount()
        return disk, fs, contents

    def _mounts_healthy_with_every_file(self, disk, contents) -> None:
        obs = Observer()
        fs = FSD.mount(disk, obs=obs)
        assert sorted(props.name for props in fs.list()) == sorted(contents)
        for name, data in contents.items():
            assert fs.read(fs.open(name)) == data
        assert not fs.degraded
        assert obs.snapshot().counters["ladder.copy_repairs"] > 0
        assert verify_volume(fs).clean
        fs.create("ind/after", b"still writable")
        fs.unmount()

    @pytest.mark.parametrize("copy", [0, 1], ids=["copy A", "copy B"])
    def test_a_whole_track_lost(self, copy):
        disk, fs, contents = self._volume()
        # The track under the tree's root: every page with a copy on it
        # loses that copy.
        address = fs.layout.nt_page_addresses(fs.name_table.tree._root)[copy]
        cylinder, head, _ = GEO.chs(address)
        track = GEO.address(cylinder, head, 0)
        disk.faults.damaged.update(
            range(track, track + GEO.sectors_per_track)
        )
        self._mounts_healthy_with_every_file(disk, contents)

    def test_the_copy_a_half_of_a_cylinder_lost(self):
        """Heads 0-3 of the first stripe's cylinder: copy A of all of
        its 93 pages, meta page, bitmap and root included."""
        disk, fs, contents = self._volume()
        layout = fs.layout
        half = (GEO.heads + 1) // 2 * GEO.sectors_per_track
        assert layout.stripe_pages <= half < layout.twin_offset
        disk.faults.damaged.update(
            range(layout.nt_start, layout.nt_start + half)
        )
        self._mounts_healthy_with_every_file(disk, contents)


class TestStaleLeaderReplay:
    def test_deleted_files_leader_not_redone(self):
        """Regression: the log holds a leader image for a file deleted
        before the crash.  Its sector may have been reallocated as
        plain data, so replay must skip it — the recovered name table
        vetoes addresses it no longer claims."""
        disk = SimDisk(geometry=GEO)
        FSD.format(disk, PARAMS)
        fs = FSD.mount(disk)
        fs.create("stale/victim", b"doomed")
        fs.force()
        fs.delete("stale/victim")
        fs.force()
        fs.crash()

        obs = Observer()
        recovered = FSD.mount(disk, obs=obs)
        counters = obs.snapshot().counters
        assert counters.get("recovery.stale_leaders_skipped", 0) >= 1
        assert recovered.list() == []

    def test_reused_sector_contents_survive_replay(self):
        """The concrete corruption the skip prevents: delete a file,
        let a new file's data land on the freed sectors, crash —
        replay must leave the new file's bytes alone."""
        disk = SimDisk(geometry=GEO)
        FSD.format(disk, PARAMS)
        fs = FSD.mount(disk)
        fs.create("reuse/old", b"x" * 900)
        fs.force()
        fs.delete("reuse/old")
        fs.force()
        # Fill the freed sectors (first-fit reuses them promptly).
        contents = {}
        for index in range(6):
            name = f"reuse/new{index}"
            contents[name] = bytes([0x60 + index]) * 700
            fs.create(name, contents[name])
        fs.force()
        fs.crash()

        recovered = FSD.mount(disk)
        for name, data in contents.items():
            assert recovered.read(recovered.open(name)) == data
