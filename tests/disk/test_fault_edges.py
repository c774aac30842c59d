"""Edge cases at the fault-injection / redundancy boundary.

The failure model's interesting corners: a fault that fires on the
*second* copy of a doubly-written page (the first copy already safe),
and a torn write inside a write the scheduler coalesced from several
submissions.
"""

from __future__ import annotations

import pytest

from repro.core.layout import VolumeLayout, VolumeParams
from repro.core.name_table import NameTableHome
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.disk.mirror import MirroredDisk
from repro.disk.sched import IoScheduler
from repro.errors import SimulatedCrash

GEO = DiskGeometry(cylinders=120, heads=8, sectors_per_track=24)
PARAMS = VolumeParams(nt_pages=512, log_record_sectors=300, cache_pages=64)


@pytest.fixture
def world():
    disk = SimDisk(geometry=GEO)
    layout = VolumeLayout.compute(GEO, PARAMS)
    return disk, layout, NameTableHome(disk, layout)


def page(byte: int) -> bytes:
    return bytes([byte]) * GEO.sector_bytes


class TestSecondCopyFaults:
    def test_crash_fires_on_second_copy_write(self, world):
        """The A-copy write completes; the crash tears the B-copy.
        The double read must recover from A and repair B in place."""
        disk, layout, home = world
        home.write_pages([(3, page(0x5A))])  # both copies healthy
        addr_a, addr_b = layout.nt_page_addresses(3)

        # Next write: A lands (I/O #0 survives), the B write (I/O #1)
        # crashes with nothing transferred and a damaged boundary.
        disk.faults.arm_crash(
            after_ios=1, surviving_sectors=0, damage_tail=1
        )
        with pytest.raises(SimulatedCrash):
            home.write_pages([(3, page(0xA5))])
        assert disk.read_maybe(addr_a, 1)[0] == page(0xA5)
        assert disk.read_maybe(addr_b, 1)[0] is None

        # A fresh home (post-recovery) reads the survivor and repairs.
        recovered = NameTableHome(disk, layout)
        assert recovered.read_page(3) == page(0xA5)
        assert recovered.repairs == 1
        assert disk.read_maybe(addr_b, 1)[0] == page(0xA5)

    def test_media_fault_on_second_copy_only(self, world):
        """A media flaw on the B copy is invisible until read, then
        silently corrected from A."""
        disk, layout, home = world
        home.write_pages([(7, page(0x42))])
        _, addr_b = layout.nt_page_addresses(7)
        disk.faults.damage(addr_b)
        assert home.read_page(7) == page(0x42)
        assert home.repairs == 1
        assert not disk.faults.is_damaged(addr_b)

    def test_mirror_fault_on_shadow_copy(self):
        """Damage on the mirror unit's copy of a shadowed page: the
        primary serves reads, and the next write repairs the shadow."""
        mirror = MirroredDisk(geometry=GEO)
        mirror.write(40, [page(0x11)])
        mirror.mirror_faults.damage(40)
        # Primary healthy: the flaw is latent.
        assert mirror.read(40)[0] == page(0x11)
        # Primary also damaged: now the mirror copy is needed but bad.
        mirror.faults.damage(40)
        assert mirror.read_maybe(40, 1)[0] is None
        # A rewrite repairs both sides.
        mirror.write(40, [page(0x22)])
        assert mirror.read(40)[0] == page(0x22)
        assert not mirror.mirror_faults.is_damaged(40)

    def test_scheduler_batches_copies_without_tearing_both(self, world):
        """Under scan both copy writes queue; a crash during the flush
        can lose or tear at most what one disk write covers, so the
        other copy is intact pre-update — never half of each."""
        disk, layout, _ = world
        io = IoScheduler(disk, policy="scan")
        home = NameTableHome(io, layout)
        home.write_pages([(3, page(0x5A))])
        io.barrier()
        addr_a, addr_b = layout.nt_page_addresses(3)

        home.write_pages([(3, page(0xA5))])
        assert io.queue_depth == 2
        disk.faults.arm_crash(
            after_ios=0, surviving_sectors=0, damage_tail=1
        )
        with pytest.raises(SimulatedCrash):
            io.barrier()
        copies = [
            disk.read_maybe(addr_a, 1)[0],
            disk.read_maybe(addr_b, 1)[0],
        ]
        # Exactly one copy was in flight; the other still holds the
        # old value (the queued write vanished with the machine).
        assert copies.count(None) == 1
        assert page(0x5A) in copies
        recovered = NameTableHome(disk, layout)
        assert recovered.read_page(3) == page(0x5A)


class TestTornCoalescedWrites:
    def test_torn_write_inside_coalesced_batch_on_mirror(self):
        """A coalesced scheduler write over a mirrored disk that tears
        mid-transfer: the primary keeps the surviving prefix, and the
        mirror still holds the *old* values for every sector the torn
        operation covered (careful replacement)."""
        mirror = MirroredDisk(geometry=GEO)
        io = IoScheduler(mirror, policy="scan")
        mirror.write(80, [page(0xAA)] * 4)

        io.submit_write(80, [page(1), page(2)])
        io.submit_write(82, [page(3), page(4)])
        mirror.faults.arm_crash(
            after_ios=0, surviving_sectors=2, damage_tail=1
        )
        with pytest.raises(SimulatedCrash):
            io.flush()
        # One coalesced 4-sector write was in flight: 2 sectors
        # survived on the primary, the boundary is damaged, and the
        # shadow write never happened.
        assert mirror.peek(80) == page(1)
        assert mirror.peek(81) == page(2)
        assert mirror.peek_mirror(80) == page(0xAA)
        # The damaged boundary reads old data via the mirror, exactly
        # the old-or-new guarantee log-record validation relies on.
        assert mirror.read_maybe(82, 1)[0] == page(0xAA)
        assert mirror.read_maybe(83, 1)[0] == page(0xAA)

    def test_damage_tail_two_spans_merged_requests(self):
        """damage_tail=2 on a coalesced write can straddle the seam
        between two merged submissions."""
        disk = SimDisk(geometry=GEO)
        io = IoScheduler(disk, policy="scan")
        disk.write(80, [page(0xAA)] * 4)
        io.submit_write(80, [page(1), page(2)])
        io.submit_write(82, [page(3), page(4)])
        disk.faults.arm_crash(
            after_ios=0, surviving_sectors=1, damage_tail=2
        )
        with pytest.raises(SimulatedCrash):
            io.flush()
        after = disk.read_maybe(80, 4)
        assert after[0] == page(1)
        assert after[1] is None  # tail of the first merged request
        assert after[2] is None  # head of the second: seam straddled
        assert after[3] == page(0xAA)

    @pytest.mark.parametrize("damage_tail", [0, 1, 2])
    @pytest.mark.parametrize("surviving", [0, 1, 2])
    def test_torn_write_over_a_stripe_seam_costs_no_page_both_copies(
        self, world, surviving, damage_tail
    ):
        """Copy B of a stripe's last page is the last sector of its
        cylinder and copy A of the next page the first sector of the
        next, so under scan the two writes coalesce into one — a torn
        one may damage both sectors.  They belong to different pages:
        each page keeps its other copy, untouched by that write."""
        disk, layout, _ = world
        io = IoScheduler(disk, policy="scan")
        home = NameTableHome(io, layout)
        last, first = layout.stripe_pages - 1, layout.stripe_pages
        seam_b = layout.nt_page_addresses(last)[1]
        seam_a = layout.nt_page_addresses(first)[0]
        assert seam_a == seam_b + 1
        home.write_pages([(last, page(0x11)), (first, page(0x22))])
        io.barrier()
        # The arm rests on the first stripe's cylinder, so all four
        # writes are on the upward sweep: A(last), then B(last) and
        # A(first) as one write, then B(first).
        disk.read(layout.nt_start, 1)
        coalesced = io.sched_stats.coalesced

        home.write_pages([(last, page(0x33)), (first, page(0x44))])
        assert io.queue_depth == 4
        disk.faults.arm_crash(
            after_ios=1, surviving_sectors=surviving, damage_tail=damage_tail
        )
        with pytest.raises(SimulatedCrash):
            io.barrier()
        assert io.sched_stats.coalesced - coalesced == 1
        for page_no, old, new in (
            (last, page(0x11), page(0x33)), (first, page(0x22), page(0x44))
        ):
            copies = [
                disk.read_maybe(address, 1)[0]
                for address in layout.nt_page_addresses(page_no)
            ]
            assert copies.count(None) <= 1
            assert all(copy in (None, old, new) for copy in copies)
        # The copies the torn write did not cover: A(last) landed
        # before it, B(first) was still queued behind it.
        assert disk.peek(layout.nt_page_addresses(last)[0]) == page(0x33)
        assert disk.peek(layout.nt_page_addresses(first)[1]) == page(0x22)
