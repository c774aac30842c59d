"""Edge cases at the fault-injection / redundancy boundary.

The failure model's interesting corners: a fault that fires on the
*second* copy of a doubly-written page (the first copy already safe).
"""

from __future__ import annotations

import pytest

from repro.core.layout import VolumeLayout, VolumeParams
from repro.core.name_table import NameTableHome
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.disk.mirror import MirroredDisk
from repro.disk.sched import plan_writes
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
        """The copy the plan dispatches first completes; the crash
        tears the second.  The double read must recover from the
        survivor and repair the torn copy in place."""
        disk, layout, home = world
        home.write_pages([(3, page(0x5A))])  # both copies healthy
        writes = home.page_writes([(3, page(0xA5))])
        first, second = (
            writes[index][0] for index, _ in plan_writes(disk, writes)
        )
        assert {first, second} == set(layout.nt_page_addresses(3))

        # Next write: the first copy lands (I/O #0 survives), the
        # second (I/O #1) crashes with nothing transferred and a
        # damaged boundary.
        disk.faults.arm_crash(
            after_ios=1, surviving_sectors=0, damage_tail=1
        )
        with pytest.raises(SimulatedCrash):
            home.write_pages([(3, page(0xA5))])
        assert disk.read_maybe(first, 1)[0] == page(0xA5)
        assert disk.read_maybe(second, 1)[0] is None

        # A fresh home (post-recovery) reads the survivor and repairs.
        recovered = NameTableHome(disk, layout)
        assert recovered.read_page(3) == page(0xA5)
        assert recovered.repairs == 1
        assert disk.read_maybe(second, 1)[0] == page(0xA5)

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
