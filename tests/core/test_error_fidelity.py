"""Error-type fidelity: typed failures carry the original fault site.

The client contract classifies errors by *type*; for that to be
trustworthy the errors surfacing from FSD's read path must identify
where the media failed, not just that it did.  The cases:

* permanent data damage -> ``DamagedSectorError`` whose ``address`` is
  the injected sector,
* transient-retry exhaustion (the ladder's retry rung also fails) ->
  the same typed error with the site attached, and a later read heals,
* a double-copy metadata loss -> ``DegradedVolumeError`` whose
  ``fault_site`` names one of the two dead copies, and every later
  write is rejected with that same site,
* a volume of the previous on-disk format -> ``UnsupportedFormat``
  from mount and from salvage alike, naming both formats: never a
  "both root copies unreadable", never a harvest of misplaced pages,
* a volume formatted with VAM logging (its root's reserved byte set)
  -> the same ``UnsupportedFormat``, before any write.
"""

from __future__ import annotations

import pytest

from repro.core.fsd import FSD
from repro.core.layout import VolumeParams
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.core.salvage import salvage_volume
from repro.errors import (
    CorruptMetadata,
    DamagedSectorError,
    DegradedVolumeError,
    UnsupportedFormat,
    classify_error,
)
from repro.serial import Packer
from tests.conftest import vam_logging_root

GEO = DiskGeometry(cylinders=120, heads=8, sectors_per_track=24)
PARAMS = VolumeParams(nt_pages=512, log_record_sectors=231, cache_pages=32)


def _volume() -> tuple[SimDisk, FSD]:
    disk = SimDisk(geometry=GEO)
    FSD.format(disk, PARAMS)
    return disk, FSD.mount(disk)


def test_permanent_damage_reports_injected_address():
    disk, fs = _volume()
    fs.create("fid/perm", b"x" * 900)
    handle = fs.open("fid/perm")
    site = handle.props.leader_addr + 1  # first data sector
    disk.faults.damage(site)
    with pytest.raises(DamagedSectorError) as excinfo:
        fs.read(handle)
    assert excinfo.value.address == site


def test_transient_exhaustion_reports_site_then_heals():
    disk, fs = _volume()
    fs.create("fid/trans", b"y" * 900)
    handle = fs.open("fid/trans")
    site = handle.props.leader_addr + 1
    # Two failing reads: the ladder's retry rung consumes one and the
    # retry itself fails, so the client sees a typed error with the
    # original site — not a generic failure.
    disk.faults.damage_transient(site, failures=2)
    with pytest.raises(DamagedSectorError) as excinfo:
        fs.read(handle)
    assert excinfo.value.address == site
    # The fault was transient: the next attempt succeeds outright.
    assert fs.read(fs.open("fid/trans")) == b"y" * 900


def test_double_copy_loss_degrades_with_fault_site():
    disk, fs = _volume()
    for index in range(12):
        fs.create(f"fid/f{index:02d}", b"z" * 500)
    root_page = fs.name_table.tree._root
    site_a, site_b = fs.layout.nt_page_addresses(root_page)
    # Clean unmount first: the log then holds nothing to redo, so the
    # remount cannot repair the damaged page by replaying over it.
    fs.unmount()
    disk.faults.damage(site_a)
    disk.faults.damage(site_b)
    fs = FSD.mount(disk)
    with pytest.raises(DegradedVolumeError) as excinfo:
        fs.list()
    assert excinfo.value.fault_site in (site_a, site_b)
    assert fs.degraded
    assert fs.degraded_site == excinfo.value.fault_site
    # The degradation sticks: writes are rejected fast, still naming
    # the sector whose read exhausted the ladder.
    with pytest.raises(DegradedVolumeError) as excinfo:
        fs.create("fid/late", b"w")
    assert excinfo.value.fault_site == fs.degraded_site


def test_previous_format_is_refused_by_mount_and_salvage():
    disk, fs = _volume()
    fs.create("fid/old", b"o" * 700)
    fs.unmount()
    # What a pre-"FSD2" build left behind: intact roots, old magic.
    for address in (fs.layout.root_a, fs.layout.root_b):
        body = disk.peek(address)[4:]
        disk.poke(address, Packer().u32(0x46534431).bytes() + body)
    writes = disk.stats.writes
    for refuse in (
        lambda: FSD.mount(disk),
        lambda: FSD.mount(disk, params=PARAMS),
        lambda: salvage_volume(disk),
        lambda: salvage_volume(disk, params_hint=PARAMS),
    ):
        with pytest.raises(UnsupportedFormat) as excinfo:
            refuse()
        message = str(excinfo.value)
        assert "FSD1" in message and "FSD2" in message
        assert "re-format" in message
        # Not corruption, not retryable: nothing on the media is bad.
        assert not isinstance(excinfo.value, CorruptMetadata)
        assert classify_error(excinfo.value) == "fatal"
    # One old root is enough, even beside a damaged twin.
    disk.faults.damage(fs.layout.root_a)
    with pytest.raises(UnsupportedFormat):
        FSD.mount(disk)
    # Neither path "repaired" a root or wrote anything else.
    assert disk.stats.writes == writes


def test_vam_logging_volume_is_refused_by_mount_and_salvage():
    disk, fs = _volume()
    fs.create("fid/logged", b"l" * 700)
    fs.unmount()
    for address in (fs.layout.root_a, fs.layout.root_b):
        disk.poke(address, vam_logging_root(disk.peek(address)))
    writes = disk.stats.writes
    for refuse in (
        lambda: FSD.mount(disk),
        lambda: salvage_volume(disk),
        lambda: salvage_volume(disk, params_hint=PARAMS),
    ):
        with pytest.raises(UnsupportedFormat) as excinfo:
            refuse()
        message = str(excinfo.value)
        assert "VAM logging" in message and "re-format" in message
        assert not isinstance(excinfo.value, CorruptMetadata)
        assert classify_error(excinfo.value) == "fatal"
    # One such root is enough, even beside a damaged twin.
    disk.faults.damage(fs.layout.root_b)
    with pytest.raises(UnsupportedFormat):
        FSD.mount(disk)
    assert disk.stats.writes == writes
