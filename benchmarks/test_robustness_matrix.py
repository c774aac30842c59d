"""§5.8 — the six error classes FSD survives beyond CFS.

"FSD when compared to CFS is robust against six additional types of
errors.  First, multi-page B-tree updates were not atomic.  Second, a
partial write of the file name table could produce an inconsistent
page.  Logging prevents both of these.  Note also that the log writes
two copies of all pages.  Third, the file name table could have bad
pages; it now is replicated.  Fourth, the VAM can have disk errors;
these are recovered by reconstructing the VAM.  Finally, two kinds of
pages needed in booting could become bad: they are now replicated."

Each row of the matrix injects the fault and records the outcome on
both systems; the bench asserts FSD survives all six and that CFS
demonstrably fails (or needs a scavenge) where the paper says it did.
"""

from __future__ import annotations

from repro.cfs.cfs import CFS
from repro.cfs.name_table import NT_PAGE_SECTORS
from repro.core.fsd import FSD
from repro.core.layout import VolumeParams
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.errors import ReproError, SimulatedCrash
from repro.harness.report import Table
from repro.harness.scenarios import SMALL
from repro.workloads.generators import payload

GEO = DiskGeometry(cylinders=150, heads=8, sectors_per_track=24)
FSD_PARAMS = VolumeParams(nt_pages=512, log_record_sectors=300, cache_pages=48)

FILES = 40


def _fsd_volume() -> tuple[SimDisk, FSD, dict[str, bytes]]:
    disk = SimDisk(geometry=GEO)
    FSD.format(disk, FSD_PARAMS)
    fs = FSD.mount(disk)
    contents = {}
    for index in range(FILES):
        name = f"d/f{index:02d}"
        contents[name] = payload(500 + index * 31, index)
        fs.create(name, contents[name])
    fs.force()
    return disk, fs, contents


def _cfs_volume() -> tuple[SimDisk, CFS, dict[str, bytes]]:
    disk = SimDisk(geometry=GEO)
    CFS.format(disk, SMALL.cfs_params)
    fs = CFS.mount(disk, SMALL.cfs_params)
    contents = {}
    for index in range(FILES):
        name = f"d/f{index:02d}"
        contents[name] = payload(500 + index * 31, index)
        fs.create(name, contents[name])
    return disk, fs, contents


def _fsd_intact(disk: SimDisk, contents: dict[str, bytes]) -> bool:
    try:
        fs = FSD.mount(disk)
        for name, data in contents.items():
            if fs.read(fs.open(name)) != data:
                return False
        return True
    except ReproError:
        return False


def _cfs_intact(disk: SimDisk, contents: dict[str, bytes]) -> bool:
    try:
        fs = CFS.mount(disk, SMALL.cfs_params)
        for name, data in contents.items():
            if fs.read(fs.open(name)) != data:
                return False
        return True
    except ReproError:
        return False


# ----------------------------------------------------------------------
# the six injections
# ----------------------------------------------------------------------
def error1_torn_multipage_update() -> tuple[bool, bool]:
    """Crash in the middle of a multi-page metadata burst."""
    # FSD: crash mid log write — the tree pages only change via redo.
    disk, fs, contents = _fsd_volume()
    disk.faults.arm_crash(after_ios=0, surviving_sectors=3, damage_tail=2)
    try:
        for index in range(6):
            fs.create(f"burst/x{index}", b"y")
        fs.force()
    except SimulatedCrash:
        pass
    fs.crash()
    fsd_ok = _fsd_intact(disk, contents)

    # CFS: crash between the page writes of a B-tree split burst.
    disk_c, cfs, contents_c = _cfs_volume()
    disk_c.faults.arm_crash(after_ios=8, surviving_sectors=0, damage_tail=1)
    try:
        for index in range(30):
            cfs.create(f"burst/x{index:02d}", b"y")
    except SimulatedCrash:
        pass
    cfs.crash()
    cfs_ok = _cfs_intact(disk_c, contents_c)
    return fsd_ok, cfs_ok


def error2_partial_page_write() -> tuple[bool, bool]:
    """A name-table page half written (its tail sector damaged)."""
    disk, fs, contents = _fsd_volume()
    # FSD pages are one sector; the analogous fault damages the sector
    # of one home copy mid-writeback — the twin and the log cover it.
    victim, _ = fs.layout.nt_page_addresses(fs.name_table.tree._root)
    fs.unmount()
    disk.faults.damage(victim)
    fsd_ok = _fsd_intact(disk, contents)

    disk_c, cfs, contents_c = _cfs_volume()
    pager = cfs.name_table.pager
    page = max(pager._used)
    disk_c.faults.damage(pager._address(page) + NT_PAGE_SECTORS - 1)
    cfs.crash()
    cfs_ok = _cfs_intact(disk_c, contents_c)
    return fsd_ok, cfs_ok


def error3_bad_name_table_page() -> tuple[bool, bool]:
    """A media fault lands on a name-table sector."""
    disk, fs, contents = _fsd_volume()
    fs.unmount()
    _, victim = fs.layout.nt_page_addresses(fs.name_table.tree._root)
    disk.faults.damage(victim)
    fsd_ok = _fsd_intact(disk, contents)

    disk_c, cfs, contents_c = _cfs_volume()
    pager = cfs.name_table.pager
    disk_c.faults.damage(pager._address(max(pager._used)))
    cfs.crash()
    cfs_ok = _cfs_intact(disk_c, contents_c)
    return fsd_ok, cfs_ok


def error4_vam_disk_error() -> tuple[bool, bool]:
    """The saved free map has a bad sector."""
    disk, fs, contents = _fsd_volume()
    vam_sector = fs.layout.vam_start + 1
    fs.unmount()  # saves the VAM
    disk.faults.damage(vam_sector)
    fsd_ok = _fsd_intact(disk, contents)  # load fails -> rebuild
    # CFS has no saved VAM; N/A (reported as survivable-by-absence).
    return fsd_ok, True


def error5_bad_boot_page() -> tuple[bool, bool]:
    disk, fs, contents = _fsd_volume()
    fs.unmount()
    disk.faults.damage(fs.layout.root_a)
    fsd_ok = _fsd_intact(disk, contents)
    return fsd_ok, True  # CFS boot pages out of scope here


def error6_bad_log_sector() -> tuple[bool, bool]:
    """Damage inside a committed log record (the 'two copies' claim)."""
    disk, fs, contents = _fsd_volume()
    fs.create("extra/committed", b"must survive")
    fs.force()
    contents = dict(contents)
    contents["extra/committed"] = b"must survive"
    damage_at = fs.wal.area_start + max(fs.wal.write_offset - 4, 0)
    fs.crash()
    disk.faults.damage(damage_at)
    fsd_ok = _fsd_intact(disk, contents)
    return fsd_ok, True  # CFS has no log


def error7_cache_thrash() -> tuple[bool, bool]:
    """Beyond the paper's list: an adversarial working set sized just
    past the data-page cache.  Thrashing must cost only speed — every
    client op completes, nothing is misread, the volume stays intact.
    """
    from repro.obs import Observer
    from repro.workloads.traffic import TrafficEngine, cache_thrash_config

    cache_pages = 24
    disk = SimDisk(geometry=GEO)
    FSD.format(disk, FSD_PARAMS)
    obs = Observer()
    fs = FSD.mount(disk, obs=obs, data_cache_pages=cache_pages)
    config = cache_thrash_config(
        cache_pages, page_bytes=disk.geometry.sector_bytes
    )
    engine = TrafficEngine(fs, config)
    report = engine.run()
    # The mix must actually thrash (misses keep coming), yet complete.
    thrashed = fs.data_cache.misses > cache_pages * 4
    clean = (
        report.ops_completed == report.ops_issued and report.errors == 0
    )
    fs.unmount()
    fsd_ok = clean and thrashed and _fsd_intact(disk, {})
    return fsd_ok, True  # CFS has no data cache to thrash


def test_robustness_matrix(once):
    def run():
        return {
            "1 torn multi-page update": error1_torn_multipage_update(),
            "2 partial name-table page write": error2_partial_page_write(),
            "3 bad name-table page": error3_bad_name_table_page(),
            "4 VAM disk error": error4_vam_disk_error(),
            "5 bad boot page": error5_bad_boot_page(),
            "6 bad log sector": error6_bad_log_sector(),
            "7 cache thrash under load": error7_cache_thrash(),
        }

    results = once(run)

    table = Table("§5.8: the six error classes (True = volume intact)")
    for label, (fsd_ok, cfs_ok) in results.items():
        table.add(
            label,
            "FSD survives",
            f"FSD={fsd_ok} CFS={cfs_ok}",
        )
    table.print()

    # FSD survives all six.
    for label, (fsd_ok, _) in results.items():
        assert fsd_ok, f"FSD failed: {label}"
    # CFS demonstrably loses on the name-table classes.
    assert not results["2 partial name-table page write"][1]
    assert not results["3 bad name-table page"][1]
