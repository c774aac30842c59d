"""Tests for the full-volume salvager (:mod:`repro.core.salvage`).

The salvager is the last rung of the escalation ladder: when a volume
cannot even mount, it sweeps leader pages, surviving name-table
fragments and log images into a freshly formatted image.  The
acceptance scenario from the failure model: both copies of name-table
pages destroyed *plus* the overlapping log third — every file whose
leader and data pages survive must still come back.
"""

from __future__ import annotations

import pytest

from repro.core.fsd import FSD
from repro.core.layout import VolumeLayout, VolumeParams
from repro.core.leader import encode_leader
from repro.core.salvage import salvage_volume
from repro.core.types import FileKind
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.errors import DegradedVolumeError, SimulatedCrash
from repro.workloads.generators import payload

GEO = DiskGeometry(cylinders=120, heads=8, sectors_per_track=24)
PARAMS = VolumeParams(nt_pages=512, log_record_sectors=300, cache_pages=48)


def _populated_volume(files: int = 12) -> tuple[SimDisk, dict[str, bytes]]:
    """A cleanly unmounted volume with ``files`` distinct files."""
    disk = SimDisk(geometry=GEO)
    FSD.format(disk, PARAMS)
    fs = FSD.mount(disk)
    contents: dict[str, bytes] = {}
    for index in range(files):
        name = f"salvage/f{index:02d}"
        contents[name] = payload(400 + index * 211, index)
        fs.create(name, contents[name])
    # A multi-sector file exercises run tables beyond one sector.
    contents["salvage/big"] = payload(9_000, 99)
    fs.create("salvage/big", contents["salvage/big"])
    fs.unmount()
    return disk, contents


def _verify_recovered(rebuilt: SimDisk, contents: dict[str, bytes]) -> None:
    fs = FSD.mount(rebuilt)
    for name, data in contents.items():
        assert fs.read(fs.open(name)) == data, name
    fs.unmount()


class TestCleanVolume:
    def test_salvage_of_undamaged_volume_recovers_everything(self):
        disk, contents = _populated_volume()
        rebuilt, report = salvage_volume(disk)
        assert report.files_recovered == len(contents)
        assert report.recovered_from_name_table == len(contents)
        assert report.lost == []
        _verify_recovered(rebuilt, contents)

    def test_salvage_preserves_identity(self):
        """uid, version, kind and keep survive the rebuild — a salvaged
        file is the *same* file, not a copy with fresh identity."""
        disk = SimDisk(geometry=GEO)
        FSD.format(disk, PARAMS)
        fs = FSD.mount(disk)
        fs.create("id/file", b"v1")
        handle = fs.create("id/file", b"v2", keep=3)
        fs.create("id/link", kind=FileKind.SYMLINK, remote_target="[x]<y>z")
        fs.unmount()

        rebuilt, report = salvage_volume(disk)
        assert report.lost == []
        fs2 = FSD.mount(rebuilt)
        reopened = fs2.open("id/file")
        assert reopened.version == handle.version
        assert reopened.props.uid == handle.props.uid
        assert reopened.props.keep == 3
        assert fs2.read(fs2.open("id/file", version=1)) == b"v1"
        link = fs2.open("id/link")
        assert link.props.kind == FileKind.SYMLINK
        assert link.props.remote_target == "[x]<y>z"

    def test_restored_file_is_placed_as_create_places_it(self):
        """Salvage restores through create's own placement step: the
        file keeps uid, version, kind, keep and create time, and lands
        where a create of the same bytes on a fresh volume would, with
        the leader create would have written for it."""
        disk = SimDisk(geometry=GEO)
        FSD.format(disk, PARAMS)
        fs = FSD.mount(disk)
        originals = []
        for index, size in enumerate((0, 1, 700, 9_000, 3_000)):
            fs.clock.advance_cpu(17.0)
            originals.append(
                fs.create(f"place/f{index}", payload(size, index), keep=index)
            )
        fs.unmount()

        rebuilt, report = salvage_volume(disk)
        assert report.lost == []
        twin_disk = SimDisk(geometry=GEO)
        FSD.format(twin_disk, PARAMS)
        twin = FSD.mount(twin_disk)
        restored_fs = FSD.mount(rebuilt)
        sector_bytes = GEO.sector_bytes
        for index, original in enumerate(originals):
            data = payload(original.byte_size, index)
            restored = restored_fs.open(original.name)
            fresh = twin.create(original.name, data, keep=index)
            got = restored.props
            want = original.props
            assert (
                got.uid, got.version, got.kind, got.keep, got.create_time_ms
            ) == (
                want.uid, want.version, want.kind, want.keep,
                want.create_time_ms,
            )
            assert got.leader_addr == fresh.props.leader_addr
            assert restored.runs.runs == fresh.runs.runs
            assert rebuilt.read(got.leader_addr, 1)[0] == encode_leader(
                got, restored.runs, sector_bytes
            )
            on_disk = b"".join(
                b"".join(rebuilt.read(run.start, run.count))
                for run in restored.runs.runs
            )
            assert on_disk == data.ljust(len(on_disk), b"\x00")

    def test_source_is_never_written(self):
        disk, _ = _populated_volume(files=4)
        before = dict(disk._data)
        salvage_volume(disk)
        assert disk._data == before

    def test_report_summary_mentions_counts(self):
        disk, contents = _populated_volume(files=4)
        _, report = salvage_volume(disk)
        assert f"{len(contents)} files recovered" in report.summary()
        assert report.duration_ms > 0


class TestDamagedNameTable:
    def test_nt_pair_loss_healed_from_log_images(self):
        """Both home copies of name-table pages dead, log intact: the
        log sweep supplies the newest images and nothing is lost."""
        disk, contents = _populated_volume()
        layout = VolumeLayout.compute(GEO, PARAMS)
        for page in range(1, 40):
            for addr in layout.nt_page_addresses(page):
                disk.faults.damaged.add(addr)
        rebuilt, report = salvage_volume(disk)
        assert report.lost == []
        assert report.files_recovered == len(contents)
        _verify_recovered(rebuilt, contents)

    def test_acceptance_nt_pairs_and_log_destroyed(self):
        """The ISSUE acceptance scenario, taken to its extreme: both
        copies of *every* name-table page destroyed plus the entire
        log (a superset of the overlapping third).  Recovery then
        rests purely on leader pages — and every file whose leader and
        data pages survive comes back with its exact contents."""
        disk, contents = _populated_volume()
        layout = VolumeLayout.compute(GEO, PARAMS)
        for page in range(PARAMS.nt_pages):
            for addr in layout.nt_page_addresses(page):
                disk.faults.damaged.add(addr)
        log_sectors = 3 + PARAMS.log_record_sectors
        for offset in range(log_sectors):
            disk.faults.damaged.add(layout.log_start + offset)

        rebuilt, report = salvage_volume(disk)
        assert report.files_recovered == len(contents)
        assert report.recovered_from_leaders == len(contents)
        assert report.lost == []
        _verify_recovered(rebuilt, contents)

    def test_orphan_symlink_is_honestly_lost(self):
        """A symlink's remote target lives only in the name table; with
        the table gone its orphan leader cannot resurrect it.  It must
        be *reported* lost, never silently dropped."""
        disk = SimDisk(geometry=GEO)
        FSD.format(disk, PARAMS)
        fs = FSD.mount(disk)
        fs.create("o/data", b"plain file")
        fs.create("o/link", kind=FileKind.SYMLINK, remote_target="[s]<d>f")
        fs.unmount()
        layout = VolumeLayout.compute(GEO, PARAMS)
        for page in range(PARAMS.nt_pages):
            for addr in layout.nt_page_addresses(page):
                disk.faults.damaged.add(addr)
        for offset in range(3 + PARAMS.log_record_sectors):
            disk.faults.damaged.add(layout.log_start + offset)

        rebuilt, report = salvage_volume(disk)
        assert report.files_recovered == 1
        labels = [label for label, _ in report.lost]
        assert any("o/link" in label for label in labels)
        fs2 = FSD.mount(rebuilt)
        assert fs2.read(fs2.open("o/data")) == b"plain file"

    def test_damaged_data_pages_reported_lost(self):
        disk, contents = _populated_volume(files=3)
        fs = FSD.mount(disk)
        victim = fs.open("salvage/big")
        first_run = victim.runs.runs[0]
        fs.unmount()
        disk.faults.damaged.add(first_run.start)

        _, report = salvage_volume(disk)
        reasons = dict(report.lost)
        assert any("salvage/big" in label for label in reasons)
        assert report.files_recovered == len(contents) - 1


class TestRootLoss:
    def test_both_roots_dead_needs_params_hint(self):
        disk, contents = _populated_volume(files=3)
        layout = VolumeLayout.compute(GEO, PARAMS)
        disk.faults.damaged.add(layout.root_a)
        disk.faults.damaged.add(layout.root_b)
        with pytest.raises(DegradedVolumeError):
            salvage_volume(disk)
        rebuilt, report = salvage_volume(disk, params_hint=PARAMS)
        assert report.files_recovered == len(contents)
        _verify_recovered(rebuilt, contents)


class TestIdempotence:
    def test_crash_mid_salvage_then_rerun(self):
        """A crash while *writing the rebuilt volume* must be harmless:
        the salvager reformats its destination from scratch, so simply
        running it again converges to the same result."""
        disk, contents = _populated_volume()
        victim = SimDisk(geometry=GEO)
        victim.faults.arm_crash(after_ios=10)
        with pytest.raises(SimulatedCrash):
            salvage_volume(disk, destination=victim)

        # Source untouched, crash plan consumed: run it again.
        rebuilt, report = salvage_volume(disk, destination=victim)
        assert report.files_recovered == len(contents)
        _verify_recovered(rebuilt, contents)

        # And the re-run output matches a never-crashed salvage.
        clean, clean_report = salvage_volume(disk)
        assert report.files_recovered == clean_report.files_recovered
        assert report.lost == clean_report.lost
        fs_a, fs_b = FSD.mount(rebuilt), FSD.mount(clean)
        names_a = [p.name for p in fs_a.list()]
        names_b = [p.name for p in fs_b.list()]
        assert names_a == names_b
        for name in names_a:
            assert fs_a.read(fs_a.open(name)) == fs_b.read(fs_b.open(name))
