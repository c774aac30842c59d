"""Tests for the offline FSD integrity verifier."""

from __future__ import annotations

import pytest

from repro.core.fsd import FSD
from repro.core.verify import verify_volume
from repro.workloads.generators import payload


@pytest.fixture
def populated(fsd):
    for index in range(20):
        fsd.create(f"d/f{index:02d}", payload(400 + index * 77, index))
    fsd.delete("d/f03")
    fsd.force()
    return fsd


class TestCleanVolume:
    def test_fresh_volume_verifies(self, fsd):
        report = verify_volume(fsd)
        assert report.clean, report.problems

    def test_populated_volume_verifies(self, populated):
        report = verify_volume(populated)
        assert report.clean, report.problems
        assert report.files_checked == 19
        assert report.leaders_verified == 19
        assert report.nt_pages_checked >= 1

    def test_verifies_with_uncommitted_work(self, populated):
        populated.create("d/uncommitted", b"pending")
        report = verify_volume(populated)
        assert report.clean, report.problems

    def test_verifies_after_crash_recovery(self, populated, disk):
        populated.crash()
        recovered = FSD.mount(disk)
        report = verify_volume(recovered)
        assert report.clean, report.problems

    def test_uncommitted_delete_counts_as_leak_not_hazard(self, populated):
        populated.delete("d/f07")  # shadow-freed, not yet committed
        report = verify_volume(populated)
        assert report.clean
        assert report.leaked_sectors > 0

    def test_strict_mode_flags_leaks(self, populated):
        populated.delete("d/f07")
        report = verify_volume(populated, strict_vam=True)
        assert not report.clean
        assert any("leaked" in p for p in report.problems)


class TestDetection:
    def test_wild_write_on_leader_detected(self, populated, disk):
        handle = populated.open("d/f05")
        populated.force()
        populated.unmount()
        fs = FSD.mount(disk)
        victim = fs.open("d/f05")
        disk.poke(victim.props.leader_addr, b"\x99" * 64)
        report = verify_volume(fs)
        assert any("leader of d/f05" in p for p in report.problems)

    def test_vam_double_allocation_hazard_detected(self, populated):
        # Lie to the VAM: mark a file's sector free.
        handle = populated.open("d/f10")
        from repro.core.types import Run

        sector = handle.runs.runs[0].start
        populated.vam.mark_free(Run(sector, 1))
        report = verify_volume(populated)
        assert any("double-allocation hazard" in p for p in report.problems)

    def test_cross_claimed_sector_detected(self, populated):
        # Forge an entry whose runs overlap an existing file.
        victim = populated.open("d/f11")
        forged = victim.props.with_updates(name="d/forged", version=1)
        populated.name_table.insert(forged, victim.runs)
        report = verify_volume(populated)
        assert any("claimed by both" in p for p in report.problems)

    def test_damaged_anchor_copy_is_tolerated(self, populated, disk):
        disk.faults.damage(populated.layout.log_start)
        report = verify_volume(populated)
        assert report.clean  # one copy is enough

    def test_both_anchor_copies_damaged_detected(self, populated, disk):
        disk.faults.damage(populated.layout.log_start)
        disk.faults.damage(populated.layout.log_start + 2)
        report = verify_volume(populated)
        assert any("log anchor" in p for p in report.problems)


class TestSeededCorruption:
    """Deliberately seeded inconsistencies must be reported and must
    name the offending subsystem (the crashcheck oracles depend on
    these reports being specific enough to localize recovery bugs)."""

    def test_seeded_leaked_sector_reported_in_strict_mode(self, populated):
        from repro.core.types import Run

        # Claim a sector in the live VAM that no file and no metadata
        # extent owns: invisible normally, a leak in strict mode.
        victim = next(
            sector
            for sector in range(populated.disk.geometry.total_sectors)
            if populated.vam.is_free(sector)
        )
        populated.vam.mark_allocated(Run(victim, 1))
        relaxed = verify_volume(populated)
        assert relaxed.clean
        assert relaxed.leaked_sectors == 1
        strict = verify_volume(populated, strict_vam=True)
        assert any(
            "leaked sectors (strict mode)" in p for p in strict.problems
        )

    def test_seeded_double_claim_names_both_owners(self, populated):
        # Forge a name-table entry whose data run overlaps the
        # metadata extents: the report must name both claimants.
        victim = populated.open("d/f12")
        from repro.core.types import Run, RunTable

        meta_run = populated.layout.metadata_runs()[0]
        forged = victim.props.with_updates(name="d/meta-thief", version=1)
        populated.name_table.insert(
            forged, RunTable(runs=[Run(meta_run.start, 1)])
        )
        report = verify_volume(populated)
        offenders = [p for p in report.problems if "claimed by both" in p]
        assert offenders
        assert any(
            "<metadata>" in p and "d/meta-thief!1" in p for p in offenders
        )

    def test_seeded_cache_misaccounting_reported(self, populated):
        # A page the log still holds, flagged clean: the next eviction
        # could drop a logged update that is not home yet.
        populated.create("d/pending", b"x")
        key, entry = next(iter(populated.cache._dirty.items()))
        entry.pinned = False
        populated.cache._lru[key] = entry
        report = verify_volume(populated)
        assert any("pinned flag disagrees" in p for p in report.problems)
