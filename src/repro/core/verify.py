"""Offline integrity verification for FSD volumes.

FSD's runtime defences (double reads, leader piggyback checks, log
copies) catch faults as they surface; this module is the *offline*
sweep — the "using different data structures to detect bugs" idea of
§5.8 turned into a tool.  It cross-checks every pair of mutually
checking structures:

* every clean name-table page resident in the metadata cache equals
  its home copies (recovery leaves the cache warm from the log),
* the B-tree is structurally valid (one walk, which also measures it),
* both home copies of every allocated name-table page are read and
  compared (the VAM rebuild's sweep, ``NameTableHome.read_run``),
* every file's leader page verifies against its name-table entry,
* no two files (or metadata regions) claim the same sector,
* the live VAM matches a fresh rebuild from the name table
  (``strict``) or at worst leaks free pages (default),
* the log anchor is readable.

Unlike the CFS scavenger this never *repairs* anything structural —
FSD's invariants mean there is nothing to rebuild — but it reports
with enough precision to pinpoint an offending subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.btree import TreeShape
from repro.core.fsd import FSD
from repro.core.leader import verify_leader
from repro.core.recovery import MountReport, rebuild_vam
from repro.core.types import Run
from repro.errors import CorruptMetadata


@dataclass
class VerifyReport:
    files_checked: int = 0
    leaders_verified: int = 0
    problems: list[str] = field(default_factory=list)
    leaked_sectors: int = 0
    #: the name table's node counts and page fill, from the invariant
    #: walk (None when the invariants did not hold).
    nt_shape: TreeShape | None = None

    @property
    def clean(self) -> bool:
        return not self.problems

    def add(self, problem: str) -> None:
        """Record one integrity problem."""
        self.problems.append(problem)


def verify_volume(fs: FSD, strict_vam: bool = False) -> VerifyReport:
    """Run every cross-check on a mounted FSD volume."""
    report = VerifyReport()
    _check_cache_coherence(fs, report)
    _check_tree(fs, report)
    _check_files(fs, report)
    _check_vam(fs, report, strict=strict_vam)
    _check_log_anchor(fs, report)
    return report


def _check_cache_coherence(fs: FSD, report: VerifyReport) -> None:
    """A cached page that owes nothing to the log or to home must *be*
    the home image, and the cache's own account of which pages those
    are must agree with the images.  Runs first, so after a mount it
    sees the cache exactly as recovery's warm-up left it."""
    for key in fs.cache.misaccounted():
        report.add(
            f"metadata cache entry {key}: pinned flag disagrees with "
            f"its images"
        )
    for page_no, data in fs.cache.clean_nt_pages():
        try:
            home = fs.nt_home.read_page(page_no)
        except CorruptMetadata as error:
            report.add(f"name-table page {page_no}: {error}")
            continue
        if home != data:
            report.add(
                f"name-table page {page_no}: clean cached image differs "
                f"from its home copies"
            )


def _check_tree(fs: FSD, report: VerifyReport) -> None:
    try:
        report.nt_shape = fs.name_table.tree.check_invariants()
    except CorruptMetadata as error:
        report.add(f"name-table B-tree invariant: {error}")


def _check_files(fs: FSD, report: VerifyReport) -> None:
    claimed: dict[int, str] = {}
    for run in fs.layout.metadata_runs():
        for sector in range(run.start, run.end):
            claimed[sector] = "<metadata>"
    for props, runs in fs.name_table.enumerate():
        report.files_checked += 1
        label = f"{props.name}!{props.version}"
        spans = [Run(props.leader_addr, 1), *runs.runs] if props.leader_addr else list(runs.runs)
        for run in spans:
            for sector in range(run.start, run.end):
                owner = claimed.get(sector)
                if owner is not None:
                    report.add(
                        f"sector {sector} claimed by both {owner} and {label}"
                    )
                claimed[sector] = label
        if props.leader_addr:
            try:
                cached = fs.cache.leader_pending_piggyback(props.leader_addr)
                data = (
                    cached
                    if cached is not None
                    else fs.io.read(props.leader_addr, 1)[0]
                )
                verify_leader(data, props, runs)
                report.leaders_verified += 1
            except Exception as error:  # damaged sector or bad leader
                report.add(f"leader of {label}: {error}")


def _check_vam(fs: FSD, report: VerifyReport, strict: bool) -> None:
    # Note: shadow-freed runs (uncommitted deletes) are allocated in
    # the live VAM but free in the reference; they surface as expected
    # leaks, not as hazards.
    try:
        reference = rebuild_vam(
            fs.disk, fs.layout, fs.name_table, fs.nt_home, MountReport(),
            memo=False,
        )
    except CorruptMetadata as error:
        report.add(f"VAM rebuild impossible: {error}")
        return
    for sector in range(fs.disk.geometry.total_sectors):
        live_free = fs.vam.is_free(sector)
        ref_free = reference.is_free(sector)
        if live_free and not ref_free:
            report.add(
                f"VAM says sector {sector} free but the name table "
                f"claims it (double-allocation hazard)"
            )
        elif ref_free and not live_free:
            report.leaked_sectors += 1
    if strict and report.leaked_sectors:
        report.add(
            f"{report.leaked_sectors} leaked sectors (strict mode)"
        )


def _check_log_anchor(fs: FSD, report: VerifyReport) -> None:
    try:
        fs.wal.read_anchor()
    except CorruptMetadata as error:
        report.add(f"log anchor: {error}")
