"""Full-volume salvage: FSD's answer when redundancy runs out.

The paper argues FSD's double-written name table plus redo log make
scavenging "nearly unnecessary" — within §5.3's single-fault model.
This module is the backstop for when that model is exceeded (both
copies of a name-table page gone, the log third that covered them
overwritten or destroyed): the FSD analogue of the CFS scavenger
(`repro.cfs.scavenger`), rebuilt around FSD's own redundancy.

The salvager never trusts volume-level structure, and reads each
on-disk format through the module that owns it.  It sweeps:

1. the **log record area**, with no anchor and no record-number chain
   (:func:`repro.core.wal.salvage_pages`): the newest checksum-valid
   image of every logged page;
2. the **name-table home extents**, page by page, preferring the log's
   image (always at least as new as home), then agreeing home copies,
   then any single survivor — and harvests *leaf entries* from each
   image (:func:`repro.core.name_table.leaf_entries`), ignoring tree
   structure (interior pages may be gone);
3. the **data areas**, sector by sector, for self-describing v2 leader
   pages (:func:`repro.core.leader.decode_leader`).

Harvested name-table entries win over leaders; orphan leaders (their
entry lost with the name table) are readmitted unless their sectors
conflict with a surviving entry — conflicts mean the leader is stale
(its file was deleted and the space reallocated), and newer claims
(higher uid) win among orphans.  Every accepted file's data is read
from the damaged volume and placed on a freshly formatted volume by
create's own placement step (:func:`repro.core.fsd.place_file`), under
the identity it had; both disks share one simulated clock, so the
:class:`SalvageReport` is directly comparable to the paper's scavenge
measurements.

Because the destination is reformatted from scratch on every run,
salvage is idempotent: a crash mid-salvage leaves a partial output
that the next run simply overwrites.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.fsd import FSD, place_file
from repro.core.layout import RootPage, VolumeLayout, VolumeParams
from repro.core.leader import SalvagedLeader, decode_leader
from repro.core.name_table import bitmap_pages, gather_runs, leaf_entries
from repro.core.types import (
    FileKind,
    FileProperties,
    Run,
    RunTable,
    decode_main_entry,
)
from repro.core.wal import PAGE_LEADER, PAGE_NAME_TABLE, salvage_pages
from repro.disk.disk import SimDisk
from repro.disk.sched import as_scheduler
from repro.errors import CorruptMetadata, DegradedVolumeError
from repro.obs import NULL_OBS

#: sectors per salvage sweep read (one arm pass reads a whole chunk).
_SWEEP_CHUNK = 120


@dataclass
class SalvageReport:
    """What a salvage pass found, kept, and had to give up on."""

    files_recovered: int = 0
    recovered_from_name_table: int = 0
    recovered_from_leaders: int = 0
    stale_dropped: int = 0
    #: (``name!version`` label, reason) per unrecoverable file.
    lost: list[tuple[str, str]] = field(default_factory=list)
    log_pages_harvested: int = 0
    nt_pages_harvested: int = 0
    leaders_found: int = 0
    bytes_recovered: int = 0
    duration_ms: float = 0.0

    @property
    def files_lost(self) -> int:
        return len(self.lost)

    def summary(self) -> str:
        """One-line human-readable digest of the salvage pass."""
        return (
            f"salvage: {self.files_recovered} files recovered "
            f"({self.recovered_from_name_table} via name table, "
            f"{self.recovered_from_leaders} via orphan leaders), "
            f"{self.files_lost} lost, {self.stale_dropped} stale "
            f"claims dropped, {self.bytes_recovered} bytes, "
            f"{self.duration_ms / 1000:.1f} simulated s"
        )


# ----------------------------------------------------------------------
# sweep phases
# ----------------------------------------------------------------------
def _sweep_read(io, start: int, count: int) -> list[bytes | None]:
    """Chunked tolerant read of ``count`` sectors; a failed sector gets
    one retry (the ladder's transient rung) before staying ``None``."""
    out: list[bytes | None] = []
    for base in range(start, start + count, _SWEEP_CHUNK):
        span = min(_SWEEP_CHUNK, start + count - base)
        out.extend(io.read_maybe(base, span))
    for index, sector in enumerate(out):
        if sector is None:
            out[index] = io.read_maybe(start + index, 1)[0]
    return out


def _harvest_entries(
    io,
    layout: VolumeLayout,
    log_images: dict[tuple[int, int], bytes],
    report: SalvageReport,
) -> dict[tuple[str, int, int], tuple[int, bytes]]:
    """Collect raw leaf entries from every readable name-table image.

    Key: (name, version, chunk); value: (precedence, entry payload)
    where precedence orders log images (newest possible) above agreeing
    home copies above lone survivors.  Tree structure is ignored —
    entries survive even when every interior page is gone.
    """
    params = layout.params
    last_bitmap_page = bitmap_pages(layout)
    copies_a: list[bytes | None] = []
    copies_b: list[bytes | None] = []
    for _, count, addr_a, addr_b in layout.nt_extents(0, params.nt_pages):
        copies_a += _sweep_read(io, addr_a, count)
        copies_b += (
            [None] * count
            if params.single_nt_copy
            else _sweep_read(io, addr_b, count)
        )
    entries: dict[tuple[str, int, int], tuple[int, bytes]] = {}
    harvested = 0
    for page_no in range(params.nt_pages):
        if page_no <= last_bitmap_page:
            continue  # meta page + allocation bitmap: no entries
        logged = log_images.get((PAGE_NAME_TABLE, page_no))
        candidates: list[tuple[int, bytes]] = []
        if logged is not None:
            candidates.append((3, logged))
        copy_a, copy_b = copies_a[page_no], copies_b[page_no]
        if copy_a is not None and copy_a == copy_b:
            candidates.append((2, copy_a))
        else:
            # Differing or half-dead copies: harvest both sides; junk
            # fails to parse, and precedence settles real conflicts.
            for survivor in (copy_a, copy_b):
                if survivor is not None:
                    candidates.append((1, survivor))
        page_yielded = False
        for precedence, image in candidates:
            for key, value in leaf_entries(image):
                held = entries.get(key)
                if held is None or held[0] < precedence:
                    entries[key] = (precedence, value)
                    page_yielded = True
        if page_yielded:
            harvested += 1
    report.nt_pages_harvested = harvested
    return entries


def _sweep_leaders(
    io,
    layout: VolumeLayout,
    log_images: dict[tuple[int, int], bytes],
    report: SalvageReport,
) -> dict[int, SalvagedLeader]:
    """Scan both data areas for v2 leader sectors; the log's leader
    images (newer than home, by construction) override the platter."""
    found: dict[int, SalvagedLeader] = {}
    for area in (layout.big_area, layout.small_area):
        sectors = _sweep_read(io, area.start, area.count)
        for index, data in enumerate(sectors):
            if data is None:
                continue
            try:
                found[area.start + index] = decode_leader(data)
            except CorruptMetadata:
                continue
    for (kind, page_id), data in log_images.items():
        if kind != PAGE_LEADER:
            continue
        try:
            found[page_id] = decode_leader(data)
        except CorruptMetadata:
            continue
    report.leaders_found = len(found)
    return found


# ----------------------------------------------------------------------
# merge
# ----------------------------------------------------------------------
@dataclass
class _Candidate:
    props: FileProperties
    runs: RunTable
    origin: str  # "nt" | "leader"
    precedence: tuple


def _assemble_candidates(
    entries: dict[tuple[str, int, int], tuple[int, bytes]],
    leaders: dict[int, SalvagedLeader],
    report: SalvageReport,
) -> list[_Candidate]:
    candidates: list[_Candidate] = []
    claimed_names: set[tuple[str, int]] = set()
    for (name, version, chunk), (precedence, value) in sorted(
        entries.items()
    ):
        if chunk != 0:
            continue
        try:
            props, runs, total_runs = decode_main_entry(name, version, value)
        except (CorruptMetadata, ValueError):
            continue
        try:
            gather_runs(
                name, version, runs, total_runs,
                lambda n: entries.get((name, version, n), (0, None))[1],
            )
            complete = True
        except CorruptMetadata:
            # Continuation chunks gone: the leader keeps the whole run
            # table (up to its capacity) and can fill the gap.
            leader = leaders.get(props.leader_addr)
            complete = (
                leader is not None
                and leader.uid == props.uid
                and leader.runs_intact
            )
            if complete:
                runs = RunTable([Run(r.start, r.count) for r in leader.runs.runs])
        if not complete:
            report.lost.append(
                (f"{name}!{version}", "run-table continuations lost")
            )
            continue
        claimed_names.add((name, version))
        candidates.append(
            _Candidate(
                props=props,
                runs=runs,
                origin="nt",
                precedence=(1, precedence, props.uid),
            )
        )
    for address, leader in sorted(
        leaders.items(), key=lambda item: -item[1].uid
    ):
        if (leader.name, leader.version) in claimed_names:
            continue  # the name table's claim wins; this one is stale
        if not leader.complete_runs:
            report.lost.append(
                (
                    f"{leader.name}!{leader.version}",
                    "orphan leader stores a truncated run table",
                )
            )
            continue
        if not leader.runs_intact:
            continue  # internally inconsistent: not a real leader state
        if leader.kind != FileKind.LOCAL:
            # A symlink / cached-copy target lives only in the name
            # table; restoring the shell without it would lie.
            report.lost.append(
                (
                    f"{leader.name}!{leader.version}",
                    "remote target lost with its name-table entry",
                )
            )
            continue
        props = FileProperties(
            name=leader.name,
            version=leader.version,
            uid=leader.uid,
            kind=leader.kind,
            byte_size=leader.byte_size,
            create_time_ms=leader.create_time_ms,
            last_used_ms=leader.create_time_ms,
            keep=leader.keep,
            leader_addr=address,
        )
        candidates.append(
            _Candidate(
                props=props,
                runs=leader.runs,
                origin="leader",
                precedence=(0, 0, leader.uid),
            )
        )
    return candidates


def _resolve_claims(
    candidates: list[_Candidate], report: SalvageReport
) -> list[_Candidate]:
    """Greedy sector-claim resolution: name-table entries first, then
    orphan leaders newest-uid first; a candidate whose sectors overlap
    an accepted claim is a stale generation of that space."""
    accepted: list[_Candidate] = []
    claimed: set[int] = set()
    for candidate in sorted(
        candidates, key=lambda c: c.precedence, reverse=True
    ):
        sectors = {candidate.props.leader_addr}
        for run in candidate.runs.runs:
            sectors.update(range(run.start, run.start + run.count))
        if sectors & claimed:
            report.stale_dropped += 1
            continue
        claimed |= sectors
        accepted.append(candidate)
    return accepted


# ----------------------------------------------------------------------
# restore
# ----------------------------------------------------------------------
def _read_file_data(io, candidate: _Candidate) -> bytes | None:
    """Read a candidate's data pages tolerantly; None when any sector
    is gone (its file is lost, not silently zero-filled)."""
    chunks: list[bytes] = []
    for run in candidate.runs.runs:
        sectors = _sweep_read(io, run.start, run.count)
        if any(sector is None for sector in sectors):
            return None
        chunks.extend(sectors)  # type: ignore[arg-type]
    blob = b"".join(chunks)
    if len(blob) < candidate.props.byte_size:
        return None
    return blob[: candidate.props.byte_size]


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def _read_params(
    io, geometry, params_hint: VolumeParams | None
) -> VolumeParams:
    """Recover the volume parameters from either root copy — without
    the mount path's repair write; salvage never writes the source.
    A root of the previous format raises ``UnsupportedFormat`` (every
    sweep below would read this format's addresses), hint or no hint."""
    probe = VolumeLayout.compute(geometry, params_hint or VolumeParams())
    survivors: list[RootPage] = []
    for address in (probe.root_a, probe.root_b):
        sector = io.read_maybe(address, 1)[0]
        if sector is None:
            continue
        try:
            survivors.append(RootPage.decode(sector))
        except CorruptMetadata:
            continue
    if survivors:
        return max(survivors, key=lambda root: root.boot_count).params
    if params_hint is None:
        raise DegradedVolumeError(
            "both root copies unreadable and no volume parameters "
            "provided to locate the layout"
        )
    return params_hint


def salvage_volume(
    source: SimDisk,
    destination: SimDisk | None = None,
    params_hint: VolumeParams | None = None,
    obs=NULL_OBS,
) -> tuple[SimDisk, SalvageReport]:
    """Salvage ``source`` into a freshly formatted volume.

    The source is only ever read (tolerantly, sector by sector); the
    rebuilt volume lands on ``destination``, which defaults to a new
    disk with the source's geometry sharing the source's clock (all
    sweep and rebuild time accrues on one simulated timeline).
    ``params_hint`` locates the volume layout if both root-page copies
    are unreadable.  Returns the destination disk — holding a cleanly
    unmounted, freshly formatted volume — and the report.

    Re-running after a crash mid-salvage is safe: the destination is
    reformatted from scratch every time, so a partial previous output
    is simply overwritten.
    """
    started_ms = source.clock.now_ms
    io = as_scheduler(source, obs=obs)
    report = SalvageReport()
    with obs.span("salvage.run"):
        params = _read_params(io, source.geometry, params_hint)
        layout = VolumeLayout.compute(source.geometry, params)

        with obs.span("salvage.log_sweep"):
            log_images = salvage_pages(
                lambda start, count: _sweep_read(io, start, count), layout
            )
            report.log_pages_harvested = len(log_images)
        with obs.span("salvage.nt_sweep"):
            entries = _harvest_entries(io, layout, log_images, report)
        with obs.span("salvage.leader_sweep"):
            leaders = _sweep_leaders(io, layout, log_images, report)

        candidates = _assemble_candidates(entries, leaders, report)
        accepted = _resolve_claims(candidates, report)

        if destination is None:
            destination = SimDisk(
                geometry=source.geometry,
                timing=source.timing,
                clock=source.clock,
            )
        with obs.span("salvage.restore"):
            FSD.format(destination, params)
            fs = FSD.mount(destination, params=params)
            for candidate in sorted(
                accepted, key=lambda c: (c.props.name, c.props.version)
            ):
                label = f"{candidate.props.name}!{candidate.props.version}"
                data = _read_file_data(io, candidate)
                if data is None:
                    report.lost.append((label, "data pages damaged"))
                    continue
                # The file keeps its identity; only its placement is new.
                fs.coordinator.note_update()
                place_file(
                    fs,
                    data,
                    lambda leader_addr: candidate.props.with_updates(
                        leader_addr=leader_addr
                    ),
                )
                report.files_recovered += 1
                report.bytes_recovered += len(data)
                if candidate.origin == "nt":
                    report.recovered_from_name_table += 1
                else:
                    report.recovered_from_leaders += 1
                fs.coordinator.check_pressure()
            fs.force()
            fs.unmount()
    report.duration_ms = source.clock.now_ms - started_ms
    obs.count("salvage.runs")
    obs.count("salvage.files_recovered", report.files_recovered)
    obs.count("salvage.files_lost", report.files_lost)
    return destination, report
