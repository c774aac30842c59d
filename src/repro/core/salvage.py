"""Full-volume salvage: FSD's answer when redundancy runs out.

The paper argues FSD's double-written name table plus redo log make
scavenging "nearly unnecessary" — within §5.3's single-fault model.
This module is the backstop for when that model is exceeded (both
copies of a name-table page gone, the log third that covered them
overwritten or destroyed): the FSD analogue of the CFS scavenger
(`repro.cfs.scavenger`), rebuilt around FSD's own redundancy.

The salvager never trusts volume-level structure.  It sweeps:

1. the **log record area**, with no anchor and no record-number chain:
   any sector that parses as a record header yields page images
   validated by their *per-page checksums* (each image appears twice
   on non-adjacent sectors, so the single-fault model can never cost
   both), newest record number wins per page;
2. the **name-table home extents**, page by page, preferring the log's
   image (always at least as new as home), then agreeing home copies,
   then any single survivor — and harvests B-tree *leaf entries*
   directly from each image, deliberately ignoring tree structure
   (interior pages may be gone);
3. the **data areas**, sector by sector, for self-describing v2 leader
   pages (full name, properties, and run table under a body checksum).

Harvested name-table entries win over leaders; orphan leaders (their
entry lost with the name table) are readmitted unless their sectors
conflict with a surviving entry — conflicts mean the leader is stale
(its file was deleted and the space reallocated), and newer claims
(higher uid) win among orphans.  Every accepted file's data is read
from the damaged volume and rewritten into a freshly formatted volume
on the destination disk; both disks share one simulated clock, so the
:class:`SalvageReport` is directly comparable to the paper's scavenge
measurements.

Because the destination is reformatted from scratch on every run,
salvage is idempotent: a crash mid-salvage leaves a partial output
that the next run simply overwrites.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.btree.node import LEAF, Node
from repro.core.fsd import FSD, FsdFile, _split_leader
from repro.core.layout import RootPage, VolumeLayout, VolumeParams
from repro.core.leader import (
    SalvagedLeader,
    decode_leader,
    encode_leader,
    _run_table_digest,
)
from repro.core.types import (
    FileKind,
    FileProperties,
    Run,
    RunTable,
    decode_continuation,
    decode_key,
    decode_main_entry,
)
from repro.core.wal import (
    PAGE_LEADER,
    PAGE_NAME_TABLE,
    RECORD_DATA,
    _HEADER_MAGIC,
    record_sectors,
)
from repro.disk.disk import SimDisk
from repro.disk.sched import as_scheduler
from repro.errors import CorruptMetadata, DegradedVolumeError
from repro.obs import NULL_OBS
from repro.serial import Unpacker, checksum

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


def _sweep_log(
    io, layout: VolumeLayout, report: SalvageReport
) -> dict[tuple[int, int], bytes]:
    """Tolerant log sweep: newest checksum-valid image per page.

    No anchor, no expected record number: every sector that parses as
    a data-record header is tried, and each carried page is accepted
    iff one of its two copies matches the header's per-page checksum.
    Returns ``{(kind, page_id): data}`` plus stores the winning record
    number per page for later conflict resolution.
    """
    area_start = layout.log_start + 3
    area_sectors = layout.params.log_record_sectors
    sectors = _sweep_read(io, area_start, area_sectors)
    newest: dict[tuple[int, int], tuple[int, bytes]] = {}
    for index, data in enumerate(sectors):
        meta = _parse_any_header(data)
        if meta is None:
            continue
        record_number, page_meta = meta
        count = len(page_meta)
        if record_sectors(count) > area_sectors:
            continue
        # ``index`` may be the first header (pages at +3) or its copy
        # two sectors later (pages at +1): per-page checksums decide.
        for first_data in (index + 3, index + 1):
            for page_index, (kind, page_id, expect_sum) in enumerate(
                page_meta
            ):
                for position in (
                    first_data + page_index,
                    first_data + count + 1 + page_index,
                ):
                    if not 0 <= position < area_sectors:
                        continue
                    candidate = sectors[position]
                    if candidate is None:
                        continue
                    if checksum(candidate) != expect_sum:
                        continue
                    key = (kind, page_id)
                    held = newest.get(key)
                    if held is None or held[0] < record_number:
                        newest[key] = (record_number, candidate)
                    break
    report.log_pages_harvested = len(newest)
    return {key: data for key, (_, data) in newest.items()}


def _parse_any_header(
    data: bytes | None,
) -> tuple[int, list[tuple[int, int, int]]] | None:
    if data is None:
        return None
    try:
        reader = Unpacker(data)
        if reader.u32() != _HEADER_MAGIC:
            return None
        if reader.u8() != RECORD_DATA:
            return None
        record_number = reader.u64()
        reader.u32()  # boot count: unused here
        count = reader.u16()
        if count > 512:
            return None
        meta = [
            (reader.u8(), reader.u64(), reader.u32()) for _ in range(count)
        ]
        return record_number, meta
    except CorruptMetadata:
        return None


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
    bitmap_pages = -(-params.nt_pages // (8 * layout.geometry.sector_bytes))
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
        if page_no <= bitmap_pages:
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
            if _harvest_leaf(image, precedence, entries):
                page_yielded = True
        if page_yielded:
            harvested += 1
    report.nt_pages_harvested = harvested
    return entries


def _harvest_leaf(
    image: bytes,
    precedence: int,
    entries: dict[tuple[str, int, int], tuple[int, bytes]],
) -> bool:
    try:
        node = Node.from_bytes(image)
    except CorruptMetadata:
        return False
    if node.kind != LEAF:
        return False
    yielded = False
    for key, value in zip(node.keys, node.values):
        try:
            name, version, chunk = decode_key(key)
        except (CorruptMetadata, UnicodeDecodeError):
            continue
        held = entries.get((name, version, chunk))
        if held is None or held[0] < precedence:
            entries[(name, version, chunk)] = (precedence, value)
            yielded = True
    return yielded


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
        complete = True
        next_chunk = 1
        while len(runs.runs) < total_runs:
            more = entries.get((name, version, next_chunk))
            if more is None:
                complete = False
                break
            try:
                runs.runs.extend(decode_continuation(more[1]))
            except CorruptMetadata:
                complete = False
                break
            next_chunk += 1
        if len(runs.runs) > total_runs:
            del runs.runs[total_runs:]
        if not complete:
            # Continuation chunks gone: the leader keeps the whole run
            # table (up to its capacity) and can fill the gap.
            leader = leaders.get(props.leader_addr)
            if (
                leader is not None
                and leader.uid == props.uid
                and leader.complete_runs
                and _run_table_digest(leader.runs) == leader.run_digest
            ):
                runs = RunTable([Run(r.start, r.count) for r in leader.runs.runs])
                complete = True
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
        if _run_table_digest(leader.runs) != leader.run_digest:
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


def _restore_file(
    fs: FSD, props: FileProperties, data: bytes
) -> None:
    """Recreate one file on the fresh volume, preserving its identity
    (uid, version, kind, keep, create time) — ``FSD.create`` would mint
    new ones.  Placement is reallocated; content is byte-identical."""
    sector_bytes = fs.disk.geometry.sector_bytes
    data_sectors = -(-len(data) // sector_bytes)
    big = len(data) >= fs.params.big_file_threshold_bytes
    table = fs.allocator.allocate(1 + data_sectors, big=big)
    leader_addr, runs = _split_leader(table)
    restored = props.with_updates(leader_addr=leader_addr)
    fs.coordinator.note_update()
    fs.name_table.insert(restored, runs)
    fs.cache.write_leader(
        leader_addr, encode_leader(restored, runs, sector_bytes)
    )
    handle = FsdFile(props=restored, runs=runs, leader_verified=True)
    if data:
        fs._write_data(handle, 0, data)


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
            log_images = _sweep_log(io, layout, report)
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
                _restore_file(fs, candidate.props, data)
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
