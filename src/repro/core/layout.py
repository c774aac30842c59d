"""FSD on-disk volume layout.

The paper's locality principle (§5): "Information that is needed,
generated, recovered, or retrieved together benefits from proximity on
the disk."  The layout therefore clusters all metadata — both copies
of the file name table, the log, and the VAM save area — around the
central cylinder of the volume, minimizing head motion between data
I/O and metadata I/O.

The name table comes first, cut into one-cylinder *stripes*: the
front of each cylinder holds copy A of consecutive pages, and copy B
of each page is :attr:`VolumeLayout.twin_offset` sectors further on in
the same cylinder — half the heads away and ``NT_TWIN_SKEW`` slots
round the track, so the double read of a cache miss (§5.1) needs no
seek and loses no revolution.  :meth:`VolumeLayout.nt_page_addresses`
and :meth:`VolumeLayout.nt_extents` are the only page → address
functions; nothing else may add a page number to an address.

Boot-critical pages are replicated ("two kinds of pages needed in
booting could become bad: they are now replicated"): the volume root
page lives at sector 0 with a copy at the start of cylinder 1, far
enough that no single 1–2-sector fault can take both.

Data sectors are split into a *big-file area* (grows downward from the
metadata toward low addresses) and a *small-file area* (grows upward
from the metadata), the paper's heap/stack analogy; both start near
the central metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.types import Run
from repro.disk.geometry import DiskGeometry
from repro.errors import CorruptMetadata, FsError, UnsupportedFormat
from repro.serial import Packer, Unpacker, checksum

#: The on-disk format, stamped on both root pages: name-table twins
#: share a cylinder.
FORMAT = "FSD2"
#: The format before it: copy B of the name table was a second extent,
#: ``nt_pages`` sectors after copy A.  Refused by name, never misread.
PREVIOUS_FORMAT = "FSD1"
_ROOT_MAGIC = int.from_bytes(FORMAT.encode("ascii"), "big")
_PREVIOUS_ROOT_MAGIC = int.from_bytes(PREVIOUS_FORMAT.encode("ascii"), "big")

#: Rotational slots from copy A of a name-table page to its copy B
#: (beyond the whole tracks of :attr:`VolumeLayout.twin_offset`).
#: After copy A's transfer the head is one slot past A's; issuing the
#: copy-B read costs 0.30 ms of I/O set-up plus 0.25 ms of sector copy,
#: 0.99 of a slot on the Trident (0.556 ms a slot).  A twin 2 slots on
#: would be caught with 0.01 slot (6 µs) to spare — and missed outright
#: by the 0.30 ms a real drive takes to select another head, which this
#: simulator does not charge (DESIGN §2).  3 slots on is caught either
#: way with at least 0.47 slot in hand, and costs one more sector time
#: than the least possible.  Measured (EXPERIMENTS.md, "§5.1 — where
#: the twin sits"): skew 1 loses a revolution on every miss, 2–4 are
#: within 2 % of each other, 6 is slower again.
NT_TWIN_SKEW = 3


@dataclass(frozen=True)
class VolumeParams:
    """Tunable volume parameters, persisted in the root page."""

    nt_pages: int = 4096          # name-table pages per copy (1 sector each)
    log_record_sectors: int = 768  # circular record area (divisible by 3)
    cache_pages: int = 64          # name-table page cache capacity
    commit_interval_ms: float = 500.0  # group commit period (paper: 0.5 s)
    max_io_sectors: int = 120      # largest single data transfer
    big_file_threshold_bytes: int = 64 * 1024
    max_record_pages: int = 36     # logged pages per record (83-sector cap)
    max_file_runs: int = 512       # beyond this the volume is too fragmented
    #: ablation knob: keep only ONE home copy of each name-table page,
    #: the "no double write" design alternative §6 discarded.  Cheaper
    #: on cache misses, but a single damaged sector can now lose
    #: metadata — the robustness FSD exists to provide.
    single_nt_copy: bool = False

    def __post_init__(self) -> None:
        if self.log_record_sectors % 3:
            raise ValueError("log record area must divide into thirds")
        if self.nt_pages < 8:
            raise ValueError("name table too small")


@dataclass(frozen=True)
class VolumeLayout:
    """Every fixed disk address of an FSD volume."""

    geometry: DiskGeometry
    params: VolumeParams
    root_a: int
    root_b: int
    nt_start: int           # first stripe; the central cylinder's sector 0
    nt_sectors: int         # whole cylinders, one per stripe
    stripe_pages: int       # name-table pages per stripe
    twin_offset: int        # copy B = copy A + this (0: single copy)
    log_start: int          # anchor page; records begin at log_start + 3
    log_sectors: int        # 3 anchor/spacer pages + record area
    vam_start: int
    vam_sectors: int
    big_area: Run           # allocated descending from big_area.end
    small_area: Run         # allocated ascending from small_area.start

    @classmethod
    def compute(
        cls, geometry: DiskGeometry, params: VolumeParams
    ) -> "VolumeLayout":
        bitmap_sectors = -(-geometry.total_sectors // (8 * geometry.sector_bytes))
        vam_sectors = 1 + bitmap_sectors  # header + bitmap
        log_sectors = 3 + params.log_record_sectors

        # Copy A fills the low heads of a cylinder and copy B the high
        # ones (the half rounded up, so an odd head count still gives
        # disjoint head sets): no run of consecutive sectors shorter
        # than twin_offset, no track and no surface holds both copies
        # of any page.
        per_cylinder = geometry.sectors_per_cylinder
        if params.single_nt_copy:
            twin_offset = 0
        else:
            twin_offset = (
                (geometry.heads + 1) // 2 * geometry.sectors_per_track
                + NT_TWIN_SKEW
            )
        stripe_pages = per_cylinder - twin_offset
        if stripe_pages < 1:
            raise FsError(
                "the two copies of a name-table page lie on different "
                f"heads of one cylinder, {twin_offset} sectors apart; a "
                f"cylinder of {geometry.heads} head(s) x "
                f"{geometry.sectors_per_track} sectors has no room for "
                "both (single_nt_copy is the only layout it can hold)"
            )
        nt_sectors = -(-params.nt_pages // stripe_pages) * per_cylinder

        meta_start = geometry.cylinder_start(geometry.central_cylinder)
        meta_end = meta_start + nt_sectors + log_sectors + vam_sectors
        data_start = geometry.cylinder_start(2)  # cyls 0–1 are boot region
        if meta_end >= geometry.total_sectors or meta_start <= data_start:
            raise FsError("volume too small for the metadata layout")

        log_start = meta_start + nt_sectors
        return cls(
            geometry=geometry,
            params=params,
            root_a=0,
            root_b=geometry.cylinder_start(1),
            nt_start=meta_start,
            nt_sectors=nt_sectors,
            stripe_pages=stripe_pages,
            twin_offset=twin_offset,
            log_start=log_start,
            log_sectors=log_sectors,
            vam_start=log_start + log_sectors,
            vam_sectors=vam_sectors,
            big_area=Run(data_start, meta_start - data_start),
            small_area=Run(meta_end, geometry.total_sectors - meta_end),
        )

    # ------------------------------------------------------------------
    # address helpers
    # ------------------------------------------------------------------
    def nt_page_addresses(self, page_no: int) -> tuple[int, int]:
        """Disk addresses of both copies of name-table page ``page_no``
        (the same sector twice on a ``single_nt_copy`` volume)."""
        if not (0 <= page_no < self.params.nt_pages):
            raise FsError(f"name-table page {page_no} out of range")
        stripe, index = divmod(page_no, self.stripe_pages)
        addr_a = (
            self.nt_start + stripe * self.geometry.sectors_per_cylinder + index
        )
        return addr_a, addr_a + self.twin_offset

    def nt_extents(
        self, first_page: int, count: int
    ) -> Iterator[tuple[int, int, int, int]]:
        """Cut the run of ``count`` pages from ``first_page`` into
        ``(first_page, count, addr_a, addr_b)`` pieces, each contiguous
        on disk in both copies: one piece per stripe the run touches.
        The whole run is range-checked before the first piece."""
        end = first_page + count
        if count < 1 or not (0 <= first_page and end <= self.params.nt_pages):
            raise FsError(
                f"name-table pages [{first_page}, {end}) out of range"
            )
        while first_page < end:
            piece = min(
                end - first_page,
                self.stripe_pages - first_page % self.stripe_pages,
            )
            yield (first_page, piece, *self.nt_page_addresses(first_page))
            first_page += piece

    def metadata_runs(self) -> list[Run]:
        """Every sector reserved for metadata (marked used in the VAM),
        the unused tail of each name-table stripe included."""
        boot_region = Run(0, self.geometry.cylinder_start(2))
        meta = Run(self.nt_start, self.meta_end - self.nt_start)
        return [boot_region, meta]

    @property
    def meta_end(self) -> int:
        return self.vam_start + self.vam_sectors


@dataclass
class RootPage:
    """The replicated boot page: volume identity and mount state."""

    params: VolumeParams
    total_sectors: int
    boot_count: int = 0
    vam_saved: bool = False

    def encode(self, sector_bytes: int) -> bytes:
        """Serialize the root page to one checksummed sector."""
        body = Packer()
        body.u32(self.total_sectors)
        body.u32(self.boot_count)
        body.u8(1 if self.vam_saved else 0)
        p = self.params
        body.u32(p.nt_pages)
        body.u32(p.log_record_sectors)
        body.u32(p.cache_pages)
        body.f64(p.commit_interval_ms)
        body.u32(p.max_io_sectors)
        body.u32(p.big_file_threshold_bytes)
        body.u32(p.max_record_pages)
        body.u32(p.max_file_runs)
        # Reserved, always 0: nonzero marks a volume formatted with VAM
        # logging, which decode refuses.
        body.u8(0)
        body.u8(1 if p.single_nt_copy else 0)
        payload = body.bytes()
        out = Packer(capacity=sector_bytes)
        out.u32(_ROOT_MAGIC)
        out.u32(checksum(payload))
        out.u16(len(payload))
        out.raw(payload)
        return out.bytes(pad_to=sector_bytes)

    @classmethod
    def decode(cls, data: bytes) -> "RootPage":
        reader = Unpacker(data)
        magic = reader.u32()
        if magic == _PREVIOUS_ROOT_MAGIC:
            raise UnsupportedFormat(
                f'volume root carries format "{PREVIOUS_FORMAT}" '
                "(name-table copy B in a second extent); this build "
                f'reads and writes "{FORMAT}" (copy B in copy A\'s '
                "cylinder) and places every name-table page elsewhere: "
                "re-format the volume"
            )
        if magic != _ROOT_MAGIC:
            raise CorruptMetadata("bad root page magic")
        expect = reader.u32()
        length = reader.u16()
        payload = reader.raw(length)
        if checksum(payload) != expect:
            raise CorruptMetadata("root page checksum mismatch")
        body = Unpacker(payload)
        total_sectors = body.u32()
        boot_count = body.u32()
        vam_saved = body.u8() == 1
        fields = dict(
            nt_pages=body.u32(),
            log_record_sectors=body.u32(),
            cache_pages=body.u32(),
            commit_interval_ms=body.f64(),
            max_io_sectors=body.u32(),
            big_file_threshold_bytes=body.u32(),
            max_record_pages=body.u32(),
            max_file_runs=body.u32(),
        )
        if body.u8() != 0:
            raise UnsupportedFormat(
                "volume root says it was formatted with VAM logging, "
                "which this build does not implement (its log would "
                "carry VAM pages no recovery here replays): re-format "
                "the volume"
            )
        params = VolumeParams(**fields, single_nt_copy=body.u8() == 1)
        return cls(
            params=params,
            total_sectors=total_sectors,
            boot_count=boot_count,
            vam_saved=vam_saved,
        )
