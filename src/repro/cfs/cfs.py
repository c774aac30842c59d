"""CFS — the baseline file system the paper reimplements (§2, §4).

Everything the paper criticizes is faithfully present:

* metadata is split across the name table, per-file header sectors and
  per-sector labels, so creates take "(at least) six I/Os" and listing
  or opening files costs a header read each;
* name-table pages are multi-sector and written in place, so a crash
  can tear them; multi-page B-tree updates are not atomic;
* labels are verified on nearly every I/O (robustness CFS gets that
  FSD must replace with leader pages and double writes);
* the allocator is a single-area first-fit that fragments free space;
* recovery from corruption is the scavenger: a full-disk label scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfs.header import HEADER_SECTORS, decode_header, encode_header
from repro.cfs.labels import (
    data_labels,
    free_label,
    header_labels,
    is_free,
)
from repro.cfs.name_table import CfsNameTable, CfsNameTablePager, NT_PAGE_SECTORS
from repro.core.types import FileProperties, Run, RunTable
from repro.core.vam import VolumeAllocationMap
from repro.disk.disk import SimDisk
from repro.errors import (
    CorruptMetadata,
    FileNotFound,
    FsError,
    NotMounted,
    VolumeFull,
)


@dataclass(frozen=True)
class CfsParams:
    """CFS volume parameters."""

    nt_pages: int = 2048          # name-table pages (2 sectors each)
    nt_cylinder: int = 5          # NOT central: CFS predates that insight
    cache_pages: int = 64
    max_io_sectors: int = 120
    max_file_runs: int = 512


@dataclass(frozen=True)
class CfsLayout:
    nt_start: int
    nt_sectors: int
    data_start: int
    data_end: int

    @classmethod
    def compute(cls, disk: SimDisk, params: CfsParams) -> "CfsLayout":
        geo = disk.geometry
        nt_start = geo.cylinder_start(params.nt_cylinder)
        nt_sectors = params.nt_pages * NT_PAGE_SECTORS
        data_start = nt_start + nt_sectors
        if data_start >= geo.total_sectors:
            raise FsError("volume too small for the CFS name table")
        return cls(
            nt_start=nt_start,
            nt_sectors=nt_sectors,
            data_start=data_start,
            data_end=geo.total_sectors,
        )


@dataclass
class CfsFile:
    """An open CFS file: properties and run table read from its header."""

    props: FileProperties
    runs: RunTable
    header_addr: int

    @property
    def byte_size(self) -> int:
        return self.props.byte_size


@dataclass
class CfsOpCounts:
    creates: int = 0
    opens: int = 0
    reads: int = 0
    writes: int = 0
    deletes: int = 0
    lists: int = 0
    header_reads: int = 0
    header_writes: int = 0
    label_verify_ios: int = 0
    extra: dict[str, int] = field(default_factory=dict)


class CFS:
    """One mounted CFS volume."""

    DEFAULT_KEEP = 2

    def __init__(
        self,
        disk: SimDisk,
        params: CfsParams,
        layout: CfsLayout,
        name_table: CfsNameTable,
        vam: VolumeAllocationMap,
        next_uid: int,
    ):
        self.disk = disk
        self.clock = disk.clock
        self.params = params
        self.layout = layout
        self.name_table = name_table
        self.vam = vam
        self.ops = CfsOpCounts()
        self._next_uid = next_uid
        self._cursor = layout.data_start
        self._mounted = True

    # ==================================================================
    # lifecycle
    # ==================================================================
    @classmethod
    def format(cls, disk: SimDisk, params: CfsParams | None = None) -> None:
        params = params or CfsParams()
        layout = CfsLayout.compute(disk, params)
        pager = CfsNameTablePager(
            disk,
            layout.nt_start,
            params.nt_pages,
            params.cache_pages,
            disk.clock,
        )
        CfsNameTable.format(pager)

    @classmethod
    def mount(cls, disk: SimDisk, params: CfsParams | None = None) -> "CFS":
        """Mount a CFS volume; reconstructs the VAM hint by reading
        every file's header (there is no saved free map)."""
        params = params or CfsParams()
        layout = CfsLayout.compute(disk, params)
        pager = CfsNameTablePager(
            disk,
            layout.nt_start,
            params.nt_pages,
            params.cache_pages,
            disk.clock,
        )
        name_table = CfsNameTable.open(pager)
        vam = VolumeAllocationMap(disk.geometry.total_sectors)
        vam.mark_allocated(Run(0, layout.data_start))
        max_uid = 0
        fs = cls(disk, params, layout, name_table, vam, next_uid=1)
        for name, version, uid, keep, header_addr in name_table.enumerate():
            max_uid = max(max_uid, uid)
            props, runs = fs._read_header(header_addr, uid)
            vam.mark_allocated(Run(header_addr, HEADER_SECTORS))
            for run in runs.runs:
                vam.mark_allocated(run)
        fs._next_uid = max_uid + 1
        return fs

    def crash(self) -> None:
        """All volatile state (caches, VAM hint) vanishes."""
        self.name_table.pager.discard_cache()
        self._mounted = False

    def unmount(self) -> None:
        """Mark the volume unmounted (CFS writes through; nothing to flush)."""
        self._mounted = False

    # ==================================================================
    # operations
    # ==================================================================
    def create(
        self, name: str, data: bytes = b"", keep: int | None = None
    ) -> CfsFile:
        """The paper's CFS create script: verify candidate pages free by
        reading labels, write labels to claim them, write the header,
        update the name table, write the data, rewrite the header."""
        self._enter()
        self.ops.creates += 1
        keep = self.DEFAULT_KEEP if keep is None else keep
        version = (self.name_table.highest_version(name) or 0) + 1
        uid = self._next_uid
        self._next_uid += 1
        sector_bytes = self.disk.geometry.sector_bytes
        data_sectors = -(-len(data) // sector_bytes)

        # Allocate header + data together so small files verify with a
        # single contiguous label read (the paper's 3-page transfer).
        table = self._allocate(HEADER_SECTORS + data_sectors)
        header_run = Run(table.runs[0].start, HEADER_SECTORS)
        runs = _strip_header(table)
        header_addr = header_run.start

        # 1) verify the candidate pages really are free: one label read
        #    per contiguous run (the paper's single 3-page transfer for
        #    a header+data allocation).
        for run in table.runs:
            self._verify_free(run)

        # 2) write header labels to claim them
        self.disk.write_labels(header_addr, header_labels(uid))
        # 3) write data labels to claim the data pages
        page = 0
        for run in runs.runs:
            self.disk.write_labels(run.start, data_labels(uid, page, run.count))
            page += run.count

        props = FileProperties(
            name=name,
            version=version,
            uid=uid,
            byte_size=len(data),
            create_time_ms=self.clock.now_ms,
            keep=keep,
        )
        # 4) write the header
        self._write_header(header_addr, props, runs)
        # 5) update the file name table (write-through B-tree)
        self.name_table.insert(props, header_addr)
        handle = CfsFile(props=props, runs=runs, header_addr=header_addr)
        if data:
            # 6) write the data
            self._write_payload(handle, 0, data)
            # 7) rewrite the header (final byte size)
            self._write_header(header_addr, props, runs)
        if keep > 0:
            self._trim_versions(name, keep)
        return handle

    def open(self, name: str, version: int | None = None) -> CfsFile:
        """Open = name-table lookup + header read (one I/O always)."""
        self._enter()
        self.ops.opens += 1
        name_, version_, uid, keep, header_addr = self._resolve(name, version)
        props, runs = self._read_header(header_addr, uid)
        return CfsFile(props=props, runs=runs, header_addr=header_addr)

    def read(
        self, handle: CfsFile, offset: int = 0, length: int | None = None
    ) -> bytes:
        """Read data pages, verifying each sector's label in microcode."""
        self._enter()
        self.ops.reads += 1
        if length is None:
            length = handle.props.byte_size - offset
        if offset < 0 or length < 0 or offset + length > handle.props.byte_size:
            raise FsError("read outside file")
        if length == 0:
            return b""
        sector_bytes = self.disk.geometry.sector_bytes
        first_page = offset // sector_bytes
        last_page = (offset + length - 1) // sector_bytes
        chunks: list[bytes] = []
        page = first_page
        for start, extent_count in handle.runs.extents_for(
            first_page, last_page - first_page + 1
        ):
            cursor = 0
            while cursor < extent_count:
                count = min(extent_count - cursor, self.params.max_io_sectors)
                labels = data_labels(handle.props.uid, page, count)
                chunks.extend(
                    self.disk.read(
                        start + cursor,
                        count,
                        expect_labels=labels,
                        cpu_overlap=True,
                    )
                )
                self.ops.label_verify_ios += 1
                cursor += count
                page += count
        blob = b"".join(chunks)
        skip = offset - first_page * sector_bytes
        return blob[skip : skip + length]

    def write(self, handle: CfsFile, offset: int, data: bytes) -> None:
        """Overwrite/extend; extension claims labels for the new pages
        and rewrites the header."""
        self._enter()
        self.ops.writes += 1
        if not data:
            return
        end = offset + len(data)
        self._ensure_capacity(handle, end)
        old_size = handle.props.byte_size
        self._write_payload(handle, offset, data, old_size)
        if end != handle.props.byte_size:
            handle.props = handle.props.with_updates(
                byte_size=max(end, handle.props.byte_size)
            )
        self._write_header(handle.header_addr, handle.props, handle.runs)

    def delete(self, name: str, version: int | None = None) -> FileProperties:
        """Delete: read the header, free every label, update the name
        table — each a synchronous I/O (Table 2's 214 ms small delete)."""
        self._enter()
        self.ops.deletes += 1
        name_, version_, uid, keep, header_addr = self._resolve(name, version)
        props, runs = self._read_header(header_addr, uid)
        # Free the data labels run by run.
        for run in runs.runs:
            self.disk.write_labels(run.start, [free_label()] * run.count)
            self.vam.mark_free(run)
        # Free the header labels.
        self.disk.write_labels(header_addr, [free_label()] * HEADER_SECTORS)
        self.vam.mark_free(Run(header_addr, HEADER_SECTORS))
        self.name_table.delete(name_, version_)
        return props

    def list(self, prefix: str = "") -> list[FileProperties]:
        """List with properties: CFS must read every file's header
        (Table 3: 146 I/Os to list 100 files, vs FSD's 3)."""
        self._enter()
        self.ops.lists += 1
        out = []
        for name, version, uid, keep, header_addr in self.name_table.enumerate(
            prefix
        ):
            props, _ = self._read_header(header_addr, uid)
            out.append(props)
        return out

    # ==================================================================
    # internals
    # ==================================================================
    def _enter(self) -> None:
        if not self._mounted:
            raise NotMounted("CFS volume is not mounted")
        self.clock.tick()

    def _resolve(
        self, name: str, version: int | None
    ) -> tuple[str, int, int, int, int]:
        if version is None:
            version = self.name_table.highest_version(name)
            if version is None:
                raise FileNotFound(name)
        entry = self.name_table.get(name, version)
        if entry is None:
            raise FileNotFound(f"{name}!{version}")
        uid, keep, header_addr = entry
        return name, version, uid, keep, header_addr

    def _trim_versions(self, name: str, keep: int) -> None:
        versions = self.name_table.versions(name)
        while len(versions) > keep:
            self.delete(name, versions.pop(0))
            self.ops.deletes -= 1  # internal trim, not a client delete

    # ------------------------------------------------------------------
    # allocation (the fragmenting single-area first-fit, §5.6)
    # ------------------------------------------------------------------
    def _allocate(self, sectors: int) -> RunTable:
        table = RunTable()
        remaining = sectors
        wrapped = False
        cursor = self._cursor
        while remaining > 0:
            run = self.vam.find_free_run(
                cursor, self.layout.data_end, remaining, ascending=True
            )
            if run is None:
                if wrapped:
                    for taken in table.runs:
                        self.vam.mark_free(taken)
                    raise VolumeFull(f"CFS: no room for {sectors} sectors")
                wrapped = True
                cursor = self.layout.data_start
                continue
            self.vam.mark_allocated(run)
            table.append(run)
            remaining -= run.count
            cursor = run.end
        self._cursor = cursor
        if len(table.runs) > self.params.max_file_runs:
            for taken in table.runs:
                self.vam.mark_free(taken)
            raise VolumeFull("CFS: allocation too fragmented")
        return table

    def _verify_free(self, run: Run) -> None:
        """Read the candidate pages' labels and check they are free
        (the VAM is only a hint)."""
        cursor = 0
        while cursor < run.count:
            count = min(run.count - cursor, self.params.max_io_sectors)
            labels = self.disk.read_labels(run.start + cursor, count)
            for offset, label in enumerate(labels):
                if not is_free(label):
                    raise CorruptMetadata(
                        f"sector {run.start + cursor + offset} claimed "
                        f"free but label says otherwise"
                    )
            cursor += count

    # ------------------------------------------------------------------
    # header I/O
    # ------------------------------------------------------------------
    def _read_header(
        self, header_addr: int, uid: int
    ) -> tuple[FileProperties, RunTable]:
        self.ops.header_reads += 1
        sectors = self.disk.read(
            header_addr, HEADER_SECTORS, expect_labels=header_labels(uid)
        )
        return decode_header(sectors, self.disk.geometry.sector_bytes)

    def _write_header(
        self, header_addr: int, props: FileProperties, runs: RunTable
    ) -> None:
        self.ops.header_writes += 1
        sectors = encode_header(props, runs, self.disk.geometry.sector_bytes)
        self.disk.write(
            header_addr,
            sectors,
            expect_labels=header_labels(props.uid),
        )

    # ------------------------------------------------------------------
    # data I/O
    # ------------------------------------------------------------------
    def _ensure_capacity(self, handle: CfsFile, byte_size: int) -> None:
        sector_bytes = self.disk.geometry.sector_bytes
        have = handle.runs.total_sectors
        need = -(-byte_size // sector_bytes)
        if need <= have:
            return
        extra = self._allocate(need - have)
        page = have
        for run in extra.runs:
            self._verify_free(run)
            self.disk.write_labels(
                run.start, data_labels(handle.props.uid, page, run.count)
            )
            page += run.count
            handle.runs.append(run)

    def _write_payload(
        self,
        handle: CfsFile,
        offset: int,
        data: bytes,
        old_size: int | None = None,
    ) -> None:
        sector_bytes = self.disk.geometry.sector_bytes
        old_size = handle.props.byte_size if old_size is None else old_size
        end = offset + len(data)
        first_page = offset // sector_bytes
        last_page = (end - 1) // sector_bytes
        head_pad = offset - first_page * sector_bytes
        payload = data
        if head_pad:
            payload = (
                self._read_page(handle, first_page)[:head_pad] + payload
            )
        if end % sector_bytes and end < old_size:
            tail = self._read_page(handle, last_page)
            payload = payload + tail[end % sector_bytes :]
        sectors = [
            payload[i : i + sector_bytes]
            for i in range(0, len(payload), sector_bytes)
        ]
        page = first_page
        cursor = 0
        for start, extent_count in handle.runs.extents_for(
            first_page, last_page - first_page + 1
        ):
            inner = 0
            while inner < extent_count:
                count = min(
                    extent_count - inner, self.params.max_io_sectors
                )
                labels = data_labels(handle.props.uid, page, count)
                self.disk.write(
                    start + inner,
                    sectors[cursor : cursor + count],
                    expect_labels=labels,
                    cpu_overlap=True,
                )
                self.ops.label_verify_ios += 1
                inner += count
                cursor += count
                page += count

    def _read_page(self, handle: CfsFile, page: int) -> bytes:
        if page * self.disk.geometry.sector_bytes >= handle.props.byte_size:
            return b"\x00" * self.disk.geometry.sector_bytes
        address = handle.runs.sector_of_page(page)
        labels = data_labels(handle.props.uid, page, 1)
        return self.disk.read(address, 1, expect_labels=labels)[0]


def _strip_header(table: RunTable) -> RunTable:
    """Remove the first HEADER_SECTORS sectors from an allocation."""
    runs = RunTable()
    skip = HEADER_SECTORS
    for run in table.runs:
        if skip >= run.count:
            skip -= run.count
            continue
        runs.append(Run(run.start + skip, run.count - skip))
        skip = 0
    return runs
