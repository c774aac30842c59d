"""A simplified 4.3 BSD fast file system on the simulated disk.

This is the comparison system of the paper's Tables 4 and 5.  The
properties that matter for those tables are faithfully modelled:

* **synchronous metadata writes**: a create writes the directory block
  and the inode synchronously, in that order (the §5.3 contrast with
  logging: "a file create in UNIX writes the inode to disk before
  returning");
* **inode clustering**: inodes live in per-cylinder-group tables, so
  "a disk read fetches several inodes" — listing 100 files in one
  directory costs only a handful of I/Os (Table 4);
* **block-at-a-time data I/O** through a buffer cache, with big files
  laid out at a rotational-delay stride — the reason 4.2 BSD delivers
  about half the raw disk bandwidth in Table 5;
* **fsck recovery**: bitmaps are only persisted at clean unmount, so
  after a crash the volume must be checked end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bsd.buffer_cache import BufferCache
from repro.bsd.directory import (
    decode_dir_block,
    dir_block_fits,
    encode_dir_block,
    validate_component,
)
from repro.bsd.inode import (
    Inode,
    MODE_DIR,
    MODE_FILE,
    NDIRECT,
    PTRS_PER_INDIRECT,
    decode_indirect,
    encode_indirect,
)
from repro.bsd.layout import (
    BLOCK_SECTORS,
    FfsLayout,
    FfsParams,
    INODE_BYTES,
    Superblock,
)
from repro.disk.disk import SimDisk
from repro.errors import (
    CorruptMetadata,
    FileExists,
    FileNotFound,
    FsError,
    NotMounted,
    VolumeFull,
)
from repro.serial import Packer, Unpacker, checksum

_CG_MAGIC = 0x43473331  # "CG31"

_BLOCK_BYTES = BLOCK_SECTORS * 512

ROOT_INO = 2


@dataclass
class FfsFile:
    ino: int
    inode: Inode
    path: str


@dataclass
class FfsOpCounts:
    creates: int = 0
    opens: int = 0
    reads: int = 0
    writes: int = 0
    deletes: int = 0
    lists: int = 0
    namei_cache_hits: int = 0
    namei_dir_scans: int = 0
    extra: dict[str, int] = field(default_factory=dict)


class GroupBitmaps:
    """Volatile per-group free maps (persisted only at clean unmount)."""

    def __init__(self, layout: FfsLayout):
        self.layout = layout
        self.data_blocks = [
            (layout.data_end(g) - layout.data_start(g)) // BLOCK_SECTORS
            for g in range(layout.group_count)
        ]
        self.block_used = [bytearray(n) for n in self.data_blocks]
        self.inode_used = [
            bytearray(layout.params.inodes_per_group)
            for _ in range(layout.group_count)
        ]
        self.block_cursor = [0] * layout.group_count

    # -- blocks ---------------------------------------------------------
    def block_addr(self, group: int, index: int) -> int:
        """Disk address of data block ``index`` in ``group``."""
        return self.layout.data_start(group) + index * BLOCK_SECTORS

    def index_of(self, address: int) -> tuple[int, int]:
        """(group, block index) for a data block address."""
        group = self.layout.group_of_sector(address)
        index = (address - self.layout.data_start(group)) // BLOCK_SECTORS
        if not (0 <= index < self.data_blocks[group]):
            raise CorruptMetadata(f"sector {address} is not a data block")
        return group, index

    def alloc_block(self, group: int, preferred: int | None = None) -> int:
        """Allocate a data block, preferring ``preferred`` (a block
        address) for rotational layout, then the group, then any group."""
        if preferred is not None:
            try:
                pref_group, index = self.index_of(preferred)
                if not self.block_used[pref_group][index]:
                    self.block_used[pref_group][index] = 1
                    return preferred
            except CorruptMetadata:
                pass
        order = [group] + [
            g for g in range(self.layout.group_count) if g != group
        ]
        for g in order:
            used = self.block_used[g]
            start = self.block_cursor[g]
            n = self.data_blocks[g]
            for probe in range(n):
                index = (start + probe) % n
                if not used[index]:
                    used[index] = 1
                    self.block_cursor[g] = index + 1
                    return self.block_addr(g, index)
        raise VolumeFull("FFS: no free blocks")

    def free_block(self, address: int) -> None:
        """Release a data block (double free raises)."""
        group, index = self.index_of(address)
        if not self.block_used[group][index]:
            raise CorruptMetadata(f"double free of block {address}")
        self.block_used[group][index] = 0

    # -- inodes -----------------------------------------------------------
    def alloc_inode(self, group: int) -> int:
        """Allocate a free inode, preferring ``group``."""
        order = [group] + [
            g for g in range(self.layout.group_count) if g != group
        ]
        per = self.layout.params.inodes_per_group
        for g in order:
            used = self.inode_used[g]
            for slot in range(per):
                ino = g * per + slot
                if ino in (0, 1):  # reserved, like the real FFS
                    continue
                if not used[slot]:
                    used[slot] = 1
                    return ino
        raise VolumeFull("FFS: no free inodes")

    def mark_inode(self, ino: int, used: bool) -> None:
        """Set an inode's bitmap state directly."""
        per = self.layout.params.inodes_per_group
        group, slot = divmod(ino, per)
        self.inode_used[group][slot] = 1 if used else 0

    # -- persistence (cg header blocks) -----------------------------------
    def encode_group(self, group: int) -> bytes:
        """Serialize the group's bitmaps into its cg header block."""
        body = Packer()
        body.u16(len(self.block_used[group]))
        body.raw(bytes(self.block_used[group]))
        body.raw(bytes(self.inode_used[group]))
        payload = body.bytes()
        out = Packer(capacity=_BLOCK_BYTES)
        out.u32(_CG_MAGIC)
        out.u32(checksum(payload))
        out.u32(len(payload))
        out.raw(payload)
        return out.bytes(pad_to=_BLOCK_BYTES)

    def decode_group(self, group: int, data: bytes) -> None:
        """Load the group's bitmaps from its cg header block."""
        reader = Unpacker(data)
        if reader.u32() != _CG_MAGIC:
            raise CorruptMetadata(f"bad cg header magic in group {group}")
        expect = reader.u32()
        payload = reader.raw(reader.u32())
        if checksum(payload) != expect:
            raise CorruptMetadata(f"cg header checksum in group {group}")
        body = Unpacker(payload)
        count = body.u16()
        if count != self.data_blocks[group]:
            raise CorruptMetadata(f"cg header geometry mismatch in {group}")
        self.block_used[group] = bytearray(body.raw(count))
        self.inode_used[group] = bytearray(
            body.raw(self.layout.params.inodes_per_group)
        )


class FFS:
    """One mounted FFS volume."""

    def __init__(
        self,
        disk: SimDisk,
        layout: FfsLayout,
        superblock: Superblock,
        bitmaps: GroupBitmaps,
    ):
        self.disk = disk
        self.clock = disk.clock
        self.layout = layout
        self.params = layout.params
        self.superblock = superblock
        self.bitmaps = bitmaps
        self.cache = BufferCache(disk, layout.params.buffer_cache_blocks)
        self.ops = FfsOpCounts()
        self._dnlc: dict[tuple[int, str], int] = {}  # name cache
        self._mounted = True

    # ==================================================================
    # lifecycle
    # ==================================================================
    @classmethod
    def format(cls, disk: SimDisk, params: FfsParams | None = None) -> None:
        params = params or FfsParams()
        layout = FfsLayout.compute(disk.geometry, params)
        bitmaps = GroupBitmaps(layout)
        cache = BufferCache(disk, params.buffer_cache_blocks)
        # Root directory inode.
        root = Inode(mode=MODE_DIR, nlink=2, size=0)
        address, offset = layout.inode_location(ROOT_INO)
        block = bytearray(cache.read_block(address))
        block[offset : offset + INODE_BYTES] = root.encode()
        cache.write_block(address, bytes(block))
        bitmaps.mark_inode(ROOT_INO, True)
        for group in range(layout.group_count):
            cache.write_block(
                layout.cg_header_addr(group), bitmaps.encode_group(group)
            )
        superblock = Superblock(
            params=params, total_sectors=disk.geometry.total_sectors, clean=True
        )
        disk.write(
            layout.superblock_addr,
            [superblock.encode(disk.geometry.sector_bytes)],
        )

    @classmethod
    def mount(cls, disk: SimDisk, params: FfsParams | None = None) -> "FFS":
        probe = FfsLayout.compute(disk.geometry, params or FfsParams())
        raw = disk.read(probe.superblock_addr, 1)[0]
        superblock = Superblock.decode(raw)
        if not superblock.clean:
            raise FsError("FFS volume is dirty: run fsck first")
        layout = FfsLayout.compute(disk.geometry, superblock.params)
        bitmaps = GroupBitmaps(layout)
        fs = cls(disk, layout, superblock, bitmaps)
        for group in range(layout.group_count):
            data = fs.cache.read_block(layout.cg_header_addr(group))
            bitmaps.decode_group(group, data)
        # Mark the volume dirty until a clean unmount.
        superblock.clean = False
        disk.write(
            layout.superblock_addr,
            [superblock.encode(disk.geometry.sector_bytes)],
        )
        return fs

    def unmount(self) -> None:
        """Clean shutdown: persist bitmaps and mark the superblock clean."""
        self._enter()
        for group in range(self.layout.group_count):
            self.cache.write_block(
                self.layout.cg_header_addr(group),
                self.bitmaps.encode_group(group),
            )
        self.superblock.clean = True
        self.disk.write(
            self.layout.superblock_addr,
            [self.superblock.encode(self.disk.geometry.sector_bytes)],
        )
        self._mounted = False

    def crash(self) -> None:
        """All volatile state (buffer cache, namei cache) vanishes."""
        self.cache.invalidate()
        self._dnlc.clear()
        self._mounted = False

    # ==================================================================
    # operations
    # ==================================================================
    def mkdir(self, path: str) -> int:
        """Create a directory; returns its inode number."""
        self._enter()
        parent_ino, name = self._split(path)
        parent = self._read_inode(parent_ino)
        if self._dir_lookup(parent_ino, parent, name) is not None:
            raise FileExists(path)
        ino = self.bitmaps.alloc_inode(self._group_of_inode(parent_ino))
        self._add_dirent(parent_ino, parent, name, ino)
        self._write_inode(ino, Inode(mode=MODE_DIR, nlink=2, size=0))
        return ino

    def create(self, path: str, data: bytes = b"") -> FfsFile:
        """creat()+write()+close(): synchronous dirent write, data block
        writes, then the synchronous inode write."""
        self._enter()
        self.ops.creates += 1
        parent_ino, name = self._split(path)
        parent = self._read_inode(parent_ino)
        if self._dir_lookup(parent_ino, parent, name) is not None:
            raise FileExists(path)
        group = self._group_of_inode(parent_ino)
        ino = self.bitmaps.alloc_inode(group)
        self._add_dirent(parent_ino, parent, name, ino)  # sync write #1
        inode = Inode(mode=MODE_FILE, nlink=1, mtime_ms=self.clock.now_ms)
        if data:
            self._write_file_data(ino, inode, data, group)
        self._write_inode(ino, inode)  # sync write #2 (close)
        return FfsFile(ino=ino, inode=inode, path=path)

    def open(self, path: str) -> FfsFile:
        """namei + inode read; returns an open-file handle."""
        self._enter()
        self.ops.opens += 1
        ino = self._namei(path)
        inode = self._read_inode(ino)
        if inode.is_free:
            raise CorruptMetadata(f"{path}: dirent points at a free inode")
        return FfsFile(ino=ino, inode=inode, path=path)

    def read(
        self, handle: FfsFile, offset: int = 0, length: int | None = None
    ) -> bytes:
        """Read file bytes block-at-a-time through the buffer cache."""
        self._enter()
        self.ops.reads += 1
        inode = handle.inode
        if length is None:
            length = inode.size - offset
        if offset < 0 or length < 0 or offset + length > inode.size:
            raise FsError("read outside file")
        if length == 0:
            return b""
        blocks = self._file_blocks(inode)
        first = offset // _BLOCK_BYTES
        last = (offset + length - 1) // _BLOCK_BYTES
        chunks = [
            self.cache.read_block(blocks[index])
            for index in range(first, last + 1)
        ]
        blob = b"".join(chunks)
        skip = offset - first * _BLOCK_BYTES
        return blob[skip : skip + length]

    def write(self, handle: FfsFile, offset: int, data: bytes) -> None:
        """Overwrite/extend an open file; rewrites the inode when it
        changes (synchronously, as 4.3 BSD does on close/sync)."""
        self._enter()
        self.ops.writes += 1
        if not data:
            return
        inode = handle.inode
        end = offset + len(data)
        blocks = self._file_blocks(inode)
        group = self._group_of_inode(handle.ino)
        needed = -(-end // _BLOCK_BYTES)
        grew = False
        while len(blocks) < needed:
            preferred = None
            if blocks and end >= self.params.big_file_threshold_bytes:
                preferred = blocks[-1] + self.params.rotdelay_stride_sectors
            blocks.append(self.bitmaps.alloc_block(group, preferred))
            grew = True
        first = offset // _BLOCK_BYTES
        last = (end - 1) // _BLOCK_BYTES
        for index in range(first, last + 1):
            block_start = index * _BLOCK_BYTES
            lo = max(offset, block_start) - block_start
            hi = min(end, block_start + _BLOCK_BYTES) - block_start
            if lo == 0 and hi == _BLOCK_BYTES:
                payload = data[block_start - offset : block_start - offset + _BLOCK_BYTES]
            else:
                base = (
                    bytearray(self.cache.read_block(blocks[index]))
                    if block_start < inode.size
                    else bytearray(_BLOCK_BYTES)
                )
                base[lo:hi] = data[
                    block_start + lo - offset : block_start + hi - offset
                ]
                payload = bytes(base)
            self.cache.write_block(blocks[index], payload)
        if grew or end > inode.size:
            inode.size = max(inode.size, end)
            inode.mtime_ms = self.clock.now_ms
            self._store_block_list(inode, blocks)
            self._write_inode(handle.ino, inode)

    def delete(self, path: str) -> None:
        """unlink(): rewrite the directory block and free the inode,
        both synchronously."""
        self._enter()
        self.ops.deletes += 1
        parent_ino, name = self._split(path)
        parent = self._read_inode(parent_ino)
        ino = self._dir_lookup(parent_ino, parent, name)
        if ino is None:
            raise FileNotFound(path)
        inode = self._read_inode(ino)
        self._remove_dirent(parent_ino, parent, name)  # sync write #1
        for address in self._file_blocks(inode):
            self.bitmaps.free_block(address)
        if inode.indirect:
            self.bitmaps.free_block(inode.indirect)
        self.bitmaps.mark_inode(ino, False)
        self._write_inode(ino, Inode())  # sync write #2
        self._dnlc.pop((parent_ino, name), None)

    def list(self, path: str = "") -> list[tuple[str, int, float]]:
        """ls -l: scan the directory, then read every entry's inode
        (several per inode-table block)."""
        self._enter()
        self.ops.lists += 1
        dir_ino = self._namei(path) if path else ROOT_INO
        dir_inode = self._read_inode(dir_ino)
        out = []
        for name, ino in self._dir_entries(dir_ino, dir_inode):
            inode = self._read_inode(ino)
            out.append((name, inode.size, inode.mtime_ms))
        return out

    # ==================================================================
    # internals
    # ==================================================================
    def _enter(self) -> None:
        if not self._mounted:
            raise NotMounted("FFS volume is not mounted")
        self.clock.tick()

    def _group_of_inode(self, ino: int) -> int:
        return ino // self.params.inodes_per_group

    # -- inodes ----------------------------------------------------------
    def _read_inode(self, ino: int) -> Inode:
        address, offset = self.layout.inode_location(ino)
        block = self.cache.read_block(address)
        return Inode.decode(block[offset : offset + INODE_BYTES])

    def _write_inode(self, ino: int, inode: Inode) -> None:
        address, offset = self.layout.inode_location(ino)
        block = bytearray(self.cache.read_block(address))
        block[offset : offset + INODE_BYTES] = inode.encode()
        self.cache.write_block(address, bytes(block))

    # -- block lists -------------------------------------------------------
    def _file_blocks(self, inode: Inode) -> list[int]:
        blocks = [a for a in inode.direct if a]
        if inode.indirect:
            pointers = decode_indirect(self.cache.read_block(inode.indirect))
            blocks.extend(a for a in pointers if a)
        return blocks[: inode.block_count()] if inode.size else blocks

    def _store_block_list(self, inode: Inode, blocks: list[int]) -> None:
        inode.direct = (blocks[:NDIRECT] + [0] * NDIRECT)[:NDIRECT]
        rest = blocks[NDIRECT:]
        if rest:
            if len(rest) > PTRS_PER_INDIRECT:
                raise FsError("file exceeds single-indirect capacity")
            if not inode.indirect:
                group = self.bitmaps.index_of(blocks[0])[0]
                inode.indirect = self.bitmaps.alloc_block(group)
            self.cache.write_block(
                inode.indirect,
                encode_indirect(rest + [0] * (PTRS_PER_INDIRECT - len(rest))),
            )
        elif inode.indirect:
            self.bitmaps.free_block(inode.indirect)
            inode.indirect = 0

    def _write_file_data(
        self, ino: int, inode: Inode, data: bytes, group: int
    ) -> None:
        """Initial data write for a create: allocate and write block by
        block (big files at the rotdelay stride)."""
        needed = -(-len(data) // _BLOCK_BYTES)
        big = len(data) >= self.params.big_file_threshold_bytes
        blocks: list[int] = []
        for _ in range(needed):
            preferred = (
                blocks[-1] + self.params.rotdelay_stride_sectors
                if blocks and big
                else None
            )
            blocks.append(self.bitmaps.alloc_block(group, preferred))
        for index, address in enumerate(blocks):
            chunk = data[index * _BLOCK_BYTES : (index + 1) * _BLOCK_BYTES]
            self.cache.write_block(address, chunk)
        inode.size = len(data)
        self._store_block_list(inode, blocks)

    # -- directories --------------------------------------------------------
    def _split(self, path: str) -> tuple[int, str]:
        parts = [p for p in path.split("/") if p]
        if not parts:
            raise FsError("empty path")
        name = validate_component(parts[-1])
        parent_ino = ROOT_INO
        for component in parts[:-1]:
            parent_ino = self._lookup_component(parent_ino, component)
        return parent_ino, name

    def _namei(self, path: str) -> int:
        parts = [p for p in path.split("/") if p]
        ino = ROOT_INO
        for component in parts:
            ino = self._lookup_component(ino, validate_component(component))
        return ino

    def _lookup_component(self, dir_ino: int, name: str) -> int:
        cached = self._dnlc.get((dir_ino, name))
        if cached is not None:
            self.ops.namei_cache_hits += 1
            return cached
        self.ops.namei_dir_scans += 1
        dir_inode = self._read_inode(dir_ino)
        found = self._dir_lookup(dir_ino, dir_inode, name)
        if found is None:
            raise FileNotFound(name)
        return found

    def _dir_blocks(self, dir_inode: Inode) -> list[int]:
        return self._file_blocks(dir_inode)

    def _dir_entries(
        self, dir_ino: int, dir_inode: Inode
    ) -> list[tuple[str, int]]:
        entries: list[tuple[str, int]] = []
        for address in self._dir_blocks(dir_inode):
            entries.extend(decode_dir_block(self.cache.read_block(address)))
        return entries

    def _dir_lookup(
        self, dir_ino: int, dir_inode: Inode, name: str
    ) -> int | None:
        for address in self._dir_blocks(dir_inode):
            for entry_name, ino in decode_dir_block(
                self.cache.read_block(address)
            ):
                self._dnlc[(dir_ino, entry_name)] = ino
                if entry_name == name:
                    return ino
        return None

    def _add_dirent(
        self, dir_ino: int, dir_inode: Inode, name: str, ino: int
    ) -> None:
        blocks = self._dir_blocks(dir_inode)
        if blocks:
            last = blocks[-1]
            entries = decode_dir_block(self.cache.read_block(last))
            if dir_block_fits(entries + [(name, ino)]):
                entries.append((name, ino))
                self.cache.write_block(last, encode_dir_block(entries))
                self._dnlc[(dir_ino, name)] = ino
                return
        group = self._group_of_inode(dir_ino)
        address = self.bitmaps.alloc_block(group)
        self.cache.write_block(address, encode_dir_block([(name, ino)]))
        blocks.append(address)
        dir_inode.size = len(blocks) * _BLOCK_BYTES
        self._store_block_list(dir_inode, blocks)
        self._write_inode(dir_ino, dir_inode)
        self._dnlc[(dir_ino, name)] = ino

    def _remove_dirent(
        self, dir_ino: int, dir_inode: Inode, name: str
    ) -> None:
        for address in self._dir_blocks(dir_inode):
            entries = decode_dir_block(self.cache.read_block(address))
            kept = [(n, i) for n, i in entries if n != name]
            if len(kept) != len(entries):
                self.cache.write_block(address, encode_dir_block(kept))
                return
        raise FileNotFound(name)
