"""CFS's file name table (paper Table 1, §5.3).

A B-tree mapping (name, version) to (uid, keep, header page 0 disk
address) — the properties and run table live in the file header, so
almost every operation that needs them costs a header read.

The CFS tree has the two weaknesses the paper calls out and FSD fixes:

* pages span **multiple disk sectors** and are written **in place**,
  so a crash mid-write can corrupt a page (the simulated disk's
  weak-atomic writes reproduce this), and
* multi-page operations (splits, joins) are **not atomic**, so a crash
  between page writes leaves the tree inconsistent — only the
  scavenger can repair it.

Pages are written through (no delayed write); a small read cache keeps
hot interior pages in memory, as the real system's buffering did.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

from repro.btree import BTree
from repro.cfs.labels import PAGE_NAME_TABLE, make_label
from repro.core.types import (
    FileProperties,
    decode_key,
    encode_key,
    prefix_range,
    version_range,
)
from repro.disk.clock import SimClock
from repro.disk.disk import SimDisk
from repro.errors import CorruptMetadata, VolumeFull
from repro.serial import Packer, Unpacker

#: CFS name-table pages span multiple sectors (the corruption source).
NT_PAGE_SECTORS = 2

#: uid under which the name-table extent's labels are written.
NAME_TABLE_UID = 0x4346534E54  # "CFSNT"


class CfsNameTablePager:
    """Write-through pager over the CFS name-table extent."""

    def __init__(
        self,
        disk: SimDisk,
        extent_start: int,
        nt_pages: int,
        cache_pages: int,
        clock: SimClock,
    ):
        self.disk = disk
        self.extent_start = extent_start
        self.nt_pages = nt_pages
        self.page_size = NT_PAGE_SECTORS * disk.geometry.sector_bytes
        self.clock = clock
        self._cache: OrderedDict[int, bytes] = OrderedDict()
        self._cache_capacity = cache_pages
        # Volatile allocation bitmap, rebuilt at mount by walking the
        # tree; CFS had no crash-consistent page allocator either.
        self._used: set[int] = set()
        self._cursor = 1
        self.reads = 0
        self.writes = 0
        self.cache_hits = 0
        self.cache_misses = 0

    def _address(self, page_no: int) -> int:
        if not (0 <= page_no < self.nt_pages):
            raise CorruptMetadata(f"CFS name-table page {page_no} out of range")
        return self.extent_start + page_no * NT_PAGE_SECTORS

    def _labels(self, page_no: int) -> list[bytes]:
        return [
            make_label(NAME_TABLE_UID, page_no * NT_PAGE_SECTORS + i, PAGE_NAME_TABLE)
            for i in range(NT_PAGE_SECTORS)
        ]

    # -- Pager protocol -------------------------------------------------
    def read(self, page_no: int) -> bytes:
        """B-tree pager read: cached, else a label-verified disk read."""
        self.clock.advance_cpu(self.clock.cpu.btree_node_ms)
        cached = self._cache.get(page_no)
        if cached is not None:
            self.cache_hits += 1
            self._cache.move_to_end(page_no)
            return cached
        self.cache_misses += 1
        self.reads += 1
        sectors = self.disk.read(
            self._address(page_no),
            NT_PAGE_SECTORS,
            expect_labels=self._labels(page_no),
        )
        data = b"".join(sectors)
        self._remember(page_no, data)
        return data

    def write(self, page_no: int, data: bytes) -> None:
        """Write through, in place, non-atomically."""
        self.clock.advance_cpu(self.clock.cpu.btree_node_ms)
        data = data.ljust(self.page_size, b"\x00")
        sector_bytes = self.disk.geometry.sector_bytes
        sectors = [
            data[i : i + sector_bytes] for i in range(0, len(data), sector_bytes)
        ]
        self.writes += 1
        self.disk.write(
            self._address(page_no), sectors, set_labels=self._labels(page_no)
        )
        self._remember(page_no, data)

    def allocate(self) -> int:
        """Allocate a free page in the name-table extent (volatile map)."""
        for probe in range(1, self.nt_pages):
            page_no = 1 + (self._cursor - 1 + probe - 1) % (self.nt_pages - 1)
            if page_no not in self._used:
                self._used.add(page_no)
                self._cursor = page_no + 1
                return page_no
        raise VolumeFull("CFS name table out of pages")

    def free(self, page_no: int) -> None:
        """Release a name-table page and drop it from the cache."""
        self._used.discard(page_no)
        self._cache.pop(page_no, None)

    def prefetch(self, page_nos: list[int]) -> None:
        """Scan hint, ignored: CFS reads its name table a page at a
        time (the behaviour Table 3 measures FSD against)."""

    # -- cache ----------------------------------------------------------
    def _remember(self, page_no: int, data: bytes) -> None:
        self._cache[page_no] = data
        self._cache.move_to_end(page_no)
        while len(self._cache) > self._cache_capacity:
            self._cache.popitem(last=False)

    def mark_used(self, page_no: int) -> None:
        """Record a page as in use (rebuilding the volatile map)."""
        self._used.add(page_no)

    def discard_cache(self) -> None:
        """A crash: the read cache vanishes."""
        self._cache.clear()


# ----------------------------------------------------------------------
# entry codec: Table 1's CFS name-table columns
# ----------------------------------------------------------------------
def encode_cfs_entry(uid: int, keep: int, header_addr: int) -> bytes:
    """Serialize a CFS name-table value (Table 1's columns)."""
    return Packer().u64(uid).u8(keep).u32(header_addr).bytes()


def decode_cfs_entry(value: bytes) -> tuple[int, int, int]:
    """Parse a CFS name-table value into (uid, keep, header addr)."""
    reader = Unpacker(value)
    return reader.u64(), reader.u8(), reader.u32()


class CfsNameTable:
    """Typed wrapper: (name, version) -> (uid, keep, header address)."""

    def __init__(self, tree: BTree, pager: CfsNameTablePager):
        self.tree = tree
        self.pager = pager

    @classmethod
    def format(cls, pager: CfsNameTablePager) -> "CfsNameTable":
        pager.mark_used(0)
        tree = BTree.create(pager)
        return cls(tree, pager)

    @classmethod
    def open(cls, pager: CfsNameTablePager) -> "CfsNameTable":
        tree = BTree.open(pager)
        table = cls(tree, pager)
        table._rebuild_used_pages()
        return table

    def _rebuild_used_pages(self) -> None:
        """Walk the tree to learn which extent pages are in use."""
        self.pager.mark_used(0)

        def walk(page_no: int) -> None:
            from repro.btree.node import Node

            self.pager.mark_used(page_no)
            node = Node.from_bytes(self.pager.read(page_no))
            if not node.is_leaf:
                for child in node.children:
                    walk(child)

        walk(self.tree._root)

    # ------------------------------------------------------------------
    def insert(self, props: FileProperties, header_addr: int) -> None:
        """Insert (or replace) the entry for a file version."""
        self.tree.insert(
            encode_key(props.name, props.version, 0),
            encode_cfs_entry(props.uid, props.keep, header_addr),
        )

    def get(self, name: str, version: int) -> tuple[int, int, int] | None:
        """Entry for (name, version) or None."""
        value = self.tree.get(encode_key(name, version, 0))
        return None if value is None else decode_cfs_entry(value)

    def delete(self, name: str, version: int) -> bool:
        """Remove an entry; True if it existed."""
        return self.tree.delete(encode_key(name, version, 0))

    def versions(self, name: str) -> list[int]:
        """All versions of ``name``, ascending."""
        out = []
        for keys, _ in self.tree.scan_leaves(*version_range(name)):
            for key in keys:
                _, version, chunk = decode_key(key)
                if chunk == 0:
                    out.append(version)
        return out

    def highest_version(self, name: str) -> int | None:
        """Newest version of ``name``, or None."""
        versions = self.versions(name)
        return versions[-1] if versions else None

    def enumerate(
        self, prefix: str = ""
    ) -> Iterator[tuple[str, int, int, int, int]]:
        """Yield (name, version, uid, keep, header_addr) in name order."""
        for keys, values in self.tree.scan_leaves(*prefix_range(prefix)):
            for key, value in zip(keys, values):
                name, version, chunk = decode_key(key)
                if prefix and not name.startswith(prefix):
                    return
                if chunk != 0:
                    continue
                uid, keep, header_addr = decode_cfs_entry(value)
                yield name, version, uid, keep, header_addr
