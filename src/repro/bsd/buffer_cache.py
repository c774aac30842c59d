"""The BSD buffer cache: block-granular, LRU, write-through here.

4.3 BSD's metadata writes are synchronous (the paper contrasts this
with logging in §5.3, citing Bach's discussion); data writes in this
simplified kernel are write-through as well, which matches how the
paper's Table 4 counts create I/Os (dirent + inode + data per create).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.bsd.layout import BLOCK_SECTORS
from repro.disk.disk import SimDisk


class BufferCache:
    """LRU cache of 4 KB blocks keyed by start sector address."""

    def __init__(self, disk: SimDisk, capacity_blocks: int):
        self.disk = disk
        self.capacity = capacity_blocks
        self._blocks: OrderedDict[int, bytes] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def _charge_serial(self, write: bool) -> None:
        cpu = self.disk.clock.cpu
        self.disk.clock.advance_cpu(
            cpu.bsd_write_serial_ms if write else cpu.bsd_block_serial_ms
        )

    def _charge_overlap(self, write: bool) -> None:
        cpu = self.disk.clock.cpu
        self.disk.clock.charge_overlapped_cpu(
            cpu.bsd_write_overlap_ms if write else cpu.bsd_read_overlap_ms
        )

    def read_block(self, address: int) -> bytes:
        """Read one block through the cache."""
        cached = self._blocks.get(address)
        if cached is not None:
            self.hits += 1
            self._blocks.move_to_end(address)
            return cached
        self.misses += 1
        self._charge_serial(write=False)
        self._charge_overlap(write=False)
        sectors = self.disk.read(address, BLOCK_SECTORS, cpu_overlap=True)
        data = b"".join(sectors)
        self._remember(address, data)
        return data

    def write_block(self, address: int, data: bytes) -> None:
        """Write one block through to disk (synchronous)."""
        data = data.ljust(BLOCK_SECTORS * 512, b"\x00")
        self._charge_serial(write=True)
        self._charge_overlap(write=True)
        sector_bytes = self.disk.geometry.sector_bytes
        sectors = [
            data[i : i + sector_bytes]
            for i in range(0, len(data), sector_bytes)
        ]
        self.disk.write(address, sectors, cpu_overlap=True)
        self._remember(address, data)

    def invalidate(self) -> None:
        """A crash: every buffered block vanishes."""
        self._blocks.clear()

    def _remember(self, address: int, data: bytes) -> None:
        self._blocks[address] = data
        self._blocks.move_to_end(address)
        while len(self._blocks) > self.capacity:
            self._blocks.popitem(last=False)
