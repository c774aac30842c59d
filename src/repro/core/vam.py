"""The Volume Allocation Map (paper §5.5).

The VAM is a free-page bitmap kept *entirely in volatile memory*: FSD
"avoids all disk writes during normal operations" for free-page
bookkeeping.  It is saved to disk on a controlled shutdown; on boot it
is either loaded (if properly saved) or reconstructed from the file
name table, which is compact and local enough to process quickly.

Pages of deleted files are not really free until the delete commits,
so they first enter a *shadow bitmap*; when a group commit succeeds,
:meth:`commit_shadow` folds them into the free map.

Runs are claimed in bulk: :meth:`VolumeAllocationMap.claim` takes a
sequence of ``(start, count)`` pairs (the rebuild claims a whole
name-table leaf per call) and :meth:`~VolumeAllocationMap.mark_allocated`
is its one-run case.  Every claim and free is checked: a sector already
allocated (already free), or a run outside the volume, raises
:class:`~repro.errors.CorruptMetadata`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.layout import VolumeLayout
from repro.core.types import Run
from repro.disk.disk import SimDisk
from repro.disk.sched import as_scheduler
from repro.errors import CorruptMetadata, FsError
from repro.obs import NULL_OBS
from repro.serial import Packer, Unpacker, checksum

_VAM_MAGIC = 0x56414D31  # "VAM1"

_FULL_BYTE = 0xFF


class VolumeAllocationMap:
    """In-memory free-page bitmap with a shadow for uncommitted frees.

    Bit semantics: 1 = allocated (or reserved), 0 = free.
    """

    def __init__(self, total_sectors: int):
        self.total_sectors = total_sectors
        self._bits = bytearray(-(-total_sectors // 8))
        # Sectors past the end of the disk are permanently "allocated".
        for sector in range(total_sectors, len(self._bits) * 8):
            self._set(sector)
        self.free_count = total_sectors
        self._shadow: list[Run] = []
        #: observability attach point (``FSD.mount`` rebinds it).
        self.obs = NULL_OBS

    # ------------------------------------------------------------------
    # bit plumbing
    # ------------------------------------------------------------------
    def _set(self, sector: int) -> None:
        self._bits[sector >> 3] |= 1 << (sector & 7)

    def _is_set(self, sector: int) -> bool:
        return bool(self._bits[sector >> 3] & (1 << (sector & 7)))

    def is_free(self, sector: int) -> bool:
        """True when ``sector`` is unallocated."""
        if not (0 <= sector < self.total_sectors):
            raise FsError(f"sector {sector} outside volume")
        return not self._is_set(sector)

    # ------------------------------------------------------------------
    # allocation bookkeeping
    # ------------------------------------------------------------------
    def claim(self, runs: Sequence[tuple[int, int]]) -> None:
        """Claim every sector of each ``(start, count)`` run, in order.

        The bulk form of :meth:`mark_allocated`, for callers that claim
        many runs at once (the recovery sweep claims a whole leaf's
        leaders and runs in one call).  It is exactly the one-run claims
        made in turn: a run that leaves ``[0, total_sectors)`` or meets
        an allocated sector (including one claimed earlier in the same
        call) raises :class:`CorruptMetadata` with the runs before it
        claimed and counted, and nothing after it.  The counters move
        once per call: ``vam.allocs`` by the number of runs claimed.
        """
        claimed, sectors = self._flip(runs, allocate=True)
        if claimed:
            self.free_count -= sectors
            self.obs.count("vam.allocs", claimed)
            self.obs.count("vam.sectors_allocated", sectors)
            self.obs.gauge("vam.free_count", self.free_count)
        if claimed < len(runs):
            raise self._refusal(*runs[claimed], allocate=True)

    def mark_allocated(self, run: Run) -> None:
        """Claim every sector of ``run``: the one-run :meth:`claim`."""
        self.claim(((run.start, run.count),))

    def mark_free(self, run: Run) -> None:
        """Release every sector of ``run`` (a double free, or a run
        outside the volume, raises)."""
        if not self._flip(((run.start, run.count),), allocate=False)[0]:
            raise self._refusal(run.start, run.count, allocate=False)
        self.free_count += run.count
        self.obs.count("vam.frees")
        self.obs.count("vam.sectors_freed", run.count)
        self.obs.gauge("vam.free_count", self.free_count)

    def _flip(
        self, runs: Sequence[tuple[int, int]], allocate: bool
    ) -> tuple[int, int]:
        """Flip the bits of each run, in order, whole-extent at a time,
        stopping before the first run that is outside the volume or not
        entirely free (``allocate``) / entirely allocated (not).
        Returns (runs flipped, sectors flipped)."""
        bits = self._bits
        total = self.total_sectors
        sectors = 0
        for index, (start, count) in enumerate(runs):
            end = start + count
            if start < 0 or count <= 0 or end > total:
                return index, sectors
            first = start >> 3
            if count == 1:
                # One bit of one byte, no integer round trip: a leader
                # is one sector, and half the runs a rebuild claims.
                byte = bits[first]
                bit = 1 << (start & 7)
                if (byte if allocate else ~byte) & bit:
                    return index, sectors
                bits[first] = byte ^ bit
                sectors += 1
                continue
            stop = (end + 7) >> 3
            segment = int.from_bytes(bits[first:stop], "little")
            mask = ((1 << count) - 1) << (start & 7)
            if (segment if allocate else ~segment) & mask:
                return index, sectors
            # Every bit under the mask is known, so XOR sets or clears.
            bits[first:stop] = (segment ^ mask).to_bytes(stop - first, "little")
            sectors += count
        return len(runs), sectors

    def _refusal(
        self, start: int, count: int, allocate: bool
    ) -> CorruptMetadata:
        """The error for the run that :meth:`_flip` stopped before."""
        if start < 0 or count <= 0 or start + count > self.total_sectors:
            return CorruptMetadata(
                f"run ({start}, {count}) outside volume of "
                f"{self.total_sectors} sectors"
            )
        for sector in range(start, start + count):
            if self._is_set(sector) == allocate:
                break
        what = "allocation" if allocate else "free"
        return CorruptMetadata(f"double {what} of sector {sector}")

    def shadow_free(self, run: Run) -> None:
        """Record pages of a deleted file; they become free at commit."""
        self._shadow.append(run)
        self.obs.count("vam.shadow_frees")
        self.obs.gauge("vam.shadow_sectors", self.shadow_sectors)

    def commit_shadow(self) -> None:
        """Apply all shadow-freed runs: the deletes are now committed."""
        shadow, self._shadow = self._shadow, []
        if shadow:
            self.obs.count(
                "vam.shadow_committed_sectors",
                sum(run.count for run in shadow),
            )
        for run in shadow:
            self.mark_free(run)
        self.obs.gauge("vam.shadow_sectors", 0)

    @property
    def shadow_sectors(self) -> int:
        return sum(run.count for run in self._shadow)

    # ------------------------------------------------------------------
    # free-run search
    # ------------------------------------------------------------------
    def find_free_run(
        self, start: int, end: int, want: int, ascending: bool = True
    ) -> Run | None:
        """First free run of up to ``want`` sectors inside [start, end).

        Returns a shorter run when no ``want``-long one begins before
        a longer search would leave the window; returns None when the
        window has no free sector.  Ascending search walks up from
        ``start``; descending walks down from ``end``.
        """
        if want <= 0:
            raise FsError(f"bad allocation size {want}")
        # _is_set inlined in the extension loops: allocation runs this
        # scan for every extent it hands out.
        bits = self._bits
        if ascending:
            sector = self._next_free(start, end, step=1)
            if sector is None:
                return None
            length = 1
            probe = sector + 1
            while (
                length < want
                and probe < end
                and not bits[probe >> 3] & (1 << (probe & 7))
            ):
                length += 1
                probe += 1
            return Run(sector, length)
        sector = self._next_free(end - 1, start - 1, step=-1)
        if sector is None:
            return None
        length = 1
        probe = sector - 1
        while (
            length < want
            and probe >= start
            and not bits[probe >> 3] & (1 << (probe & 7))
        ):
            sector = probe
            length += 1
            probe -= 1
        return Run(sector, length)

    def last_allocated(self, start: int, end: int) -> int | None:
        """Highest allocated sector inside [start, end), or None when
        the window is empty or all free.  One big-integer pass over the
        window's bytes (C speed, so a mount can ask this of a whole data
        area); the padding bits past the disk's end lie outside any
        window that stops at ``total_sectors``."""
        if end <= start:
            return None
        first = start >> 3
        window = int.from_bytes(self._bits[first:-(-end // 8)], "little")
        window &= (1 << (end - (first << 3))) - 1
        window >>= start - (first << 3)
        return start + window.bit_length() - 1 if window else None

    def find_whole_run(self, start: int, end: int, want: int) -> Run | None:
        """Lowest run of exactly ``want`` free sectors inside [start,
        end), or None when no free run that long lies in the window.
        Big-integer passes over the window's bytes, ⌈log2 want⌉ + 1 of
        them, so an aged area with many small holes costs no per-hole
        Python loop."""
        if want <= 0:
            raise FsError(f"bad allocation size {want}")
        span = end - start
        if span < want:
            return None
        first = start >> 3
        window = int.from_bytes(self._bits[first:-(-end // 8)], "little")
        free = ~(window >> (start - (first << 3))) & ((1 << span) - 1)
        # Bit p of ``free`` set <=> sectors p .. p + length - 1 are free.
        length = 1
        while length < want and free:
            step = min(length, want - length)
            free &= free >> step
            length += step
        if not free:
            return None
        return Run(start + (free & -free).bit_length() - 1, want)

    def _next_free(self, start: int, stop: int, step: int) -> int | None:
        """First free sector scanning from ``start`` toward ``stop``
        (exclusive), skipping fully allocated bytes quickly."""
        sector = start
        bits = self._bits
        while (step > 0 and sector < stop) or (step < 0 and sector > stop):
            byte_index = sector >> 3
            byte = bits[byte_index]
            if byte == _FULL_BYTE:
                # Skip the whole byte.
                if step > 0:
                    sector = (byte_index + 1) << 3
                else:
                    sector = (byte_index << 3) - 1
                continue
            if not byte & (1 << (sector & 7)):
                return sector
            sector += step
        return None

    # ------------------------------------------------------------------
    # save / load (controlled shutdown and boot)
    # ------------------------------------------------------------------
    def save(self, disk: SimDisk, layout: VolumeLayout, boot_count: int) -> None:
        """Write the bitmap to the VAM save area (one header sector plus
        the raw bitmap), one write per ``max_io_sectors`` chunk; the
        save is home before the caller marks the root.
        """
        if self._shadow:
            raise FsError("cannot save a VAM with uncommitted shadow frees")
        io = as_scheduler(disk)
        sector_bytes = io.geometry.sector_bytes
        header = Packer(capacity=sector_bytes)
        header.u32(_VAM_MAGIC)
        header.u32(boot_count)
        header.u64(self.free_count)
        header.u32(checksum(bytes(self._bits)))
        io.submit_write(
            layout.vam_start, [header.bytes(pad_to=sector_bytes)]
        )
        payload = bytes(self._bits)
        max_chunk = layout.params.max_io_sectors * sector_bytes
        address = layout.vam_start + 1
        for offset in range(0, len(payload), max_chunk):
            chunk = payload[offset : offset + max_chunk]
            sectors = [
                chunk[i : i + sector_bytes]
                for i in range(0, len(chunk), sector_bytes)
            ]
            io.submit_write(address, sectors)
            address += len(sectors)
        self.obs.count("vam.saves")

    def load(
        self, disk: SimDisk, layout: VolumeLayout, expect_boot_count: int
    ) -> bool:
        """Try to load a saved VAM; returns False when the save is
        missing, stale, or damaged (caller then reconstructs)."""
        io = as_scheduler(disk)
        header_sectors = io.read_maybe(layout.vam_start, 1)
        if header_sectors[0] is None:
            return False
        try:
            reader = Unpacker(header_sectors[0])
            if reader.u32() != _VAM_MAGIC:
                return False
            boot_count = reader.u32()
            free_count = reader.u64()
            expect_sum = reader.u32()
        except CorruptMetadata:
            return False
        if boot_count != expect_boot_count:
            return False
        bitmap_sectors = layout.vam_sectors - 1
        address = layout.vam_start + 1
        payload = bytearray()
        per_io = layout.params.max_io_sectors
        for offset in range(0, bitmap_sectors, per_io):
            count = min(per_io, bitmap_sectors - offset)
            sectors = io.read_maybe(address + offset, count)
            if any(sector is None for sector in sectors):
                return False
            for sector in sectors:
                payload.extend(sector)
        payload = payload[: len(self._bits)]
        if checksum(bytes(payload)) != expect_sum:
            return False
        self._bits = bytearray(payload)
        self._shadow = []
        self.free_count = free_count
        self.obs.count("vam.loads")
        self.obs.gauge("vam.free_count", self.free_count)
        return True
