"""The simulated disk.

``SimDisk`` stores sector payloads and (optionally) Trident-style label
fields, and charges every operation with physically derived timing:
seek to the target cylinder, rotational wait for the target sector,
then media transfer — against the shared :class:`SimClock`.  Because
the platter keeps spinning between operations, effects the paper's
model cares about arise naturally: a read-then-rewrite of the same
sector loses a revolution, sequential reads stream at media rate, and
CPU time spent between block reads makes the next block's start slip
past the head (the 4.2 BSD bandwidth problem of Table 5).

One call to :meth:`read`/:meth:`write` is one disk I/O regardless of
sector count, matching how the paper counts I/Os (a 33-sector log
record write is one I/O).
"""

from __future__ import annotations

from repro.disk.clock import SimClock
from repro.disk.faults import FaultInjector
from repro.disk.geometry import DiskGeometry
from repro.disk.stats import DiskStats
from repro.disk.timing import DiskTiming
from repro.disk.trace import IoEvent, IoTracer
from repro.errors import (
    DamagedSectorError,
    DiskRangeError,
    LabelCheckError,
    SimulatedCrash,
)

#: Label fields are fixed width (the Trident hardware compared them in
#: microcode); 16 bytes holds the CFS (uid, page number, page type).
LABEL_BYTES = 16

FREE_LABEL = b"\x00" * LABEL_BYTES


class SimDisk:
    """A sector-addressed simulated drive with labels and fault injection."""

    def __init__(
        self,
        geometry: DiskGeometry | None = None,
        timing: DiskTiming | None = None,
        clock: SimClock | None = None,
        faults: FaultInjector | None = None,
        charge_cpu: bool = True,
    ):
        self.geometry = geometry or DiskGeometry()
        self.timing = timing or DiskTiming()
        self.clock = clock or SimClock()
        self.faults = faults or FaultInjector()
        self.stats = DiskStats()
        self.head_cylinder = 0
        self.charge_cpu = charge_cpu
        #: attach an :class:`IoTracer` to record per-operation timing
        #: decomposed the way the paper's model scripts it.
        self.tracer: IoTracer | None = None
        self._data: dict[int, bytes] = {}
        self._labels: dict[int, bytes] = {}
        self._zero_sector = b"\x00" * self.geometry.sector_bytes
        # Geometry is frozen; cache the derived integers the per-I/O
        # prologue needs so the hot path does no property dispatch.
        geo = self.geometry
        self._spc = geo.sectors_per_cylinder
        self._spt = geo.sectors_per_track
        self._total = geo.total_sectors
        self._sector_bytes = geo.sector_bytes
        #: count -> media transfer time.  Timing and geometry are both
        #: frozen, so the entry is exactly what ``timing.transfer_ms``
        #: returns for that count (computed through it once).
        self._xfer_memo: dict[int, float] = {}
        #: slot -> target rotational angle: the same ``slot / spt``
        #: division ``timing.rotational_wait_ms`` performs, precomputed
        #: for every slot of this (frozen) geometry.
        self._angles = [slot / self._spt for slot in range(self._spt)]

    # ------------------------------------------------------------------
    # positioning and timing
    # ------------------------------------------------------------------
    def _position(self, address: int) -> None:
        """Seek to the target cylinder and wait for the target sector.

        ``address`` was range-checked by the caller's prologue, so the
        cylinder/slot arithmetic is inlined (no re-validation).
        """
        timing = self.timing
        clock, stats = self.clock, self.stats
        target_cylinder = address // self._spc
        distance = abs(target_cylinder - self.head_cylinder)
        # clock.advance_disk inlined below: seek and rotational waits
        # are non-negative by construction and this prologue runs for
        # every simulated I/O.
        if distance:
            seek = timing.seek_ms(distance)
            clock.now_ms += seek
            clock.disk_busy_ms += seek
            stats.seek_ms += seek
            if distance <= timing.short_seek_cylinders:
                stats.short_seeks += 1
            else:
                stats.seeks += 1
            self.head_cylinder = target_cylinder
        spt = self._spt
        wait = timing.rotational_wait_ms(clock.now_ms, address % spt, spt)
        clock.now_ms += wait
        clock.disk_busy_ms += wait
        stats.rotational_ms += wait

    def _transfer(self, address: int, count: int) -> None:
        memo = self._xfer_memo
        time = memo.get(count)
        if time is None:
            time = self.timing.transfer_ms(count, self._spt)
            memo[count] = time
        clock = self.clock
        clock.now_ms += time
        clock.disk_busy_ms += time
        self.stats.transfer_ms += time
        self.head_cylinder = (address + count - 1) // self._spc

    def _trace_begin(self, address: int) -> tuple[float, float, float, int, float] | None:
        if self.tracer is None:
            return None
        return (
            self.stats.seek_ms,
            self.stats.rotational_ms,
            self.stats.transfer_ms,
            abs(self.geometry.cylinder_of(address) - self.head_cylinder),
            self.clock.now_ms,
        )

    def _trace_end(
        self, marker, kind: str, address: int, count: int
    ) -> None:
        if marker is None or self.tracer is None:
            return
        seek0, rot0, xfer0, distance, start_ms = marker
        rotational_ms = self.stats.rotational_ms - rot0
        events = self.tracer.events
        self.tracer.record(
            IoEvent(
                kind=kind,
                address=address,
                sectors=count,
                cylinder_distance=distance,
                seek_ms=self.stats.seek_ms - seek0,
                rotational_ms=rotational_ms,
                transfer_ms=self.stats.transfer_ms - xfer0,
                start_ms=start_ms,
                # Started where the last traced I/O ended, on its
                # cylinder, and still waited: a lost revolution.
                lost_revolution=(
                    distance == 0
                    and rotational_ms > self.timing.rotation_ms / 2
                    and bool(events)
                    and events[-1].address + events[-1].sectors == address
                ),
            )
        )

    def _cpu_for_io(self, sectors: int, cpu_overlap: bool) -> None:
        if not self.charge_cpu:
            return
        clock = self.clock
        cpu = clock.cpu
        setup_ms = cpu.io_setup_ms
        clock.now_ms += setup_ms
        clock.cpu_busy_ms += setup_ms
        copy_ms = cpu.per_sector_copy_ms * sectors
        if cpu_overlap:
            # Streaming transfers: the copy overlaps the media transfer
            # (DMA), so it costs CPU but not elapsed time.
            clock.cpu_busy_ms += copy_ms
        else:
            clock.now_ms += copy_ms
            clock.cpu_busy_ms += copy_ms

    def _begin_io(
        self, address: int, count: int, is_write: bool, cpu_overlap: bool
    ):
        """Common prologue: range check, crash countdown, CPU, positioning.

        Returns the crash plan if this very operation must crash.
        """
        # check_range inlined for the in-bounds case; the slow call
        # keeps the exact error text for the raising paths.
        if count <= 0 or address < 0 or address + count > self._total:
            self.geometry.check_range(address, count)
        faults = self.faults
        # crash_due() inlined for the unarmed case (every I/O pays it).
        plan = None if faults.crash_plan is None else faults.crash_due()
        self._cpu_for_io(count, cpu_overlap)
        self._position(address)
        if plan is not None and not is_write:
            # A crash during a read destroys no state; it just stops
            # the machine mid-operation.
            raise SimulatedCrash(f"crash during read of sector {address}")
        return plan

    # ------------------------------------------------------------------
    # data I/O
    # ------------------------------------------------------------------
    def read(
        self,
        address: int,
        count: int = 1,
        expect_labels: list[bytes] | None = None,
        cpu_overlap: bool = False,
    ) -> list[bytes]:
        """Read ``count`` contiguous sectors; damaged sectors raise.

        ``expect_labels`` requests the Trident microcode check: each
        sector's stored label is compared before its data transfers.
        ``cpu_overlap`` marks a streaming transfer whose copy cost
        overlaps the media transfer.
        """
        sectors = self.read_maybe(address, count, expect_labels, cpu_overlap)
        if None in sectors:
            for offset, sector in enumerate(sectors):
                if sector is None:
                    raise DamagedSectorError(address + offset)
        return sectors  # type: ignore[return-value]

    def read_maybe(
        self,
        address: int,
        count: int = 1,
        expect_labels: list[bytes] | None = None,
        cpu_overlap: bool = False,
    ) -> list[bytes | None]:
        """Read sectors, returning ``None`` for detectably damaged ones.

        Recovery code (double-read of the name table, log scanning)
        uses this form so that damage is data, not control flow.
        """
        if expect_labels is not None and len(expect_labels) != count:
            raise DiskRangeError("expect_labels length != sector count")
        marker = self._trace_begin(address) if self.tracer is not None else None
        # The read prologue below is ``_begin_io`` + ``_transfer``
        # inlined: reads are the hottest simulated operation, and one
        # frame covers range check, crash countdown, CPU charge, seek,
        # rotational wait and media transfer.  Keep in sync with the
        # method bodies above (writes and label I/O still call them).
        if count <= 0 or address < 0 or address + count > self._total:
            self.geometry.check_range(address, count)
        faults = self.faults
        plan = None if faults.crash_plan is None else faults.crash_due()
        clock, stats, timing = self.clock, self.stats, self.timing
        if self.charge_cpu:
            cpu = clock.cpu
            setup_ms = cpu.io_setup_ms
            clock.now_ms += setup_ms
            clock.cpu_busy_ms += setup_ms
            copy_ms = cpu.per_sector_copy_ms * count
            if cpu_overlap:
                clock.cpu_busy_ms += copy_ms
            else:
                clock.now_ms += copy_ms
                clock.cpu_busy_ms += copy_ms
        target_cylinder = address // self._spc
        distance = abs(target_cylinder - self.head_cylinder)
        if distance:
            # seek_ms memo-hit inlined; a miss computes (and caches)
            # through the method, so values stay bit-identical.
            seek = timing._seek_table.get(distance)
            if seek is None:
                seek = timing.seek_ms(distance)
            clock.now_ms += seek
            clock.disk_busy_ms += seek
            stats.seek_ms += seek
            if distance <= timing.short_seek_cylinders:
                stats.short_seeks += 1
            else:
                stats.seeks += 1
            self.head_cylinder = target_cylinder
        # rotational_wait_ms inlined, float op for float op.
        spt = self._spt
        target_angle = self._angles[address % spt]
        rotation = timing.rotation_ms
        current_angle = (clock.now_ms % rotation) / rotation
        wait = ((target_angle - current_angle) % 1.0) * rotation
        clock.now_ms += wait
        clock.disk_busy_ms += wait
        stats.rotational_ms += wait
        if plan is not None:
            raise SimulatedCrash(f"crash during read of sector {address}")
        memo = self._xfer_memo
        time = memo.get(count)
        if time is None:
            time = timing.transfer_ms(count, spt)
            memo[count] = time
        clock.now_ms += time
        clock.disk_busy_ms += time
        stats.transfer_ms += time
        self.head_cylinder = (address + count - 1) // self._spc
        if marker is not None:
            self._trace_end(marker, "read", address, count)
        stats.reads += 1
        stats.sectors_read += count
        data = self._data
        # any_read_faults inlined (same truth test, no property frame).
        if not (faults.damaged or faults.transient or faults.latent):
            # The batched fast path: no fault anywhere can fail a read,
            # so the extent needs no per-sector consult at all.
            if expect_labels is not None:
                labels = self._labels
                for offset in range(count):
                    sector_address = address + offset
                    stored = labels.get(sector_address, FREE_LABEL)
                    if stored != _pad_label(expect_labels[offset]):
                        raise LabelCheckError(
                            sector_address, expect_labels[offset], stored
                        )
            zero = self._zero_sector
            return [data.get(a, zero) for a in range(address, address + count)]
        # Faults armed: consult per sector, label checks interleaved in
        # address order exactly as the microcode would hit them.
        out: list[bytes | None] = []
        for offset in range(count):
            sector_address = address + offset
            if expect_labels is not None:
                stored = self._labels.get(sector_address, FREE_LABEL)
                if stored != _pad_label(expect_labels[offset]):
                    raise LabelCheckError(
                        sector_address, expect_labels[offset], stored
                    )
            if self.faults.read_fails(sector_address):
                out.append(None)
            else:
                out.append(data.get(sector_address, self._zero()))
        return out

    def write(
        self,
        address: int,
        sectors: list[bytes],
        expect_labels: list[bytes] | None = None,
        set_labels: list[bytes] | None = None,
        cpu_overlap: bool = False,
    ) -> None:
        """Write contiguous sectors, optionally verifying/rewriting labels.

        A successful write of a damaged sector repairs it.  If an armed
        crash fires during this write, a prefix of the sectors persists
        and the boundary is damaged per the paper's weak-atomic model;
        ``SimulatedCrash`` is raised.
        """
        count = len(sectors)
        if count == 0:
            raise DiskRangeError("empty write")
        sector_bytes = self._sector_bytes
        # max(map(len, ...)) keeps the common all-valid case in C code;
        # the Python loop only runs to find the offender for the error.
        if max(map(len, sectors)) > sector_bytes:
            for sector in sectors:
                if len(sector) > sector_bytes:
                    raise DiskRangeError(
                        f"sector payload of {len(sector)} bytes > "
                        f"{sector_bytes}"
                    )
        if expect_labels is not None and len(expect_labels) != count:
            raise DiskRangeError("expect_labels length != sector count")
        if set_labels is not None and len(set_labels) != count:
            raise DiskRangeError("set_labels length != sector count")

        marker = self._trace_begin(address)
        plan = self._begin_io(
            address, count, is_write=True, cpu_overlap=cpu_overlap
        )

        if expect_labels is not None:
            for offset in range(count):
                stored = self._labels.get(address + offset, FREE_LABEL)
                expected = _pad_label(expect_labels[offset])
                if stored != expected:
                    raise LabelCheckError(address + offset, expected, stored)

        persist = count
        if plan is not None:
            persist = (
                count
                if plan.surviving_sectors is None
                else min(plan.surviving_sectors, count)
            )
            # Time passes only for what actually hit the platter.
            self._transfer(address, max(persist, 1))
        else:
            self._transfer(address, count)

        self._trace_end(marker, "write", address, persist if plan else count)
        self.stats.writes += 1
        self.stats.sectors_written += persist
        # Extent-batched install: one dict update per extent, labels
        # alongside, and a single batched fault consult (a no-op truth
        # test when nothing is armed).
        self._data.update(
            zip(
                range(address, address + persist),
                [s.ljust(sector_bytes, b"\x00") for s in sectors],
            )
        )
        if set_labels is not None:
            labels = self._labels
            for offset in range(persist):
                labels[address + offset] = _pad_label(set_labels[offset])
        self.faults.repair_range(address, persist)

        if plan is not None:
            for offset in range(plan.damage_tail):
                victim = address + persist + offset
                if victim < min(
                    address + count, self.geometry.total_sectors
                ):
                    self.faults.damaged.add(victim)
            raise SimulatedCrash(
                f"crash during write at sector {address} "
                f"({persist}/{count} sectors persisted)"
            )

    # ------------------------------------------------------------------
    # label-only I/O (Trident / CFS)
    # ------------------------------------------------------------------
    def read_labels(self, address: int, count: int = 1) -> list[bytes]:
        """Read only the label fields of ``count`` sectors (one I/O)."""
        marker = self._trace_begin(address)
        self._begin_io(address, count, is_write=False, cpu_overlap=False)
        self._transfer(address, count)
        self._trace_end(marker, "label_read", address, count)
        self.stats.label_reads += 1
        return [
            self._labels.get(address + offset, FREE_LABEL)
            for offset in range(count)
        ]

    def write_labels(self, address: int, labels: list[bytes]) -> None:
        """Rewrite only the label fields (claim/free pages in CFS)."""
        count = len(labels)
        if count == 0:
            raise DiskRangeError("empty label write")
        marker = self._trace_begin(address)
        plan = self._begin_io(address, count, is_write=True, cpu_overlap=False)
        self._transfer(address, count)
        self._trace_end(marker, "label_write", address, count)
        self.stats.label_writes += 1
        for offset in range(count):
            self._labels[address + offset] = _pad_label(labels[offset])
        if plan is not None:
            raise SimulatedCrash(f"crash during label write at {address}")

    # ------------------------------------------------------------------
    # out-of-band access (no timing, no counters): test/tooling only
    # ------------------------------------------------------------------
    def peek(self, address: int) -> bytes:
        """Inspect a sector without simulating an I/O (tests only)."""
        self.geometry.check_range(address)
        return self._data.get(address, self._zero())

    def poke(self, address: int, data: bytes) -> None:
        """Scribble on a sector without an I/O: a wild write / memory
        smash.  The sector is *not* marked damaged — only software
        cross-checks (labels, checksums, double reads) can notice."""
        self.geometry.check_range(address)
        self._data[address] = self._pad(data)
        self.faults.injected_wild_writes += 1

    def peek_label(self, address: int) -> bytes:
        """Inspect a label field without an I/O (tests only)."""
        self.geometry.check_range(address)
        return self._labels.get(address, FREE_LABEL)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _zero(self) -> bytes:
        return self._zero_sector

    def _pad(self, sector: bytes) -> bytes:
        return sector.ljust(self.geometry.sector_bytes, b"\x00")


def _pad_label(label: bytes) -> bytes:
    if len(label) > LABEL_BYTES:
        raise DiskRangeError(f"label of {len(label)} bytes > {LABEL_BYTES}")
    return label.ljust(LABEL_BYTES, b"\x00")
