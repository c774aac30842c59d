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

An I/O is priced in one place, :meth:`SimDisk.price`: CPU set-up and
sector copy, seek, rotational wait, in that order, from the clock and
the arm as they stand.  Every read, write and label I/O, and a mirrored
pair's repair and resilver passes, charges that price plus its
transfer; a traced I/O's :class:`IoEvent` carries those very
components; and :func:`repro.disk.sched.plan_writes` predicts a batch's
finish times with it.
"""

from __future__ import annotations

from itertools import repeat

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
        # Geometry and timing are frozen: the per-I/O price reads these
        # once-built tables rather than re-deriving them.
        geo, timing = self.geometry, self.timing
        self._spc = geo.sectors_per_cylinder
        self._spt = geo.sectors_per_track
        self._total = geo.total_sectors
        self._sector_bytes = geo.sector_bytes
        self._rotation_ms = timing.rotation_ms
        self._sector_ms = timing.sector_time_ms(self._spt)
        #: cylinder distance -> seek time, for every distance the arm
        #: can travel.
        self._seeks = [timing.seek_ms(d) for d in range(geo.cylinders)]
        #: slot -> angle (fraction of a revolution) where it starts.
        self._angles = [slot / self._spt for slot in range(self._spt)]

    # ------------------------------------------------------------------
    # the price of an I/O
    # ------------------------------------------------------------------
    def price(
        self,
        now_ms: float,
        head: int,
        address: int,
        count: int,
        cpu_overlap: bool = False,
        cpu: bool = True,
    ) -> tuple[float, float, float, float, float]:
        """What an I/O of ``count`` sectors at ``address`` costs before
        its transfer, started at ``now_ms`` with the arm on cylinder
        ``head``: ``(setup_ms, copy_ms, seek_ms, wait_ms, start_ms)``.

        The CPU sets the I/O up and copies its sectors (nothing when
        ``charge_cpu`` or ``cpu`` is off; a ``cpu_overlap`` copy rides
        under the transfer and delays nothing), the arm seeks, and the
        platter turns until the first sector is under the head, at
        ``start_ms``.  The transfer then takes ``count`` sector times,
        ``timing.transfer_ms``.  Pricing changes nothing: every charge
        to the clock applies this price, and
        :func:`repro.disk.sched.plan_writes` predicts with it.
        """
        if cpu and self.charge_cpu:
            costs = self.clock.cpu
            setup_ms = costs.io_setup_ms
            copy_ms = costs.per_sector_copy_ms * count
            now_ms += setup_ms
            if not cpu_overlap:
                now_ms += copy_ms
        else:
            setup_ms = copy_ms = 0.0
        seek_ms = self._seeks[abs(address // self._spc - head)]
        now_ms += seek_ms
        rotation = self._rotation_ms
        wait_ms = (
            (self._angles[address % self._spt] - now_ms % rotation / rotation)
            % 1.0
        ) * rotation
        return setup_ms, copy_ms, seek_ms, wait_ms, now_ms + wait_ms

    def _charge(
        self,
        address: int,
        count: int,
        cpu_overlap: bool,
        moved: int,
        kind: str | None = None,
        cpu: bool = True,
    ) -> None:
        """Charge one I/O at its :meth:`price` plus the transfer of
        ``moved`` sectors (0 when it stops before transferring) to the
        clock, the stats and the arm.  ``kind`` names the
        :class:`IoEvent` an attached tracer records."""
        clock, stats = self.clock, self.stats
        start_ms, head = clock.now_ms, self.head_cylinder
        setup_ms, copy_ms, seek_ms, wait_ms, now_ms = self.price(
            start_ms, head, address, count, cpu_overlap, cpu
        )
        transfer_ms = moved * self._sector_ms
        clock.now_ms = now_ms + transfer_ms
        clock.cpu_busy_ms += setup_ms
        clock.cpu_busy_ms += copy_ms
        clock.disk_busy_ms += seek_ms
        clock.disk_busy_ms += wait_ms
        clock.disk_busy_ms += transfer_ms
        stats.seek_ms += seek_ms
        stats.rotational_ms += wait_ms
        stats.transfer_ms += transfer_ms
        spc = self._spc
        cylinder = address // spc
        distance = abs(cylinder - head)
        if distance:
            if distance <= self.timing.short_seek_cylinders:
                stats.short_seeks += 1
            else:
                stats.seeks += 1
        self.head_cylinder = (address + moved - 1) // spc if moved else cylinder
        tracer = self.tracer
        if kind is not None and tracer is not None:
            events = tracer.events
            tracer.record(
                IoEvent(
                    kind=kind,
                    address=address,
                    sectors=moved,
                    cylinder_distance=distance,
                    seek_ms=seek_ms,
                    rotational_ms=wait_ms,
                    transfer_ms=transfer_ms,
                    start_ms=start_ms,
                    # Started where the last traced I/O ended, on its
                    # cylinder, and still waited: a lost revolution.
                    lost_revolution=(
                        distance == 0
                        and wait_ms > self._rotation_ms / 2
                        and bool(events)
                        and events[-1].address + events[-1].sectors == address
                    ),
                )
            )

    def _crash_read(self, address: int, count: int, cpu_overlap: bool) -> None:
        """A crash during a read destroys no state: the machine stops
        with the head in place, before the transfer."""
        self._charge(address, count, cpu_overlap, 0)
        raise SimulatedCrash(f"crash during read of sector {address}")

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
        if count <= 0 or address < 0 or address + count > self._total:
            self.geometry.check_range(address, count)
        faults = self.faults
        if faults.crash_plan is not None and faults.crash_due() is not None:
            self._crash_read(address, count, cpu_overlap)
        self._charge(address, count, cpu_overlap, count, "read")
        stats = self.stats
        stats.reads += 1
        stats.sectors_read += count
        data = self._data
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
            return list(map(data.get, range(address, address + count),
                            repeat(self._zero_sector, count)))
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

        self.geometry.check_range(address, count)
        plan = self.faults.crash_due()
        if expect_labels is not None:
            labels = self._labels
            expected_labels = [_pad_label(label) for label in expect_labels]
            for offset, expected in enumerate(expected_labels):
                stored = labels.get(address + offset, FREE_LABEL)
                if stored != expected:
                    # The microcode compares each label as the head
                    # reaches it: the mismatch costs the positioning
                    # and moves no data.
                    self._charge(address, count, cpu_overlap, 0)
                    raise LabelCheckError(address + offset, expected, stored)
        persist = count
        if plan is not None and plan.surviving_sectors is not None:
            persist = min(plan.surviving_sectors, count)
        # Time passes only for what hit the platter, the torn sector
        # included.
        self._charge(address, count, cpu_overlap, max(persist, 1), "write")
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
        self.geometry.check_range(address, count)
        if self.faults.crash_due() is not None:
            self._crash_read(address, count, False)
        self._charge(address, count, False, count, "label_read")
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
        self.geometry.check_range(address, count)
        plan = self.faults.crash_due()
        self._charge(address, count, False, count, "label_write")
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
