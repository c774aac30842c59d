"""The volume's one I/O port between storage components and the disk.

Every storage layer (WAL, group commit writeback, recovery redo, VAM
save, the FSD data path) talks to one :class:`IoScheduler` instead of
calling :class:`~repro.disk.disk.SimDisk` directly.  Writes that have
no client waiting on them — the paper's §4 *asynchronous* writes: log
records, logged metadata going home, the VAM bitmap save — go through
:meth:`IoScheduler.submit_write`, which counts them (``sched.submitted``
/ ``sched.dispatched``) and writes them at once, in program order: op
counts and simulated times are exactly those of direct disk calls.
(Logged metadata arrives as one :meth:`IoScheduler.write_batch`; see
below.)

There is one ordering rule: a write is on the platter when the call
that issued it returns.  Nothing is held back or merged, so "what the
disk did" is "what the code said" — the paper's §6 prices every
operation as such a script — and a crash can lose only the write it
interrupts.  (An elevator and a deadline policy once sat here; they
lost to program order on every workload that measured them: see
EXPERIMENTS.md, "I/O dispatch order — the elevator's verdict".)

The one reordering is a batch handed over whole, by the one write-home
path (:meth:`~repro.core.name_table.NameTableHome.write_pages`: a third
entry, a checkpoint, unmount, redo, format).  It knows every write
before it issues the first, no client waits on them, and no crash
depends on their order (the log still holds every image), so
:meth:`IoScheduler.write_batch` dispatches such a batch in the order
:func:`plan_writes` picks: cylinders swept from the nearer end, and
within a cylinder the write that would finish first at the disk's own
price (:meth:`SimDisk.price`, the one the disk then charges, so each
predicted finish is the clock after that write, bit for bit).  The
rule still holds — the call is the batch.  A sort by
(cylinder, slot) is not the same thing: neighbours one slot apart each
cost a full revolution, because the per-I/O set-up outlasts the gap
(EXPERIMENTS.md, "§5.9 — recovery in streams").

Reads merge on the caller's side: :meth:`IoScheduler.merge_reads`
takes the *batch* of read requests a caller is about to issue (the FSD
data path's demand misses plus its read-ahead prefetch) and plans the
fewest physical transfers: address-adjacent requests fuse into one
multi-sector read, and oversized spans split at the caller's transfer
limit.  Every fused request is one rotational wait saved, counted in
``sched.coalesced_reads``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.disk.disk import SimDisk
from repro.obs import NULL_OBS

#: default cap on a merged read, in sectors: two max-sized data
#: transfers (``VolumeParams.max_io_sectors`` = 120); beyond that the
#: transfer monopolizes the arm for too long.
DEFAULT_COALESCE_LIMIT = 240


@dataclass
class SchedStats:
    """Cumulative port counters (the obs metrics mirror these)."""

    submitted: int = 0
    dispatched: int = 0
    #: read requests fused into a preceding one by :meth:`merge_reads`.
    read_merged: int = 0


class IoScheduler:
    """In-order I/O port over one ``SimDisk``.

    The port duck-types as a disk for I/O purposes — it exposes
    ``read``/``read_maybe``/``write`` plus the
    ``geometry``/``clock``/``stats``/``faults`` attributes — so
    components written against ``SimDisk`` port by substitution.
    """

    #: nothing is ever queued; benchmarks/e2e/layers.py reads this
    #: after every traced ``submit_write`` (goes with that file).
    queue_depth = 0

    def __init__(self, disk: SimDisk, obs=NULL_OBS):
        self.disk = disk
        self.obs = obs
        self.sched_stats = SchedStats()

    # -- disk passthrough ----------------------------------------------
    @property
    def geometry(self):
        return self.disk.geometry

    @property
    def clock(self):
        return self.disk.clock

    @property
    def stats(self):
        return self.disk.stats

    def read(self, address, count=1, expect_labels=None, cpu_overlap=False):
        """Read ``count`` sectors; damaged sectors raise."""
        return self.disk.read(address, count, expect_labels=expect_labels,
                              cpu_overlap=cpu_overlap)

    def read_maybe(self, address, count=1, expect_labels=None,
                   cpu_overlap=False):
        """Damage-tolerant read."""
        return self.disk.read_maybe(address, count, expect_labels, cpu_overlap)

    def write(self, address, sectors, expect_labels=None, set_labels=None,
              cpu_overlap=False):
        """Synchronous write: one the caller (a client, the anchor
        advance, the root page) blocks on."""
        self.disk.write(address, sectors, expect_labels=expect_labels,
                        set_labels=set_labels, cpu_overlap=cpu_overlap)

    def submit_write(self, address, sectors, set_labels=None,
                     expect_labels=None, cpu_overlap=False) -> None:
        """A §4 asynchronous write (no client waits on it): counted,
        then written right here, in program order."""
        self.sched_stats.submitted += 1
        self.obs.count("sched.submitted")
        self.sched_stats.dispatched += 1
        self.obs.count("sched.dispatched")
        self.disk.write(address, sectors, expect_labels=expect_labels,
                        set_labels=set_labels, cpu_overlap=cpu_overlap)

    def write_batch(self, writes: list[tuple[int, list[bytes]]]) -> None:
        """Write a batch of §4 asynchronous writes, ``(address,
        sectors)`` each, in the order :func:`plan_writes` picks.  Each
        is counted and written as :meth:`submit_write` does it; all are
        on the platter when this returns, and the disk holds what
        program order would have left."""
        for index, _ in plan_writes(self.disk, writes):
            self.submit_write(*writes[index])

    # -- read planning -------------------------------------------------
    def merge_reads(
        self, requests: list[tuple[int, int]],
        limit: int = DEFAULT_COALESCE_LIMIT,
    ) -> list[tuple[int, int]]:
        """Plan physical transfers for a batch of read requests.

        ``requests`` is ``(address, count)`` per intended read, in the
        order the caller would issue them.  Address-adjacent requests
        fuse into one transfer; anything longer than ``limit`` sectors
        splits.  Returns the planned ``(address, count)`` transfers;
        the caller dispatches them via :meth:`read_maybe`.  A lone request
        within ``limit`` — a random page read's one miss — is its own
        plan: ``requests`` comes back as it is.
        """
        if len(requests) == 1 and 0 < requests[0][1] <= limit:
            return requests
        spans: list[list[int]] = []
        for address, count in requests:
            if count <= 0:
                continue
            if spans and spans[-1][0] + spans[-1][1] == address:
                spans[-1][1] += count
                self.sched_stats.read_merged += 1
                self.obs.count("sched.coalesced_reads")
            else:
                spans.append([address, count])
        return [
            (address + at, min(limit, count - at))
            for address, count in spans
            for at in range(0, count, limit)
        ]


def plan_writes(
    disk: SimDisk, writes: list[tuple[int, list[bytes]]]
) -> list[tuple[int, float]]:
    """Order a batch of writes for the least positioning time.

    Returns ``(index into writes, clock when it finishes)`` per write,
    in dispatch order.  Cylinders are swept from the end nearer the
    head; within a cylinder the next write is the one that would finish
    first, at :meth:`SimDisk.price` plus its transfer, from where the
    previous write left the clock and the arm (the lowest index among
    equals).  A write that overlaps an earlier one of the batch waits
    for it, so the final image is program order's.  Planning advances
    no clock.

    Not every candidate is priced at every pick.  Writes of one
    cylinder and one length start from the same clock and arm, so
    their rotational waits differ only by how far apart their slots lie
    on the platter (slot ``s`` passes under the head ``s`` sector times
    after slot 0): the first of a length is priced, and the wait of
    each later one is estimated from it.  A write is priced only when
    its estimate leaves it a chance to finish first, and one on the
    slot of the best so far, which would tie and lose on index, is not
    priced at all.  The plan is the one pricing every write would make,
    bit for bit.
    """
    price, timing = disk.price, disk.timing
    spc, spt = disk.geometry.sectors_per_cylinder, disk.geometry.sectors_per_track
    rotation = timing.rotation_ms
    slot_ms = rotation / spt
    # How far an estimated wait may stray from the priced one.
    slack = rotation * 1e-9
    # Per write, what does not depend on when it goes: (cylinder,
    # address, sector count, transfer ms, cylinder the arm ends on,
    # rotational slot).
    transfers: dict[int, float] = {}
    costs = []
    for address, sectors in writes:
        count = len(sectors)
        if count not in transfers:
            transfers[count] = timing.transfer_ms(count, spt)
        costs.append((
            address // spc, address, count, transfers[count],
            (address + count - 1) // spc, address % spt,
        ))
    waits_for = _earlier_overlaps(writes)
    by_cylinder: dict[int, list[int]] = {}
    for index, cost in enumerate(costs):
        by_cylinder.setdefault(cost[0], []).append(index)
    now, head = disk.clock.now_ms, disk.head_cylinder
    done: set[int] = set()
    plan: list[tuple[int, float]] = []
    while by_cylinder:
        sweep = sorted(by_cylinder)
        if abs(sweep[-1] - head) < abs(sweep[0] - head):
            sweep.reverse()
        for cylinder in sweep:
            pending = by_cylinder[cylinder]
            while pending:
                best, best_ms = -1, 0.0
                # Per write length: the priced first one's wait and
                # slot, then the best so far's wait, finish and slot.
                lengths: dict[int, list] = {}
                for index in pending:
                    waits = waits_for[index]
                    if waits and not done.issuperset(waits):
                        continue
                    _, address, count, transfer_ms, _, slot = costs[index]
                    if count in lengths:
                        first_wait, first_slot, wait, ms, best_slot = (
                            lengths[count]
                        )
                        if slot == best_slot:
                            continue
                        estimate = (
                            first_wait + (slot - first_slot) * slot_ms
                        ) % rotation
                        # A wait longer by more than a few units in the
                        # last place of a finish finishes later.
                        if (
                            estimate < rotation - slack
                            and estimate - slack
                            > wait + (ms + rotation) * 1e-15
                        ):
                            continue
                        _, _, _, wait, start = price(now, head, address, count)
                        ms = start + transfer_ms
                        if ms < lengths[count][3]:
                            lengths[count][2:] = wait, ms, slot
                    else:
                        _, _, _, wait, start = price(now, head, address, count)
                        ms = start + transfer_ms
                        lengths[count] = [wait, slot, wait, ms, slot]
                    if best < 0 or ms < best_ms:
                        best, best_ms = index, ms
                if best < 0:
                    break  # what is left here waits on another cylinder
                pending.remove(best)
                done.add(best)
                plan.append((best, best_ms))
                now, head = best_ms, costs[best][4]
            if not pending:
                del by_cylinder[cylinder]
    return plan


def _earlier_overlaps(writes: list[tuple[int, list[bytes]]]) -> list[list[int]]:
    """Per write, the earlier writes of the batch that share a sector
    with it."""
    waits_for: list[list[int]] = [[] for _ in writes]
    by_address = sorted(range(len(writes)), key=lambda index: writes[index][0])
    for position, index in enumerate(by_address):
        end = writes[index][0] + len(writes[index][1])
        later = position + 1
        while later < len(by_address) and writes[by_address[later]][0] < end:
            pair = sorted((index, by_address[later]))
            waits_for[pair[1]].append(pair[0])
            later += 1
    return waits_for


def as_scheduler(disk, obs=NULL_OBS) -> IoScheduler:
    """Wrap ``disk`` in an I/O port unless it already is one.

    Components accept either a raw :class:`SimDisk` (tests, tools) or a
    shared :class:`IoScheduler` (a mounted volume); the wrapper a raw
    disk gets here is a pure pass-through.
    """
    if isinstance(disk, IoScheduler):
        return disk
    return IoScheduler(disk, obs=obs)
