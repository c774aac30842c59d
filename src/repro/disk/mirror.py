"""Mirrored (shadowed) disks — the paper's §3 pointer for massive
failures.

"Massive failures (e.g., a head crash) are non-recoverable, except
from backup.  Mirrored hardware could be used to guard against massive
failures [Lamp79b]."  Lampson & Sturgis' shadowed-disk design pairs
two drives behind one controller: writes go to both units, reads are
served by either, and the loss of an entire unit loses nothing.

``MirroredDisk`` extends the simulator accordingly:

* every write lands on both units (the units are duplexed and seek in
  lock-step, so a shadowed write costs one positioning pass — the
  classic dual-ported controller assumption; stated here because it is
  a modelling choice);
* a read whose primary sector is damaged recovers from the mirror at
  the cost of one extra positioning + transfer, and repairs the
  primary in place;
* :meth:`massive_failure` kills a whole unit; the volume keeps
  operating on the survivor, and :meth:`resilver` rebuilds the dead
  unit from the live one.
"""

from __future__ import annotations

from repro.disk.disk import FREE_LABEL, SimDisk
from repro.disk.faults import FaultInjector
from repro.errors import DiskError
from repro.obs import NULL_OBS


class MirroredDisk(SimDisk):
    """A shadowed pair of simulated drives presented as one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.mirror_faults = FaultInjector()
        self._mirror_data: dict[int, bytes] = {}
        self._mirror_labels: dict[int, bytes] = {}
        self._unit_a_dead = False
        self._unit_b_dead = False
        self.mirror_recoveries = 0
        #: observability attach point (``FSD.attach_observer`` rebinds it).
        self.obs = NULL_OBS

    # ------------------------------------------------------------------
    # failure control
    # ------------------------------------------------------------------
    def massive_failure(self, unit: str) -> None:
        """Lose an entire unit (head crash).  ``unit`` is "a" (the
        primary) or "b" (the mirror)."""
        if unit == "a":
            if self._unit_b_dead:
                raise DiskError("both units dead: volume unrecoverable")
            self._unit_a_dead = True
        elif unit == "b":
            if self._unit_a_dead:
                raise DiskError("both units dead: volume unrecoverable")
            self._unit_b_dead = True
        else:
            raise ValueError(f"unknown unit {unit!r}")
        self.obs.count("mirror.massive_failures")
        self.obs.gauge("mirror.unit_a_dead", int(self._unit_a_dead))
        self.obs.gauge("mirror.unit_b_dead", int(self._unit_b_dead))

    def resilver(self) -> int:
        """Rebuild the dead unit from the survivor (a full-disk copy
        pass); returns sectors copied.  Timing: one sequential read of
        the live unit plus the lock-step write."""
        if not (self._unit_a_dead or self._unit_b_dead):
            return 0
        geo = self.geometry
        copied = 0
        per_io = 120
        for start in range(0, geo.total_sectors, per_io):
            count = min(per_io, geo.total_sectors - start)
            # Read live + write dead, lock-step; the controller's pass
            # costs the CPU nothing.
            self._charge(start, count, False, count, cpu=False)
            copied += count
        if self._unit_a_dead:
            self._data = dict(self._mirror_data)
            self._labels = dict(self._mirror_labels)
            self.faults.damaged.clear()
        else:
            self._mirror_data = dict(self._data)
            self._mirror_labels = dict(self._labels)
            self.mirror_faults.damaged.clear()
        self._unit_a_dead = False
        self._unit_b_dead = False
        self.obs.count("mirror.resilvers")
        self.obs.count("mirror.resilver_sectors", copied)
        self.obs.gauge("mirror.unit_a_dead", 0)
        self.obs.gauge("mirror.unit_b_dead", 0)
        return copied

    @property
    def degraded(self) -> bool:
        return self._unit_a_dead or self._unit_b_dead

    # ------------------------------------------------------------------
    # shadowed I/O
    # ------------------------------------------------------------------
    def write(self, address, sectors, expect_labels=None, set_labels=None,
              cpu_overlap=False):
        """Shadowed write.

        Per Lampson & Sturgis' careful-replacement discipline the two
        units are written in order, never simultaneously — so a crash
        tears at most the primary, and the mirror still holds the *old*
        values.  A later read of a torn primary sector therefore
        recovers old data (never garbage), which is exactly the
        old-or-new guarantee FSD's log-record validation is built on.
        """
        super().write(
            address, sectors,
            expect_labels=expect_labels,
            set_labels=set_labels,
            cpu_overlap=cpu_overlap,
        )
        # The shadow write happens in lock-step on the second unit —
        # extent-batched like the primary install.
        if not self._unit_b_dead:
            count = len(sectors)
            self._mirror_data.update(
                zip(range(address, address + count), map(self._pad, sectors))
            )
            if set_labels is not None:
                labels = self._labels
                self._mirror_labels.update(
                    (a, labels[a]) for a in range(address, address + count)
                )
            self.mirror_faults.repair_range(address, count)

    def read_maybe(self, address, count=1, expect_labels=None,
                   cpu_overlap=False):
        sectors = super().read_maybe(
            address, count, expect_labels=expect_labels,
            cpu_overlap=cpu_overlap,
        )
        if not self._unit_a_dead and None not in sectors:
            # Fast path: primary healthy, nothing to shadow-read.
            return sectors
        out = []
        repairs: list[tuple[int, bytes]] = []
        unit_a_dead = self._unit_a_dead
        mirror_data = self._mirror_data
        for offset, sector in enumerate(sectors):
            sector_address = address + offset
            if not (unit_a_dead or sector is None):
                out.append(sector)
                continue
            if self._unit_b_dead or self.mirror_faults.is_damaged(
                sector_address
            ):
                out.append(None)  # both sides bad
                continue
            recovered = mirror_data.get(sector_address, self._zero())
            out.append(recovered)
            if not unit_a_dead:
                repairs.append((sector_address, recovered))
        if repairs:
            # The primary is alive but had damaged sectors: one extra
            # positioning pass reads the mirror, and the good copies
            # are repaired onto the primary in place (extent-batched).
            self._charge(address, count, False, count, cpu=False)
            self.mirror_recoveries += 1
            self.obs.count("mirror.recoveries")
            self._data.update(repairs)
            for sector_address, _ in repairs:
                self.faults.repair(sector_address)
                self.obs.count("mirror.repairs")
        # A dead primary costs nothing extra: the read was simply
        # served by the mirror unit's identical positioning pass.
        return out

    def write_labels(self, address, labels):
        """Label writes are shadowed too (CFS on mirrored hardware)."""
        super().write_labels(address, labels)
        if not self._unit_b_dead:
            stored = self._labels
            self._mirror_labels.update(
                (a, stored[a])
                for a in range(address, address + len(labels))
            )

    def peek_mirror(self, address: int) -> bytes:
        """Inspect the shadow copy (tests only)."""
        self.geometry.check_range(address)
        return self._mirror_data.get(address, self._zero())

    def peek_mirror_label(self, address: int) -> bytes:
        """Inspect the shadow label (tests only)."""
        self.geometry.check_range(address)
        return self._mirror_labels.get(address, FREE_LABEL)
