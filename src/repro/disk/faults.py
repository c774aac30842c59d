"""Fault injection for the paper's failure model.

FSD's failure model (§5.3): at most one fault at a time, damaging one
or two *consecutive* sectors; multi-sector writes are weakly atomic —
when writing the last two pages, either both transfer, the last is
detectably damaged, or both are detectably damaged.  The injector can:

* mark 1–2 consecutive sectors detectably damaged (media flaw),
* arm a crash at a chosen point in the I/O stream, tearing the
  in-flight write exactly per the weak-atomic model,
* perform a "wild write" (memory smash scribbling on a sector without
  marking it damaged — only software cross-checks can catch it).

Beyond the paper's single-fault model, the injector also distinguishes
*transient* faults (a read fails a bounded number of times, then the
sector reads fine — dust, marginal servo; the ladder's retry rung
absorbs these) and *latent* faults (the sector is already bad but
nobody knows until the next read surfaces it as permanent damage —
this is what makes multi-fault windows real: a latent fault planted
long ago can surface while recovering from a fresh one).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CrashPlan:
    """An armed crash.

    ``after_ios`` counts down on every disk operation; when it reaches
    zero the operation in progress raises ``SimulatedCrash``.  If that
    operation is a write, ``surviving_sectors`` of it persist first and
    ``damage_tail`` controls how many trailing sectors (0, 1 or 2) of
    the persisted boundary are detectably damaged.
    """

    after_ios: int = 0
    surviving_sectors: int | None = None  # None: all sectors persist
    damage_tail: int = 1

    def __post_init__(self) -> None:
        if self.damage_tail not in (0, 1, 2):
            raise ValueError("damage_tail must be 0, 1 or 2 (paper's model)")


@dataclass
class FaultInjector:
    """Mutable fault state consulted by :class:`~repro.disk.disk.SimDisk`."""

    damaged: set[int] = field(default_factory=set)
    #: transient faults: address -> remaining reads that will fail.
    transient: dict[int, int] = field(default_factory=dict)
    #: latent faults: bad already, surfaced (-> ``damaged``) on next read.
    latent: set[int] = field(default_factory=set)
    crash_plan: CrashPlan | None = None
    injected_media_faults: int = 0
    injected_transient_faults: int = 0
    injected_latent_faults: int = 0
    injected_wild_writes: int = 0
    transient_reads_failed: int = 0
    latent_surfaced: int = 0
    crashes_fired: int = 0

    # ------------------------------------------------------------------
    # media faults
    # ------------------------------------------------------------------
    def damage(self, address: int, count: int = 1) -> None:
        """Mark ``count`` (1 or 2) consecutive sectors detectably damaged."""
        if count not in (1, 2):
            raise ValueError(
                "the paper's failure model damages 1 or 2 consecutive sectors"
            )
        for offset in range(count):
            self.damaged.add(address + offset)
        self.injected_media_faults += 1

    def damage_transient(self, address: int, failures: int = 1) -> None:
        """The next ``failures`` reads of ``address`` fail; later reads
        succeed (the retry rung of the escalation ladder absorbs these)."""
        if failures < 1:
            raise ValueError("a transient fault must fail at least one read")
        self.transient[address] = failures
        self.injected_transient_faults += 1

    def damage_latent(self, address: int) -> None:
        """Mark ``address`` latently bad: it becomes permanent damage
        the moment it is next read (until then nothing knows)."""
        self.latent.add(address)
        self.injected_latent_faults += 1

    def repair(self, address: int) -> None:
        """A successful rewrite of a damaged sector repairs it —
        permanent, transient and latent faults alike."""
        self.damaged.discard(address)
        self.transient.pop(address, None)
        self.latent.discard(address)

    def is_damaged(self, address: int) -> bool:
        """True when ``address`` is detectably damaged (permanently)."""
        return address in self.damaged

    def repair_range(self, address: int, count: int) -> None:
        """Repair every sector of an extent write in one consult.

        Equivalent to calling :meth:`repair` per sector; when no fault
        of any kind is armed it is a single truth-value test.
        """
        if not (self.damaged or self.transient or self.latent):
            return
        for sector in range(address, address + count):
            self.damaged.discard(sector)
            self.transient.pop(sector, None)
            self.latent.discard(sector)

    def read_fails(self, address: int) -> bool:
        """Consult (and advance) fault state for one sector read.

        Latent faults surface into permanent damage; transient faults
        consume one failing read.  Returns True when the read must
        report the sector damaged.
        """
        if address in self.latent:
            self.latent.discard(address)
            self.damaged.add(address)
            self.latent_surfaced += 1
            return True
        if address in self.damaged:
            return True
        remaining = self.transient.get(address)
        if remaining is not None:
            self.transient_reads_failed += 1
            if remaining <= 1:
                del self.transient[address]
            else:
                self.transient[address] = remaining - 1
            return True
        return False

    # ------------------------------------------------------------------
    # crashes
    # ------------------------------------------------------------------
    def arm_crash(
        self,
        after_ios: int = 0,
        surviving_sectors: int | None = None,
        damage_tail: int = 1,
    ) -> None:
        """Arm a crash ``after_ios`` further disk operations from now."""
        self.crash_plan = CrashPlan(
            after_ios=after_ios,
            surviving_sectors=surviving_sectors,
            damage_tail=damage_tail,
        )

    def disarm_crash(self) -> None:
        """Cancel any armed crash plan."""
        self.crash_plan = None

    def counters(self) -> dict[str, int]:
        """Lifetime injection/surface counters as a plain dict (the
        chaos report embeds this so a campaign's fault mix is part of
        the artifact)."""
        return {
            "injected_media_faults": self.injected_media_faults,
            "injected_transient_faults": self.injected_transient_faults,
            "injected_latent_faults": self.injected_latent_faults,
            "injected_wild_writes": self.injected_wild_writes,
            "transient_reads_failed": self.transient_reads_failed,
            "latent_surfaced": self.latent_surfaced,
            "crashes_fired": self.crashes_fired,
        }

    def crash_due(self) -> CrashPlan | None:
        """Count down an armed crash; return the plan when it fires."""
        plan = self.crash_plan
        if plan is None:
            return None
        if plan.after_ios > 0:
            plan.after_ios -= 1
            return None
        self.crash_plan = None
        self.crashes_fired += 1
        return plan
