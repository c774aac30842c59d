"""Virtual time base for the whole simulation.

The paper measures everything in wall-clock milliseconds on a Dorado and
in disk I/O counts.  Every component in this reproduction shares one
:class:`SimClock`; the disk advances it by seek/latency/transfer time
and file systems advance it by modelled CPU time.  "Wall clock" in the
reproduced tables is ``SimClock.now_ms``.

The real FSD forces its log from a timer process twice a second.  The
simulator is single threaded, so periodic work is expressed as *timer
events*: callbacks with a due time.  Two entry points drive them:

* :meth:`SimClock.tick` — fire anything already due, at the current
  time.  File-system entry points call it so a daemon that came due
  while the client thought runs "at the first opportunity after its
  period elapses", exactly like the threaded original.  The check is a
  single comparison against a cached horizon (the earliest enabled due
  time), so a tick with nothing due costs O(1) — no list walk.
* :meth:`SimClock.advance_to` — advance idle time to a deadline,
  firing each timer at its exact due time along the way.  Event-driven
  harnesses (the traffic engine) use it to jump an idle simulation to
  the next daemon wake-up instead of stepping-and-polling.

Cancellation is O(1): :meth:`SimClock.remove_timer` tombstones the
event (``enabled = False``, its callback dropped so that it keeps
nothing alive) and dead entries are swept out lazily when they
outnumber the live ones — a chaos campaign cancelling thousands of
deadline timers stays linear.  Registration order is preserved across
sweeps because simultaneous timers fire in the order they were added.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

_INF = float("inf")

#: Compact the timer list once tombstones outnumber live entries (and
#: there are enough of them for the sweep to matter).
_COMPACT_MIN_DEAD = 64

#: ``advance_to`` refuses to fire more than this many batches in one
#: call — a zero-period timer would otherwise spin forever.
_ADVANCE_GUARD = 1_000_000


@dataclass
class CpuCostModel:
    """Modelled CPU costs, in milliseconds, charged by file systems.

    The paper's design model deliberately ignored CPU time and the
    author notes the CPU was "sometimes a slight bottleneck"; Table 5
    however reports %CPU, so the reproduction needs *some* CPU model.
    The constants below are a Dorado-class workstation: sub-millisecond
    per-operation overheads, a per-sector copy cost, and a much larger
    per-block overhead for the modelled 4.2/4.3 BSD kernel (system call
    plus buffer-cache copy on a VAX-11/785).

    Only the *shape* of Table 5 depends on these values: the BSD block
    overhead is large enough that block-at-a-time synchronous I/O misses
    the rotational interleave, while FSD's big multi-sector transfers
    amortize their setup cost.
    """

    io_setup_ms: float = 0.30          # start one disk I/O
    per_sector_copy_ms: float = 0.25   # move one 512-byte sector
    btree_node_ms: float = 0.05        # search/modify one B-tree node
    entry_interpret_ms: float = 0.02   # decode one metadata entry
    scavenge_sector_ms: float = 4.0    # CFS scavenger: interpret 1 label
    vam_bit_ms: float = 0.002          # flip one VAM bit (alloc/free)
    fsck_inode_ms: float = 12.0        # BSD fsck: check one inode (VAX)
    # BSD per-block costs: a serial part (issued between I/Os, so it
    # eats into the rotational gap) and an overlapped part (the second
    # buffer copy, concurrent with DMA).  Together with the rotdelay
    # block spacing these produce Table 5's bandwidth/CPU shape.
    bsd_block_serial_ms: float = 2.1       # serial extra per block read
    bsd_write_serial_ms: float = 4.2       # serial extra per block write
    bsd_read_overlap_ms: float = 1.5       # overlapped extra per block read
    bsd_write_overlap_ms: float = 4.0      # overlapped extra per block write


@dataclass(order=True, slots=True)
class TimerEvent:
    """A periodic callback owned by a file system (e.g. the log force
    daemon).  ``callback`` runs with the clock as argument; a removed
    timer's is ``None``."""

    due_ms: float
    period_ms: float = field(compare=False)
    callback: Callable[["SimClock"], None] | None = field(compare=False)
    name: str = field(compare=False, default="timer")
    enabled: bool = field(compare=False, default=True)


class SimClock:
    """Single global virtual clock with CPU/disk accounting."""

    def __init__(self, cpu: CpuCostModel | None = None):
        self.now_ms: float = 0.0
        self.cpu_busy_ms: float = 0.0
        self.disk_busy_ms: float = 0.0
        self.cpu = cpu or CpuCostModel()
        #: registration-ordered ring of timers; cancelled entries stay
        #: as tombstones until the lazy sweep in :meth:`_compact`.
        self._timers: list[TimerEvent] = []
        self._dead = 0
        #: cached lower bound on the earliest enabled due time (+inf
        #: when no timer is live).  A stale-too-early horizon is safe —
        #: it costs one wasted scan that then recomputes it exactly.
        self._horizon_ms: float = _INF

    # ------------------------------------------------------------------
    # time advancement
    # ------------------------------------------------------------------
    def advance_disk(self, ms: float) -> None:
        """Advance time because the disk was busy for ``ms``."""
        if ms < 0:
            raise ValueError(f"negative time advance: {ms}")
        self.now_ms += ms
        self.disk_busy_ms += ms

    def advance_cpu(self, ms: float) -> None:
        """Advance time because the CPU was busy for ``ms``."""
        if ms < 0:
            raise ValueError(f"negative time advance: {ms}")
        self.now_ms += ms
        self.cpu_busy_ms += ms

    def advance_idle(self, ms: float) -> None:
        """Advance time with neither CPU nor disk busy (think time)."""
        if ms < 0:
            raise ValueError(f"negative time advance: {ms}")
        self.now_ms += ms

    def charge_overlapped_cpu(self, ms: float) -> None:
        """Account CPU work that overlaps a disk transfer (DMA-style
        copies): it consumes CPU but does not delay the operation."""
        if ms < 0:
            raise ValueError(f"negative time charge: {ms}")
        self.cpu_busy_ms += ms

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    def add_timer(
        self,
        period_ms: float,
        callback: Callable[["SimClock"], None],
        name: str = "timer",
    ) -> TimerEvent:
        """Register a periodic timer; first due one period from now."""
        event = TimerEvent(
            due_ms=self.now_ms + period_ms,
            period_ms=period_ms,
            callback=callback,
            name=name,
        )
        self._timers.append(event)
        if event.due_ms < self._horizon_ms:
            self._horizon_ms = event.due_ms
        return event

    def remove_timer(self, event: TimerEvent) -> None:
        """Deregister a timer so it never fires again.  O(1): the event
        is tombstoned in place; the list is swept when tombstones
        outnumber live timers."""
        if not event.enabled:
            return
        event.enabled = False
        # The tombstone may outlive its owner by up to
        # ``_COMPACT_MIN_DEAD`` removals: it must not keep it reachable.
        event.callback = None
        self._dead += 1
        if (
            self._dead >= _COMPACT_MIN_DEAD
            and self._dead * 2 >= len(self._timers)
        ):
            self._compact()

    def _compact(self) -> None:
        """Sweep tombstones, preserving registration order."""
        self._timers = [e for e in self._timers if e.enabled]
        self._dead = 0

    def _refresh_horizon(self) -> float:
        """Recompute the exact earliest enabled due time."""
        horizon = _INF
        for event in self._timers:
            if event.enabled and event.due_ms < horizon:
                horizon = event.due_ms
        self._horizon_ms = horizon
        return horizon

    def next_timer_due_ms(self) -> float | None:
        """Earliest due time among enabled timers, or None when no
        timer is registered."""
        horizon = self._refresh_horizon()
        return None if horizon == _INF else horizon

    def tick(self) -> int:
        """Fire every enabled timer whose due time has passed.

        Called by file-system entry points before doing work, which is
        how the single-threaded simulation models the background commit
        daemon: the callback runs at the first opportunity after its
        period elapses.  With nothing due this is one comparison
        against the cached horizon.  Returns the callbacks fired.
        """
        if self.now_ms < self._horizon_ms:
            return 0
        return self._fire_due()

    def _fire_due(self) -> int:
        """Fire due timers in registration order, rescheduling each one
        period ahead *before* its callback runs (so a callback that
        re-enters the clock sees the next deadline, not the stale one).
        A long idle gap covering several periods still fires once, like
        a real timer thread catching up after oversleeping."""
        fired = 0
        for event in list(self._timers):
            if event.enabled and self.now_ms >= event.due_ms:
                event.due_ms = self.now_ms + event.period_ms
                event.callback(self)
                fired += 1
        self._refresh_horizon()
        return fired

    def advance_to(self, deadline_ms: float) -> int:
        """Advance idle time to ``deadline_ms``, firing each timer at
        its exact due time along the way.

        This is the event-driven replacement for step-and-poll drains:
        the clock jumps straight to the next due time, fires (in
        registration order when several coincide), and repeats until
        the deadline is reached.  Callbacks may themselves consume
        simulated time; any timer that comes due during a callback
        fires in the same batch.  A deadline already in the past just
        fires what is due now.  Returns the callbacks fired.
        """
        fired = 0
        for _ in range(_ADVANCE_GUARD):
            horizon = self._refresh_horizon()
            if horizon > deadline_ms:
                break
            if horizon > self.now_ms:
                self.advance_idle(horizon - self.now_ms)
            fired += self._fire_due()
        else:
            raise RuntimeError(
                f"timer storm: {_ADVANCE_GUARD} batches fired advancing "
                f"to {deadline_ms}"
            )
        if deadline_ms > self.now_ms:
            self.advance_idle(deadline_ms - self.now_ms)
        return fired

    def drain(self, ms: float, step_ms: float = 100.0) -> None:
        """Advance ``ms`` of idle time in ``step_ms`` slices, firing
        due timers at each slice boundary — lets the group-commit
        daemon run between measured phases.  Time consumed by the
        callbacks themselves is on top of ``ms``, mirroring a harness
        that sleeps in steps regardless of what the daemons do."""
        remaining = ms
        while remaining > 0:
            slice_ms = min(step_ms, remaining)
            self.advance_idle(slice_ms)
            self.tick()
            remaining -= slice_ms

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, float]:
        """Current (now, cpu busy, disk busy) readings in ms."""
        return {
            "now_ms": self.now_ms,
            "cpu_busy_ms": self.cpu_busy_ms,
            "disk_busy_ms": self.disk_busy_ms,
        }
