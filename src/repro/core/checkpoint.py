"""Background checkpointer: decouple log install from commit.

The paper's third-entry protocol does its writeback *synchronously*:
when appending is about to enter a new third, ``_enter_third`` writes
home every page whose newest log copy lives in that third before any
more records can be written — so a commit that happens to cross a
third boundary stalls behind a burst of home writes (visible as
``wal.stall_ms``).

The checkpointer moves that work off the commit path.  A periodic
timer on the *simulated* clock (the same mechanism as the group-commit
daemon) installs every logged-but-not-yet-home page image and then
advances the log anchor to the current append position — a classic
fuzzy checkpoint:

* by the time the appender enters the next third, its pages are
  already home and the anchor has already moved past it, so
  ``_enter_third`` finds nothing to do and commits never block on
  write-home (steady-state ``wal.stall_ms`` stays 0);
* the anchor *is* the checkpoint LSN: recovery scans forward from it,
  so redo replays only records newer than the last checkpoint and
  recovery time stays flat no matter how much history the log has
  absorbed (per-page incremental REDO — the replay coalesces to the
  newest image per page within that bounded window).

Ordering stays sound without new machinery: every write is on the
platter when the call that issued it returns, so the checkpoint's home
writes are durable before the anchor write that follows them abandons
the log records that cover them.  A crash between the home writes and
the anchor write merely replays those records again; redo is
idempotent (the ``mid_checkpoint`` crashcheck scenario exercises
exactly this window).

The checkpointer is a mount-time option (``FSD.mount(...,
checkpoint_interval_ms=...)``), off by default: its background I/O
changes simulated timing, so the default mount stays bit-compatible
with the synchronous protocol.
"""

from __future__ import annotations

from repro.obs import NULL_OBS


class Checkpointer:
    """Periodic fuzzy checkpoint for one mounted FSD volume, every
    ``interval_ms`` of simulated time (the mount's
    ``checkpoint_interval_ms``)."""

    def __init__(self, clock, wal, cache, interval_ms: float, obs=NULL_OBS):
        self.clock = clock
        self.wal = wal
        self.cache = cache
        self.interval_ms = interval_ms
        self.obs = obs
        self.ticks = 0
        self.pages_written = 0
        self.anchor_advances = 0
        self._timer = clock.add_timer(
            interval_ms, self._on_timer, name="checkpointer"
        )

    def _on_timer(self, _clock) -> None:
        self.tick()

    def tick(self) -> int:
        """Run one checkpoint; returns the pages written home.

        Idle volumes pay nothing: when the anchor already sits at the
        append position there is nothing logged since the last
        checkpoint, and the tick is a pure counter bump.
        """
        wal, cache = self.wal, self.cache
        self.ticks += 1
        self.obs.count("ckpt.ticks")
        if (
            wal.anchor_offset == wal.write_offset
            and wal.anchor_record_number == wal.next_record_number
        ):
            return 0
        before = cache.home_writes
        # Install every logged image (the *logged* image, never a
        # newer uncommitted one — same rule as the synchronous
        # writeback), then advance the anchor past them.
        cache.flush_all_home()
        wal.checkpoint()
        written = cache.home_writes - before
        self.pages_written += written
        self.anchor_advances += 1
        if written:
            self.obs.count("ckpt.pages_written", written)
        self.obs.count("ckpt.anchor_advances")
        self.obs.gauge("ckpt.lsn", wal.anchor_record_number)
        return written

    def shutdown(self) -> None:
        """Deregister the timer (unmount/crash)."""
        self.clock.remove_timer(self._timer)
