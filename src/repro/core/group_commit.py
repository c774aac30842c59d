"""Group commit (paper §5.4).

"A set of updates are grouped together in one log write to amortize
the cost of the log write disk I/O over several updates...  FSD forces
its log twice a second."  The coordinator owns the group-commit
timer: an update is durable within one commit interval of being made.
A force batches every page dirtied since the last one into as few log
records as possible and writes them through the volume's I/O port;
the last record's write returning is the durability point.  Because
pages freed by a delete are not really free until the delete commits,
the shadow bitmap is applied to the VAM only after that point.
"""

from __future__ import annotations

from typing import Callable

from repro.core.cache import MetadataCache
from repro.core.vam import VolumeAllocationMap
from repro.core.wal import WriteAheadLog
from repro.disk.clock import SimClock
from repro.obs import NULL_OBS

#: histogram bounds for pages per force and updates absorbed per force.
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
#: histogram bounds for simulated force latency (one log write).
FORCE_MS_BUCKETS = (2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0)
#: histogram bounds for update-to-durable latency: how long each
#: metadata update waited for the force that committed it (the
#: paper's half-second group-commit window dominates the tail).
DURABLE_MS_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                      500.0, 1000.0)


class CommitCoordinator:
    """Owns the group-commit policy for one mounted FSD volume."""

    def __init__(
        self,
        clock: SimClock,
        wal: WriteAheadLog,
        cache: MetadataCache,
        vam: VolumeAllocationMap,
        interval_ms: float,
        obs=NULL_OBS,
    ):
        self.clock = clock
        self.wal = wal
        self.cache = cache
        self.vam = vam
        self.interval_ms = interval_ms
        self.obs = obs
        #: force early once this many pages await logging — "the log is
        #: forced long before [an oversized entry] should occur" (§5.3).
        self.pressure_pages = 2 * wal.layout.params.max_record_pages
        self.forces = 0
        self.pressure_forces = 0
        self.empty_forces = 0
        #: forces that could not run because operations were inside
        #: their brackets; the last end_op runs them instead.
        self.deferred_forces = 0
        #: client updates since the last force — each force "absorbs"
        #: this many commits into one log write (paper §5.4).
        self.updates_since_force = 0
        #: lifetime sum of absorbed updates (batching-factor numerator).
        self.updates_absorbed = 0
        #: issue time of each unforced update, for durable latency.
        self._update_times: list[float] = []
        #: the volume's TxnManager: set by TxnManager.__init__, which
        #: every FSD runs right after building the coordinator.
        self.txn = None
        self.last_force_ms = clock.now_ms
        wal.flush_third = cache.flush_third
        self._timer = clock.add_timer(
            interval_ms, self._on_timer, name="group-commit"
        )
        self._commit_hooks: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # the commit itself
    # ------------------------------------------------------------------
    def force(self) -> int:
        """Write every pending update to the log; returns sectors logged.

        Clients may call this directly ("Clients may force the log");
        otherwise the timer does, twice a (virtual) second.

        A force that arrives while client operations are outstanding
        (or while another force is already committing — a second client
        arriving mid-force, or a commit hook calling back in) does not
        run: it is *deferred*, new admissions stop, and the last
        ``end_op`` of the drain — or the force in progress — commits on
        behalf of every waiting client.
        """
        txn = self.txn
        if not txn.can_commit():
            txn.request_commit()
            self.deferred_forces += 1
            self.obs.count("commit.deferred_forces")
            return 0
        txn.committing = True
        try:
            written = self._commit()
        finally:
            txn.committing = False
        # Wake parked clients only after `committing` has cleared, so a
        # woken client may immediately retry begin_op.
        txn.after_force(self.clock.now_ms)
        return written

    def _commit(self) -> int:
        """The commit itself (admission already settled by force())."""
        obs = self.obs
        recorder = getattr(obs, "attribution", None)
        if recorder is not None:
            recorder.force_begin(self.clock.now_ms)
        with obs.span("commit.force") as span:
            pages = self.cache.pages_needing_log()
            self.last_force_ms = self.clock.now_ms
            absorbed, self.updates_since_force = self.updates_since_force, 0
            self.updates_absorbed += absorbed
            update_times, self._update_times = self._update_times, []
            if not pages:
                self.empty_forces += 1
                obs.count("commit.empty_forces")
                span.set(pages=0)
                self._note_durable(update_times)
                if recorder is not None:
                    recorder.force_logged(self.clock.now_ms)
                self._after_commit()
                if recorder is not None:
                    recorder.force_done(self.clock.now_ms)
                return 0
            self.forces += 1
            obs.count("commit.forces")
            obs.observe("commit.batch_pages", len(pages), bounds=BATCH_BUCKETS)
            obs.observe("commit.ops_absorbed", absorbed, bounds=BATCH_BUCKETS)
            start_ms = self.clock.now_ms
            written = 0
            records = 0
            appended = self.wal.append_records(pages)
            for record_number, third, record_pages in appended:
                self.cache.note_logged(record_pages, third)
                written += len(record_pages)
                records += 1
            # Durability point: every record of this commit is on the
            # platter before the updates it carries become final.
            if recorder is not None:
                recorder.force_logged(self.clock.now_ms)
            obs.observe(
                "commit.force_ms",
                self.clock.now_ms - start_ms,
                bounds=FORCE_MS_BUCKETS,
            )
            span.set(pages=written, records=records, absorbed=absorbed)
            self._note_durable(update_times)
            self._after_commit()
            if recorder is not None:
                recorder.force_done(self.clock.now_ms)
            return written

    def note_update(self) -> None:
        """An FSD entry point performed a metadata update; the next
        force will report it as absorbed by that commit."""
        self.updates_since_force += 1
        if self.obs.enabled:
            self._update_times.append(self.clock.now_ms)

    def _note_durable(self, update_times: list[float]) -> None:
        """Record how long each absorbed update waited to be durable
        (the per-client commit latency the traffic engine reports)."""
        if not update_times:
            return
        end_ms = self.clock.now_ms
        for issued_ms in update_times:
            self.obs.observe(
                "commit.durable_latency_ms",
                end_ms - issued_ms,
                bounds=DURABLE_MS_BUCKETS,
            )

    def _after_commit(self) -> None:
        # Deletes become final: shadow-freed pages join the VAM.
        self.clock.advance_cpu(
            self.clock.cpu.vam_bit_ms * self.vam.shadow_sectors
        )
        self.vam.commit_shadow()
        for hook in self._commit_hooks:
            hook()

    def add_commit_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` after every commit (used by tests and by the
        last-used-time bookkeeping for cached remote files)."""
        self._commit_hooks.append(hook)

    def check_pressure(self) -> bool:
        """Force early when too many pages are waiting (called from the
        file system's entry points); returns True if a force ran."""
        # pending_log_pages() inlined: this guard runs on every file
        # system entry point.
        if len(self.cache._dirty) >= self.pressure_pages:
            self.pressure_forces += 1
            self.obs.count("commit.pressure_forces")
            self.force()
            return True
        return False

    # ------------------------------------------------------------------
    # timer plumbing
    # ------------------------------------------------------------------
    def _on_timer(self, _clock: SimClock) -> None:
        self.obs.count("commit.timer_forces")
        self.force()

    def shutdown(self) -> None:
        """Stop the commit daemon (unmount/crash)."""
        self.clock.remove_timer(self._timer)
