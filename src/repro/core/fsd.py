"""FSD: the reimplemented Cedar file system (the paper's contribution).

The facade ties the pieces together exactly as §4 describes the
fast paths:

* **create** (one-byte file): two free pages from the (in-memory) VAM,
  a name-table update applied to the cached B-tree page, and a single
  synchronous I/O — the combined leader+data write.  The dirtied
  name-table pages are asynchronously logged by group commit.
* **open**: usually no I/O at all; everything is in the name table.
* **delete**: a name-table update plus shadow-bitmap bookkeeping; the
  pages become free when the delete commits.
* **crash recovery**: redo the log, then load or rebuild the VAM.

Every public entry point first fires due timers, which is how the
single-threaded simulation runs the half-second commit daemon.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.core.allocator import RunAllocator
from repro.core.cache import MetadataCache
from repro.core.checkpoint import Checkpointer
from repro.core.data_cache import DEFAULT_READAHEAD_PAGES, DataPageCache
from repro.core.group_commit import CommitCoordinator
from repro.core.layout import RootPage, VolumeLayout, VolumeParams
from repro.core.leader import encode_leader, verify_leader
from repro.core.name_table import FsdNameTable, NameTableHome, NameTablePager
from repro.core.recovery import (
    MountReport,
    read_root,
    rebuild_vam,
    replay_log,
    write_root,
)
from repro.core.txn import TxnManager
from repro.core.types import (
    FileKind,
    FileProperties,
    Run,
    RunTable,
    make_uid,
)
from repro.core.vam import VolumeAllocationMap
from repro.core.wal import WriteAheadLog
from repro.disk.disk import SimDisk
from repro.disk.sched import IoScheduler, as_scheduler
from repro.errors import (
    DamagedSectorError,
    DegradedVolumeError,
    FileNotFound,
    FsError,
    NotMounted,
)
from repro.obs import NULL_OBS


@dataclass
class FsdFile:
    """An open-file handle: a snapshot of the name-table entry plus the
    leader-verification state used for piggybacked checking."""

    props: FileProperties
    runs: RunTable
    leader_verified: bool = False

    @property
    def name(self) -> str:
        return self.props.name

    @property
    def version(self) -> int:
        return self.props.version

    @property
    def byte_size(self) -> int:
        return self.props.byte_size


@dataclass
class FsdOpCounts:
    creates: int = 0
    opens: int = 0
    reads: int = 0
    writes: int = 0
    deletes: int = 0
    lists: int = 0
    renames: int = 0
    leader_verifies: int = 0
    leader_piggyback_reads: int = 0
    leader_separate_reads: int = 0
    extra: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class MountOptions:
    """How a volume is mounted.  These are choices of one mount, not
    parameters of the volume (those are in the root page), so the same
    volume can be remounted differently; :meth:`FSD.mount` keeps the
    value it resolved as ``fs.options``.  docs/INTERNALS.md "Mounting a
    volume" says which benchmark runs on which value."""

    #: demanded and written data sectors kept cached (0: none — the
    #: data cache holds read-ahead only).
    data_cache_pages: int = 0
    #: cap on the sequential prefetch window; 0 makes every read
    #: exactly the disk requests the client asked for.
    readahead_pages: int = DEFAULT_READAHEAD_PAGES
    #: simulated-clock cadence of the background checkpointer
    #: (:mod:`repro.core.checkpoint`); None keeps the paper's
    #: synchronous third-entry writeback.
    checkpoint_interval_ms: float | None = None


#: the paper's mount — no data cache, no read-ahead, no checkpointer:
#: what Table 3 and the model validation are measured on.
PAPER = MountOptions(readahead_pages=0)
#: the mount the ``traffic_steady`` end-to-end workload is benchmarked
#: on (``read_stream``: the same less the checkpointer).
TUNED = MountOptions(data_cache_pages=4096, checkpoint_interval_ms=250.0)


class FSD:
    """One mounted FSD volume."""

    DEFAULT_KEEP = 2

    def __init__(
        self,
        disk: SimDisk,
        layout: VolumeLayout,
        root: RootPage,
        wal: WriteAheadLog,
        cache: MetadataCache,
        name_table: FsdNameTable,
        vam: VolumeAllocationMap,
        mount_report: MountReport,
        obs,
        io: IoScheduler,
        nt_home: NameTableHome,
        options: MountOptions,
    ):
        self.disk = disk
        self.io = io
        self.options = options
        self.clock = disk.clock
        self.layout = layout
        self.params = layout.params
        self.root = root
        self.boot_count = root.boot_count
        self.wal = wal
        self.cache = cache
        self.name_table = name_table
        self.vam = vam
        self.allocator = RunAllocator(vam, layout)
        self.obs = obs
        self.coordinator = CommitCoordinator(
            self.clock,
            wal,
            cache,
            vam,
            layout.params.commit_interval_ms,
            obs=obs,
        )
        #: the transaction brackets every mutating entry point runs
        #: inside (uncontended they are pure counter bookkeeping; the
        #: traffic engine drives the blocking/waking behaviour).
        self.txn = TxnManager(
            self.coordinator,
            capacity_pages=wal.admission_capacity_pages(),
            max_op_pages=layout.params.max_record_pages,
            obs=obs,
        )
        #: optional background checkpointer (mount-time opt-in): keeps
        #: the next log third clean and the anchor advanced so commits
        #: never stall on third-entry write-home.
        self.checkpointer = (
            Checkpointer(
                self.clock,
                wal,
                cache,
                interval_ms=options.checkpoint_interval_ms,
                obs=obs,
            )
            if options.checkpoint_interval_ms is not None
            else None
        )
        self.mount_report = mount_report
        self.data_cache = DataPageCache(
            capacity_pages=options.data_cache_pages,
            readahead_pages=options.readahead_pages,
            sector_bytes=disk.geometry.sector_bytes,
            obs=obs,
        )
        self.ops = FsdOpCounts()
        #: geometry is frozen; cache the sector size the data paths
        #: divide by on every read/write.
        self._sector_bytes = disk.geometry.sector_bytes
        self._uid_sequence = 0
        self._mounted = True
        #: non-None once the escalation ladder has been exhausted: the
        #: volume only serves reads until salvaged.
        self.degraded_reason: str | None = None
        #: disk address of the failing read (when known) — carried on
        #: every :class:`DegradedVolumeError` the volume raises.
        self.degraded_site: int | None = None
        self.nt_home = nt_home
        nt_home.on_degraded = self._note_degraded
        self.attach_observer(obs)

    def attach_observer(self, obs) -> None:
        """Point every layer of this volume at one observer (pass
        :data:`~repro.obs.NULL_OBS` to detach)."""
        self.obs = obs
        self.io.obs = obs
        self.wal.obs = obs
        self.cache.obs = obs
        self.data_cache.obs = obs
        self.vam.obs = obs
        self.coordinator.obs = obs
        self.txn.obs = obs
        if self.checkpointer is not None:
            self.checkpointer.obs = obs
        self.name_table.tree.pager.obs = obs
        self.nt_home.obs = obs
        if hasattr(self.disk, "obs"):
            # MirroredDisk carries its own attach point (plain SimDisk
            # does not): the mirror-fallback rung reports through it.
            self.disk.obs = obs

    # ==================================================================
    # lifecycle
    # ==================================================================
    @classmethod
    def format(cls, disk: SimDisk, params: VolumeParams | None = None) -> None:
        """Initialize an FSD volume on ``disk`` (no instance returned;
        call :meth:`mount` afterwards)."""
        params = params or VolumeParams()
        layout = VolumeLayout.compute(disk.geometry, params)
        io = as_scheduler(disk)
        wal = WriteAheadLog(disk, layout, io=io)
        wal.boot_count = 0
        wal.format()

        home = NameTableHome(io, layout)
        cache = MetadataCache(
            capacity_pages=params.cache_pages,
            nt_reader=home.read_page,
            writer=home.write_pages,
        )
        pager = NameTablePager(cache, layout, disk.clock, home)
        FsdNameTable.format(pager, disk.clock)
        # At format time nothing is committed yet; write the fresh tree
        # straight home instead of logging it.
        pages = cache.pages_needing_log()
        home.write_pages([(p.page_id, p.data) for p in pages])

        vam = VolumeAllocationMap(disk.geometry.total_sectors)
        for run in layout.metadata_runs():
            vam.mark_allocated(run)
        vam.save(io, layout, boot_count=0)

        root = RootPage(
            params=params,
            total_sectors=disk.geometry.total_sectors,
            boot_count=0,
            vam_saved=True,
        )
        write_root(io, layout, root)

    @classmethod
    def mount(
        cls,
        disk: SimDisk,
        params: VolumeParams | None = None,
        obs=None,
        options: MountOptions | None = None,
        **fields,
    ) -> "FSD":
        """Mount (and, if needed, recover) the FSD volume on ``disk``.

        ``params`` only provides the layout hint for locating the root
        page; authoritative parameters come from the root itself.
        ``obs`` attaches an :class:`~repro.obs.Observer` across every
        layer; recovery phases (log scan, redo, VAM load/rebuild) emit
        nested spans under ``fsd.mount``.  ``options`` is the
        :class:`MountOptions` value (default: ``MountOptions()``);
        ``fields`` replace individual fields of it, so
        ``mount(disk, data_cache_pages=64)`` and
        ``mount(disk, options=MountOptions(data_cache_pages=64))`` are
        the same mount.
        """
        # benchmarks/e2e/workloads.py still passes "sched": "scan".
        fields.pop("sched", None)
        options = replace(options or MountOptions(), **fields)
        obs = obs if obs is not None else NULL_OBS
        obs.bind_clock(disk.clock)
        io = as_scheduler(disk, obs=obs)
        start_ms = disk.clock.now_ms
        with obs.span("fsd.mount") as mount_span:
            report = MountReport()
            probe_layout = VolumeLayout.compute(
                disk.geometry, params or VolumeParams()
            )
            root = read_root(io, probe_layout)
            # Phase stamps: each phase runs from the previous stamp.
            stamp = disk.clock.now_ms
            report.root_read_ms = stamp - start_ms
            layout = VolumeLayout.compute(disk.geometry, root.params)
            new_boot = root.boot_count + 1
            report.boot_count = new_boot

            wal = WriteAheadLog(disk, layout, io=io)
            wal.boot_count = new_boot
            wal.obs = obs
            redone_nt = replay_log(disk, layout, wal, report, obs=obs)

            home = NameTableHome(io, layout)
            home.obs = obs
            cache = MetadataCache(
                capacity_pages=layout.params.cache_pages,
                nt_reader=home.read_page,
                writer=home.write_pages,
            )
            cache.obs = obs
            if redone_nt:
                # The pages the log carried are the most recently
                # updated ones, already in memory, and (after the redo)
                # identical to both home copies: start the
                # cache warm with them instead of re-reading them.
                report.cache_warm_pages = cache.install_clean(redone_nt)
                obs.count("recovery.cache_warm_pages", report.cache_warm_pages)
            pager = NameTablePager(cache, layout, disk.clock, home)
            pager.obs = obs
            name_table = FsdNameTable.open(pager, disk.clock)
            # replay_log timed the scan from ``stamp``; the redo phase
            # runs from the scan's end to here.
            report.redo_ms = disk.clock.now_ms - (stamp + report.scan_ms)
            stamp = disk.clock.now_ms

            vam = VolumeAllocationMap(disk.geometry.total_sectors)
            vam.obs = obs
            vam_loaded = False
            with obs.span("recovery.vam_load") as vam_span:
                if root.vam_saved:
                    vam_loaded = vam.load(
                        io, layout, expect_boot_count=root.boot_count
                    )
                vam_span.set(loaded=vam_loaded)
            if not vam_loaded:
                vam = rebuild_vam(
                    disk, layout, name_table, home, report, obs=obs
                )
            report.vam_loaded = vam_loaded
            report.vam_ms = disk.clock.now_ms - stamp
            stamp = disk.clock.now_ms

            new_root = RootPage(
                params=root.params,
                total_sectors=root.total_sectors,
                boot_count=new_boot,
                vam_saved=False,
            )
            write_root(io, layout, new_root)
            report.root_write_ms = disk.clock.now_ms - stamp
            report.total_ms = disk.clock.now_ms - start_ms
            mount_span.set(
                boot=new_boot,
                records_replayed=report.log_records_replayed,
                vam_loaded=vam_loaded,
            )
        obs.count("recovery.mounts")
        fs = cls(
            disk=disk,
            layout=layout,
            root=new_root,
            wal=wal,
            cache=cache,
            name_table=name_table,
            vam=vam,
            mount_report=report,
            obs=obs,
            io=io,
            nt_home=home,
            options=options,
        )
        if report.log_records_lost:
            # Committed records sit beyond a damage hole the scan could
            # not cross: their updates are gone.  Reads of unaffected
            # files still work; mutations would compound the loss.
            fs._note_degraded(
                "committed log records lost to mid-log media damage"
            )
        return fs

    def unmount(self) -> None:
        """Controlled shutdown: commit, write everything home, save the
        VAM, and mark the root clean.

        A degraded volume refuses the *clean* part: marking the root
        clean would vouch for metadata the ladder could not read, so
        the unmount is demoted to a crash and the next mount re-runs
        recovery (or the operator salvages).
        """
        if self.degraded_reason is not None:
            self.crash()
            return
        self._enter()
        self.coordinator.force()
        self.cache.flush_all_home()
        self.wal.checkpoint()
        self.vam.save(self.io, self.layout, self.boot_count)
        self.root = RootPage(
            params=self.root.params,
            total_sectors=self.root.total_sectors,
            boot_count=self.boot_count,
            vam_saved=True,
        )
        write_root(self.io, self.layout, self.root)
        self.coordinator.shutdown()
        if self.checkpointer is not None:
            self.checkpointer.shutdown()
        self.data_cache.discard_all()
        self._mounted = False

    def crash(self) -> None:
        """Simulated crash: all volatile state vanishes; the disk keeps
        whatever it had.  Mount again to recover."""
        self.cache.discard_all()
        self.data_cache.discard_all()
        self.txn.discard_waiters()
        self.coordinator.shutdown()
        if self.checkpointer is not None:
            self.checkpointer.shutdown()
        self._mounted = False

    # ==================================================================
    # public operations
    # ==================================================================
    def create(
        self,
        name: str,
        data: bytes = b"",
        keep: int | None = None,
        kind: FileKind = FileKind.LOCAL,
        remote_target: str = "",
    ) -> FsdFile:
        """Create the next version of ``name`` holding ``data``.

        The paper's one-byte-file script: two free pages from the VAM,
        a cached name-table update, and one combined leader+data write.
        """
        with self.obs.span("fsd.create", name=name, bytes=len(data)):
            self._enter(write=True)
            with self.txn.op():
                self.ops.creates += 1
                self.obs.count("fsd.creates")
                self.coordinator.note_update()
                keep = self.DEFAULT_KEEP if keep is None else keep
                # One walk of the name picks the version, says whether
                # any key of it is left over, and is what the trim below
                # removes from.
                keys = self.name_table.walk(name)
                version = keys.next_version()

                def identity(leader_addr: int) -> FileProperties:
                    self._uid_sequence += 1
                    return FileProperties(
                        name=name,
                        version=version,
                        uid=make_uid(self.boot_count, self._uid_sequence),
                        kind=kind,
                        byte_size=len(data),
                        create_time_ms=self.clock.now_ms,
                        last_used_ms=self.clock.now_ms,
                        keep=keep,
                        leader_addr=leader_addr,
                        remote_target=remote_target,
                    )

                handle = place_file(
                    self, data, identity, fresh=not keys.holds(version)
                )
                for props, runs in self.name_table.trim(keys, keep, version):
                    self._release(props, runs)
                return handle

    def open(self, name: str, version: int | None = None) -> FsdFile:
        """Open a file: normally zero disk I/O (paper §5.7)."""
        with self.obs.span("fsd.open", name=name):
            self._enter()
            self.ops.opens += 1
            self.obs.count("fsd.opens")
            props, runs = self._lookup(name, version)
            if props.kind == FileKind.CACHED:
                # The paper's canonical group-commit example: opening a
                # cached remote file updates its last-used-time, a
                # one-page name-table change batched into the next
                # commit.
                with self.txn.op():
                    props = props.with_updates(
                        last_used_ms=self.clock.now_ms
                    )
                    self.name_table.update(props, runs)
                    self.coordinator.note_update()
            return FsdFile(props=props, runs=runs)

    def read(self, handle: FsdFile, offset: int = 0, length: int | None = None) -> bytes:
        """Read file bytes; the first access piggybacks leader
        verification onto the data transfer."""
        props = handle.props
        with self.obs.span("fsd.read", name=props.name):
            self._enter()
            self.ops.reads += 1
            self.obs.count("fsd.reads")
            byte_size = props.byte_size
            if length is None:
                length = byte_size - offset
            if offset < 0 or length < 0 or offset + length > byte_size:
                raise FsError(
                    f"read [{offset}, {offset + length}) outside file of "
                    f"{byte_size} bytes"
                )
            if length == 0:
                self._verify_leader_if_needed(handle)
                return b""
            sector_bytes = self._sector_bytes
            first_page = offset // sector_bytes
            last_page = (offset + length - 1) // sector_bytes
            chunks = self._read_pages(
                handle, first_page, last_page - first_page + 1
            )
            if not handle.leader_verified:
                self._verify_leader_if_needed(handle)
            blob = b"".join(chunks)
            skip = offset - first_page * sector_bytes
            return blob[skip : skip + length]

    def write(self, handle: FsdFile, offset: int, data: bytes) -> None:
        """Write (and possibly extend) an existing file."""
        with self.obs.span("fsd.write", name=handle.props.name, bytes=len(data)):
            self._enter(write=True)
            with self.txn.op():
                self.ops.writes += 1
                self.obs.count("fsd.writes")
                self.coordinator.note_update()
                if offset < 0:
                    raise FsError("negative write offset")
                self._write_data(handle, offset, data)

    def delete(self, name: str, version: int | None = None) -> FileProperties:
        """Delete a file version.  No synchronous I/O: a name-table
        update plus shadow-bitmap bookkeeping (paper §4)."""
        with self.obs.span("fsd.delete", name=name):
            self._enter(write=True)
            with self.txn.op():
                self.ops.deletes += 1
                self.obs.count("fsd.deletes")
                self.coordinator.note_update()
                props, runs = self.name_table.delete(name, version)
                self._release(props, runs)
                return props

    def list(self, prefix: str = "") -> list[FileProperties]:
        """Name + properties of every file, straight from the name
        table — the operation Table 3 shows at 3 I/Os per 100 files."""
        with self.obs.span("fsd.list", prefix=prefix):
            self._enter()
            self.ops.lists += 1
            self.obs.count("fsd.lists")
            return self.name_table.enumerate_props(prefix)

    def rename(self, old_name: str, new_name: str, version: int | None = None) -> FsdFile:
        """Rename a file version; rewrites its leader (the name checksum
        is part of the mutual check)."""
        with self.obs.span("fsd.rename", name=old_name, to=new_name):
            self._enter(write=True)
            with self.txn.op():
                self.ops.renames += 1
                self.obs.count("fsd.renames")
                self.coordinator.note_update()
                props, runs = self.name_table.delete(old_name, version)
                self.data_cache.invalidate_file(props.uid)
                self.data_cache.invalidate_runs(runs)
                # Walked after the delete: the new name may be the old.
                new_keys = self.name_table.walk(new_name)
                new_version = new_keys.next_version()
                new_props = props.with_updates(
                    name=new_name, version=new_version
                )
                self.name_table.insert(
                    new_props, runs, fresh=not new_keys.holds(new_version)
                )
                self.cache.write_leader(
                    new_props.leader_addr,
                    encode_leader(
                        new_props, runs, self._sector_bytes
                    ),
                )
                return FsdFile(props=new_props, runs=runs)

    def truncate(self, handle: FsdFile, new_byte_size: int) -> None:
        """Contract a file; freed runs go through the shadow bitmap."""
        with self.obs.span("fsd.truncate", name=handle.props.name):
            self._enter(write=True)
            with self.txn.op():
                self.obs.count("fsd.truncates")
                self.coordinator.note_update()
                if new_byte_size > handle.props.byte_size:
                    raise FsError("truncate cannot grow a file (use write)")
                sector_bytes = self._sector_bytes
                keep_sectors = -(-new_byte_size // sector_bytes)
                freed = handle.runs.truncate_sectors(keep_sectors)
                self.data_cache.invalidate_runs(freed)
                self.data_cache.forget_file(handle.props.uid)
                self.allocator.free(freed, deferred=True)
                handle.props = handle.props.with_updates(
                    byte_size=new_byte_size
                )
                self.name_table.update(handle.props, handle.runs)
                self._refresh_leader(handle)

    def set_keep(self, name: str, keep: int) -> None:
        """Change the version-retention count and trim old versions."""
        with self.obs.span("fsd.set_keep", name=name, keep=keep):
            self._enter(write=True)
            with self.txn.op():
                self.obs.count("fsd.set_keeps")
                self.coordinator.note_update()
                keys = self.name_table.walk(name)
                props, runs = self.name_table.entry(keys)
                self.name_table.update(props.with_updates(keep=keep), runs)
                # The update rewrote the newest version only, which the
                # trim never removes.
                for old_props, old_runs in self.name_table.trim(keys, keep):
                    self._release(old_props, old_runs)

    def force(self) -> int:
        """Client-requested commit ("Clients may force the log")."""
        self._enter(write=True)
        return self.coordinator.force()

    def exists(self, name: str, version: int | None = None) -> bool:
        """True when the file (version) exists."""
        self._enter()
        try:
            self._lookup(name, version)
            return True
        except FileNotFound:
            return False

    def versions(self, name: str) -> list[int]:
        """All live versions of ``name``, ascending."""
        self._enter()
        return self.name_table.versions(name)

    # ==================================================================
    # internals
    # ==================================================================
    def _enter(self, write: bool = False) -> None:
        if not self._mounted:
            raise NotMounted("volume is not mounted")
        if write and self.degraded_reason is not None:
            raise DegradedVolumeError(
                self.degraded_reason, fault_site=self.degraded_site
            )
        self.clock.tick()
        self.coordinator.check_pressure()

    def _note_degraded(
        self, reason: str, fault_site: int | None = None
    ) -> None:
        """Final rung of the escalation ladder: go read-only.

        Any mutation in flight is abandoned — its unlogged cache pages
        roll back to their last logged images, so the half-applied
        update can never reach the log or the home copies.
        ``fault_site`` is the disk address whose read exhausted the
        ladder; the write-rejection error keeps reporting it so clients
        see *where* the volume died, not just that it did.
        """
        if self.degraded_reason is not None:
            return
        self.degraded_reason = reason
        self.degraded_site = fault_site
        self.cache.rollback_uncommitted()
        self.obs.count("ladder.degraded_marks")

    @property
    def degraded(self) -> bool:
        return self.degraded_reason is not None

    def _lookup(
        self, name: str, version: int | None
    ) -> tuple[FileProperties, RunTable]:
        """The entry of ``version`` (the newest when None), from one
        walk of the name."""
        return self.name_table.entry(self.name_table.walk(name), version)

    def _release(self, props: FileProperties, runs: RunTable) -> None:
        """Free a removed entry's sectors and forget what the caches
        hold of it."""
        self.allocator.free([Run(props.leader_addr, 1)], deferred=True)
        self.allocator.free(runs, deferred=True)
        self.cache.drop_leader(props.leader_addr)
        # Invalidate by file identity *before* by address: under
        # interleaved clients a stale handle may have extended the file
        # past the run list this delete resolved, and the uid index
        # catches those pages too.
        self.data_cache.invalidate_file(props.uid)
        self.data_cache.invalidate_runs(runs)
        self.data_cache.invalidate(props.leader_addr)

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def _ladder_read(
        self, address: int, count: int, cpu_overlap: bool = False
    ) -> list[bytes]:
        """Data-path read with the ladder's retry rung.

        A transient fault costs the retry about one revolution and
        succeeds; persistent damage raises :class:`DamagedSectorError`
        honestly (data pages have no duplicate copy to fall back on —
        that rung only exists for metadata — though a mirrored disk
        recovers transparently below this layer).
        """
        sectors = self.io.read_maybe(address, count, cpu_overlap=cpu_overlap)
        if None in sectors:
            self.obs.count("ladder.retries")
            sectors = self.io.read_maybe(
                address, count, cpu_overlap=cpu_overlap
            )
            if None in sectors:
                raise DamagedSectorError(address + sectors.index(None))
            self.obs.count("ladder.retry_successes")
        return sectors

    def _write_data(self, handle: FsdFile, offset: int, data: bytes) -> None:
        sector_bytes = self._sector_bytes
        end = offset + len(data)
        if not data:
            return
        self._ensure_capacity(handle, end)
        first_page = offset // sector_bytes
        last_page = (end - 1) // sector_bytes
        page_count = last_page - first_page + 1

        head_pad = offset - first_page * sector_bytes
        tail_len = end - last_page * sector_bytes
        payload = data
        old_size = handle.props.byte_size
        if head_pad:
            payload = self._read_partial(handle, first_page, old_size)[:head_pad] + payload
        if tail_len % sector_bytes and end < old_size:
            tail = self._read_partial(handle, last_page, old_size)
            payload = payload + tail[tail_len:]
        sectors = [
            payload[i : i + sector_bytes]
            for i in range(0, len(payload), sector_bytes)
        ]

        extents = handle.runs.extents_for(first_page, page_count)
        cursor = 0
        for index, (start, count) in enumerate(extents):
            chunk = sectors[cursor : cursor + count]
            piggyback = index == 0 and first_page == 0
            self._write_extent(handle, start, chunk, piggyback)
            cursor += count
        if end > handle.props.byte_size:
            handle.props = handle.props.with_updates(byte_size=end)
            self.name_table.update(handle.props, handle.runs)
            # Keep the leader's recorded byte size current even when no
            # run changed: the salvager recovers orphan files (name
            # table lost) at exactly the length the leader remembers.
            self._refresh_leader(handle)

    def _ensure_capacity(self, handle: FsdFile, byte_size: int) -> None:
        sector_bytes = self._sector_bytes
        have = handle.runs.total_sectors
        need = -(-byte_size // sector_bytes)
        if need <= have:
            return
        big = byte_size >= self.params.big_file_threshold_bytes
        runs = handle.runs.runs
        after = runs[-1].end if runs else handle.props.leader_addr + 1
        extra = self.allocator.extend(after, need - have, big=big)
        for run in extra.runs:
            handle.runs.append(run)
        self.name_table.update(handle.props, handle.runs)
        self._refresh_leader(handle)

    def _read_partial(
        self, handle: FsdFile, page: int, old_size: int
    ) -> bytes:
        """Read one existing sector for a read-modify-write boundary."""
        sector_bytes = self._sector_bytes
        if page * sector_bytes >= old_size:
            return b"\x00" * sector_bytes
        address = handle.runs.sector_of_page(page)
        sectors = self.data_cache.lookup(address)
        if sectors is None:
            sectors = self._ladder_read(address, 1)
            self.data_cache.store(address, sectors, handle.props.uid)
        return sectors[0]

    def _write_extent(
        self,
        handle: FsdFile,
        start: int,
        sectors: list[bytes],
        allow_piggyback: bool,
    ) -> None:
        """Write one extent from ``start`` in max_io_sectors chunks,
        piggybacking the pending leader write when the extent directly
        follows it.  Every chunk is written through: the platter copy
        just written is also the freshest image the data cache can hold."""
        max_io = self.params.max_io_sectors
        leader_addr = handle.props.leader_addr
        uid = handle.props.uid
        cursor = 0
        if (
            allow_piggyback
            and start == leader_addr + 1
        ):
            pending = self.cache.leader_pending_piggyback(leader_addr)
            if pending is not None:
                chunk = sectors[: max_io - 1]
                self.io.write(
                    leader_addr, [pending, *chunk], cpu_overlap=True
                )
                self.cache.note_leader_home(leader_addr)
                self.data_cache.store(start, chunk, uid)
                cursor = len(chunk)
        while cursor < len(sectors):
            chunk = sectors[cursor : cursor + max_io]
            self.io.write(start + cursor, chunk, cpu_overlap=True)
            self.data_cache.store(start + cursor, chunk, uid)
            cursor += len(chunk)

    def _read_pages(
        self, handle: FsdFile, first_page: int, page_count: int
    ) -> list[bytes]:
        """The data read path: serve what the data cache holds, then
        read the rest extent by extent in ``max_io_sectors`` chunks.  A
        read of page 0, or one that continues the file sequentially,
        carries a read-ahead of the current disk run on its last
        transfer (merged by ``merge_reads``: one rotational wait for the
        span instead of one per page); the first read of an unverified
        file carries the leader in front of its first (paper §5.7)."""
        dc = self.data_cache
        props = handle.props
        uid = props.uid
        out: list[bytes | None] = []
        #: (address, count) of every missing span; where in ``out`` each goes.
        demands: list[tuple[int, int]] = []
        positions: list[int] = []
        for start, count in handle.runs.extents_for(first_page, page_count):
            found = dc.lookup(start, count)
            if found is None:
                demands.append((start, count))
                positions.append(len(out))
                out += [None] * count
                continue
            if None in found:
                for offset, image in enumerate(found):
                    if image is not None:
                        continue
                    if offset and found[offset - 1] is None:
                        at, span = demands[-1]
                        demands[-1] = (at, span + 1)
                    else:
                        demands.append((start + offset, 1))
                        positions.append(len(out) + offset)
            out += found

        leader_addr = props.leader_addr
        piggyback = False
        if first_page == 0 and not handle.leader_verified:
            if (
                demands
                and demands[0][0] == leader_addr + 1
                and self.cache.leader_pending_piggyback(leader_addr) is None
            ):
                piggyback = True
            else:
                # Cached (just created/extended) or not adjacent to the
                # data: verified on its own, before the data moves.
                self._verify_leader_if_needed(handle)

        ahead_addr = start + count  # the sector after the last extent
        ahead = dc.readahead(uid, first_page, page_count, ahead_addr)
        if ahead:
            # No further than the file, or the disk run the read ended in.
            ahead = min(
                ahead,
                -(-props.byte_size // self._sector_bytes)
                - (first_page + page_count),
            )
            for run in handle.runs.runs:
                if run.start < ahead_addr <= run.start + run.count:
                    ahead = min(ahead, run.start + run.count - ahead_addr)
                    break
        if not demands and not ahead:
            return out

        requests = list(demands)
        if piggyback:
            requests[0] = (leader_addr, requests[0][1] + 1)
        if ahead:
            requests.append((ahead_addr, ahead))
        stream: list[bytes] = []
        for address, count in self.io.merge_reads(
            requests, limit=self.params.max_io_sectors
        ):
            try:
                stream += self._ladder_read(address, count, cpu_overlap=True)
            except DamagedSectorError:
                # Read-ahead must never turn a good read into a
                # failure: drop the prefetch and retry only the part
                # the client demanded (which raises honestly).
                demanded = ahead_addr - address if ahead else count
                if demanded >= count:
                    raise
                self.obs.count("cache.data.readahead_aborted")
                if demanded > 0:
                    stream += self._ladder_read(
                        address, demanded, cpu_overlap=True
                    )
                break

        cursor = 0
        if piggyback:
            self._check_leader_bytes(handle, stream[0])
            self.ops.leader_piggyback_reads += 1
            cursor = 1
        for (address, count), position in zip(demands, positions):
            sectors = stream[cursor : cursor + count]
            out[position : position + count] = sectors
            dc.store(address, sectors, uid)
            cursor += count
        if cursor < len(stream):
            dc.store(ahead_addr, stream[cursor:], uid, prefetched=True)
        return out

    # ------------------------------------------------------------------
    # leader handling
    # ------------------------------------------------------------------
    def _refresh_leader(self, handle: FsdFile) -> None:
        """The run table changed: rebuild the leader so the mutual
        check stays valid; logged like any other metadata change."""
        self.cache.write_leader(
            handle.props.leader_addr,
            encode_leader(
                handle.props, handle.runs, self._sector_bytes
            ),
        )
        handle.leader_verified = True

    def _verify_leader_if_needed(self, handle: FsdFile) -> None:
        if handle.leader_verified:
            return
        address = handle.props.leader_addr
        cached = self.cache.leader_pending_piggyback(address)
        if cached is not None:
            data = cached
        else:
            data = self._ladder_read(address, 1)[0]
            self.ops.leader_separate_reads += 1
        self._check_leader_bytes(handle, data)

    def _check_leader_bytes(self, handle: FsdFile, data: bytes) -> None:
        verify_leader(data, handle.props, handle.runs)
        handle.leader_verified = True
        self.ops.leader_verifies += 1


def place_file(
    fs: FSD,
    data: bytes,
    identity: Callable[[int], FileProperties],
    fresh: bool = False,
) -> FsdFile:
    """Place a new file holding ``data`` on ``fs``: allocate a leader
    sector with the data pages after it, enter the file in the name
    table, stage its leader and write the data.  ``identity(leader
    address)`` returns the file's properties: :meth:`FSD.create` mints
    a new uid and version there, salvage passes on the ones the file
    had.  ``fresh``: no key of that version exists
    (:meth:`FsdNameTable.insert`)."""
    sector_bytes = fs._sector_bytes
    big = len(data) >= fs.params.big_file_threshold_bytes
    table = fs.allocator.allocate(
        1 + -(-len(data) // sector_bytes), big=big, new_file=bool(data)
    )
    # The leader is the first allocated sector; data pages follow.
    first = table.runs[0]
    runs = RunTable()
    if first.count > 1:
        runs.append(Run(first.start + 1, first.count - 1))
    for run in table.runs[1:]:
        runs.append(run)
    handle = FsdFile(props=identity(first.start), runs=runs)
    fs.name_table.insert(handle.props, runs, fresh=fresh)
    fs._refresh_leader(handle)
    # A zero-byte file has no data write to piggyback on: its leader
    # stays cached until the logging code writes it during entry into
    # its third (paper §5.3).
    if data:
        fs._write_data(handle, 0, data)
    return handle
