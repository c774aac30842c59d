"""The physical-order VAM rebuild: equivalence with the key-order walk,
and the fault ladder inside a bulk transfer.

``rebuild_vam`` sweeps every *allocated* name-table page in ascending
page order as multi-sector transfers.  Its contract is that it builds
the bitmap the ``FsdNameTable.enumerate`` walk would build — on a fresh
mount, on a live mount whose newest pages exist only in the cache, with
run tables spilled into continuation chunks, with stale leaf images
left behind in freed pages — and that a page it cannot take from the
bulk transfer climbs the same ladder a single-page read climbs.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.btree.node import LEAF, Node
from repro.core.fsd import FSD
from repro.core.layout import VolumeLayout, VolumeParams
from repro.core.name_table import NameTableHome
from repro.core import recovery
from repro.core.recovery import MountReport, rebuild_vam
from repro.core.types import (
    MAX_INLINE_RUNS,
    FileProperties,
    Run,
    RunTable,
    decode_main_entry,
    encode_key,
    encode_main_entry,
    make_uid,
)
from repro.core.vam import VolumeAllocationMap
from repro.core.verify import verify_volume
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.errors import (
    CorruptMetadata,
    DegradedVolumeError,
    FileNotFound,
    VolumeFull,
)
from repro.harness.fingerprint import disk_digest
from repro.obs import Observer
from repro.workloads.generators import payload
from tests.conftest import create_until_nt_pages

GEO = DiskGeometry(cylinders=120, heads=8, sectors_per_track=24)


def params(single_nt_copy: bool = False) -> VolumeParams:
    # A 1 KB big-file threshold sends every file of two sectors or more
    # to the first-fit big area, where deleting alternate files leaves
    # three-sector holes for later files to be scattered across.
    return VolumeParams(
        nt_pages=512,
        log_record_sectors=300,
        cache_pages=48,
        big_file_threshold_bytes=1024,
        single_nt_copy=single_nt_copy,
    )


def fragmented_volume(single_nt_copy: bool = False) -> tuple[SimDisk, FSD]:
    """A committed volume holding a file whose run table spills past
    the inline limit, and freed name-table pages still holding the leaf
    images they had before the deletes merged them away."""
    disk = SimDisk(geometry=GEO)
    FSD.format(disk, params(single_nt_copy))
    fs = FSD.mount(disk)
    for index in range(60):
        fs.create(f"frag/f{index:02d}", payload(1024, index))
    fs.force()
    # A directory that comes and goes: its leaves are split off, logged,
    # then merged away, and the freed pages keep their last leaf image.
    for index in range(40):
        fs.create(f"tmp/t{index:02d}", payload(200, index))
    fs.force()
    for index in range(40):
        fs.delete(f"tmp/t{index:02d}")
    fs.force()
    for index in range(0, 60, 2):
        fs.delete(f"frag/f{index:02d}")
    fs.force()
    fs.force()  # the second force commits the shadow-freed sectors
    fs.create("frag/scattered", payload(512 * 56, 99))
    fs.force()
    return disk, fs


def walk_bits(fs: FSD) -> bytes:
    """The reference: a bitmap built from the key-order walk."""
    vam = VolumeAllocationMap(fs.disk.geometry.total_sectors)
    for run in fs.layout.metadata_runs():
        vam.mark_allocated(run)
    for props, runs in fs.name_table.enumerate():
        if props.leader_addr:
            vam.mark_allocated(Run(props.leader_addr, 1))
        for run in runs.runs:
            vam.mark_allocated(run)
    return bytes(vam._bits)


def sweep_bits(fs: FSD) -> tuple[bytes, MountReport]:
    report = MountReport()
    vam = rebuild_vam(
        fs.disk, fs.layout, fs.name_table, fs.nt_home, report
    )
    return bytes(vam._bits), report


def allocated_pages(fs: FSD) -> set[int]:
    return {
        page
        for first, count in fs.name_table.tree.pager.allocated_runs()
        for page in range(first, first + count)
    }


def stale_leaf_pages(fs: FSD) -> list[int]:
    """Unallocated name-table pages whose home image is a non-empty
    leaf: what the sweep must not be fooled by."""
    allocated = allocated_pages(fs)
    stale = []
    for page_no in range(2, fs.params.nt_pages):
        if page_no in allocated:
            continue
        image = fs.disk.peek(fs.layout.nt_page_addresses(page_no)[0])
        if image[0] == LEAF and Node.from_bytes(image).keys:
            stale.append(page_no)
    return stale


# ----------------------------------------------------------------------
# equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("single_nt_copy", [False, True])
class TestSweepEqualsWalk:
    def test_fixture_has_spill_and_stale_leaves(self, single_nt_copy):
        disk, fs = fragmented_volume(single_nt_copy)
        assert len(fs.open("frag/scattered").runs.runs) > MAX_INLINE_RUNS
        fs.unmount()  # writes every logged image home
        fs = FSD.mount(disk)
        assert stale_leaf_pages(fs)

    def test_fresh_mount_after_crash(self, single_nt_copy):
        disk, fs = fragmented_volume(single_nt_copy)
        fs.crash()
        recovered = FSD.mount(disk)
        report = recovered.mount_report
        assert not report.vam_loaded
        assert report.vam_sweep_pages > 0
        assert report.vam_rebuild_entries == 31
        assert bytes(recovered.vam._bits) == walk_bits(recovered)

    def test_live_mount_with_uncommitted_pages(self, single_nt_copy):
        """The ``verify_volume`` case: the newest pages are dirty in
        the cache (or logged and not yet home), so home alone is stale."""
        disk, fs = fragmented_volume(single_nt_copy)
        for index in range(12):
            fs.create(f"live/f{index:02d}", payload(700, index))
        fs.delete("frag/f01")
        assert fs.cache.pending_log_pages() > 0
        bits, report = sweep_bits(fs)
        assert report.vam_sweep_pages > 0
        assert bits == walk_bits(fs)


_NAMES = [f"h/n{index}" for index in range(8)]
_SIZES = [300, 1024, 512 * 40]

_history = st.lists(
    st.one_of(
        st.tuples(
            st.just("create"),
            st.sampled_from(_NAMES),
            st.sampled_from(_SIZES),
        ),
        st.tuples(st.just("delete"), st.sampled_from(_NAMES)),
        st.tuples(
            st.just("rename"),
            st.sampled_from(_NAMES),
            st.sampled_from(_NAMES),
        ),
        st.tuples(st.just("force")),
    ),
    max_size=30,
)


def _apply(fs: FSD, history) -> None:
    for step, op in enumerate(history):
        try:
            if op[0] == "create":
                fs.create(op[1], payload(op[2], step), keep=0)
            elif op[0] == "delete":
                fs.delete(op[1])
            elif op[0] == "rename":
                if op[1] != op[2]:
                    fs.rename(op[1], op[2])
            else:
                fs.force()
        except (FileNotFound, VolumeFull):
            pass


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(history=_history, single_nt_copy=st.booleans())
def test_sweep_equals_walk_over_histories(history, single_nt_copy):
    """Create / delete / rename histories on top of the fragmented
    volume: same bitmap from sweep and walk, live and after a crash."""
    disk, fs = fragmented_volume(single_nt_copy)
    _apply(fs, history)

    bits, report = sweep_bits(fs)
    assert report.vam_sweep_pages > 0
    assert bits == walk_bits(fs)

    fs.crash()
    recovered = FSD.mount(disk)
    assert recovered.mount_report.vam_sweep_pages > 0
    assert bytes(recovered.vam._bits) == walk_bits(recovered)


# ----------------------------------------------------------------------
# the ladder inside a bulk transfer
# ----------------------------------------------------------------------
def page(byte: int) -> bytes:
    return bytes([byte]) * GEO.sector_bytes


@pytest.fixture
def home_world():
    disk = SimDisk(geometry=GEO)
    layout = VolumeLayout.compute(GEO, params())
    home = NameTableHome(disk, layout)
    home.obs = Observer()
    home.write_pages([(10 + index, page(index + 1)) for index in range(10)])
    return disk, layout, home


class TestBulkReadLadder:
    def test_clean_run_is_one_transfer_per_copy(self, home_world):
        disk, _, home = home_world
        before = disk.stats.total_ios
        assert home.read_run(10, 10) == [page(i + 1) for i in range(10)]
        assert disk.stats.total_ios - before == 2
        assert home.bulk_reads == 2
        assert home.ladder_fallbacks == 0

    @pytest.mark.parametrize("copy", [0, 1])
    def test_one_damaged_copy_is_served_from_its_twin(self, home_world, copy):
        disk, layout, home = home_world
        bad = layout.nt_page_addresses(13)[copy]
        disk.faults.damage(bad)
        assert home.read_run(10, 10) == [page(i + 1) for i in range(10)]
        assert home.ladder_fallbacks == 1
        assert home.repairs == 1
        assert not disk.faults.is_damaged(bad)
        assert disk.peek(bad) == page(4)
        counters = home.obs.snapshot().counters
        assert counters["ladder.copy_repairs"] == 1

    def test_transient_fault_costs_a_fallback_but_no_repair(self, home_world):
        disk, layout, home = home_world
        disk.faults.damage_transient(layout.nt_page_addresses(15)[0])
        assert home.read_run(10, 10) == [page(i + 1) for i in range(10)]
        assert home.ladder_fallbacks == 1
        assert home.repairs == 0

    def test_both_copies_damaged_degrades_at_the_page(self, home_world):
        disk, layout, home = home_world
        addr_a, addr_b = layout.nt_page_addresses(16)
        disk.faults.damage(addr_a)
        disk.faults.damage(addr_b)
        with pytest.raises(DegradedVolumeError) as caught:
            home.read_run(10, 10)
        assert caught.value.fault_site == addr_a
        assert "both copies damaged" in str(caught.value)

    def test_differing_copies_degrade_at_the_page(self, home_world):
        disk, layout, home = home_world
        addr_a, addr_b = layout.nt_page_addresses(12)
        disk.poke(addr_b, page(0xEE))  # a wild write: healthy, wrong
        with pytest.raises(DegradedVolumeError) as caught:
            home.read_run(10, 10)
        assert caught.value.fault_site == addr_a
        assert "copies differ" in str(caught.value)

    def test_single_copy_volume_reads_one_transfer(self):
        disk = SimDisk(geometry=GEO)
        layout = VolumeLayout.compute(GEO, params(single_nt_copy=True))
        home = NameTableHome(disk, layout)
        home.write_pages([(10 + index, page(index + 1)) for index in range(4)])
        before = disk.stats.total_ios
        assert home.read_run(10, 4) == [page(i + 1) for i in range(4)]
        assert disk.stats.total_ios - before == 1
        addr_a, _ = layout.nt_page_addresses(11)
        disk.faults.damage(addr_a)
        with pytest.raises(DegradedVolumeError) as caught:
            home.read_run(10, 4)
        assert caught.value.fault_site == addr_a


#: pages per one-cylinder stripe of the name table (93 on ``GEO``).
STRIPE_PAGES = VolumeLayout.compute(GEO, params()).stripe_pages
#: a ten-page run with the stripe boundary in the middle of it.
EDGE_FIRST = STRIPE_PAGES - 5
EDGE_PAGES = [(EDGE_FIRST + index, page(index + 1)) for index in range(10)]
either_side = pytest.mark.parametrize(
    "page_no", [STRIPE_PAGES - 1, STRIPE_PAGES],
    ids=["last of a stripe", "first of the next"],
)


@pytest.fixture
def edge_world(home_world):
    disk, layout, home = home_world
    home.write_pages(EDGE_PAGES)
    return disk, layout, home


class TestBulkReadAcrossAStripeBoundary:
    """A run that crosses from one stripe into the next is one transfer
    per copy *per stripe*, and otherwise nothing new: what it returns,
    repairs and refuses is what page-at-a-time reads do."""

    def test_write_pages_splits_at_the_boundary(self, home_world):
        disk, layout, home = home_world
        before = disk.stats.writes
        home.write_pages(EDGE_PAGES)
        assert disk.stats.writes - before == 4
        for page_no, image in EDGE_PAGES:
            for address in layout.nt_page_addresses(page_no):
                assert disk.peek(address) == image

    def test_run_equals_page_at_a_time_reads(self, edge_world):
        disk, _, home = edge_world
        before = disk.stats.total_ios
        images = home.read_run(EDGE_FIRST, 10)
        assert disk.stats.total_ios - before == 4
        assert home.bulk_reads == 4
        assert home.ladder_fallbacks == 0
        assert images == [image for _, image in EDGE_PAGES]
        assert images == [home.read_page(no) for no, _ in EDGE_PAGES]

    @pytest.mark.parametrize("copy", [0, 1])
    @either_side
    def test_one_damaged_copy_is_served_from_its_twin(
        self, edge_world, page_no, copy
    ):
        disk, layout, home = edge_world
        bad = layout.nt_page_addresses(page_no)[copy]
        disk.faults.damage(bad)
        assert home.read_run(EDGE_FIRST, 10) == [
            image for _, image in EDGE_PAGES
        ]
        assert (home.ladder_fallbacks, home.repairs) == (1, 1)
        assert not disk.faults.is_damaged(bad)
        assert disk.peek(bad) == dict(EDGE_PAGES)[page_no]

    @either_side
    def test_both_copies_damaged_degrades_at_the_page(
        self, edge_world, page_no
    ):
        disk, layout, home = edge_world
        addr_a, addr_b = layout.nt_page_addresses(page_no)
        disk.faults.damage(addr_a)
        disk.faults.damage(addr_b)
        with pytest.raises(DegradedVolumeError) as caught:
            home.read_run(EDGE_FIRST, 10)
        assert caught.value.fault_site == addr_a
        assert f"page {page_no}:" in str(caught.value)


class TestMountThroughDamage:
    def test_damaged_leaf_copy_is_repaired_during_the_sweep(self):
        disk, fs = fragmented_volume()
        first, _ = fs.name_table.tree.pager.allocated_runs()[0]
        fs.unmount()
        fs = FSD.mount(disk)
        fs.crash()  # dirty root, empty log: the next mount rebuilds
        bad = fs.layout.nt_page_addresses(first + 1)[1]
        disk.faults.damage(bad)
        obs = Observer()
        recovered = FSD.mount(disk, obs=obs)
        # Snapshot before walk_bits(): its enumeration prefetches, and
        # prefetch transfers count as bulk reads too.
        mount_bulk_reads = recovered.nt_home.bulk_reads
        assert recovered.nt_home.ladder_fallbacks == 1
        assert not disk.faults.is_damaged(bad)
        assert obs.snapshot().counters["ladder.copy_repairs"] == 1
        assert bytes(recovered.vam._bits) == walk_bits(recovered)
        span = next(
            record for record in obs.span_records()
            if record.name == "recovery.vam_rebuild"
        )
        assert span.attrs["ladder_fallbacks"] == 1
        assert span.attrs["pages"] == recovered.mount_report.vam_sweep_pages
        assert span.attrs["transfers"] == mount_bulk_reads

    def test_leaf_lost_on_both_copies_fails_the_mount(self):
        disk, fs = fragmented_volume()
        first, _ = fs.name_table.tree.pager.allocated_runs()[0]
        fs.unmount()
        fs = FSD.mount(disk)
        fs.crash()
        addr_a, addr_b = fs.layout.nt_page_addresses(first + 1)
        disk.faults.damage(addr_a)
        disk.faults.damage(addr_b)
        with pytest.raises(DegradedVolumeError) as caught:
            FSD.mount(disk)
        assert caught.value.fault_site == addr_a


class TestSweepAcrossAStripeBoundary:
    def _two_stripe_volume(self) -> tuple[SimDisk, FSD, int]:
        disk = SimDisk(geometry=GEO)
        FSD.format(disk, params())
        fs = FSD.mount(disk)
        files = len(create_until_nt_pages(fs, "wide/f", STRIPE_PAGES + 8))
        fs.unmount()
        fs = FSD.mount(disk)
        fs.crash()  # dirty root, empty log: the next mount sweeps home
        return disk, fs, files

    def test_sweep_equals_walk_and_splits_its_transfer(self):
        disk, fs, files = self._two_stripe_volume()
        runs = fs.name_table.tree.pager.allocated_runs()
        assert any(
            first < STRIPE_PAGES < first + count for first, count in runs
        )
        recovered = FSD.mount(disk)
        report = recovered.mount_report
        mount_bulk_reads = recovered.nt_home.bulk_reads
        assert not report.vam_loaded
        assert report.vam_sweep_pages == len(allocated_pages(recovered))
        assert report.vam_rebuild_entries == files
        assert recovered.nt_home.ladder_fallbacks == 0
        # One run of allocated pages, under max_io_sectors, cut once.
        assert mount_bulk_reads == 4
        assert bytes(recovered.vam._bits) == walk_bits(recovered)

    def test_damage_either_side_of_the_boundary_is_repaired(self):
        disk, fs, _ = self._two_stripe_volume()
        bad = [
            fs.layout.nt_page_addresses(STRIPE_PAGES - 1)[0],
            fs.layout.nt_page_addresses(STRIPE_PAGES)[1],
        ]
        for address in bad:
            disk.faults.damage(address)
        obs = Observer()
        recovered = FSD.mount(disk, obs=obs)
        assert recovered.nt_home.ladder_fallbacks == 2
        assert obs.snapshot().counters["ladder.copy_repairs"] == 2
        assert not any(disk.faults.is_damaged(address) for address in bad)
        assert bytes(recovered.vam._bits) == walk_bits(recovered)


# ----------------------------------------------------------------------
# the entry-count guard
# ----------------------------------------------------------------------
def _plant_page(disk: SimDisk, fs: FSD, image: bytes) -> int:
    """Mark a free name-table page allocated and write ``image`` to
    both its copies: a page the tree does not reach.  Returns the page
    number."""
    layout = fs.layout
    allocated = allocated_pages(fs)
    orphan = next(
        page for page in range(2, layout.params.nt_pages)
        if page not in allocated
    )
    home = NameTableHome(disk, layout)
    bitmap = bytearray(home.read_page(1))
    bitmap[orphan // 8] |= 1 << (orphan % 8)
    home.write_pages([(1, bytes(bitmap)), (orphan, image)])
    return orphan


def _plant_orphan(disk: SimDisk, fs: FSD, runs: list[Run]) -> int:
    """Plant a leaf holding one entry that claims ``runs``."""
    props = FileProperties(
        name="zz/orphan", version=1, uid=make_uid(9, 9), byte_size=512,
        keep=1, leader_addr=0,
    )
    leaf = Node(
        kind=LEAF,
        keys=[encode_key("zz/orphan", 1, 0)],
        values=[encode_main_entry(props, RunTable(runs))],
    ).to_bytes(GEO.sector_bytes)
    return _plant_page(disk, fs, leaf)


class TestEntryCountGuard:
    def _crashed_clean_volume(self) -> tuple[SimDisk, FSD]:
        disk, fs = fragmented_volume()
        fs.unmount()
        fs = FSD.mount(disk)
        fs.crash()  # dirty root, empty log: home is the whole truth
        return disk, fs

    def test_orphan_leaf_is_detected_and_the_walk_wins(self):
        disk, fs = self._crashed_clean_volume()
        free = Run(fs.layout.small_area.end - 8, 3)
        _plant_orphan(disk, fs, [free])
        obs = Observer()
        recovered = FSD.mount(disk, obs=obs)
        counters = obs.snapshot().counters
        assert counters["recovery.vam_sweep_mismatch"] == 1
        assert recovered.mount_report.vam_sweep_pages == 0
        assert recovered.mount_report.vam_rebuild_entries == 31
        assert bytes(recovered.vam._bits) == walk_bits(recovered)
        assert recovered.vam.is_free(free.start)

    def test_orphan_claiming_live_sectors_is_detected_too(self):
        """A stale copy of a live entry double-allocates before the
        counts can be compared; that is the same disagreement."""
        disk, fs = self._crashed_clean_volume()
        probe = FSD.mount(disk)
        taken = probe.open("frag/f01").runs.runs[0]
        probe.crash()
        _plant_orphan(disk, fs, [taken])
        obs = Observer()
        recovered = FSD.mount(disk, obs=obs)
        assert obs.snapshot().counters["recovery.vam_sweep_mismatch"] == 1
        assert bytes(recovered.vam._bits) == walk_bits(recovered)

    def test_orphan_pointing_off_the_volume_is_detected_too(self):
        disk, fs = self._crashed_clean_volume()
        _plant_orphan(disk, fs, [Run(disk.geometry.total_sectors - 1, 2)])
        obs = Observer()
        recovered = FSD.mount(disk, obs=obs)
        assert obs.snapshot().counters["recovery.vam_sweep_mismatch"] == 1
        assert bytes(recovered.vam._bits) == walk_bits(recovered)

    def test_live_entry_off_the_volume_fails_the_mount(self):
        """The walk meets the same entry the sweep refused: the mount
        fails rather than claim sectors the volume does not have."""
        disk, fs = self._crashed_clean_volume()
        home = NameTableHome(disk, fs.layout)
        key = encode_key("frag/f01", 1, 0)
        page_no, node = next(
            (page_no, node)
            for page_no in sorted(allocated_pages(fs))
            for node in [Node.from_bytes(home.read_page(page_no))]
            if node.kind == LEAF and key in node.keys
        )
        index = node.keys.index(key)
        props, _, _ = decode_main_entry("frag/f01", 1, node.values[index])
        off_end = Run(disk.geometry.total_sectors - 1, 2)
        node.values[index] = encode_main_entry(props, RunTable([off_end]))
        home.write_pages([(page_no, node.to_bytes(GEO.sector_bytes))])
        obs = Observer()
        with pytest.raises(CorruptMetadata, match="outside volume"):
            FSD.mount(disk, obs=obs)
        assert obs.snapshot().counters["recovery.vam_sweep_mismatch"] == 1


# ----------------------------------------------------------------------
# the sweep's memo: one disk, its last sweep
# ----------------------------------------------------------------------
def swept_images(fs: FSD) -> set[bytes]:
    """The image a sweep of ``fs`` reads for each allocated page: the
    resident one where the cache holds the page, else home."""
    return {
        fs.cache.resident_nt(page_no) or fs.nt_home.read_page(page_no)
        for page_no in allocated_pages(fs)
    }


_memo_history = st.lists(
    st.one_of(
        st.tuples(
            st.just("create"),
            st.integers(0, 11),
            st.sampled_from(_SIZES),
        ),
        st.tuples(st.just("delete"), st.integers(0, 11)),
        st.tuples(st.just("force")),
        st.tuples(st.just("crash")),
    ),
    max_size=24,
)


def _mounts_of(history, forget: bool) -> list[tuple]:
    """Run ``history`` on one volume, a crash and mount before and
    after it and at each ``crash``; with ``forget`` the disk's memo
    entry is dropped before every mount.  Returns what each mount left:
    its bitmap, report, clock, counters and disk image."""
    disk = SimDisk(geometry=GEO)
    FSD.format(disk, params())
    fs = FSD.mount(disk)
    for index in range(24):
        fs.create(f"base/f{index:02d}", payload(300, index))
    fs.force()
    mounts = []
    for step, op in enumerate([("crash",), *history, ("crash",)]):
        try:
            if op[0] == "create":
                fs.create(f"m/f{op[1]:02d}", payload(op[2], step), keep=0)
            elif op[0] == "delete":
                fs.delete(f"m/f{op[1]:02d}")
            elif op[0] == "force":
                fs.force()
        except (FileNotFound, VolumeFull):
            pass
        if op[0] != "crash":
            continue
        fs.crash()
        if forget:
            recovery._SWEEP_MEMO.pop(disk, None)
        obs = Observer()
        fs = FSD.mount(disk, obs=obs)
        clock = disk.clock
        mounts.append((
            bytes(fs.vam._bits),
            fs.mount_report,
            (clock.now_ms, clock.cpu_busy_ms, clock.disk_busy_ms),
            obs.snapshot().counters,
            disk_digest(disk),
        ))
    return mounts


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(history=_memo_history)
def test_memo_changes_no_mount(history):
    """Crashes and mounts on one disk, with the memo and with it
    dropped before every mount: every mount is the same, to the bit,
    the report, the clock, the counters and the disk image."""
    assert _mounts_of(history, forget=False) == _mounts_of(
        history, forget=True
    )


class TestSweepMemo:
    def test_a_rewritten_page_is_parsed_again(self, monkeypatch):
        disk, fs = fragmented_volume()
        fs.crash()
        fs = FSD.mount(disk)  # the cold sweep fills the memo
        seen = set(recovery._SWEEP_MEMO[disk])
        fs.create("frag/new", payload(700, 1))
        fs.force()
        fs.crash()
        parsed = []
        parse = recovery.sweep_page
        monkeypatch.setattr(
            recovery, "sweep_page",
            lambda image: parsed.append(image) or parse(image),
        )
        recovered = FSD.mount(disk)
        swept = swept_images(recovered)
        assert set(recovery._SWEEP_MEMO[disk]) == swept
        assert parsed and set(parsed) == swept - seen
        assert len(parsed) < recovered.mount_report.vam_sweep_pages
        assert bytes(recovered.vam._bits) == walk_bits(recovered)

    def test_an_unparseable_image_fails_every_sweep(self):
        """An empty orphan leaf sweeps clean and is remembered; both
        its copies then become an image that does not parse, and every
        later mount's sweep meets it and falls back to the walk."""
        disk, fs = fragmented_volume()
        fs.unmount()
        fs = FSD.mount(disk)
        fs.crash()
        empty = Node(kind=LEAF, keys=[], values=[]).to_bytes(GEO.sector_bytes)
        orphan = _plant_page(disk, fs, empty)
        obs = Observer()
        warm = FSD.mount(disk, obs=obs)
        assert "recovery.vam_sweep_mismatch" not in obs.snapshot().counters
        assert empty in recovery._SWEEP_MEMO[disk]
        warm.crash()
        NameTableHome(disk, fs.layout).write_pages([(orphan, page(0xEE))])
        for _ in range(2):
            obs = Observer()
            recovered = FSD.mount(disk, obs=obs)
            counters = obs.snapshot().counters
            assert counters["recovery.vam_sweep_mismatch"] == 1
            assert bytes(recovered.vam._bits) == walk_bits(recovered)
            recovered.crash()

    def test_a_failed_parse_is_charged_as_far_as_it_got(self):
        """A leaf whose node parses but whose entries do not has had
        its node visit and entry interpretations charged when the sweep
        gives up; an image that is no node has had nothing.  The walk
        that follows is the same, so that is the whole difference."""
        bad_entries = Node(
            kind=LEAF,
            keys=[encode_key("zz/a", 1, 0), encode_key("zz/b", 1, 0)],
            values=[b"\x01\x02", b"\x03"],
        ).to_bytes(GEO.sector_bytes)
        cpu_ms = []
        for image in (bad_entries, page(0xEE)):
            disk, fs = fragmented_volume()
            fs.unmount()
            fs = FSD.mount(disk)
            fs.crash()
            _plant_page(disk, fs, image)
            obs = Observer()
            start = disk.clock.cpu_busy_ms
            FSD.mount(disk, obs=obs)
            assert obs.snapshot().counters["recovery.vam_sweep_mismatch"] == 1
            cpu_ms.append(disk.clock.cpu_busy_ms - start)
        cpu = disk.clock.cpu
        assert cpu_ms[0] - cpu_ms[1] == pytest.approx(
            cpu.btree_node_ms + 2 * cpu.entry_interpret_ms
        )

    def test_verify_on_a_live_mount_with_dirty_pages(self, monkeypatch):
        """``verify_volume``'s reference parses every page afresh and
        leaves the memo as it was; a rebuild that reads the memo on the
        same live mount overlays the dirty resident images."""
        disk, fs = fragmented_volume()
        fs.crash()
        fs = FSD.mount(disk)
        memo = recovery._SWEEP_MEMO[disk]
        for index in range(12):
            fs.create(f"live/f{index:02d}", payload(700, index))
        fs.delete("frag/f01")
        assert fs.cache.pending_log_pages() > 0
        parsed = []
        parse = recovery.sweep_page
        monkeypatch.setattr(
            recovery, "sweep_page",
            lambda image: parsed.append(image) or parse(image),
        )
        assert verify_volume(fs).clean
        assert recovery._SWEEP_MEMO[disk] is memo
        assert len(parsed) == len(allocated_pages(fs))
        bits, _ = sweep_bits(fs)
        assert bits == walk_bits(fs)
        assert set(recovery._SWEEP_MEMO[disk]) == swept_images(fs)
        fs.crash()
        recovered = FSD.mount(disk)
        assert bytes(recovered.vam._bits) == walk_bits(recovered)

    def test_each_disk_has_its_own_entry_and_it_goes_with_the_disk(self):
        disk_a, fs_a = fragmented_volume()
        disk_b, fs_b = fragmented_volume()
        fs_b.create("only/b", payload(900, 3))
        fs_b.force()
        fs_a.crash()
        fs_b.crash()
        mounted = [FSD.mount(disk_a), FSD.mount(disk_b)]
        for disk, fs in zip((disk_a, disk_b), mounted):
            assert set(recovery._SWEEP_MEMO[disk]) == swept_images(fs)
        gc.collect()
        entries = len(recovery._SWEEP_MEMO)
        del disk, fs, disk_b, fs_b, mounted
        gc.collect()
        assert len(recovery._SWEEP_MEMO) == entries - 1
