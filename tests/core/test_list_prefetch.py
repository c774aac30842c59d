"""Scan-directed bulk prefetch under ``list``: what
``NameTablePager.prefetch`` may fetch, what it must leave alone, and
that a listing served through it is the listing served without it.

The contract (DESIGN.md "Name table"): the scan's frontier only, no
more pages a call than the cache holds, transfers of at most
``max_io_sectors`` pages, clean installs only (cold under a listing),
gap sectors inert.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.btree.node import LEAF, Node
from repro.core.cache import MetadataCache
from repro.core.fsd import FSD
from repro.core.layout import VolumeLayout, VolumeParams
from repro.core.name_table import (
    PREFETCH_MAX_GAP,
    NameTableHome,
    NameTablePager,
    _prefetch_runs,
)
from repro.core.types import parse_key
from repro.core.verify import verify_volume
from repro.core.wal import PAGE_NAME_TABLE
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.errors import DegradedVolumeError
from repro.obs import Observer
from repro.workloads.generators import payload
from tests.conftest import create_until_nt_pages

GEO = DiskGeometry(cylinders=120, heads=8, sectors_per_track=24)
PARAMS = VolumeParams(nt_pages=512, log_record_sectors=300, cache_pages=64)


def page(tag: int) -> bytes:
    return bytes([tag]) * 512


# ----------------------------------------------------------------------
# the pager against a bare home + cache
# ----------------------------------------------------------------------
def make_world(params: VolumeParams = PARAMS):
    disk = SimDisk(geometry=GEO)
    layout = VolumeLayout.compute(GEO, params)
    home = NameTableHome(disk, layout)
    cache = MetadataCache(
        capacity_pages=PARAMS.cache_pages,
        nt_reader=home.read_page,
        writer=home.write_pages,
    )
    pager = NameTablePager(cache, layout, disk.clock, home)
    pager.obs = Observer()
    home.write_pages([(no, page(no)) for no in range(10, 80)])
    return disk, layout, home, cache, pager


@pytest.fixture
def world():
    return make_world()


def counters(pager) -> dict[str, float]:
    return {
        name.removeprefix("nt.prefetch_"): value
        for name, value in pager.obs.snapshot().counters.items()
        if name.startswith("nt.prefetch_")
    }


def resident(cache, pages) -> list[int]:
    return [no for no in pages if cache.resident_nt(no) is not None]


class TestTransfers:
    def test_run_grouping(self):
        def runs(pages):
            return list(_prefetch_runs(pages, PREFETCH_MAX_GAP, 12))

        assert runs([2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13]) == [
            [2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13]
        ]
        assert runs([2, 3, 7, 8]) == [[2, 3], [7, 8]]  # a 3-page gap
        assert runs([2, 5, 8, 11, 14]) == [[2, 5, 8, 11], [14]]  # 12 pages
        assert runs([4]) == [[4]]

    def test_contiguous_children_cost_one_transfer_per_copy(self, world):
        disk, _, home, cache, pager = world
        before = disk.stats.total_ios
        pager.prefetch([20, 21, 22, 23])
        assert disk.stats.total_ios - before == 2
        assert resident(cache, range(18, 26)) == [20, 21, 22, 23]
        assert (cache.hits, cache.misses) == (0, 0)
        assert counters(pager) == {
            "pages": 4, "transfers": 2, "gap_sectors": 0,
        }
        # The scan's own read is then a hit on the image both copies hold.
        assert pager.read(21) == page(21)
        assert (cache.hits, cache.misses) == (1, 0)
        assert disk.stats.total_ios - before == 2

    def test_hint_order_is_key_order_not_page_order(self, world):
        disk, _, _, cache, pager = world
        before = disk.stats.total_ios
        pager.prefetch([31, 12, 30, 11, 10])
        assert disk.stats.total_ios - before == 4
        assert resident(cache, range(9, 33)) == [10, 11, 12, 30, 31]

    def test_a_lone_page_is_left_to_the_demand_miss(self, world):
        disk, _, _, cache, pager = world
        before = disk.stats.total_ios
        pager.prefetch([20])
        pager.prefetch([30, 40])  # two singletons
        pager.prefetch([])
        assert disk.stats.total_ios == before
        assert cache.pinned_pages + cache.clean_pages == 0
        assert counters(pager) == {}

    def test_resident_pages_are_not_fetched_again(self, world):
        disk, _, _, cache, pager = world
        pager.prefetch([20, 21, 22])
        before = disk.stats.total_ios
        pager.prefetch([20, 21, 22])
        pager.prefetch([20, 21, 22, 23])  # one missing: demand miss
        assert disk.stats.total_ios == before

    def test_single_copy_volume_reads_one_transfer(self):
        disk = SimDisk(geometry=GEO)
        params = VolumeParams(
            nt_pages=512, log_record_sectors=300, cache_pages=64,
            single_nt_copy=True,
        )
        layout = VolumeLayout.compute(GEO, params)
        home = NameTableHome(disk, layout)
        cache = MetadataCache(64, home.read_page, home.write_pages)
        pager = NameTablePager(cache, layout, disk.clock, home)
        pager.obs = Observer()
        home.write_pages([(no, page(no)) for no in range(10, 20)])
        before = disk.stats.total_ios
        pager.prefetch([10, 11, 13])
        assert disk.stats.total_ios - before == 1
        assert counters(pager) == {
            "pages": 3, "transfers": 1, "gap_sectors": 1,
        }


#: pages per one-cylinder stripe of the name table (93 on ``GEO``).
STRIPE_PAGES = VolumeLayout.compute(GEO, PARAMS).stripe_pages
either_side = pytest.mark.parametrize(
    "page_no", [STRIPE_PAGES - 1, STRIPE_PAGES],
    ids=["last of a stripe", "first of the next"],
)


class TestAcrossAStripeBoundary:
    """A prefetch run that crosses into the next stripe (the next
    cylinder) installs what page-at-a-time reads return; it just takes
    one transfer per copy on each side."""

    @pytest.fixture
    def edge(self, world):
        disk, layout, home, cache, pager = world
        pages = range(STRIPE_PAGES - 8, STRIPE_PAGES + 8)
        home.write_pages([(no, page(no)) for no in pages])
        return disk, layout, home, cache, pager

    def test_contiguous_children_either_side(self, edge):
        disk, _, home, cache, pager = edge
        wanted = list(range(STRIPE_PAGES - 3, STRIPE_PAGES + 3))
        before = disk.stats.total_ios
        pager.prefetch(wanted)
        assert disk.stats.total_ios - before == 4
        assert counters(pager) == {
            "pages": 6, "transfers": 4, "gap_sectors": 0,
        }
        assert resident(
            cache, range(STRIPE_PAGES - 8, STRIPE_PAGES + 8)
        ) == wanted
        for no in wanted:
            assert cache.resident_nt(no) == page(no) == home.read_page(no)

    @either_side
    def test_a_gap_on_the_boundary_is_bridged_and_inert(self, edge, page_no):
        disk, layout, home, cache, pager = edge
        for address in layout.nt_page_addresses(page_no):
            disk.faults.damage(address)
        home.on_degraded = lambda *_: pytest.fail("a gap sector degraded")
        wanted = [
            no for no in range(STRIPE_PAGES - 3, STRIPE_PAGES + 3)
            if no != page_no
        ]
        pager.prefetch(wanted)
        assert resident(
            cache, range(STRIPE_PAGES - 8, STRIPE_PAGES + 8)
        ) == wanted
        assert counters(pager) == {
            "pages": 5, "transfers": 4, "gap_sectors": 2,
        }
        assert (home.ladder_fallbacks, home.repairs) == (0, 0)

    @either_side
    def test_ladder_on_the_boundary(self, edge, page_no):
        disk, layout, home, cache, pager = edge
        bad = layout.nt_page_addresses(page_no)[1]
        disk.faults.damage(bad)
        pager.prefetch(list(range(STRIPE_PAGES - 3, STRIPE_PAGES + 3)))
        assert (home.ladder_fallbacks, home.repairs) == (1, 1)
        assert not disk.faults.is_damaged(bad)
        assert cache.resident_nt(page_no) == page(page_no)


class TestWindow:
    """A call fetches every hinted page that is not resident, as many
    as the cache holds, in transfers of at most ``max_io_sectors``
    pages.  No share of the cache bounds it: a listing's pages join
    the cache cold and push none of its warm pages out."""

    def test_every_hinted_page_in_one_call(self, world):
        disk, _, _, cache, pager = world
        before = disk.stats.total_ios
        pager.prefetch(list(range(10, 70)))
        assert resident(cache, range(10, 80)) == list(range(10, 70))
        assert counters(pager)["pages"] == 60
        assert disk.stats.total_ios - before == 2  # one transfer a copy

    def test_at_most_what_the_cache_holds(self, world):
        _, _, _, cache, pager = world
        # The first ``cache_pages`` of the hint, in the order handed.
        pager.prefetch(list(range(79, 9, -1)))
        held = list(range(80 - PARAMS.cache_pages, 80))
        assert resident(cache, range(10, 80)) == held
        assert counters(pager)["pages"] == PARAMS.cache_pages

    def test_no_transfer_is_longer_than_max_io_sectors(self):
        window = 12
        disk, _, home, _, pager = make_world(
            replace(PARAMS, max_io_sectors=window)
        )
        sectors = disk.stats.sectors_read
        reads = home.bulk_reads
        pager.prefetch(list(range(10, 10 + 2 * window)))
        assert home.bulk_reads - reads == 4
        assert disk.stats.sectors_read - sectors == 4 * window
        # Spread out, the same number of pages takes more transfers,
        # none of them spanning more than the window.
        spread = list(range(40, 40 + 3 * window, 3))
        sectors = disk.stats.sectors_read
        reads = home.bulk_reads
        pager.prefetch(spread)
        transfers = home.bulk_reads - reads
        assert transfers > 2
        assert disk.stats.sectors_read - sectors <= transfers * window

    def test_pinned_entries_survive_a_prefetch_into_a_full_cache(self, world):
        _, _, _, cache, pager = world
        pinned = list(range(100, 100 + PARAMS.cache_pages))
        for no in pinned:
            cache.write_nt(no, page(1))  # dirty: pinned until logged
        installs = 0
        for first in range(10, 70, 20):
            pager.prefetch(list(range(first, first + 20)))
            installs += 1
            assert counters(pager)["pages"] <= installs * 20
            assert resident(cache, pinned) == pinned
            assert all(cache.resident_nt(no) == page(1) for no in pinned)


class TestLadderInsideAPrefetch:
    def test_one_damaged_copy_is_repaired_from_its_twin(self, world):
        disk, layout, home, cache, pager = world
        bad = layout.nt_page_addresses(21)[1]
        disk.faults.damage(bad)
        pager.prefetch([20, 21, 22])
        assert (home.ladder_fallbacks, home.repairs) == (1, 1)
        assert not disk.faults.is_damaged(bad)
        assert cache.resident_nt(21) == page(21)
        assert resident(cache, [20, 21, 22]) == [20, 21, 22]

    @pytest.mark.parametrize("fault", ["lost", "differ"])
    def test_unreadable_page_degrades_as_a_single_read_would(
        self, world, fault
    ):
        disk, layout, home, cache, pager = world
        addr_a, addr_b = layout.nt_page_addresses(21)
        if fault == "lost":
            disk.faults.damage(addr_a)
            disk.faults.damage(addr_b)
        else:
            disk.poke(addr_a, b"wild write")
        reasons = []
        home.on_degraded = lambda reason, site: reasons.append(reason)
        with pytest.raises(DegradedVolumeError) as bulk:
            pager.prefetch([20, 21, 22])
        with pytest.raises(DegradedVolumeError) as single:
            home.read_page(21)
        assert str(bulk.value) == str(single.value)
        assert bulk.value.fault_site == single.value.fault_site == addr_a
        assert len(reasons) == 2 and reasons[0] == reasons[1]
        assert cache.resident_nt(21) is None

    @pytest.mark.parametrize("fault", ["copy_a", "both", "differ"])
    def test_a_gap_sector_is_inert(self, world, fault):
        disk, layout, home, cache, pager = world
        addr_a, addr_b = layout.nt_page_addresses(22)
        if fault == "differ":
            disk.poke(addr_b, b"stale image of a freed page")
        else:
            disk.faults.damage(addr_a)
            if fault == "both":
                disk.faults.damage(addr_b)
        home.on_degraded = lambda *_: pytest.fail("a gap sector degraded")
        writes = disk.stats.writes
        pager.prefetch([20, 21, 23, 24])
        assert resident(cache, range(19, 26)) == [20, 21, 23, 24]
        assert counters(pager) == {
            "pages": 4, "transfers": 2, "gap_sectors": 2,
        }
        assert (home.ladder_fallbacks, home.repairs, home.retries) == (0, 0, 0)
        assert disk.stats.writes == writes
        if fault != "differ":
            assert disk.faults.is_damaged(addr_a)


def cold(cache, pages) -> list[int]:
    return [no for no in pages if cache._entries[(PAGE_NAME_TABLE, no)].cold]


class TestColdUnderAListing:
    """A listing's prefetch installs cold: the listing's own read of a
    page leaves it cold, a second read warms it.  Any other prefetch
    installs warm."""

    def test_a_walk_prefetch_installs_warm(self, world):
        _, _, _, cache, pager = world
        pager.prefetch([20, 21, 22])
        assert cold(cache, [20, 21, 22]) == []
        assert list(cache._lru) == [(PAGE_NAME_TABLE, no) for no in (20, 21, 22)]

    def test_the_second_read_warms(self, world):
        _, _, _, cache, pager = world
        pager.listing = True
        pager.prefetch([20, 21, 22])
        pager.listing = False
        assert cold(cache, [20, 21, 22]) == [20, 21, 22]
        pager.read(21)
        assert cold(cache, [20, 21, 22]) == [20, 21, 22]
        pager.read(21)
        assert cold(cache, [20, 21, 22]) == [20, 22]
        assert list(cache._lru) == [(PAGE_NAME_TABLE, 21)]
        assert cache.misaccounted() == []

    def test_read_pages_go_before_warm_ones_unread_after(self, world):
        """A full cache of warm pages, then a listing's transfer larger
        than the room left: the listing recycles the pages it has read,
        and the warm pages go only for pages it has not read yet."""
        _, _, _, cache, pager = world
        capacity = PARAMS.cache_pages
        warm = list(range(100, 100 + capacity - 8))
        for no in warm:
            cache.read_nt(no)
        pager.listing = True
        pager.prefetch(list(range(10, 18)))
        for no in range(10, 18):
            pager.read(no)
        pager.prefetch(list(range(30, 38)))
        # The second transfer took the room of the first one's pages.
        assert resident(cache, warm) == warm
        assert resident(cache, range(10, 18)) == []
        assert resident(cache, range(30, 38)) == list(range(30, 38))
        pager.prefetch(list(range(50, 54)))
        # Nothing read is left cold: warm pages make room, oldest first.
        assert resident(cache, range(50, 54)) == [50, 51, 52, 53]
        assert resident(cache, warm) == warm[4:]
        assert cache.cold_evictions == 8
        assert cache.misaccounted() == []

    def test_list_and_enumerate_prefetch_cold_and_only_while_they_run(self):
        disk, fs, names = volume(16)
        fs.unmount()
        fs = FSD.mount(disk)
        pager = fs.name_table.tree.pager
        listed = fs.list("src/")
        assert len(listed) == 220
        assert not pager.listing
        assert fs.cache._cold_read and fs.cache.cold_evictions
        fs.unmount()
        fs = FSD.mount(disk)
        pager = fs.name_table.tree.pager
        flags = [pager.listing for _ in fs.name_table.enumerate("src/")]
        assert flags == [False] * 220
        assert not pager.listing
        assert fs.cache._cold_read
        assert fs.cache.misaccounted() == []
        assert verify_volume(fs).clean


class TestCacheIsNewerThanHome:
    def test_a_dirty_resident_page_is_bridged_not_replaced(self, world):
        disk, _, _, cache, pager = world
        cache.write_nt(21, page(99))  # newer than its home image
        before = disk.stats.total_ios
        pager.prefetch([20, 21, 22])
        assert disk.stats.total_ios - before == 2
        assert cache.resident_nt(21) == page(99)
        assert cache.pending_log_pages() == 1
        assert counters(pager) == {
            "pages": 2, "transfers": 2, "gap_sectors": 2,
        }

    def test_logged_not_home_page_keeps_its_logged_image(self, world):
        _, _, _, cache, pager = world
        cache.write_nt(21, page(99))
        logged = cache.pages_needing_log()
        cache.note_logged(logged, third=0)
        pager.prefetch([20, 21, 22])
        assert cache.resident_nt(21) == page(99)
        assert (21, page(99)) not in cache.clean_nt_pages()


# ----------------------------------------------------------------------
# whole-volume: list through the prefetch == list without it
# ----------------------------------------------------------------------
def volume(cache_pages: int, **mount) -> tuple[SimDisk, FSD, list[str]]:
    disk = SimDisk(geometry=GEO)
    FSD.format(
        disk,
        VolumeParams(
            nt_pages=512, log_record_sectors=300, cache_pages=cache_pages
        ),
    )
    fs = FSD.mount(disk, **mount)
    names = []
    for directory, count in (("doc/", 40), ("src/", 220), ("tmp/", 30)):
        for index in range(count):
            names.append(f"{directory}m{index:03d}.mesa")
            fs.create(names[-1], payload(300 + index, index))
    fs.force()
    return disk, fs, sorted(names)


def leaves(fs: FSD) -> list[list[str]]:
    """Names per leaf, in key order."""
    return [
        [parse_key(key)[0] for key in leaf.keys]
        for leaf, _, _ in fs.name_table.tree.scan_leaves()
    ]


def boundary_prefixes(fs: FSD) -> dict[str, str]:
    per_leaf = [names for names in leaves(fs) if len(names) >= 3]
    middle = per_leaf[len(per_leaf) // 2]
    return {
        # the last match is the last key of a leaf
        "at a leaf boundary": middle[-1],
        # matches end (and begin) strictly inside one leaf
        "mid-leaf": middle[1],
        "nothing": "nowhere/",
        "nothing, past the last key": "zzz",
        "everything": "",
        "a directory spanning many leaves": "src/",
        "the first directory": "doc/",
        "the last directory": "tmp/",
        "a prefix that is no name": "src/m1",
    }


@pytest.mark.parametrize("cache_pages", [16, 48, 400])
def test_cold_list_equals_warm_list(cache_pages):
    disk, fs, names = volume(cache_pages)
    prefixes = boundary_prefixes(fs)
    assert fs.name_table.tree.check_invariants().height >= 3
    fs.unmount()
    for label, prefix in prefixes.items():
        obs = Observer()
        cold_fs = FSD.mount(disk, obs=obs)
        cold = cold_fs.list(prefix)
        warm = cold_fs.list(prefix)
        assert cold == warm, label
        assert [p.name for p in cold] == [
            name for name in names if name.startswith(prefix)
        ], label
        count = obs.snapshot().counters
        if len(cold) > 40:
            assert count["nt.prefetch_pages"] > 0, label
        if cache_pages == 400:
            # Fully warm: the second list did no I/O of any kind.
            ios = disk.stats.total_ios
            assert cold_fs.list(prefix) == cold
            assert disk.stats.total_ios == ios
        cold_fs.unmount()


def test_cold_list_whose_prefetch_crosses_a_stripe_boundary():
    """Enough files for the tree to spill into a second stripe: some
    prefetch transfer straddles the boundary, and the listing is still
    the listing."""
    disk = SimDisk(geometry=GEO)
    FSD.format(disk, PARAMS)
    fs = FSD.mount(disk)
    names = list(create_until_nt_pages(fs, "wide/m", STRIPE_PAGES + 16))
    fs.unmount()
    obs = Observer()
    fs = FSD.mount(disk, obs=obs)
    straddling = []
    read_run = fs.nt_home.read_run

    def spy(first, count, holes=frozenset()):
        if first < STRIPE_PAGES < first + count:
            straddling.append((first, count))
        return read_run(first, count, holes)

    fs.nt_home.read_run = spy
    cold = fs.list("wide/")
    assert [props.name for props in cold] == names
    assert straddling
    assert fs.list("wide/") == cold
    assert verify_volume(fs).clean


def test_a_list_reads_the_pages_the_demand_path_read_plus_gaps():
    """No name-table sector is read that a page-at-a-time list would
    not have read, bridged gap sectors excepted."""
    disk, fs, _ = volume(48)
    fs.unmount()
    obs = Observer()
    fs = FSD.mount(disk, obs=obs)
    before = obs.snapshot().counters
    sectors = disk.stats.sectors_read
    listed = fs.list("src/")
    count = obs.snapshot().counters
    page_reads = count["btree.page_reads"] - before.get("btree.page_reads", 0)
    hits = count.get("cache.hits", 0) - before.get("cache.hits", 0)
    misses = count.get("cache.misses", 0) - before.get("cache.misses", 0)
    assert len(listed) == 220
    assert hits + misses == page_reads
    # Every page the scan visited was fetched at most once (both
    # copies), plus the gap sectors, plus nothing.
    assert disk.stats.sectors_read - sectors == (
        2 * (count["nt.prefetch_pages"] + misses)
        + count["nt.prefetch_gap_sectors"]
    )
    assert count["nt.prefetch_pages"] + misses <= page_reads


def test_list_repairs_a_damaged_leaf_copy_met_inside_a_prefetch():
    disk, fs, names = volume(48)
    tree = fs.name_table.tree
    root = Node.from_bytes(fs.cache.read_nt(tree._root))
    inner = Node.from_bytes(fs.cache.read_nt(root.children[-1]))
    assert Node.from_bytes(fs.cache.read_nt(inner.children[1])).kind == LEAF
    fs.unmount()
    bad = fs.layout.nt_page_addresses(inner.children[1])[0]
    disk.faults.damage(bad)
    obs = Observer()
    fs = FSD.mount(disk, obs=obs)
    assert [p.name for p in fs.list()] == names
    assert not disk.faults.is_damaged(bad)
    assert obs.snapshot().counters["ladder.copy_repairs"] == 1
    assert fs.nt_home.ladder_fallbacks == 1
    assert not fs.degraded
    assert verify_volume(fs).clean


def test_list_over_a_leaf_lost_on_both_copies_degrades_the_volume():
    disk, fs, _ = volume(48)
    tree = fs.name_table.tree
    root = Node.from_bytes(fs.cache.read_nt(tree._root))
    inner = Node.from_bytes(fs.cache.read_nt(root.children[-1]))
    fs.unmount()
    for address in fs.layout.nt_page_addresses(inner.children[1]):
        disk.faults.damage(address)
    fs = FSD.mount(disk)
    with pytest.raises(DegradedVolumeError):
        fs.list()
    assert not fs.name_table.tree.pager.listing
    assert fs.degraded
    assert fs.list("doc/")  # reads elsewhere still work


# ----------------------------------------------------------------------
# the frontier: the next leaf-parent rides in the leaf transfers
# ----------------------------------------------------------------------
#: Long names keep a leaf-parent's children (about a dozen) few enough
#: for one transfer, with the next leaf-parent a page or three behind
#: them.
WIDE = "sources-of-the-build/"


@pytest.fixture
def wide_directory():
    """A one-directory volume of height 3 whose listing visits three or
    more leaf-parents; returns (disk, leaf-parent pages in key order,
    names)."""
    disk = SimDisk(geometry=GEO)
    FSD.format(disk, PARAMS)
    fs = FSD.mount(disk)
    names = sorted(create_until_nt_pages(fs, WIDE + "module-", 80))
    tree = fs.name_table.tree
    assert tree.check_invariants().height == 3
    leaf_parents = Node.from_bytes(fs.cache.read_nt(tree._root)).children
    assert len(leaf_parents) >= 3
    fs.unmount()
    return disk, leaf_parents, names


def test_a_cold_list_reads_few_leaf_parents_on_demand(wide_directory):
    """Each leaf-parent's hint ends with the next leaf-parent, a page
    or three past its last child: it arrives in the leaf transfers, so
    a cold list's interior demand misses (the root and the first
    leaf-parent) are fewer than its leaf-parents."""
    disk, leaf_parents, names = wide_directory
    obs = Observer()
    fs = FSD.mount(disk, obs=obs)
    before = obs.snapshot().counters
    assert [p.name for p in fs.list(WIDE)] == names
    count = obs.snapshot().counters
    misses_interior = count.get("cache.misses_interior", 0) - before.get(
        "cache.misses_interior", 0
    )
    assert misses_interior < len(leaf_parents)


def test_a_damaged_frontier_page_is_repaired_inside_the_transfer(
    wide_directory,
):
    """Copy A of the second leaf-parent is damaged: the page rides in
    the first leaf-parent's transfer, drops to ``read_run``'s per-page
    ladder there, and is repaired from its twin."""
    disk, leaf_parents, names = wide_directory
    layout = VolumeLayout.compute(GEO, PARAMS)
    bad = layout.nt_page_addresses(leaf_parents[1])[0]
    disk.faults.damage(bad)
    obs = Observer()
    fs = FSD.mount(disk, obs=obs)
    assert [p.name for p in fs.list(WIDE)] == names
    assert not disk.faults.is_damaged(bad)
    assert obs.snapshot().counters["ladder.copy_repairs"] == 1
    assert fs.nt_home.ladder_fallbacks == 1  # met in a bulk transfer
    assert not fs.degraded
    assert verify_volume(fs).clean


@pytest.mark.parametrize(
    "mount",
    [{}, {"checkpoint_interval_ms": 50.0}],
    ids=["default", "checkpointer"],
)
def test_list_under_pending_commits_keeps_the_cache_coherent(mount):
    """Dirty and logged-but-not-home pages are resident and pinned, so
    a prefetch passes over them; what it installs around them must be
    the home image, also while the checkpointer writes pages home."""
    disk, fs, names = volume(48, **mount)
    fs.unmount()
    fs = FSD.mount(disk, **mount)
    live = set(names)
    for round_no in range(6):
        for index in range(round_no, 220, 7):
            name = f"src/m{index:03d}.mesa"
            if name in live:
                fs.delete(name)
                live.discard(name)
            else:
                fs.create(name, payload(200, index))
                live.add(name)
        if round_no % 2:
            fs.force()  # logged, not yet home
        listed = [p.name for p in fs.list("src/")]
        assert listed == sorted(n for n in live if n.startswith("src/"))
        report = verify_volume(fs)
        assert report.clean, report.problems
    assert [p.name for p in fs.list()] == sorted(live)
