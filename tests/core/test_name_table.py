"""Unit tests for the FSD name table: double-written home copies,
page allocation bitmap, typed entries and run-table continuations."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.btree import INTERNAL, LEAF, Node
from repro.core.cache import MetadataCache
from repro.core.layout import VolumeLayout, VolumeParams
from repro.core.name_table import (
    FsdNameTable,
    NameTableHome,
    NameTablePager,
    bitmap_pages,
    gather_runs,
    leaf_entries,
    page_allocated,
)
from repro.core.types import (
    MAX_INLINE_RUNS,
    FileKind,
    FileProperties,
    Run,
    RunTable,
    decode_continuation,
    decode_main_entry,
    encode_continuation,
    encode_key,
    make_uid,
    parse_key,
    prefix_range,
    version_range,
)
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.errors import CorruptMetadata, FileNotFound, VolumeFull

GEO = DiskGeometry(cylinders=120, heads=8, sectors_per_track=24)
PARAMS = VolumeParams(nt_pages=512, log_record_sectors=300, cache_pages=64)


def make_world():
    disk = SimDisk(geometry=GEO)
    layout = VolumeLayout.compute(GEO, PARAMS)
    home = NameTableHome(disk, layout)
    cache = MetadataCache(
        capacity_pages=PARAMS.cache_pages,
        nt_reader=home.read_page,
        writer=home.write_pages,
    )
    pager = NameTablePager(cache, layout, disk.clock, home)
    return disk, layout, home, cache, pager


@pytest.fixture
def world():
    return make_world()


def props_for(name: str, version: int = 1, **over) -> FileProperties:
    base = dict(
        name=name,
        version=version,
        uid=make_uid(1, hash(name) & 0xFFFF),
        byte_size=100,
        keep=2,
        leader_addr=1000,
    )
    base.update(over)
    return FileProperties(**base)


class TestHome:
    def test_write_then_double_read(self, world):
        disk, layout, home, *_ = world
        home.write_pages([(3, b"three".ljust(512, b"\x00"))])
        a, b = layout.nt_page_addresses(3)
        assert disk.peek(a).startswith(b"three")
        assert disk.peek(b).startswith(b"three")
        assert home.read_page(3).startswith(b"three")

    def test_damaged_copy_a_repaired(self, world):
        disk, layout, home, *_ = world
        home.write_pages([(3, b"data".ljust(512, b"\x00"))])
        a, _ = layout.nt_page_addresses(3)
        disk.faults.damage(a)
        assert home.read_page(3).startswith(b"data")
        assert home.repairs == 1
        assert not disk.faults.is_damaged(a)

    def test_damaged_copy_b_repaired(self, world):
        disk, layout, home, *_ = world
        home.write_pages([(3, b"data".ljust(512, b"\x00"))])
        _, b = layout.nt_page_addresses(3)
        disk.faults.damage(b)
        assert home.read_page(3).startswith(b"data")
        assert home.repairs == 1

    def test_diverging_copies_is_corruption(self, world):
        disk, layout, home, *_ = world
        home.write_pages([(3, b"data".ljust(512, b"\x00"))])
        a, _ = layout.nt_page_addresses(3)
        disk.poke(a, b"wild write")
        with pytest.raises(CorruptMetadata):
            home.read_page(3)

    def test_both_copies_damaged_is_fatal(self, world):
        disk, layout, home, *_ = world
        home.write_pages([(3, b"data".ljust(512, b"\x00"))])
        a, b = layout.nt_page_addresses(3)
        disk.faults.damage(a)
        disk.faults.damage(b)
        with pytest.raises(CorruptMetadata):
            home.read_page(3)

    def test_contiguous_batching(self, world):
        disk, layout, home, *_ = world
        writes_before = disk.stats.writes
        home.write_pages([(5, b"a" * 512), (6, b"b" * 512), (7, b"c" * 512)])
        # One multi-sector write per copy.
        assert disk.stats.writes - writes_before == 2


class TestPagerBitmap:
    def test_allocate_unique_pages(self, world):
        *_, pager = world
        pager.format_bitmap()
        pages = {pager.allocate() for _ in range(50)}
        assert len(pages) == 50
        reserved = 1 + pager.bitmap_pages
        assert all(page >= reserved for page in pages)

    def test_free_then_reallocate(self, world):
        *_, pager = world
        pager.format_bitmap()
        page = pager.allocate()
        pager.free(page)
        reserved = 1 + pager.bitmap_pages
        seen = {pager.allocate() for _ in range(PARAMS.nt_pages - reserved)}
        assert page in seen

    def test_double_free_is_corruption(self, world):
        *_, pager = world
        pager.format_bitmap()
        page = pager.allocate()
        pager.free(page)
        with pytest.raises(CorruptMetadata):
            pager.free(page)

    def test_exhaustion(self, world):
        *_, pager = world
        pager.format_bitmap()
        reserved = 1 + pager.bitmap_pages
        for _ in range(PARAMS.nt_pages - reserved):
            pager.allocate()
        with pytest.raises(VolumeFull):
            pager.allocate()

    def test_allocated_pages_counter(self, world):
        *_, pager = world
        pager.format_bitmap()
        base = pager.allocated_pages()
        pager.allocate()
        pager.allocate()
        assert pager.allocated_pages() == base + 2

    def test_page_allocated_reads_the_pager_bitmap(self, world):
        _, layout, _, cache, pager = world
        pager.format_bitmap()
        taken = {pager.allocate() for _ in range(20)}
        pager.free(min(taken))
        taken.discard(min(taken))
        assert pager.bitmap_pages == bitmap_pages(layout)
        for page_no in range(1 + pager.bitmap_pages, PARAMS.nt_pages):
            assert page_allocated(
                cache.read_nt, page_no, layout.geometry.sector_bytes
            ) == (page_no in taken), page_no


class TestLeafEntries:
    """The tolerant page reader recovery and salvage share: it reads a
    page on its own terms and never raises."""

    @staticmethod
    def leaf(keys: list[bytes]) -> bytes:
        values = [bytes([index]) * 3 for index in range(len(keys))]
        return Node(LEAF, keys, values).to_bytes(512)

    def test_entries_of_a_leaf(self):
        keys = [
            encode_key("a", 1, 0), encode_key("a", 1, 1), encode_key("b", 2)
        ]
        assert leaf_entries(self.leaf(keys)) == [
            (("a", 1, 0), b"\x00" * 3),
            (("a", 1, 1), b"\x01" * 3),
            (("b", 2, 0), b"\x02" * 3),
        ]

    def test_junk_page_has_no_entries(self):
        assert leaf_entries(b"\xa5" * 512) == []
        assert leaf_entries(bytes([LEAF, 200, 0]) + b"\x00" * 509) == []

    def test_interior_page_has_no_entries(self):
        node = Node(INTERNAL, [encode_key("m", 1)], children=[5, 6])
        assert leaf_entries(node.to_bytes(512)) == []

    def test_undecodable_key_is_skipped_not_fatal(self):
        keys = [
            encode_key("a", 1),
            b"\xff\xfe\x00\x00\x01\x00\x00",  # name is not UTF-8
            b"no-separator",
            encode_key("c", 1),
        ]
        assert [key for key, _ in leaf_entries(self.leaf(keys))] == [
            ("a", 1, 0),
            ("c", 1, 0),
        ]


class TestGatherRuns:
    def test_completes_from_chunks_and_trims(self):
        runs = RunTable([Run(100, 1)])
        chunks = {1: encode_continuation([Run(200, 2), Run(300, 3)])}
        gather_runs("f", 1, runs, 2, chunks.get)
        assert runs.runs == [Run(100, 1), Run(200, 2)]

    def test_missing_chunk_is_corruption(self):
        with pytest.raises(CorruptMetadata, match="continuation 1 for f!1"):
            gather_runs("f", 1, RunTable([Run(100, 1)]), 3, {}.get)


class TestTypedTable:
    @pytest.fixture
    def table(self, world) -> FsdNameTable:
        disk, layout, home, cache, pager = world
        return FsdNameTable.format(pager, disk.clock)

    def test_insert_get(self, table):
        props = props_for("a/file")
        runs = RunTable([Run(2000, 4)])
        table.insert(props, runs)
        got = table.get("a/file", 1)
        assert got is not None
        assert got[0] == props
        assert got[1].runs == runs.runs

    def test_get_missing(self, table):
        assert table.get("nope", 1) is None

    def test_delete(self, table):
        table.insert(props_for("a/file"), RunTable([Run(2000, 1)]))
        props, runs = table.delete("a/file", 1)
        assert props.name == "a/file"
        assert table.get("a/file", 1) is None

    def test_delete_missing_raises(self, table):
        with pytest.raises(FileNotFound):
            table.delete("ghost", 1)

    def test_versions_ascending(self, table):
        for version in (3, 1, 2):
            table.insert(
                props_for("f", version=version), RunTable([Run(2000 + version, 1)])
            )
        assert table.versions("f") == [1, 2, 3]
        assert table.walk("f").highest_version() == 3
        assert table.walk("ghost").highest_version() is None

    def test_continuation_runs_roundtrip(self, table):
        runs = RunTable([Run(3000 + i * 10, 2) for i in range(45)])
        table.insert(props_for("frag"), runs)
        got = table.get("frag", 1)
        assert got is not None
        assert got[1].runs == runs.runs

    def test_shrinking_run_table_drops_stale_chunks(self, table):
        big = RunTable([Run(3000 + i * 10, 2) for i in range(45)])
        table.insert(props_for("frag"), big)
        small = RunTable([Run(9000, 3)])
        table.update(props_for("frag"), small)
        got = table.get("frag", 1)
        assert got is not None
        assert got[1].runs == small.runs

    def test_delete_removes_continuations(self, table):
        runs = RunTable([Run(3000 + i * 10, 2) for i in range(45)])
        table.insert(props_for("frag"), runs)
        table.delete("frag", 1)
        # No orphan continuation entries remain in the tree.
        assert len(table.tree) == 0

    def test_enumerate_returns_full_run_tables(self, table):
        table.insert(props_for("a"), RunTable([Run(2000, 1)]))
        table.insert(
            props_for("b"), RunTable([Run(3000 + i * 10, 2) for i in range(40)])
        )
        entries = list(table.enumerate())
        assert [props.name for props, _ in entries] == ["a", "b"]
        assert entries[1][1].total_sectors == 80

    def test_enumerate_prefix(self, table):
        for name in ("dir/a", "dir/b", "other/c"):
            table.insert(props_for(name), RunTable([Run(2000, 1)]))
        names = [props.name for props, _ in table.enumerate("dir/")]
        assert names == ["dir/a", "dir/b"]

    def test_symlink_and_cached_kinds(self, table):
        table.insert(
            props_for("link", kind=FileKind.SYMLINK, remote_target="srv/x"),
            RunTable(),
        )
        got = table.get("link", 1)
        assert got is not None
        assert got[0].kind == FileKind.SYMLINK
        assert got[0].remote_target == "srv/x"

    def test_reopen_after_format(self, world):
        disk, layout, home, cache, pager = world
        table = FsdNameTable.format(pager, disk.clock)
        table.insert(props_for("persist"), RunTable([Run(2000, 1)]))
        cache.flush_all_home()  # not strictly needed: cache shared
        reopened = FsdNameTable.open(pager, disk.clock)
        assert reopened.get("persist", 1) is not None


# ----------------------------------------------------------------------
# the decoded leaf views behind list, enumerate and versions
# ----------------------------------------------------------------------
def reference_list(table: FsdNameTable, prefix: str) -> list[FileProperties]:
    """``enumerate_props`` entry by entry: decode the key, stop at a name
    outside the prefix, charge the entry, then take its properties."""
    clock = table.clock
    ms = clock.cpu.entry_interpret_ms
    out: list[FileProperties] = []
    have_main = False
    for leaf, first, last in table.tree.scan_leaves(*prefix_range(prefix)):
        for key, value in zip(leaf.keys[first:last], leaf.values[first:last]):
            name, version, chunk = parse_key(key)
            if prefix and not name.startswith(prefix):
                return out
            clock.now_ms += ms
            clock.cpu_busy_ms += ms
            if chunk == 0:
                have_main = True
                out.append(decode_main_entry(name, version, value)[0])
            elif not have_main:
                raise CorruptMetadata(
                    f"orphan continuation entry for {name}!{version}"
                )
    return out


def reference_enumerate(table: FsdNameTable, prefix: str) -> list:
    """``enumerate`` entry by entry, run tables completed."""
    clock = table.clock
    ms = clock.cpu.entry_interpret_ms
    out: list = []
    for leaf, first, last in table.tree.scan_leaves(*prefix_range(prefix)):
        for key, value in zip(leaf.keys[first:last], leaf.values[first:last]):
            name, version, chunk = parse_key(key)
            if prefix and not name.startswith(prefix):
                return out
            clock.now_ms += ms
            clock.cpu_busy_ms += ms
            if chunk == 0:
                props, runs, _ = decode_main_entry(name, version, value)
                out.append((props, runs))
            elif not out:
                raise CorruptMetadata(
                    f"orphan continuation entry for {name}!{version}"
                )
            else:
                out[-1][1].runs.extend(decode_continuation(value))
    return out


def reference_versions(table: FsdNameTable, name: str) -> list[int]:
    return [
        version
        for leaf, first, last in table.tree.scan_leaves(*version_range(name))
        for _, version, chunk in map(parse_key, leaf.keys[first:last])
        if chunk == 0
    ]


VIEW_NAMES = ("d/a", "d/ab", "d/abc", "d/é", "d/éa", "d/z", "e", "é", "é/x", "z")
VIEW_PREFIXES = (
    "", "a", "d", "d/", "d/a", "d/aa", "d/ab", "d/é", "é", "é/", "e", "zz",
    "d/a\x00", "d/ab\x00\x00", "\x00",
)
#: inline only, and one, two and three continuation chunks.
VIEW_RUNS = (1, 3, MAX_INLINE_RUNS + 5, MAX_INLINE_RUNS + 30, MAX_INLINE_RUNS + 60)
view_names = st.sampled_from(VIEW_NAMES)
view_ops = st.lists(
    st.one_of(
        st.tuples(st.just("create"), view_names, st.sampled_from(VIEW_RUNS)),
        st.tuples(st.just("update"), view_names, st.sampled_from(VIEW_RUNS)),
        st.tuples(st.just("delete"), view_names, st.just(0)),
        st.tuples(st.just("orphan"), st.sampled_from(("a", "d/aa", "d/é")), st.just(0)),
        st.tuples(st.just("list"), st.sampled_from(VIEW_PREFIXES), st.just(0)),
        st.tuples(st.just("enumerate"), st.sampled_from(VIEW_PREFIXES), st.just(0)),
        st.tuples(st.just("versions"), view_names, st.just(0)),
    ),
    min_size=1,
    max_size=60,
)


#: Every stream starts from a table of a few dozen leaves: each name in
#: two versions, run tables of every drawn length.
VIEW_POPULATION = [
    ("create", name, VIEW_RUNS[(index + version) % len(VIEW_RUNS)])
    for version in range(2)
    for index, name in enumerate(VIEW_NAMES)
]


def _apply_view_op(table: FsdNameTable, live: dict, op: tuple, reference: bool):
    kind, name, arg = op
    versions = live.setdefault(name, [])
    if kind in ("create", "update"):
        if kind == "create" or not versions:
            versions.append(max(versions, default=0) + 1)
        runs = RunTable([Run(4000 + 8 * index, 1 + index % 3) for index in range(arg)])
        props = props_for(name, versions[-1], byte_size=arg)
        table.insert(props, runs)
        return None
    if kind == "delete":
        if versions:
            table.delete(name, versions.pop(0))
        return None
    if kind == "orphan":
        # A continuation whose main entry is gone: only a walk that
        # reaches it before any main entry refuses it.
        table.tree.insert(encode_key(name, 999, 1), encode_continuation([Run(9000, 1)]))
        return None
    try:
        if kind == "list":
            return reference_list(table, name) if reference else table.enumerate_props(name)
        if kind == "enumerate":
            walked = reference_enumerate(table, name) if reference else list(table.enumerate(name))
            return [(props, runs.runs) for props, runs in walked]
        return reference_versions(table, name) if reference else table.versions(name)
    except CorruptMetadata as error:
        return str(error)


def _views(table: FsdNameTable) -> list:
    return [node for node in table.tree._parse_memo.values() if node.view is not None]


@settings(max_examples=100, deadline=None)
@given(ops=view_ops)
# An orphan first in the whole table, and first under a prefix that a
# main entry of another name precedes in its leaf.
@example(ops=[("orphan", "a", 0), ("list", "", 0), ("enumerate", "", 0)])
@example(ops=[("orphan", "d/aa", 0), ("list", "d/aa", 0), ("list", "d/", 0)])
def test_views_serve_what_the_per_entry_walk_reads(ops):
    """Two tables take the same op stream; one answers list, enumerate
    and versions from its leaf views, the other with the per-entry
    walks above.  Every answer, orphan errors included, and both
    clocks match bit for bit after every op, and every view is what its
    template's own bytes decode to (a rewritten leaf is a new template,
    never the old one's view)."""
    tables = []
    for _ in range(2):
        disk, _, _, _, pager = make_world()
        tables.append(FsdNameTable.format(pager, disk.clock))
    viewed, walked = tables
    live_viewed: dict = {}
    live_walked: dict = {}
    for op in VIEW_POPULATION + ops:
        views_before = len(_views(viewed))
        got = _apply_view_op(viewed, live_viewed, op, reference=False)
        if op[0] == "versions":
            assert len(_views(viewed)) == views_before  # reads views, builds none
        assert got == _apply_view_op(walked, live_walked, op, reference=True), op
        assert viewed.clock.now_ms == walked.clock.now_ms
        assert viewed.clock.cpu_busy_ms == walked.clock.cpu_busy_ms
        for node in _views(viewed):
            assert node.view.keys == [parse_key(key) for key in node.keys]
            if node.view.props is not None:
                assert node.view.props == [
                    None if chunk else decode_main_entry(name, version, value)[0]
                    for (name, version, chunk), value in zip(node.view.keys, node.values)
                ]


class TestUndecodableEntries:
    """A leaf with an entry that does not decode gets no view; the walks
    then read it entry by entry, so the error is raised at that entry,
    with the clock where the per-entry walk leaves it, and a walk whose
    range misses the entry does not see it."""

    def tables(self, key: bytes, value: bytes) -> list[FsdNameTable]:
        out = []
        for _ in range(2):
            disk, _, _, _, pager = make_world()
            table = FsdNameTable.format(pager, disk.clock)
            for name in ("a", "b", "c"):
                table.insert(props_for(name), RunTable([Run(2000, 1)]))
            table.tree.insert(key, value)
            out.append(table)
        return out

    @pytest.mark.parametrize(
        "key, value",
        [
            (b"b\xff\x00\x00\x01\x00\x00", encode_continuation([Run(1, 1)])),
            (encode_key("bb", 1), b"\x00" * 5),
        ],
        ids=["key not UTF-8", "truncated main entry"],
    )
    def test_error_where_the_per_entry_walk_raises_it(self, key, value):
        viewed, walked = self.tables(key, value)
        for prefix in ("", "a", "b", "c"):
            outcomes = []
            for table, walk in ((viewed, FsdNameTable.enumerate_props), (walked, reference_list)):
                try:
                    outcomes.append([props.name for props in walk(table, prefix)])
                except (CorruptMetadata, ValueError) as error:
                    outcomes.append(type(error))
            assert outcomes[0] == outcomes[1], prefix
            assert viewed.clock.now_ms == walked.clock.now_ms
            assert viewed.clock.cpu_busy_ms == walked.clock.cpu_busy_ms
        assert outcomes[0] == ["c"]
