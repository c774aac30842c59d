"""A version lookup reads its name's key range and nothing past it.

``versions(name)`` (and with it ``highest_version``) reads
``version_range(name)`` through ``BTree.scan_leaves``.  When
that range ends a leaf, the leaf after it holds other names only, so
the lookup must stop at the leaf: one page read per level of the tree.
The same goes for a name that is absent and whose insertion point is
the end of a leaf.  Checked on both name tables, FSD's and CFS', over
a pager that counts its reads.

FSD resolves every name in one such walk (``FsdNameTable.walk``): the
last part checks the operations built on it against the calls they
replaced.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.btree import BTree, MemoryPager
from repro.cfs.name_table import NT_PAGE_SECTORS, CfsNameTable
from repro.core.cache import MetadataCache
from repro.core.layout import VolumeLayout, VolumeParams
from repro.core.name_table import (
    FsdNameTable,
    NameTableHome,
    NameTablePager,
    gather_runs,
)
from repro.core.types import (
    MAX_INLINE_RUNS,
    MAX_RUNS_PER_CHUNK,
    FileProperties,
    Run,
    RunTable,
    decode_main_entry,
    encode_continuation,
    encode_key,
    encode_main_entry,
    make_uid,
    parse_key,
    version_range,
)
from repro.disk.clock import CpuCostModel, SimClock
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.errors import FileNotFound
from repro.obs import Observer

NAMES = [f"src/module{index:04d}.mesa" for index in range(400)]


def fsd_table() -> FsdNameTable:
    table = FsdNameTable(BTree.create(MemoryPager(page_size=512)), SimClock())
    for index, name in enumerate(NAMES):
        table.insert(
            FileProperties(
                name=name, version=1, uid=make_uid(1, index), byte_size=1,
                keep=2, leader_addr=1000 + index,
            ),
            RunTable(),
        )
    return table


def cfs_table() -> CfsNameTable:
    pager = MemoryPager(page_size=NT_PAGE_SECTORS * 512)
    table = CfsNameTable(BTree.create(pager), pager)
    for index, name in enumerate(NAMES):
        table.insert(
            FileProperties(
                name=name, version=1, uid=make_uid(1, index), keep=2,
            ),
            header_addr=2000 + index,
        )
    return table


def leaf_ends(tree: BTree) -> list[str]:
    """The name of the last key of every leaf but the last one."""
    leaves = [leaf.keys for leaf, _, _ in tree.scan_leaves()]
    return [parse_key(keys[-1])[0] for keys in leaves[:-1]]


def highest_version(table, name: str) -> int | None:
    """The newest version of ``name``: FSD's from one walk, CFS' from
    its own lookup."""
    if isinstance(table, FsdNameTable):
        return table.walk(name).highest_version()
    return table.highest_version(name)


@pytest.fixture(params=["fsd", "cfs"])
def table(request):
    return fsd_table() if request.param == "fsd" else cfs_table()


def test_the_tree_has_leaves_to_cross(table):
    assert table.tree.check_invariants().height >= 2
    assert len(leaf_ends(table.tree)) >= 5


def test_a_name_that_ends_its_leaf_reads_no_leaf_after_it(table):
    tree, pager = table.tree, table.tree.pager
    for name in leaf_ends(tree):
        before = pager.reads
        assert table.versions(name) == [1]
        assert pager.reads - before == tree.check_invariants().height, name


def test_an_absent_name_at_a_leaf_end_reads_no_leaf_after_it(table):
    tree, pager = table.tree, table.tree.pager
    for name in leaf_ends(tree):
        # Sorts after every key of ``name`` and before the next name.
        absent = name + "~"
        assert absent not in NAMES
        before = pager.reads
        assert highest_version(table, absent) is None
        assert pager.reads - before == tree.check_invariants().height, absent


# ----------------------------------------------------------------------
# one walk per name: create, open, exists, delete, rename and set_keep
# ----------------------------------------------------------------------
#: names that byte-prefix one another, and neighbours on both sides.
WALK_NAMES = ("a", "a/b", "ab", "b", "s", "s/t")
#: inline only, and one, two and three continuation chunks.
WALK_RUNS = (0, 3, MAX_INLINE_RUNS + 5, MAX_INLINE_RUNS + 30, MAX_INLINE_RUNS + 60)
walk_names = st.sampled_from(WALK_NAMES)
walk_versions = st.one_of(st.none(), st.integers(1, 5))
walk_ops = st.lists(
    st.one_of(
        st.tuples(st.just("create"), walk_names, st.integers(1, 3),
                  st.sampled_from(WALK_RUNS)),
        st.tuples(st.just("update"), walk_names, st.sampled_from(WALK_RUNS)),
        st.tuples(st.just("delete"), walk_names, walk_versions),
        st.tuples(st.just("rename"), walk_names, walk_names, walk_versions),
        st.tuples(st.just("set_keep"), walk_names, st.integers(0, 3)),
        st.tuples(st.just("open"), walk_names, walk_versions),
        st.tuples(st.just("exists"), walk_names, walk_versions),
        # A continuation chunk of the version the next create takes.
        st.tuples(st.just("orphan"), walk_names),
    ),
    min_size=1,
    max_size=40,
)
#: every name in two versions of every run-table length: the versions
#: of one name fill two leaves or more.
WALK_POPULATION = [
    ("create", name, 3, WALK_RUNS[(index + offset) % len(WALK_RUNS)])
    for offset in (2, 4)
    for index, name in enumerate(WALK_NAMES)
]


def run_table(count: int, uid: int) -> RunTable:
    base = 4000 + 1024 * (uid % 4096)
    return RunTable([Run(base + 8 * index, 1 + index % 3) for index in range(count)])


def walk_table() -> FsdNameTable:
    """A name table over the metadata cache with nothing committed: every
    page stays resident, so node visits and entry decodes are the only
    clock charges."""
    disk = SimDisk(geometry=DiskGeometry(cylinders=120, heads=8, sectors_per_track=24))
    layout = VolumeLayout.compute(
        disk.geometry, VolumeParams(nt_pages=512, log_record_sectors=300, cache_pages=64)
    )
    home = NameTableHome(disk, layout)
    cache = MetadataCache(
        capacity_pages=64, nt_reader=home.read_page, writer=home.write_pages,
    )
    return FsdNameTable.format(NameTablePager(cache, layout, disk.clock, home), disk.clock)


def _outcome(fn):
    try:
        return fn()
    except FileNotFound as error:
        return f"FileNotFound: {error}"


def _entries(entries) -> list:
    return [(props, runs.runs) for props, runs in entries]


def apply_one_walk(table: FsdNameTable, op: tuple, uid: int):
    """``op`` the way ``FSD`` resolves names: one walk per name."""
    kind, name = op[0], op[1]
    if kind == "create":
        _, _, keep, count = op
        keys = table.walk(name)
        version = keys.next_version()
        props = FileProperties(name=name, version=version, uid=uid, keep=keep,
                               leader_addr=uid % 4096)
        table.insert(props, run_table(count, uid), fresh=not keys.holds(version))
        return version, _entries(table.trim(keys, keep, version))
    if kind == "update":
        def update():
            props, _ = table.entry(table.walk(name))
            table.update(props, run_table(op[2], uid))
        return _outcome(update)
    if kind == "delete":
        def delete():
            props, runs = table.delete(name, op[2])
            return props, runs.runs
        return _outcome(delete)
    if kind == "rename":
        def rename():
            props, runs = table.delete(name, op[3])
            new_keys = table.walk(op[2])
            new_version = new_keys.next_version()
            table.insert(props.with_updates(name=op[2], version=new_version), runs,
                         fresh=not new_keys.holds(new_version))
            return new_version
        return _outcome(rename)
    if kind == "set_keep":
        def set_keep():
            keys = table.walk(name)
            props, runs = table.entry(keys)
            table.update(props.with_updates(keep=op[2]), runs)
            return _entries(table.trim(keys, op[2]))
        return _outcome(set_keep)
    if kind == "open":
        return _outcome(lambda: _entries([table.entry(table.walk(name), op[2])]))
    if kind == "exists":
        return _outcome(lambda: table.entry(table.walk(name), op[2]) is not None)
    keys = table.walk(name)
    table.tree.insert(encode_key(name, keys.next_version(), 1),
                      encode_continuation([Run(9000, 1)]))
    return None


class Reference:
    """The same ops the way ``FSD`` resolved names before one walk:
    ``versions`` then a ``get`` descent per chunk, a second ``versions``
    walk to trim, deletes that probe past the last chunk.  Counts its
    node visits of its version walks."""

    def __init__(self, table: FsdNameTable):
        self.table = table
        self.walk_reads = 0

    def versions(self, name: str) -> list[int]:
        reads = pager_reads(self.table)
        out = [
            version
            for leaf, first, last in self.table.tree.scan_leaves(*version_range(name))
            for _, version, chunk in map(parse_key, leaf.keys[first:last])
            if chunk == 0
        ]
        self.walk_reads += pager_reads(self.table) - reads
        return out

    def get(self, name: str, version: int):
        table = self.table
        table.clock.advance_cpu(table.clock.cpu.entry_interpret_ms)
        value = table.tree.get(encode_key(name, version, 0))
        if value is None:
            return None
        props, runs, total = decode_main_entry(name, version, value)
        if len(runs.runs) < total:
            gather_runs(name, version, runs, total,
                        lambda chunk: table.tree.get(encode_key(name, version, chunk)))
        return props, runs

    def insert(self, props: FileProperties, runs: RunTable) -> None:
        """Every insert and update: chunks written, then a probe for
        stale chunks past them."""
        table = self.table
        table.clock.advance_cpu(table.clock.cpu.entry_interpret_ms)
        name, version = props.name, props.version
        table.tree.insert(encode_key(name, version, 0), encode_main_entry(props, runs))
        spill = runs.runs[MAX_INLINE_RUNS:]
        chunk = 1
        for start in range(0, len(spill), MAX_RUNS_PER_CHUNK):
            table.tree.insert(encode_key(name, version, chunk),
                              encode_continuation(spill[start : start + MAX_RUNS_PER_CHUNK]))
            chunk += 1
        while table.tree.delete(encode_key(name, version, chunk)):
            chunk += 1

    def lookup(self, name: str, version: int | None):
        if version is None:
            versions = self.versions(name)
            if not versions:
                raise FileNotFound(name)
            version = versions[-1]
        entry = self.get(name, version)
        if entry is None:
            raise FileNotFound(f"{name}!{version}")
        return entry

    def delete(self, name: str, version: int):
        entry = self.lookup(name, version)
        self.table.tree.delete(encode_key(name, version, 0))
        chunk = 1
        while self.table.tree.delete(encode_key(name, version, chunk)):
            chunk += 1
        return entry

    def trim(self, name: str, keep: int) -> list:
        versions = self.versions(name) if keep > 0 else []
        removed = []
        while len(versions) > keep:
            removed.append(self.delete(name, versions.pop(0)))
        return _entries(removed)

    def apply(self, op: tuple, uid: int):
        table, kind, name = self.table, op[0], op[1]
        if kind == "create":
            _, _, keep, count = op
            version = (self.versions(name) or [0])[-1] + 1
            props = FileProperties(name=name, version=version, uid=uid, keep=keep,
                                   leader_addr=uid % 4096)
            self.insert(props, run_table(count, uid))
            return version, self.trim(name, keep)
        if kind == "update":
            def update():
                props, _ = self.lookup(name, None)
                self.insert(props, run_table(op[2], uid))
            return _outcome(update)
        if kind == "delete":
            def delete():
                props, runs = self.lookup(name, op[2])
                self.delete(props.name, props.version)
                return props, runs.runs
            return _outcome(delete)
        if kind == "rename":
            def rename():
                props, runs = self.lookup(name, op[3])
                self.delete(props.name, props.version)
                new_version = (self.versions(op[2]) or [0])[-1] + 1
                self.insert(props.with_updates(name=op[2], version=new_version), runs)
                return new_version
            return _outcome(rename)
        if kind == "set_keep":
            def set_keep():
                props, runs = self.lookup(name, None)
                self.insert(props.with_updates(keep=op[2]), runs)
                return self.trim(name, op[2])
            return _outcome(set_keep)
        if kind == "open":
            return _outcome(lambda: _entries([self.lookup(name, op[2])]))
        if kind == "exists":
            return _outcome(lambda: self.lookup(name, op[2]) is not None)
        version = (self.versions(name) or [0])[-1] + 1
        table.tree.insert(encode_key(name, version, 1), encode_continuation([Run(9000, 1)]))
        return None


def pager_reads(table: FsdNameTable) -> int:
    """Node visits so far: the ``btree.page_reads`` the pager counted."""
    return table.tree.pager.obs.metrics.counter("btree.page_reads").value


def count_decodes(table: FsdNameTable) -> list[int]:
    """A one-item list that counts the table's entry decodes: its
    clock's entry-interpretation charges."""
    count = [0]
    clock = table.clock
    interpret_ms, advance = clock.cpu.entry_interpret_ms, clock.advance_cpu

    def advance_cpu(ms: float) -> None:
        count[0] += ms == interpret_ms
        advance(ms)

    clock.advance_cpu = advance_cpu
    return count


@settings(max_examples=100, deadline=None)
@given(ops=walk_ops)
@example(ops=[("orphan", "a"), ("create", "a", 2, 0), ("open", "a", None)])
def test_one_walk_matches_the_lookups_it_replaced(ops):
    """The one-walk ops and the lookups they replaced take the same op
    stream.  After every op the results, the full key set and both
    clocks agree, once the reference's extra node visits and entry
    decodes are taken off its clocks.  Resolving a name by name, the
    one-walk side never visits more nodes, and an open or exists visits
    exactly the nodes of one version walk."""
    cpu = CpuCostModel()
    one, ref_table = walk_table(), walk_table()
    for table in (one, ref_table):
        table.tree.pager.obs = Observer()
    decodes, ref_decodes = count_decodes(one), count_decodes(ref_table)
    reference = Reference(ref_table)
    for index, op in enumerate(WALK_POPULATION + ops):
        uid = make_uid(1, index)
        reads, ref_reads = pager_reads(one), pager_reads(ref_table)
        reference.walk_reads = 0
        got = apply_one_walk(one, op, uid)
        assert got == reference.apply(op, uid), op
        visits = pager_reads(one) - reads
        if op[0] in ("create", "update", "set_keep", "orphan") or op[-1] is None:
            assert visits <= pager_reads(ref_table) - ref_reads, op
        if op[0] in ("open", "exists") and op[2] is None:
            assert visits == reference.walk_reads, op
        # The trees are the same, so these walks cost both sides alike.
        assert list(one.tree.scan()) == list(ref_table.tree.scan()), op
        if index == len(WALK_POPULATION) - 1:
            # The versions of some name straddle a leaf boundary.
            for table in (one, ref_table):
                spans = [len(list(table.tree.scan_leaves(*version_range(name))))
                         for name in WALK_NAMES]
                assert max(spans) > 1
        extra_ms = (
            (pager_reads(ref_table) - pager_reads(one)) * cpu.btree_node_ms
            + (ref_decodes[0] - decodes[0]) * cpu.entry_interpret_ms
        )
        assert one.clock.cpu_busy_ms == pytest.approx(
            ref_table.clock.cpu_busy_ms - extra_ms, rel=1e-12, abs=1e-9
        ), op
        assert one.clock.now_ms == pytest.approx(
            ref_table.clock.now_ms - extra_ms, rel=1e-12, abs=1e-9
        ), op


def test_create_drops_an_orphan_chunk_of_its_version():
    """A continuation chunk of version v+1 left without its chunk 0: the
    create of v+1 sees it in its walk, so its insert is not fresh and
    still probes it away."""
    table = walk_table()
    table.insert(FileProperties(name="f", version=1, uid=1, keep=3), RunTable(), fresh=True)
    table.tree.insert(encode_key("f", 2, 1), encode_continuation([Run(9000, 1)]))
    keys = table.walk("f")
    assert keys.next_version() == 2 and keys.holds(2)
    assert apply_one_walk(table, ("create", "f", 3, 3), 7) == (2, [])
    assert table.tree.get(encode_key("f", 2, 1)) is None
    assert [key for key, _ in table.tree.scan_prefix(b"f\x00")] == [
        encode_key("f", 1, 0), encode_key("f", 2, 0),
    ]
    props, runs = table.entry(table.walk("f"))
    assert props.version == 2 and runs.runs == run_table(3, 7).runs
