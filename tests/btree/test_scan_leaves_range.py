"""``BTree.scan_leaves(start, stop)``: the bounded range scan and the
prefetch hints it gives its pager.

The tree is driven the way the name table drives it — create, delete
and rename histories over (name, version, chunk) keys, with run tables
long enough to spill into continuation entries — and checked against
the unbounded scan: the bounded scan yields exactly its entries in
``[start, stop)``, and every page handed to ``Pager.prefetch`` is one
the scan goes on to read, in the order it was handed.  The version
lookups of both name tables read ``version_range(name)`` through it;
names that are each other's neighbours in key order check its edges.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.btree import BTree, MemoryPager, Node
from repro.cfs.name_table import NT_PAGE_SECTORS, CfsNameTable
from repro.core.name_table import FsdNameTable
from repro.core.types import (
    MAX_INLINE_RUNS,
    FileProperties,
    Run,
    RunTable,
    make_uid,
    prefix_range,
)
from repro.disk.clock import SimClock


class RecordingPager(MemoryPager):
    """Logs every read and every prefetch hint, in order."""

    def __init__(self):
        super().__init__(page_size=512)
        self.events: list[tuple[str, object]] = []

    def read(self, page_no: int) -> bytes:
        self.events.append(("read", page_no))
        return super().read(page_no)

    def prefetch(self, page_nos: list[int]) -> None:
        self.events.append(("prefetch", list(page_nos)))


DIRS = ["a/", "ab/", "b/", "b/sub/", "é/"]
names = st.builds(
    lambda d, i: f"{d}f{i:02d}",
    st.sampled_from(DIRS),
    st.integers(min_value=0, max_value=40),
)
run_counts = st.sampled_from([1, 3, MAX_INLINE_RUNS + 5, MAX_INLINE_RUNS + 60])
operations = st.lists(
    st.one_of(
        st.tuples(st.just("create"), names, run_counts),
        st.tuples(st.just("delete"), names, st.just(0)),
        st.tuples(st.just("rename"), names, names),
    ),
    min_size=1,
    max_size=120,
)
bounds = st.one_of(
    st.sampled_from(DIRS + ["", "a", "b/f1", "b/f10", "c/", "zz"]), names
)


#: Every history starts from a populated table (a three-level tree),
#: so the drawn operations split, merge and shrink interior nodes
#: instead of filling a single leaf.
POPULATION = [
    ("create", f"{directory}f{index:02d}", MAX_INLINE_RUNS + index % 3 * 30)
    for directory in DIRS
    for index in range(0, 40)
    if index % 5
]


def build(history) -> tuple[FsdNameTable, RecordingPager]:
    pager = RecordingPager()
    table = FsdNameTable(BTree.create(pager), SimClock())
    live: dict[str, int] = {}
    for op, name, arg in POPULATION + history:
        if op == "create":
            live[name] = arg
        elif op == "delete":
            if live.pop(name, None) is None:
                continue
            table.delete(name, 1)
            continue
        else:
            if name not in live or arg in live or arg == name:
                continue
            table.delete(name, 1)
            live[arg] = live.pop(name)
            name = arg
        props = FileProperties(
            name=name, version=1, uid=make_uid(1, len(live)), byte_size=1,
            keep=2, leader_addr=1000,
        )
        table.insert(
            props, RunTable([Run(2000 + 4 * i, 2) for i in range(live[name])])
        )
    return table, pager


def flatten(leaves) -> list[tuple[bytes, bytes]]:
    return [
        pair
        for leaf, first, last in leaves
        for pair in zip(leaf.keys[first:last], leaf.values[first:last])
    ]


@settings(max_examples=60, deadline=None)
@given(history=operations, low=bounds, high=bounds)
# A delete whose redistribute would hand the parent a longer separator
# than it has room for (the parent of a delete never splits).
@example(
    history=[("rename", "a/f01", "b/f25"), ("delete", "b/f38", 0)],
    low="",
    high="zz",
)
def test_bounded_scan_is_the_unbounded_scan_filtered(history, low, high):
    table, _ = build(history)
    tree = table.tree
    tree.check_invariants()
    everything = flatten(tree.scan_leaves())
    assert [key for key, _ in everything] == sorted(k for k, _ in everything)
    assert len(everything) == len(tree)
    start, stop = sorted((low.encode(), high.encode()))
    assert flatten(tree.scan_leaves(start, stop)) == [
        (key, value) for key, value in everything if start <= key < stop
    ]
    assert flatten(tree.scan_leaves(None, stop)) == [
        (key, value) for key, value in everything if key < stop
    ]
    assert flatten(tree.scan_leaves(start)) == [
        (key, value) for key, value in everything if start <= key
    ]


@settings(max_examples=60, deadline=None)
@given(history=operations, prefix=bounds)
def test_prefix_range_selects_exactly_the_names_with_the_prefix(
    history, prefix
):
    table, _ = build(history)
    start, stop = prefix_range(prefix)
    got = [key for key, _ in flatten(table.tree.scan_leaves(start, stop))]
    assert got == [
        key for key, _ in flatten(table.tree.scan_leaves())
        if key.split(b"\x00")[0].decode().startswith(prefix)
    ]
    assert [p.name for p in table.enumerate_props(prefix)] == sorted(
        {key.split(b"\x00")[0].decode() for key in got}
    )


@settings(max_examples=60, deadline=None)
@given(history=operations, prefix=bounds)
def test_prefetch_is_handed_only_what_the_scan_then_reads(history, prefix):
    table, pager = build(history)
    del pager.events[:]
    for _ in table.tree.scan_leaves(*prefix_range(prefix)):
        pass
    events = list(pager.events)
    reads = [page for kind, page in events if kind == "read"]
    assert len(reads) == len(set(reads))  # a scan reads no page twice
    hinted: list[int] = []
    node_page = None
    for index, (kind, pages) in enumerate(events):
        if kind == "read":
            node_page = pages
            continue
        later = [p for k, p in events[index + 1:] if k == "read"]
        # Every hinted page is read afterwards, in the order handed:
        # the hint is a subsequence of the reads that follow it.
        assert [page for page in later if page in pages] == pages
        assert len(pages) >= 2  # a lone child is no transfer to plan
        # It begins with the in-range children, left to right, of the
        # node the scan read just before it.
        node = Node.from_bytes(pager.read(node_page))
        children = [page for page in node.children if page in reads]
        assert pages[: len(children)] == children
        hinted.extend(pages)
    # A drained walk reads every page it hinted (a sibling may be hinted
    # twice: by its parent and again by its left sibling's node).
    assert set(hinted) <= set(reads)
    # Every page but the root was announced by its parent, unless it is
    # the one child of that parent the scan visits.
    parent_of = {}
    for page in reads:
        node = Node.from_bytes(pager.read(page))
        for child in node.children:
            parent_of[child] = node
    for page in set(reads[1:]).difference(hinted):
        visited = [c for c in parent_of[page].children if c in reads]
        assert visited == [page]


#: Names that are each other's neighbours in key order: "a\x01" sorts
#: right after every version of "a" and "a0" / "ab" after that, "a/"
#: starts a directory, and "`" (one below "a") and "b" frame them.
NEIGHBOURS = ["`", "a", "a\x01", "a/", "a/x", "a0", "ab", "b"]
neighbour_ops = st.lists(
    st.tuples(
        st.sampled_from(["create", "delete"]),
        st.sampled_from(NEIGHBOURS),
        st.integers(min_value=1, max_value=300),
        st.sampled_from([1, 3, MAX_INLINE_RUNS + 40]),
    ),
    max_size=80,
)


@settings(max_examples=60, deadline=None)
@given(history=neighbour_ops)
def test_versions_of_neighbouring_names_equal_the_model(history):
    """Each name's ``versions`` and ``highest_version`` on both name
    tables equal a dict model, however the neighbours' versions and
    run-table chunks fall on leaf edges."""
    fsd = FsdNameTable(BTree.create(MemoryPager(page_size=512)), SimClock())
    cfs_pager = MemoryPager(page_size=NT_PAGE_SECTORS * 512)
    cfs = CfsNameTable(BTree.create(cfs_pager), cfs_pager)
    model: dict[str, set[int]] = {name: set() for name in NEIGHBOURS}
    # Start from a populated table, so the histories cross leaves.
    population = [
        ("create", name, version, 3)
        for version in range(400, 430)
        for name in NEIGHBOURS
    ]
    for op, name, version, runs in population + history:
        if op == "delete":
            if version in model[name]:
                model[name].discard(version)
                fsd.delete(name, version)
                assert cfs.delete(name, version)
            continue
        model[name].add(version)
        props = FileProperties(
            name=name, version=version, uid=make_uid(2, version), keep=2,
            leader_addr=1000,
        )
        fsd.insert(props, RunTable([Run(2000 + 4 * i, 2) for i in range(runs)]))
        cfs.insert(props, 3000 + version)
    assert fsd.tree.check_invariants().height >= 2
    for name, versions in model.items():
        want = sorted(versions)
        newest = want[-1] if want else None
        for table in (fsd, cfs):
            assert table.versions(name) == want, name
        assert fsd.walk(name).highest_version() == newest
        assert cfs.highest_version(name) == newest
