"""A version lookup reads its name's key range and nothing past it.

``versions(name)`` (and with it ``highest_version``, which every create
asks) reads ``version_range(name)`` through ``BTree.scan_leaves``.  When
that range ends a leaf, the leaf after it holds other names only, so
the lookup must stop at the leaf: one page read per level of the tree.
The same goes for a name that is absent and whose insertion point is
the end of a leaf.  Checked on both name tables, FSD's and CFS', over
a pager that counts its reads.
"""

from __future__ import annotations

import pytest

from repro.btree import BTree, MemoryPager
from repro.cfs.name_table import NT_PAGE_SECTORS, CfsNameTable
from repro.core.name_table import FsdNameTable
from repro.core.types import FileProperties, RunTable, decode_key, make_uid
from repro.disk.clock import SimClock

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
    return [decode_key(keys[-1])[0] for keys in leaves[:-1]]


@pytest.fixture(params=["fsd", "cfs"])
def table(request):
    return fsd_table() if request.param == "fsd" else cfs_table()


def test_the_tree_has_leaves_to_cross(table):
    assert table.tree.depth() >= 2
    assert len(leaf_ends(table.tree)) >= 5


def test_a_name_that_ends_its_leaf_reads_no_leaf_after_it(table):
    tree, pager = table.tree, table.tree.pager
    for name in leaf_ends(tree):
        before = pager.reads
        assert table.versions(name) == [1]
        assert pager.reads - before == tree.depth(), name


def test_an_absent_name_at_a_leaf_end_reads_no_leaf_after_it(table):
    tree, pager = table.tree, table.tree.pager
    for name in leaf_ends(tree):
        # Sorts after every key of ``name`` and before the next name.
        absent = name + "~"
        assert absent not in NAMES
        before = pager.reads
        assert table.highest_version(absent) is None
        assert pager.reads - before == tree.depth(), absent
