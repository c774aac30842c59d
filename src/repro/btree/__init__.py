"""Page-based B-tree substrate shared by the CFS and FSD name tables."""

from repro.btree.btree import BTree, TreeShape
from repro.btree.node import INTERNAL, LEAF, Node, max_entry_bytes
from repro.btree.pager import MemoryPager, Pager

__all__ = [
    "BTree",
    "INTERNAL",
    "LEAF",
    "MemoryPager",
    "Node",
    "Pager",
    "TreeShape",
    "max_entry_bytes",
]
