"""Unit, randomized and property tests for the page B-tree."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.btree import INTERNAL, LEAF, BTree, MemoryPager, Node
from repro.errors import CorruptMetadata


@pytest.fixture
def tree() -> BTree:
    return BTree.create(MemoryPager(page_size=256))


def entries(
    tree: BTree, start: bytes | None = None, stop: bytes | None = None
) -> list[tuple[bytes, bytes]]:
    """``scan_leaves(start, stop)``'s leaves, flattened to entries."""
    return [
        pair
        for leaf, first, last in tree.scan_leaves(start, stop)
        for pair in zip(leaf.keys[first:last], leaf.values[first:last])
    ]


class TestBasics:
    def test_empty(self, tree):
        assert len(tree) == 0
        assert tree.get(b"missing") is None
        assert entries(tree) == []
        assert not tree.delete(b"missing")

    def test_insert_get(self, tree):
        assert tree.insert(b"k", b"v")
        assert tree.get(b"k") == b"v"
        assert tree.get(b"k") is not None
        assert len(tree) == 1

    def test_replace(self, tree):
        tree.insert(b"k", b"v1")
        assert not tree.insert(b"k", b"v2")
        assert tree.get(b"k") == b"v2"
        assert len(tree) == 1

    def test_delete(self, tree):
        tree.insert(b"k", b"v")
        assert tree.delete(b"k")
        assert tree.get(b"k") is None
        assert len(tree) == 0

    def test_scan_sorted(self, tree):
        for key in [b"m", b"a", b"z", b"c"]:
            tree.insert(key, key)
        assert [k for k, _ in entries(tree)] == [b"a", b"c", b"m", b"z"]

    def test_scan_from_start_key(self, tree):
        for i in range(20):
            tree.insert(f"{i:03d}".encode(), b"v")
        keys = [k for k, _ in entries(tree, b"010")]
        assert keys[0] == b"010"
        assert len(keys) == 10

    def test_scan_prefix(self, tree):
        for name in [b"dir/a", b"dir/b", b"dir2/c", b"other"]:
            tree.insert(name, b"v")
        # "/" + 1 == "0": the key range of every key under "dir/".
        assert [k for k, _ in entries(tree, b"dir/", b"dir0")] == [
            b"dir/a", b"dir/b"
        ]

    def test_named_views_flatten_scan_leaves(self, tree):
        for name in [b"dir/a", b"dir/b", b"dir2/c", b"other"]:
            tree.insert(name, b"v")
        assert list(tree.scan()) == entries(tree)
        assert list(tree.scan(b"dir2")) == entries(tree, b"dir2")
        assert list(tree.scan_prefix(b"dir/")) == entries(tree, b"dir/", b"dir0")

    def test_oversized_entry_rejected(self, tree):
        with pytest.raises(ValueError):
            tree.insert(b"k", b"v" * 500)


class TestSplitsAndMerges:
    def test_grows_beyond_one_page(self, tree):
        for i in range(200):
            tree.insert(f"key-{i:04d}".encode(), b"value" * 4)
        assert tree.check_invariants().height >= 2
        tree.check_invariants()
        assert len(tree) == 200

    def test_shrinks_back_to_leaf(self, tree):
        for i in range(200):
            tree.insert(f"key-{i:04d}".encode(), b"value" * 4)
        for i in range(200):
            assert tree.delete(f"key-{i:04d}".encode())
        tree.check_invariants()
        assert len(tree) == 0
        assert tree.check_invariants().height == 1

    def test_pages_freed_after_mass_delete(self):
        pager = MemoryPager(page_size=256)
        tree = BTree.create(pager)
        for i in range(300):
            tree.insert(f"key-{i:04d}".encode(), b"v" * 8)
        peak = pager.allocated_pages
        for i in range(300):
            tree.delete(f"key-{i:04d}".encode())
        assert pager.allocated_pages < peak / 4

    def test_descending_inserts(self, tree):
        for i in reversed(range(150)):
            tree.insert(f"{i:04d}".encode(), b"w" * 10)
        tree.check_invariants()
        assert [k for k, _ in entries(tree)] == [
            f"{i:04d}".encode() for i in range(150)
        ]

    def test_variable_sized_values(self, tree):
        rng = random.Random(5)
        ref = {}
        for i in range(150):
            key = f"{i:04d}".encode()
            value = bytes(rng.randrange(0, 100))
            tree.insert(key, value)
            ref[key] = value
        tree.check_invariants()
        assert dict(entries(tree)) == ref


class TestRedistributeSeparator:
    """A delete that leaves a leaf underfull next to a sibling it cannot
    merge with redistributes the pair evenly.  Here the even split's
    separator (the right half's first key, 60 bytes) does not fit the
    nearly full parent, but a one-byte prefix of it separates the halves
    just as well, so the pair is rebalanced with that."""

    @staticmethod
    def build() -> BTree:
        pager = MemoryPager(page_size=256)
        tree = BTree.create(pager)
        long_keys = [bytes([c]) + b"x" * 59 for c in b"cde"]
        fillers = [bytes([c]) for c in range(0x66, 0x66 + 27)]
        leaves = [[b"aaa"], long_keys] + [[key] for key in fillers]
        pages = [pager.allocate() for _ in leaves]
        for page, keys in zip(pages, leaves):
            pager.write(page, Node(LEAF, keys, [b"v"] * len(keys)).to_bytes(256))
        root = Node(INTERNAL, [b"c"] + fillers, children=pages)
        # One byte short of room for the 60-byte separator.
        assert 256 - root.serialized_size() + 1 < 60
        pager.write(tree._root, root.to_bytes(256))
        tree._height, tree._count = 2, sum(map(len, leaves))
        tree._write_meta()
        return BTree.open(pager)

    def test_underfull_leaf_is_rebalanced_with_the_shortest_separator(self):
        tree = self.build()
        assert tree.delete(b"aaa")
        shape = tree.check_invariants()
        assert shape.leaves == 29
        left, right = [
            leaf.keys[first:last] for leaf, first, last in tree.scan_leaves(None, b"f")
        ]
        assert [key[:1] for key in left] == [b"c", b"d"]
        assert [key[:1] for key in right] == [b"e"]
        root = tree._load_template(tree._root)
        assert root.keys[0] == b"e"
        for key in left + right:
            assert tree.get(key) == b"v"


class TestPersistence:
    def test_reopen_preserves_contents(self):
        pager = MemoryPager(page_size=256)
        tree = BTree.create(pager)
        for i in range(50):
            tree.insert(f"k{i:03d}".encode(), f"v{i}".encode())
        reopened = BTree.open(pager)
        assert len(reopened) == 50
        assert reopened.get(b"k025") == b"v25"
        reopened.check_invariants()

    def test_open_bad_meta(self):
        pager = MemoryPager(page_size=256)
        pager.write(0, b"\xff" * 256)
        with pytest.raises(CorruptMetadata):
            BTree.open(pager)


class TestRandomizedAgainstDict:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_mixed_ops_match_reference(self, seed):
        pager = MemoryPager(page_size=256)
        tree = BTree.create(pager)
        ref: dict[bytes, bytes] = {}
        rng = random.Random(seed)
        for step in range(1500):
            key = f"key-{rng.randrange(300):04d}".encode()
            if rng.random() < 0.6:
                value = bytes(rng.randrange(0, 60))
                tree.insert(key, value)
                ref[key] = value
            else:
                assert tree.delete(key) == (key in ref)
                ref.pop(key, None)
            if step % 250 == 0:
                tree.check_invariants()
        tree.check_invariants()
        assert dict(entries(tree)) == ref
        assert len(tree) == len(ref)


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.booleans(),
            st.integers(min_value=0, max_value=80),
            st.binary(max_size=30),
        ),
        max_size=300,
    )
)
def test_property_tree_equals_dict(ops):
    """Any sequence of insert/delete leaves the tree equal to a dict
    and structurally valid."""
    pager = MemoryPager(page_size=256)
    tree = BTree.create(pager)
    ref: dict[bytes, bytes] = {}
    for is_insert, key_index, value in ops:
        key = f"k{key_index:03d}".encode()
        if is_insert:
            tree.insert(key, value)
            ref[key] = value
        else:
            assert tree.delete(key) == (key in ref)
            ref.pop(key, None)
    tree.check_invariants()
    assert dict(entries(tree)) == ref
