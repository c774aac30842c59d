"""Invalidation tests for the B-tree's parse memo.

The tree keeps one memo from page *bytes* to a parsed template.  The
safety argument is that it is keyed by content: a page whose bytes
changed misses and is parsed afresh, so a stale template can only be
reused while the page bytes are provably unchanged.  These tests pin
that contract down: an edit forces a re-derive, a remount starts cold,
and shared templates are never mutated by the write paths.
"""

from __future__ import annotations

from repro.btree import BTree, MemoryPager
from repro.btree.btree import Node


def _fill(tree: BTree, count: int = 120) -> None:
    for index in range(count):
        tree.insert(f"key-{index:04d}".encode(), b"value" * 3)


class TestIdentityHits:
    def test_repeated_reads_reuse_one_template(self):
        pager = MemoryPager(page_size=256)
        tree = BTree.create(pager)
        _fill(tree)
        tree.get(b"key-0000")
        before = dict(tree._parse_memo)
        tree.get(b"key-0000")
        tree.get(b"key-0000")
        # Same pages, same bytes: no new parse, and the templates are
        # the very same objects.
        assert tree._parse_memo.keys() == before.keys()
        for data, template in before.items():
            assert tree._parse_memo[data] is template

    def test_pager_reads_are_never_skipped(self):
        pager = MemoryPager(page_size=256)
        tree = BTree.create(pager)
        _fill(tree)
        reads_before = pager.reads
        tree.get(b"key-0000")
        first_lookup = pager.reads - reads_before
        tree.get(b"key-0000")
        second_lookup = pager.reads - reads_before - first_lookup
        # The memo saves the parse, not the page access: both lookups
        # charge identical pager reads (one per level).
        assert first_lookup == tree.depth()
        assert second_lookup == first_lookup


class TestEditInvalidates:
    def test_edited_page_serves_new_content(self):
        pager = MemoryPager(page_size=256)
        tree = BTree.create(pager)
        tree.insert(b"alpha", b"one")
        tree.insert(b"beta", b"two")
        assert tree.get(b"alpha") == b"one"  # template now memoised
        tree.insert(b"alpha", b"three")  # in-place edit of the leaf
        assert tree.get(b"alpha") == b"three"
        assert tree.get(b"beta") == b"two"
        # The page's current bytes map to a template of those bytes.
        template = tree._parse_memo[pager.read(tree._root)]
        assert template.values == [b"three", b"two"]

    def test_delete_invalidates_like_insert(self):
        tree = BTree.create(MemoryPager(page_size=256))
        _fill(tree)
        assert tree.get(b"key-0042") is not None
        assert tree.delete(b"key-0042")
        assert tree.get(b"key-0042") is None
        tree.check_invariants()


class TestRemountStartsCold:
    def test_reopen_has_empty_memos(self):
        pager = MemoryPager(page_size=256)
        tree = BTree.create(pager)
        _fill(tree)
        tree.get(b"key-0000")
        assert tree._parse_memo

        reopened = BTree.open(pager)
        assert reopened._parse_memo == {}
        # And the cold tree still reads everything correctly.
        assert reopened.get(b"key-0000") == b"value" * 3
        assert len(reopened) == len(tree)

    def test_reopened_tree_sees_pre_remount_edits(self):
        pager = MemoryPager(page_size=256)
        tree = BTree.create(pager)
        _fill(tree)
        tree.insert(b"key-0001", b"EDITED")
        reopened = BTree.open(pager)
        assert reopened.get(b"key-0001") == b"EDITED"
        keys, values = next(reopened.scan_leaves(b"key-0000", b"key-0002"))
        assert keys == [b"key-0000", b"key-0001"]
        assert values[1] == b"EDITED"


class TestTemplatesAreNeverMutated:
    def test_mutating_ops_leave_templates_intact(self):
        """Insert/delete descend on shared templates; the copy-on-write
        discipline means a template snapshot taken before a burst of
        edits still matches what its bytes parse to."""
        tree = BTree.create(MemoryPager(page_size=256))
        _fill(tree)
        tree.get(b"key-0000")
        # Hold the *live* template objects so a later in-place mutation
        # by any write path would show up against a fresh parse.
        held = list(tree._parse_memo.items())
        assert held
        _fill(tree, 240)  # heavy edit burst: splits, rewrites
        for index in range(0, 240, 3):
            tree.delete(f"key-{index:04d}".encode())
        tree.check_invariants()
        for data, template in held:
            fresh = Node.from_bytes(data)
            assert template.kind == fresh.kind
            assert template.keys == fresh.keys
            assert template.values == fresh.values
            assert template.children == fresh.children


class TestBounded:
    def test_a_full_memo_drops_its_oldest_entry(self, monkeypatch):
        monkeypatch.setattr("repro.btree.btree._PARSE_MEMO_LIMIT", 4)
        pager = MemoryPager(page_size=256)
        tree = BTree.create(pager)
        _fill(tree)
        assert len(tree._parse_memo) == 4
        # The newest entry is the page the last insert wrote and read.
        newest = list(tree._parse_memo)[-1]
        tree.get(b"key-0119")
        assert newest in tree._parse_memo
        assert tree.get(b"key-0000") == b"value" * 3
        assert len(tree._parse_memo) == 4
