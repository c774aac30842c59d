"""Stateful property testing of the B-tree with hypothesis's rule
machine: arbitrary interleavings of insert/replace/delete/reopen must
keep the tree equal to a dict and structurally valid at every step."""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.btree import BTree, MemoryPager

keys = st.integers(min_value=0, max_value=120).map(
    lambda i: f"key-{i:03d}".encode()
)
values = st.binary(max_size=40)


class BTreeMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.pager = MemoryPager(page_size=256)
        self.tree = BTree.create(self.pager)
        self.model: dict[bytes, bytes] = {}

    @rule(key=keys, value=values)
    def insert(self, key, value):
        was_new = self.tree.insert(key, value)
        assert was_new == (key not in self.model)
        self.model[key] = value

    @rule(length=st.integers(min_value=1, max_value=12), value=values)
    def append_run(self, length, value):
        """Ascending keys after the largest so far — the order a
        directory is created in, and the one that splits a node at its
        last slot."""
        first = max((int(key[4:]) for key in self.model), default=-1) + 1
        for index in range(first, first + length):
            key = f"key-{index:03d}".encode()
            assert self.tree.insert(key, value)
            self.model[key] = value

    @rule(value=values)
    def insert_then_delete_the_maximum(self, value):
        """A scratch name at the right edge: a split of a full page,
        then the rebalance that must not simply undo it."""
        key = max(self.model, default=b"key-") + b"~"
        assert self.tree.insert(key, value)
        assert self.tree.delete(key)

    @rule(key=keys)
    def delete(self, key):
        assert self.tree.delete(key) == (key in self.model)
        self.model.pop(key, None)

    @rule(key=keys)
    def get(self, key):
        assert self.tree.get(key) == self.model.get(key)

    @rule()
    def reopen(self):
        """Close and reopen from the pager: all state is in the pages."""
        self.tree = BTree.open(self.pager)

    @rule(start=keys, stop=st.none() | keys)
    def scan_range(self, start, stop):
        got = [
            key
            for leaf, first, last in self.tree.scan_leaves(start, stop)
            for key in leaf.keys[first:last]
        ]
        expected = sorted(
            k for k in self.model if start <= k and (stop is None or k < stop)
        )
        assert got == expected

    @invariant()
    def sizes_agree(self):
        assert len(self.tree) == len(self.model)

    @invariant()
    def structure_valid(self):
        self.tree.check_invariants()


BTreeMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=60, deadline=None
)
TestBTreeMachine = BTreeMachine.TestCase
