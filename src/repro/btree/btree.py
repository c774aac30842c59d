"""Page-based B-tree with variable-length keys and values.

Both file name tables in the reproduction (CFS' and FSD's) are this
tree over different pagers.  The tree is a classic B+-tree variant:
values live only in leaves, internal nodes hold separator keys, splits
are size-based (entries are variable length), and deletion rebalances
by merging or evenly redistributing siblings.  Two rules keep pages
full under the ascending key order directories are created in: a node
that overflows because of an entry in its last slot splits *there*
(the old page keeps everything it had), and an underfull node merges
into a sibling only when the result is at most three quarters of a
page, so an append/delete cycle at a full page's edge cannot split and
merge it each time round.

The tree never caches node *pages* itself: every node touch is a
``pager.read``/``pager.write``, so the owning file system sees and
accounts for every page access (FSD's pager is its logged cache, CFS'
pager is write-through to disk).  What it does keep is a host-side
parse memo keyed by page bytes: re-reading an unchanged page skips the
byte-level parse, but never the pager call, so simulated accounting is
untouched.
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass
from typing import Iterator

from repro.btree.node import INTERNAL, LEAF, Node, max_entry_bytes
from repro.btree.pager import Pager
from repro.errors import CorruptMetadata
from repro.serial import Unpacker

_META_MAGIC = 0x42543031  # "BT01"
#: meta page layout: magic u32, root u32, height u32, count u64.
_META = struct.Struct("<IIIQ")

#: parsed-node memo entries kept; past it the oldest entry goes (a
#: rewritten page leaves its old content behind, so clearing the memo
#: wholesale would re-parse every hot page at once).  Sized to cover a
#: working set of hot pages without growing unboundedly on scan-heavy
#: workloads.
_PARSE_MEMO_LIMIT = 2048


@dataclass(frozen=True)
class TreeShape:
    """What :meth:`BTree.check_invariants` found: how many nodes of each
    kind the tree has and what share of their pages they fill."""

    entries: int
    height: int
    leaves: int
    interior_nodes: int
    #: mean ``serialized_size / page_size`` over the nodes of a kind
    #: (0.0 when there is none).
    leaf_fill: float
    interior_fill: float

    @property
    def nodes(self) -> int:
        """Pages the tree's nodes occupy (the meta page not counted)."""
        return self.leaves + self.interior_nodes

    def __str__(self) -> str:
        return (
            f"{self.entries} entries on {self.leaves} leaves, "
            f"{self.leaf_fill:.0%} full, height {self.height} "
            f"({self.interior_nodes} interior nodes, "
            f"{self.interior_fill:.0%} full)"
        )


class BTree:
    """A B-tree rooted in ``pager`` page 0 (the meta page)."""

    def __init__(self, pager: Pager):
        self.pager = pager
        self._root = 0
        self._height = 0
        self._count = 0
        self._min_node_bytes = pager.page_size // 4
        #: a merge must leave room for the next insert, or it is undone
        #: by a split straight away.
        self._max_merged_bytes = pager.page_size * 3 // 4
        self._max_entry = max_entry_bytes(pager.page_size)
        #: bytes -> parsed Node template.  Keyed by page *value*: a
        #: page whose bytes changed misses, and two pages with identical
        #: bytes share one template, which is why a template is never
        #: mutated (the write paths build fresh nodes from it).  A pager
        #: that keeps handing back the same bytes object makes a probe
        #: cheap: ``bytes`` caches its hash.
        self._parse_memo: dict[bytes, Node] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, pager: Pager) -> "BTree":
        """Format a fresh tree: empty root leaf + meta page."""
        tree = cls(pager)
        root = pager.allocate()
        tree._root = root
        tree._height = 1
        tree._count = 0
        tree._write_node(root, Node(kind=LEAF))
        tree._write_meta()
        return tree

    @classmethod
    def open(cls, pager: Pager) -> "BTree":
        """Open an existing tree by reading its meta page."""
        tree = cls(pager)
        tree._read_meta()
        return tree

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------
    def get(self, key: bytes) -> bytes | None:
        """Return the value for ``key`` or ``None``."""
        # Point lookups dominate name-table traffic; the descent binds
        # the pager read once and inlines the parse-memo hit (keep in
        # sync with ``_load_template``).
        read = self.pager.read
        memo = self._parse_memo
        page_no = self._root
        while True:
            data = read(page_no)
            node = memo.get(data)
            if node is None:
                node = self._parse(data)
            if node.kind == LEAF:
                break
            page_no = node.children[bisect.bisect_right(node.keys, key)]
        keys = node.keys
        index = bisect.bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            return node.values[index]
        return None

    def insert(self, key: bytes, value: bytes) -> bool:
        """Insert or replace; returns True if the key was new."""
        if len(key) + len(value) > self._max_entry:
            raise ValueError(
                f"entry of {len(key) + len(value)} bytes exceeds the "
                f"{self._max_entry}-byte limit for {self.pager.page_size}-byte pages"
            )
        was_new, split = self._insert(self._root, key, value)
        if split is not None:
            separator, right_page = split
            new_root = self.pager.allocate()
            self._write_node(
                new_root,
                Node(
                    kind=INTERNAL,
                    keys=[separator],
                    children=[self._root, right_page],
                ),
            )
            self._root = new_root
            self._height += 1
        if was_new:
            self._count += 1
        if was_new or split is not None:
            self._write_meta()
        return was_new

    def delete(self, key: bytes) -> bool:
        """Delete ``key``; returns True if it existed."""
        deleted = self._delete(self._root, key)
        if not deleted:
            return False
        root = self._load_template(self._root)
        if root.kind != LEAF and not root.keys:
            # The root collapsed to a single child; shrink the tree.
            old_root = self._root
            self._root = root.children[0]
            self._height -= 1
            self.pager.free(old_root)
        self._count -= 1
        self._write_meta()
        return True

    # ``benchmarks/e2e`` counts a lookup's entry points by these two
    # names, so they stay, as views of :meth:`scan_leaves`; nothing in
    # the program calls them.
    def scan(self, start: bytes | None = None) -> Iterator[tuple[bytes, bytes]]:
        """Entries from ``start`` on, in key order."""
        for keys, values in self.scan_leaves(start):
            yield from zip(keys, values)

    def scan_prefix(self, prefix: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Entries whose key begins with ``prefix``."""
        for key, value in self.scan(prefix):
            if not key.startswith(prefix):
                return
            yield key, value

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    # ------------------------------------------------------------------
    # meta page
    # ------------------------------------------------------------------
    def _write_meta(self) -> None:
        data = _META.pack(_META_MAGIC, self._root, self._height, self._count)
        self.pager.write(0, data.ljust(self.pager.page_size, b"\x00"))

    def _read_meta(self) -> None:
        reader = Unpacker(self.pager.read(0))
        magic = reader.u32()
        if magic != _META_MAGIC:
            raise CorruptMetadata(f"bad B-tree meta magic {magic:#x}")
        self._root = reader.u32()
        self._height = reader.u32()
        self._count = reader.u64()

    # ------------------------------------------------------------------
    # node I/O
    # ------------------------------------------------------------------
    def _load_template(self, page_no: int) -> Node:
        """Shared parse-memo template for a page (never mutate it)."""
        data = self.pager.read(page_no)
        template = self._parse_memo.get(data)
        if template is None:
            template = self._parse(data)
        return template

    def _parse(self, data: bytes) -> Node:
        """Memo-miss half of :meth:`_load_template`: parse page bytes the
        memo has not seen and remember the template.  The hot descent
        loops inline the read + memo hit and fall back here, so keep
        this in sync with ``_load_template``."""
        memo = self._parse_memo
        if len(memo) >= _PARSE_MEMO_LIMIT:
            del memo[next(iter(memo))]
        template = memo[data] = Node.from_bytes(data)
        return template

    def _write_node(self, page_no: int, node: Node) -> None:
        self.pager.write(page_no, node.to_bytes(self.pager.page_size))

    # ------------------------------------------------------------------
    # insert
    # ------------------------------------------------------------------
    def _insert(
        self, page_no: int, key: bytes, value: bytes
    ) -> tuple[bool, tuple[bytes, int] | None]:
        # Descend on the shared template; materialise a mutable copy
        # only at the level that actually changes (leaves always do,
        # internal nodes only when a split bubbles up).
        template = self._load_template(page_no)
        if template.kind == LEAF:
            node = Node(
                LEAF, template.keys.copy(), template.values.copy(), []
            )
            index = bisect.bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.values[index] = value
                was_new = False
            else:
                node.keys.insert(index, key)
                node.values.insert(index, value)
                was_new = True
        else:
            index = bisect.bisect_right(template.keys, key)
            was_new, split = self._insert(
                template.children[index], key, value
            )
            if split is None:
                return was_new, None
            # The recursion only wrote descendant pages, so the
            # template still matches this page's bytes; copy it now.
            node = Node(
                INTERNAL,
                template.keys.copy(),
                [],
                template.children.copy(),
            )
            separator, right_page = split
            node.keys.insert(index, separator)
            node.children.insert(index + 1, right_page)

        if node.fits(self.pager.page_size):
            self._write_node(page_no, node)
            return was_new, None
        return was_new, self._split_and_write(page_no, node, index)

    def _split_and_write(
        self, page_no: int, node: Node, slot: int | None
    ) -> tuple[bytes, int]:
        """Split an oversized node in two; returns (separator, right
        page).  ``slot`` is the key slot whose insert overflowed it
        (None: split evenly wherever it landed)."""
        left, separator, right = _split_node(node, slot)
        right_page = self.pager.allocate()
        self._write_node(page_no, left)
        self._write_node(right_page, right)
        return separator, right_page

    # ------------------------------------------------------------------
    # delete
    # ------------------------------------------------------------------
    def _delete(self, page_no: int, key: bytes) -> bool:
        # Same copy-on-write shape as _insert: mutable copies are built
        # only for levels that change (the leaf, and the parent once
        # the child delete succeeded and may need rebalancing).
        template = self._load_template(page_no)
        keys = template.keys
        if template.kind == LEAF:
            index = bisect.bisect_left(keys, key)
            if index >= len(keys) or keys[index] != key:
                return False
            node = Node(LEAF, keys.copy(), template.values.copy(), [])
            del node.keys[index]
            del node.values[index]
            self._write_node(page_no, node)
            return True

        child_index = bisect.bisect_right(keys, key)
        if not self._delete(template.children[child_index], key):
            return False
        node = Node(INTERNAL, keys.copy(), [], template.children.copy())
        if self._fix_child(node, child_index):
            self._write_node(page_no, node)
        return True

    def _fix_child(self, parent: Node, child_index: int) -> bool:
        """Rebalance ``parent.children[child_index]`` if underfull.

        Returns True when the parent itself was modified.  Merges the
        child with a sibling when the combination fills at most three
        quarters of a page, otherwise redistributes entries evenly
        between the two.
        """
        child_page = parent.children[child_index]
        # Templates suffice throughout: the rebalance builds fresh
        # nodes (_merge_nodes / _split_node never mutate their inputs),
        # so nothing here needs a mutable copy except ``parent``,
        # which the caller already materialised.
        child = self._load_template(child_page)
        if child.serialized_size() >= self._min_node_bytes and child.keys:
            return False
        if len(parent.children) == 1:
            return False  # nothing to balance against (root's only child)

        if child_index + 1 < len(parent.children):
            left_index = child_index
        else:
            left_index = child_index - 1
        left_page = parent.children[left_index]
        right_page = parent.children[left_index + 1]
        left = child if left_page == child_page else self._load_template(left_page)
        right = child if right_page == child_page else self._load_template(right_page)
        separator = parent.keys[left_index]

        merged = _merge_nodes(left, separator, right)
        if merged.serialized_size() <= self._max_merged_bytes:
            self._write_node(left_page, merged)
            self.pager.free(right_page)
            del parent.keys[left_index]
            del parent.children[left_index + 1]
            return True

        new_left, new_separator, new_right = _split_node(merged)
        if (
            len(new_separator) > len(separator)
            and parent.serialized_size() - len(separator) + len(new_separator)
            > self.pager.page_size
        ):
            # A delete never splits the parent: when the separator the
            # even split would hand it does not fit, the pair stays as
            # it is (the child underfull) rather than overflow the page.
            return False
        self._write_node(left_page, new_left)
        self._write_node(right_page, new_right)
        parent.keys[left_index] = new_separator
        return True

    # ------------------------------------------------------------------
    # scan
    # ------------------------------------------------------------------
    def scan_leaves(
        self, start: bytes | None = None, stop: bytes | None = None
    ) -> Iterator[tuple[list[bytes], list[bytes]]]:
        """Yield (keys, values) per leaf for keys in ``[start, stop)``,
        in key order.

        The tree's one range walk: listings, version lookups and
        recovery's fallback walk all read their key range through it,
        one generator resume per *leaf* rather than per entry.  The
        yielded lists belong to the shared parse templates — callers
        must never mutate them.

        ``stop`` bounds the descent: a subtree whose keys are all
        ``>= stop`` is never read.  At each interior node where the scan
        is about to visit two or more children, they are handed, in key
        order, to ``pager.prefetch`` before the first of them is read (a
        lone child is no transfer to plan: it is read as the demand miss
        it would be anyway, which is what a version lookup does at every
        level).  The reads themselves (and so the pager's per-node
        accounting) are the same with or without a pager that acts on
        the hint.
        """
        stack: list[tuple[int, bytes | None]] = [(self._root, start)]
        read = self.pager.read
        prefetch = self.pager.prefetch
        memo = self._parse_memo
        while stack:
            page_no, start = stack.pop()
            # _load_template inlined (memo-hit path); keep in sync.
            data = read(page_no)
            node = memo.get(data)
            if node is None:
                node = self._parse(data)
            keys = node.keys
            if node.kind == LEAF:
                first = 0 if start is None else bisect.bisect_left(keys, start)
                last = (
                    len(keys) if stop is None
                    else bisect.bisect_left(keys, stop)
                )
                if first == 0 and last == len(keys):
                    yield keys, node.values
                else:
                    yield keys[first:last], node.values[first:last]
                continue
            # children[i] holds keys in [keys[i-1], keys[i]): the scan
            # visits exactly children[first .. last].
            first = 0 if start is None else bisect.bisect_right(keys, start)
            children = node.children
            last = (
                len(children) - 1 if stop is None
                else bisect.bisect_left(keys, stop)
            )
            if last > first:
                prefetch(children[first : last + 1])
            for index in range(last, first, -1):
                stack.append((children[index], None))
            stack.append((children[first], start))

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def check_invariants(self) -> TreeShape:
        """Verify structural invariants and measure the tree, in one walk
        of every node (each one a pager read).  Raises CorruptMetadata
        on any violation; else returns the node counts and mean page
        fill.  A diagnostic for tests, ``repro verify`` and ``repro
        stats``, never called from an operation."""
        nodes = {LEAF: 0, INTERNAL: 0}
        used = {LEAF: 0, INTERNAL: 0}
        count = self._check(self._root, None, None, 1, nodes, used)
        if count != self._count:
            raise CorruptMetadata(
                f"meta count {self._count} != actual entries {count}"
            )
        page_size = self.pager.page_size
        return TreeShape(
            entries=self._count,
            height=self._height,
            leaves=nodes[LEAF],
            interior_nodes=nodes[INTERNAL],
            leaf_fill=used[LEAF] / (nodes[LEAF] * page_size),
            interior_fill=(
                used[INTERNAL] / (nodes[INTERNAL] * page_size)
                if nodes[INTERNAL] else 0.0
            ),
        )

    def _check(
        self,
        page_no: int,
        low: bytes | None,
        high: bytes | None,
        depth: int,
        nodes: dict[int, int],
        used: dict[int, int],
    ) -> int:
        node = self._load_template(page_no)
        size = node.serialized_size()
        if size > self.pager.page_size:
            raise CorruptMetadata(f"page {page_no} oversized")
        nodes[node.kind] += 1
        used[node.kind] += size
        if node.keys != sorted(node.keys):
            raise CorruptMetadata(f"page {page_no} keys out of order")
        if len(set(node.keys)) != len(node.keys):
            raise CorruptMetadata(f"page {page_no} duplicate keys")
        for key in node.keys:
            if low is not None and key < low:
                raise CorruptMetadata(f"page {page_no} key below bound")
            if high is not None and key >= high:
                raise CorruptMetadata(f"page {page_no} key above bound")
        if node.is_leaf:
            if depth != self._height:
                raise CorruptMetadata(
                    f"leaf {page_no} at depth {depth}, height {self._height}"
                )
            return len(node.keys)
        if not node.keys and page_no == self._root:
            raise CorruptMetadata("internal root with no keys")
        total = 0
        bounds = [low, *node.keys, high]
        for index, child in enumerate(node.children):
            total += self._check(
                child, bounds[index], bounds[index + 1], depth + 1, nodes, used
            )
        return total

    def depth(self) -> int:
        """Current tree height (1 = a single leaf)."""
        return self._height


# ----------------------------------------------------------------------
# node surgery shared by split and rebalance
# ----------------------------------------------------------------------
def _split_node(
    node: Node, slot: int | None = None
) -> tuple[Node, bytes, Node]:
    """Split ``node`` in two; returns (left, separator, right).

    The halves are of roughly equal serialized size, unless ``slot`` —
    the key slot an insert has just filled — is the node's last: keys
    arriving in ascending order would never touch the left half again,
    so the left node keeps every key it had and the right one starts
    with the new key alone.  For leaves the separator is the first
    right key (and stays in the leaf); for internal nodes the
    separator is promoted out.
    """
    last = len(node.keys) - 1
    if node.is_leaf:
        if slot == last and slot > 0:
            split = slot
        else:
            split = _even_split_index(
                [4 + len(k) + len(v) for k, v in zip(node.keys, node.values)]
            )
        left = Node(
            kind=LEAF, keys=node.keys[:split], values=node.values[:split]
        )
        right = Node(
            kind=LEAF, keys=node.keys[split:], values=node.values[split:]
        )
        return left, right.keys[0], right

    if slot == last and slot > 1:
        split = slot - 1
    else:
        split = _even_split_index([6 + len(k) for k in node.keys])
        # Promote keys[split]; it must leave at least one key on each side.
        split = min(max(split, 1), len(node.keys) - 1)
    left = Node(
        kind=INTERNAL,
        keys=node.keys[:split],
        children=node.children[: split + 1],
    )
    right = Node(
        kind=INTERNAL,
        keys=node.keys[split + 1 :],
        children=node.children[split + 1 :],
    )
    return left, node.keys[split], right


def _merge_nodes(left: Node, separator: bytes, right: Node) -> Node:
    """Combine two siblings (with their parent separator, for internal
    nodes) into a single possibly-oversized node."""
    if left.kind != right.kind:
        raise CorruptMetadata("sibling kind mismatch")
    if left.is_leaf:
        return Node(
            kind=LEAF,
            keys=left.keys + right.keys,
            values=left.values + right.values,
        )
    return Node(
        kind=INTERNAL,
        keys=left.keys + [separator] + right.keys,
        children=left.children + right.children,
    )


def _even_split_index(entry_sizes: list[int]) -> int:
    """Index splitting ``entry_sizes`` into halves of similar total size;
    both halves are guaranteed non-empty."""
    if len(entry_sizes) < 2:
        raise CorruptMetadata("cannot split a node with fewer than 2 entries")
    total = sum(entry_sizes)
    running = 0
    for index, size in enumerate(entry_sizes):
        running += size
        if running >= total / 2:
            split = index + 1
            break
    return min(max(split, 1), len(entry_sizes) - 1)
