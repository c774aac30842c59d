"""B-tree node representation and its 512-byte-page serialization.

Nodes are small (one disk sector in FSD, two in CFS), so nodes are
fully re-serialized on every write; simplicity beats in-page slot
surgery at this scale, and every byte still round-trips through the
simulated disk.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.errors import CorruptMetadata

LEAF = 1
INTERNAL = 2

#: kind byte + count word.
_NODE_HEADER_BYTES = 3
#: per-entry overhead in a leaf: klen u16 + vlen u16.
_LEAF_ENTRY_OVERHEAD = 4
#: per-key overhead in an internal node: klen u16 + child u32.
_INTERNAL_ENTRY_OVERHEAD = 6
#: leftmost child pointer of an internal node.
_INTERNAL_FIRST_CHILD_BYTES = 4

#: precompiled codecs for the hand-rolled (de)serializers below.
_HEADER = struct.Struct("<BH")
_LEAF_ENTRY = struct.Struct("<HH")
_INTERNAL_ENTRY = struct.Struct("<HI")
_U32 = struct.Struct("<I")


@dataclass(slots=True)
class Node:
    """One B-tree node, either a leaf or an internal node.

    Leaves hold parallel ``keys``/``values``.  Internal nodes hold
    ``keys`` as separators and ``children`` with one more element than
    ``keys``; subtree ``children[i]`` holds keys ``k`` with
    ``keys[i-1] <= k < keys[i]``.

    ``view`` is derived state, never serialized: the tree's owner may
    keep there what it decoded from a parse template's entries (see
    :mod:`repro.btree.btree`).  A node built any other way has none.
    """

    kind: int
    keys: list[bytes] = field(default_factory=list)
    values: list[bytes] = field(default_factory=list)
    children: list[int] = field(default_factory=list)
    view: object = field(default=None, compare=False, repr=False)

    @property
    def is_leaf(self) -> bool:
        return self.kind == LEAF

    # ------------------------------------------------------------------
    # size accounting
    # ------------------------------------------------------------------
    def serialized_size(self) -> int:
        """Exact on-page size of this node when serialized."""
        if self.kind == LEAF:
            payload = sum(
                _LEAF_ENTRY_OVERHEAD + len(k) + len(v)
                for k, v in zip(self.keys, self.values)
            )
            return _NODE_HEADER_BYTES + payload
        payload = sum(_INTERNAL_ENTRY_OVERHEAD + len(k) for k in self.keys)
        return _NODE_HEADER_BYTES + _INTERNAL_FIRST_CHILD_BYTES + payload

    def fits(self, page_size: int) -> bool:
        """True when the node serializes within ``page_size`` bytes."""
        return self.serialized_size() <= page_size

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_bytes(self, page_size: int) -> bytes:
        """Serialize the node, zero-padded to ``page_size``."""
        parts = [_HEADER.pack(self.kind, len(self.keys))]
        if self.kind == LEAF:
            if len(self.keys) != len(self.values):
                raise CorruptMetadata("leaf keys/values length mismatch")
            pack_entry = _LEAF_ENTRY.pack
            for key, value in zip(self.keys, self.values):
                parts.append(pack_entry(len(key), len(value)))
                parts.append(key)
                parts.append(value)
        else:
            if len(self.children) != len(self.keys) + 1:
                raise CorruptMetadata("internal children/keys length mismatch")
            parts.append(_U32.pack(self.children[0]))
            pack_entry = _INTERNAL_ENTRY.pack
            for key, child in zip(self.keys, self.children[1:]):
                parts.append(pack_entry(len(key), child))
                parts.append(key)
        data = b"".join(parts)
        if len(data) > page_size:
            raise ValueError(
                f"packed structure overflows capacity {page_size}"
            )
        return data.ljust(page_size, b"\x00")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Node":
        # Hand-rolled parse: node reads dominate the host-CPU profile,
        # so this avoids the per-field Unpacker calls.  Truncation
        # still raises CorruptMetadata, matching the Unpacker path.
        size = len(data)
        if size < _NODE_HEADER_BYTES:
            raise CorruptMetadata(
                f"truncated structure: wanted {_NODE_HEADER_BYTES} bytes "
                f"at offset 0 of {size}"
            )
        kind = data[0]
        if kind not in (LEAF, INTERNAL):
            raise CorruptMetadata(f"bad node kind byte {kind}")
        count = data[1] | (data[2] << 8)
        offset = _NODE_HEADER_BYTES
        keys: list[bytes] = []
        node = cls(kind=kind, keys=keys)
        try:
            if kind == LEAF:
                values = node.values
                for _ in range(count):
                    klen = data[offset] | (data[offset + 1] << 8)
                    vlen = data[offset + 2] | (data[offset + 3] << 8)
                    offset += 4
                    end = offset + klen + vlen
                    if end > size:
                        raise IndexError
                    keys.append(data[offset:offset + klen])
                    values.append(data[offset + klen:end])
                    offset = end
            else:
                children = node.children
                children.append(
                    int.from_bytes(data[offset:offset + 4], "little")
                )
                offset += 4
                for _ in range(count):
                    klen = data[offset] | (data[offset + 1] << 8)
                    children.append(
                        int.from_bytes(data[offset + 2:offset + 6], "little")
                    )
                    offset += 6
                    end = offset + klen
                    if end > size:
                        raise IndexError
                    keys.append(data[offset:end])
                    offset = end
        except IndexError:
            raise CorruptMetadata(
                f"truncated structure: wanted more bytes at "
                f"offset {offset} of {size}"
            ) from None
        return node


def max_entry_bytes(page_size: int) -> int:
    """Largest key+value a leaf can hold two of (split feasibility)."""
    return (page_size - _NODE_HEADER_BYTES) // 2 - _LEAF_ENTRY_OVERHEAD
