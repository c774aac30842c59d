"""Core value types of FSD: file ids, runs, properties, entry codecs.

Table 1 of the paper lists what FSD keeps in its file name table for a
local file: text name, version, keep, uid, run table, byte size, create
time.  Those are exactly the fields of :class:`FileProperties`, and
:func:`encode_main_entry`/:func:`decode_main_entry` are their one-sector
B-tree representation.

Unique identifiers are ``(boot_count << 40) | sequence`` so that a
freshly booted volume can hand out uids without logging a counter: no
two boots share a boot count, so uniqueness survives any crash.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field, replace
from enum import IntEnum
from itertools import starmap
from typing import NamedTuple

from repro.errors import CorruptMetadata, FsError
from repro.serial import Packer

#: Longest permitted file name (bytes of UTF-8).
MAX_NAME_BYTES = 64
#: Runs stored inline in the main name-table entry; further runs spill
#: into continuation entries (chunk >= 1).
MAX_INLINE_RUNS = 16
#: Runs per continuation entry (sized so key + value fit a 512-byte
#: B-tree page even with a maximum-length name).
MAX_RUNS_PER_CHUNK = 24


class FileKind(IntEnum):
    """The three kinds of name-table entries (paper §4): local files,
    symbolic links to remote files, and cached copies of remote files."""

    LOCAL = 1
    SYMLINK = 2
    CACHED = 3


@dataclass(frozen=True, slots=True)
class Run:
    """A contiguous extent of ``count`` sectors starting at ``start``."""

    start: int
    count: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.count <= 0:
            raise ValueError(f"bad run ({self.start}, {self.count})")

    @property
    def end(self) -> int:
        return self.start + self.count


@dataclass(slots=True)
class RunTable:
    """Maps logical file pages to disk sectors via a list of runs."""

    runs: list[Run] = field(default_factory=list)

    @property
    def total_sectors(self) -> int:
        return sum(run.count for run in self.runs)

    def sector_of_page(self, page: int) -> int:
        """Disk sector holding logical page ``page``."""
        remaining = page
        for run in self.runs:
            if remaining < run.count:
                return run.start + remaining
            remaining -= run.count
        raise FsError(f"page {page} beyond run table ({self.total_sectors})")

    def extents_for(self, page: int, count: int) -> list[tuple[int, int]]:
        """Contiguous disk extents covering pages [page, page+count), as
        ``(start, count)`` pairs: slices of runs already validated, so
        no :class:`Run` is built per read."""
        out: list[tuple[int, int]] = []
        remaining = count
        skip = page
        for run in self.runs:
            if remaining <= 0:
                break
            if skip >= run.count:
                skip -= run.count
                continue
            avail = run.count - skip
            take = remaining if remaining < avail else avail
            out.append((run.start + skip, take))
            remaining -= take
            skip = 0
        if remaining > 0:
            cursor = page + count - remaining
            raise FsError(
                f"page {cursor} beyond run table ({self.total_sectors})"
            )
        return out

    def append(self, run: Run) -> None:
        """Append a run, coalescing with the last when adjacent."""
        if self.runs and self.runs[-1].end == run.start:
            last = self.runs[-1]
            self.runs[-1] = Run(last.start, last.count + run.count)
        else:
            self.runs.append(run)

    def truncate_sectors(self, keep_sectors: int) -> list[Run]:
        """Drop sectors beyond ``keep_sectors``; returns the freed runs."""
        freed: list[Run] = []
        kept: list[Run] = []
        budget = keep_sectors
        for run in self.runs:
            if budget >= run.count:
                kept.append(run)
                budget -= run.count
            elif budget > 0:
                kept.append(Run(run.start, budget))
                freed.append(Run(run.start + budget, run.count - budget))
                budget = 0
            else:
                freed.append(run)
        self.runs = kept
        return freed


@dataclass(slots=True)
class FileProperties:
    """Everything FSD's name table records about one file version."""

    name: str
    version: int
    uid: int
    kind: FileKind = FileKind.LOCAL
    byte_size: int = 0
    create_time_ms: float = 0.0
    last_used_ms: float = 0.0
    keep: int = 2
    leader_addr: int = 0
    remote_target: str = ""  # symlink / cached-copy origin

    def with_updates(self, **kwargs) -> "FileProperties":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)


def validate_name(name: str) -> bytes:
    """Check and encode a file name for use as a B-tree key component."""
    encoded = name.encode("utf-8")
    if not encoded:
        raise FsError("empty file name")
    if len(encoded) > MAX_NAME_BYTES:
        raise FsError(f"file name longer than {MAX_NAME_BYTES} bytes: {name!r}")
    if b"\x00" in encoded:
        raise FsError("file names may not contain NUL")
    return encoded


# ----------------------------------------------------------------------
# B-tree key codec
#
# key = name_bytes . NUL . version(be16) . chunk(be16)
#
# Big-endian integers keep byte order == numeric order, so all versions
# of a name are adjacent and a main entry (chunk 0) immediately precedes
# its run-table continuation entries.
# ----------------------------------------------------------------------
def encode_key(name: str, version: int, chunk: int = 0) -> bytes:
    """Serialize a name-table key (sorts by name, version, chunk)."""
    encoded = validate_name(name)
    if not (0 <= version <= 0xFFFF):
        raise FsError(f"version {version} out of range")
    if not (0 <= chunk <= 0xFFFF):
        raise FsError(f"chunk {chunk} out of range")
    return (
        encoded
        + b"\x00"
        + version.to_bytes(2, "big")
        + chunk.to_bytes(2, "big")
    )


# ----------------------------------------------------------------------
# B-tree key ranges: what a ``BTree.scan_leaves(start, stop)`` reads.
# ----------------------------------------------------------------------
def version_range(name: str) -> tuple[bytes, bytes]:
    """Key range ``[start, stop)`` holding every version (and run-table
    chunk) of ``name`` and nothing else.  A key of any other name that
    begins with ``name`` goes on with a byte >= 0x01 (names hold no
    NUL), so it sorts at or above ``name . 0x01``."""
    encoded = validate_name(name)
    return encoded + b"\x00", encoded + b"\x01"


def prefix_range(prefix: str) -> tuple[bytes | None, bytes | None]:
    """Key range ``[start, stop)`` holding every entry whose name
    begins with ``prefix``; ``(None, None)`` for the whole table.
    0xFF occurs in no UTF-8 string, so ``prefix + 0xFF`` sorts above
    every key that extends the prefix and below every later key."""
    if not prefix:
        return None, None
    start = prefix.encode("utf-8")
    return start, start + b"\xff"


def parse_key(key: bytes) -> tuple[str, int, int]:
    """Parse a name-table key into (name, version, chunk).  Raises
    :class:`CorruptMetadata` on a malformed key and
    ``UnicodeDecodeError`` on a name that is not UTF-8."""
    nul = key.rfind(b"\x00", 0, len(key) - 4)
    if nul < 0 or len(key) < nul + 5:
        raise CorruptMetadata(f"malformed name-table key {key!r}")
    return (
        key[:nul].decode("utf-8"),
        int.from_bytes(key[nul + 1 : nul + 3], "big"),
        int.from_bytes(key[nul + 3 : nul + 5], "big"),
    )


# ----------------------------------------------------------------------
# B-tree value codecs
# ----------------------------------------------------------------------
def _pack_runs(packer: Packer, runs: list[Run]) -> None:
    packer.u8(len(runs))
    for run in runs:
        packer.u32(run.start)
        packer.u16(run.count)


def encode_main_entry(props: FileProperties, runs: RunTable) -> bytes:
    """Serialize the chunk-0 name-table entry for a file: the fields of
    :class:`MainEntry`, in its order, via precompiled structs — this
    encoder runs on every name-table update."""
    inline = runs.runs[:MAX_INLINE_RUNS]
    target = props.remote_target.encode("utf-8")
    if len(target) > MAX_NAME_BYTES:
        raise ValueError(
            f"string longer than {MAX_NAME_BYTES} bytes: "
            f"{props.remote_target!r}"
        )
    pack_run = _RUN_RECORD.pack
    parts = [
        _MAIN_PREFIX.pack(
            int(props.kind),
            props.uid,
            props.byte_size,
            props.create_time_ms,
            props.last_used_ms,
            props.keep,
            props.leader_addr,
            len(runs.runs),
        ),
        bytes((len(target),)),
        target,
        bytes((len(inline),)),
    ]
    parts.extend(pack_run(run.start, run.count) for run in inline)
    return b"".join(parts)


#: fixed-width prefix of a chunk-0 entry: kind, uid, byte size, the two
#: times, keep, leader address and total run count.
_MAIN_PREFIX = struct.Struct("<BQQddBIH")
#: one (start u32, count u16) run record.
_RUN_RECORD = struct.Struct("<IH")

#: where a chunk-0 entry's remote-target length byte sits.
_TARGET_AT = _MAIN_PREFIX.size
#: kind byte -> kind; any other byte is refused as ``FileKind`` refuses it.
_KIND_OF_BYTE = {int(kind): kind for kind in FileKind}


@functools.cache
def _run_records(count: int) -> struct.Struct:
    """The struct of ``count`` inline (start, count) run records (a
    count is one byte, so at most 256 are ever built)."""
    return struct.Struct("<" + "IH" * count)


class MainEntry(NamedTuple):
    """A chunk-0 entry's fields, as :func:`parse_main_entry` reads them."""

    kind: FileKind
    uid: int
    byte_size: int
    create_time_ms: float
    last_used_ms: float
    keep: int
    leader_addr: int
    #: runs in the whole table; more than ``len(runs)`` means the rest
    #: are in continuation chunks.
    total_runs: int
    remote_target: str
    #: the inline runs as ``(start, count)`` pairs.
    runs: tuple[tuple[int, int], ...]

    def properties(self, name: str, version: int) -> FileProperties:
        """The entry's properties under its key's name and version."""
        # Positional construction: this pairs with the field order of
        # FileProperties and skips per-call keyword processing.
        return FileProperties(
            name, version, self.uid, self.kind, self.byte_size,
            self.create_time_ms, self.last_used_ms, self.keep,
            self.leader_addr, self.remote_target,
        )


def parse_main_entry(value: bytes) -> MainEntry:
    """The one checked parse of a chunk-0 entry's bytes.

    Raises :class:`CorruptMetadata` on a truncated entry, and
    ``ValueError`` on a bad remote-target encoding, a zero-length run or
    a bad kind byte, in that order.  :func:`decode_main_entry` builds
    the properties and run table on top of it, a listing the properties
    alone (:meth:`MainEntry.properties`); the recovery sweep and
    the leader veto take only the leader, uid and runs, and build
    nothing.  Structs, one per inline run count, and no per-run Python:
    the sweep parses every entry of the table on every rebuild.
    """
    try:
        prefix = _MAIN_PREFIX.unpack_from(value)
        # ``runs_at`` is the inline run count's byte, after the target.
        runs_at = _TARGET_AT + 1 + value[_TARGET_AT]
        if runs_at > len(value):
            raise struct.error
        remote_target = value[_TARGET_AT + 1:runs_at].decode("utf-8")
        flat = _run_records(value[runs_at]).unpack_from(value, runs_at + 1)
    except (struct.error, IndexError):
        raise CorruptMetadata(
            f"truncated main entry of {len(value)} bytes"
        ) from None
    counts = flat[1::2]
    if 0 in counts:
        raise ValueError(f"bad run ({flat[2 * counts.index(0)]}, 0)")
    kind = _KIND_OF_BYTE.get(prefix[0])
    if kind is None:
        raise ValueError(f"{prefix[0]} is not a valid {FileKind.__name__}")
    return MainEntry(
        kind, *prefix[1:], remote_target, tuple(zip(flat[::2], counts))
    )


def decode_main_entry(
    name: str, version: int, value: bytes
) -> tuple[FileProperties, RunTable, int]:
    """Decode a chunk-0 entry: :func:`parse_main_entry`, and the
    properties and run table built on it (a caller that wants only the
    properties takes :meth:`MainEntry.properties`).

    Returns (properties, inline run table, total run count); when the
    total exceeds the inline count, the caller must read continuation
    chunks to complete the run table.
    """
    entry = parse_main_entry(value)
    return (
        entry.properties(name, version),
        RunTable(list(starmap(Run, entry.runs))),
        entry.total_runs,
    )


def encode_continuation(runs: list[Run]) -> bytes:
    """Serialize a run-table continuation chunk."""
    packer = Packer()
    _pack_runs(packer, runs)
    return packer.bytes()


def decode_continuation(value: bytes) -> list[Run]:
    """Parse a run-table continuation chunk."""
    try:
        count = value[0]
        if 1 + 6 * count > len(value):
            raise struct.error
        unpack_run = _RUN_RECORD.unpack_from
        return [
            Run(*unpack_run(value, 1 + 6 * index)) for index in range(count)
        ]
    except (struct.error, IndexError):
        raise CorruptMetadata(
            f"truncated continuation chunk of {len(value)} bytes"
        ) from None


def make_uid(boot_count: int, sequence: int) -> int:
    """Crash-safe unique id: no persistence needed because boot counts
    never repeat (see module docstring)."""
    return (boot_count << 40) | (sequence & ((1 << 40) - 1))
