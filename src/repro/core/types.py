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

import struct
from dataclasses import dataclass, field, replace
from enum import IntEnum

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

    def __contains__(self, sector: int) -> bool:
        return self.start <= sector < self.end


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

    def extents_for(self, page: int, count: int) -> list[Run]:
        """Contiguous disk extents covering pages [page, page+count)."""
        out: list[Run] = []
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
            if skip == 0 and take == run.count:
                # Whole run covered: Run is frozen, so share it rather
                # than building an identical copy.
                out.append(run)
            else:
                out.append(Run(run.start + skip, take))
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

    def copy(self) -> "RunTable":
        """Shallow-independent copy of the run list."""
        return RunTable(list(self.runs))


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


#: name -> validated encoding; every entry point validates its name
#: argument, and workloads reuse a small set of names heavily.  Only
#: names that pass validation are memoised, so error paths replay.
_NAME_MEMO: dict[str, bytes] = {}
_NAME_MEMO_LIMIT = 8192


def validate_name(name: str) -> bytes:
    """Check and encode a file name for use as a B-tree key component."""
    cached = _NAME_MEMO.get(name)
    if cached is not None:
        return cached
    encoded = name.encode("utf-8")
    if not encoded:
        raise FsError("empty file name")
    if len(encoded) > MAX_NAME_BYTES:
        raise FsError(f"file name longer than {MAX_NAME_BYTES} bytes: {name!r}")
    if b"\x00" in encoded:
        raise FsError("file names may not contain NUL")
    if len(_NAME_MEMO) >= _NAME_MEMO_LIMIT:
        _NAME_MEMO.clear()
    _NAME_MEMO[name] = encoded
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


#: parse memo for name-table keys: every ``list`` re-decodes the same
#: keys, and the decoded triple is an immutable tuple — safe to share.
_KEY_MEMO: dict[bytes, tuple[str, int, int]] = {}
_KEY_MEMO_LIMIT = 8192


def decode_key(key: bytes) -> tuple[str, int, int]:
    """Parse a name-table key into (name, version, chunk)."""
    decoded = _KEY_MEMO.get(key)
    if decoded is not None:
        return decoded
    nul = key.rfind(b"\x00", 0, len(key) - 4)
    if nul < 0 or len(key) < nul + 5:
        raise CorruptMetadata(f"malformed name-table key {key!r}")
    name = key[:nul].decode("utf-8")
    version = int.from_bytes(key[nul + 1 : nul + 3], "big")
    chunk = int.from_bytes(key[nul + 3 : nul + 5], "big")
    if len(_KEY_MEMO) >= _KEY_MEMO_LIMIT:
        _KEY_MEMO.clear()
    decoded = (name, version, chunk)
    _KEY_MEMO[key] = decoded
    return decoded


# ----------------------------------------------------------------------
# B-tree value codecs
# ----------------------------------------------------------------------
def _pack_runs(packer: Packer, runs: list[Run]) -> None:
    packer.u8(len(runs))
    for run in runs:
        packer.u32(run.start)
        packer.u16(run.count)


def encode_main_entry(props: FileProperties, runs: RunTable) -> bytes:
    """Serialize the chunk-0 name-table entry for a file.

    Emits exactly the bytes the :class:`Packer`-based reference
    (:func:`_reference_encode_main_entry`) would, via precompiled
    structs — this encoder runs on every name-table update.
    """
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


def _reference_encode_main_entry(props: FileProperties, runs: RunTable) -> bytes:
    """The original Packer-based encoder, kept as the property-test
    reference for the struct fast path above."""
    inline = runs.runs[:MAX_INLINE_RUNS]
    packer = Packer()
    packer.u8(int(props.kind))
    packer.u64(props.uid)
    packer.u64(props.byte_size)
    packer.f64(props.create_time_ms)
    packer.f64(props.last_used_ms)
    packer.u8(props.keep)
    packer.u32(props.leader_addr)
    packer.u16(len(runs.runs))
    packer.string(props.remote_target, max_len=MAX_NAME_BYTES)
    _pack_runs(packer, inline)
    return packer.bytes()


#: fixed-width prefix of a chunk-0 entry, matching the Packer calls in
#: :func:`encode_main_entry` field for field.
_MAIN_PREFIX = struct.Struct("<BQQddBIH")
#: one (start u32, count u16) run record.
_RUN_RECORD = struct.Struct("<IH")

#: parse memo for chunk-0 entries, keyed by entry bytes: every ``list``
#: re-decodes the same entries, so the decoded FileProperties is cached
#: whole and only the RunTable wrapper (whose ``runs`` list callers
#: extend and truncate) is rebuilt per call.  FileProperties is never
#: mutated in place — updates go through ``with_updates`` — and Run
#: objects are frozen, so both are safely shared across decodes.
_MAIN_MEMO: dict[bytes, tuple] = {}
_MAIN_MEMO_LIMIT = 4096


def decode_main_entry(
    name: str, version: int, value: bytes
) -> tuple[FileProperties, RunTable, int]:
    """Decode a chunk-0 entry.

    Returns (properties, inline run table, total run count); when the
    total exceeds the inline count, the caller must read continuation
    chunks to complete the run table.

    Parsed with precompiled structs rather than an :class:`Unpacker`
    and memoised by entry bytes: this runs once per entry of every
    ``enumerate``, making it one of the hottest metadata parses in the
    system.
    """
    fields = _MAIN_MEMO.get(value)
    if fields is None:
        try:
            (
                kind_byte,
                uid,
                byte_size,
                create_time,
                last_used,
                keep,
                leader_addr,
                total_runs,
            ) = _MAIN_PREFIX.unpack_from(value, 0)
            offset = _MAIN_PREFIX.size
            name_len = value[offset]
            offset += 1
            if offset + name_len > len(value):
                raise struct.error
            remote_target = value[offset:offset + name_len].decode("utf-8")
            offset += name_len
            run_count = value[offset]
            offset += 1
            unpack_run = _RUN_RECORD.unpack_from
            if offset + 6 * run_count > len(value):
                raise struct.error
            run_tuple = tuple(
                Run(*unpack_run(value, offset + 6 * index))
                for index in range(run_count)
            )
        except (struct.error, IndexError):
            raise CorruptMetadata(
                f"truncated main entry of {len(value)} bytes"
            ) from None
        # Positional construction: this pairs with the field order of
        # FileProperties and skips per-call keyword processing.
        props = FileProperties(
            name,
            version,
            uid,
            FileKind(kind_byte),
            byte_size,
            create_time,
            last_used,
            keep,
            leader_addr,
            remote_target,
        )
        fields = (props, run_tuple, total_runs)
        if len(_MAIN_MEMO) >= _MAIN_MEMO_LIMIT:
            _MAIN_MEMO.clear()
        _MAIN_MEMO[value] = fields
    props, run_tuple, total_runs = fields
    if props.name != name or props.version != version:
        # Same entry bytes under a different key (the value encodes
        # no name/version): rebuild the properties for this key.
        props = FileProperties(
            name,
            version,
            props.uid,
            props.kind,
            props.byte_size,
            props.create_time_ms,
            props.last_used_ms,
            props.keep,
            props.leader_addr,
            props.remote_target,
        )
    return props, RunTable(list(run_tuple)), total_runs


def decode_main_props(name: str, version: int, value: bytes) -> FileProperties:
    """Properties-only decode of a chunk-0 entry.

    ``list`` discards run tables, so this skips materialising a fresh
    :class:`RunTable` per entry; a memo hit for the listing's own key
    returns the shared (never mutated in place) properties object.
    """
    fields = _MAIN_MEMO.get(value)
    if fields is None:
        props, _runs, _total = decode_main_entry(name, version, value)
        return props
    props = fields[0]
    if props.name != name or props.version != version:
        props = FileProperties(
            name,
            version,
            props.uid,
            props.kind,
            props.byte_size,
            props.create_time_ms,
            props.last_used_ms,
            props.keep,
            props.leader_addr,
            props.remote_target,
        )
    return props


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
