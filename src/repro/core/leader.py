"""Leader pages (paper §5.2).

Every FSD file begins with a single leader page, physically the sector
immediately before data page 0.  "The leader page doesn't contain any
information needed for operation, but provides an optional check for
the proper operation of the system" — leader pages and the name table
are different data structures that are mutually checking, the design
that replaced CFS' hardware labels.

Leader verification is piggybacked: the first data access to a file is
almost always page 0, and the leader is its physical predecessor, so
reading the leader "usually costs only the transfer time for a page".

Format v2 makes the leader *self-describing*: besides the mutual-check
fields it records the file's full name, properties and run table
(§5.9's point that the leader is what a scavenger would reconstruct
from).  A whole-body checksum lets a full-volume sweep distinguish a
real leader from data-page bytes that happen to start with the magic.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core.types import FileKind, FileProperties, Run, RunTable
from repro.errors import CorruptMetadata
from repro.serial import Unpacker, checksum

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")

_LEADER_MAGIC = 0x4C454144  # "LEAD"
_LEADER_FORMAT = 2
#: runs cross-checked verbatim against the name table ("preamble of
#: run table"); the full table is covered by the digest.
PREAMBLE_RUNS = 4
#: runs stored verbatim in the leader (for salvage); run tables longer
#: than this are only partially recoverable from the leader alone.
MAX_LEADER_RUNS = 64


#: fixed-width body prefix: uid u64, version u16, kind u8, keep u8,
#: byte_size u64, create_time f64.
_BODY_PREFIX = struct.Struct("<QHBBQd")
#: one (start u32, count u16) stored run.
_RUN_RECORD = struct.Struct("<IH")
#: sector header: magic u32, format u8, payload length u16, crc u32.
_HEADER = struct.Struct("<IBHI")


def _run_table_digest(runs: RunTable) -> int:
    pack_run = _RUN_RECORD.pack
    return checksum(
        b"".join(pack_run(run.start, run.count) for run in runs.runs)
    )


def encode_leader(
    props: FileProperties, runs: RunTable, sector_bytes: int
) -> bytes:
    """Build the leader sector for a file.

    Hand-rolled with precompiled structs (every create/extend rebuilds
    the leader); emits exactly the bytes of the Packer-based layout."""
    name = props.name.encode("utf-8")
    if len(name) > 64:
        raise ValueError(f"string longer than 64 bytes: {props.name!r}")
    stored = runs.runs[:MAX_LEADER_RUNS]
    pack_run = _RUN_RECORD.pack
    parts = [
        _BODY_PREFIX.pack(
            props.uid,
            props.version,
            props.kind.value,
            props.keep,
            props.byte_size,
            props.create_time_ms,
        ),
        bytes((len(name),)),
        name,
        _U16.pack(len(runs.runs)),
        bytes((len(stored),)),
    ]
    parts.extend(pack_run(run.start, run.count) for run in stored)
    parts.append(_U32.pack(_run_table_digest(runs)))
    payload = b"".join(parts)

    data = (
        _HEADER.pack(
            _LEADER_MAGIC, _LEADER_FORMAT, len(payload), checksum(payload)
        )
        + payload
    )
    if len(data) > sector_bytes:
        raise ValueError(
            f"packed structure overflows capacity {sector_bytes}"
        )
    return data.ljust(sector_bytes, b"\x00")


@dataclass
class SalvagedLeader:
    """Everything a leader sector says about its file — the salvager's
    raw material when the name table is gone."""

    name: str
    version: int
    uid: int
    kind: FileKind
    keep: int
    byte_size: int
    create_time_ms: float
    total_runs: int
    runs: RunTable
    run_digest: int

    @property
    def complete_runs(self) -> bool:
        """True when the leader stores the whole run table verbatim."""
        return len(self.runs.runs) == self.total_runs

    @property
    def runs_intact(self) -> bool:
        """True when the stored run table is the whole table and matches
        its digest: a run table salvage may restore the file from."""
        return (
            self.complete_runs
            and _run_table_digest(self.runs) == self.run_digest
        )


def decode_leader(data: bytes) -> SalvagedLeader:
    """Parse a leader sector on its own terms (no name-table entry to
    check against) — the salvage path.  Raises
    :class:`CorruptMetadata` unless the sector is a checksummed,
    well-formed leader.
    """
    reader = Unpacker(data)
    if reader.u32() != _LEADER_MAGIC:
        raise CorruptMetadata("not a leader sector: bad magic")
    if reader.u8() != _LEADER_FORMAT:
        raise CorruptMetadata("leader sector: unknown format version")
    body_len = reader.u16()
    body_sum = reader.u32()
    body = reader.raw(body_len)
    if checksum(body) != body_sum:
        raise CorruptMetadata("leader sector: body checksum mismatch")
    reader = Unpacker(body)
    uid = reader.u64()
    version = reader.u16()
    kind_value = reader.u8()
    keep = reader.u8()
    byte_size = reader.u64()
    create_time_ms = reader.f64()
    name = reader.string()
    total_runs = reader.u16()
    stored_count = reader.u8()
    runs = RunTable()
    for _ in range(stored_count):
        start = reader.u32()
        count = reader.u16()
        runs.append(Run(start, count))
    digest = reader.u32()
    try:
        kind = FileKind(kind_value)
    except ValueError:
        raise CorruptMetadata(
            f"leader sector: unknown file kind {kind_value}"
        ) from None
    return SalvagedLeader(
        name=name,
        version=version,
        uid=uid,
        kind=kind,
        keep=keep,
        byte_size=byte_size,
        create_time_ms=create_time_ms,
        total_runs=total_runs,
        runs=runs,
        run_digest=digest,
    )


def verify_leader(
    data: bytes, props: FileProperties, runs: RunTable
) -> None:
    """Cross-check a leader sector against the name-table entry.

    Raises :class:`CorruptMetadata` on any mismatch — the FSD analogue
    of a CFS label check failure.  Identity (uid, version, name) and
    the run table are checked strictly; mutable properties carried for
    salvage (keep, byte size, times) are not part of the mutual check.
    """
    try:
        leader = decode_leader(data)
    except CorruptMetadata as error:
        raise CorruptMetadata(
            f"leader of {props.name}!{props.version}: {error}"
        ) from None
    if leader.uid != props.uid:
        raise CorruptMetadata(
            f"leader of {props.name}!{props.version}: uid "
            f"{leader.uid:#x} != name table {props.uid:#x}"
        )
    if leader.version != props.version:
        raise CorruptMetadata(
            f"leader of {props.name}: version {leader.version} != "
            f"{props.version}"
        )
    if leader.name != props.name:
        raise CorruptMetadata(
            f"leader name checksum owner {leader.name!r} != "
            f"name table {props.name!r}"
        )
    if leader.total_runs != len(runs.runs):
        raise CorruptMetadata(
            f"leader of {props.name}: {leader.total_runs} runs != "
            f"name table {len(runs.runs)}"
        )
    for index, run in enumerate(leader.runs.runs[:PREAMBLE_RUNS]):
        if index < len(runs.runs):
            other = runs.runs[index]
            if (run.start, run.count) != (other.start, other.count):
                raise CorruptMetadata(
                    f"leader of {props.name}: run preamble mismatch at "
                    f"run {index}"
                )
    if leader.run_digest != _run_table_digest(runs):
        raise CorruptMetadata(
            f"leader of {props.name}: run table checksum mismatch"
        )
