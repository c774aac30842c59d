"""FSD — the paper's contribution: a workstation file system whose
metadata is protected by a physical redo log with group commit."""

from repro.core.allocator import AllocatorStats, RunAllocator
from repro.core.cache import CacheEntry, MetadataCache
from repro.core.fsd import FSD, PAPER, TUNED, FsdFile, FsdOpCounts, MountOptions
from repro.core.group_commit import CommitCoordinator
from repro.core.layout import RootPage, VolumeLayout, VolumeParams
from repro.core.leader import encode_leader, verify_leader
from repro.core.name_table import FsdNameTable, NameTableHome, NameTablePager
from repro.core.recovery import MountReport, read_root, rebuild_vam, replay_log, write_root
from repro.core.remote import CachingFS, RemoteFileServer
from repro.core.verify import VerifyReport, verify_volume
from repro.core.types import (
    FileKind,
    FileProperties,
    Run,
    RunTable,
    make_uid,
)
from repro.core.vam import VolumeAllocationMap
from repro.core.wal import (
    LogRecord,
    LoggedPage,
    PAGE_LEADER,
    PAGE_NAME_TABLE,
    WriteAheadLog,
    record_sectors,
)

__all__ = [
    "AllocatorStats",
    "CacheEntry",
    "CachingFS",
    "CommitCoordinator",
    "FSD",
    "FileKind",
    "FileProperties",
    "FsdFile",
    "FsdNameTable",
    "FsdOpCounts",
    "LogRecord",
    "LoggedPage",
    "MetadataCache",
    "MountOptions",
    "MountReport",
    "NameTableHome",
    "NameTablePager",
    "PAGE_LEADER",
    "PAGE_NAME_TABLE",
    "PAPER",
    "RemoteFileServer",
    "RootPage",
    "Run",
    "RunAllocator",
    "RunTable",
    "TUNED",
    "VerifyReport",
    "VolumeAllocationMap",
    "VolumeLayout",
    "VolumeParams",
    "WriteAheadLog",
    "verify_volume",
    "make_uid",
    "read_root",
    "rebuild_vam",
    "record_sectors",
    "replay_log",
    "write_root",
]
