"""Uniform adapters so one workload runs on FSD, CFS and FFS.

The adapter surface is the least common denominator the paper's
benchmarks need: create-with-content, open, read, delete, list.
FSD/CFS have versions (a re-create makes the next version); FFS does
not, so its adapter emulates re-creation by unlink+create, and it
creates parent directories lazily.
"""

from __future__ import annotations

from repro.bsd.ffs import FFS, FfsFile
from repro.cfs.cfs import CFS, CfsFile
from repro.core.fsd import FSD, FsdFile
from repro.errors import FileExists, FileNotFound


class FsdAdapter:
    """Adapter over a mounted FSD volume."""

    name = "FSD"

    def __init__(self, fs: FSD):
        self.fs = fs

    def create(self, path: str, data: bytes = b"", keep: int = 2) -> FsdFile:
        """Create (the next version of) a file with content."""
        return self.fs.create(path, data, keep=keep)

    def open(self, path: str) -> FsdFile:
        """Open the newest version."""
        return self.fs.open(path)

    def read(self, handle: FsdFile) -> bytes:
        """Read the whole file."""
        return self.fs.read(handle)

    def read_at(self, handle: FsdFile, offset: int, length: int) -> bytes:
        """Read a byte range."""
        return self.fs.read(handle, offset, length)

    def write(self, handle: FsdFile, offset: int, data: bytes) -> None:
        """Write (and possibly extend) an open file — used by the
        traffic engine's update sessions."""
        self.fs.write(handle, offset, data)

    def delete(self, path: str) -> None:
        """Delete the newest version."""
        self.fs.delete(path)

    def list(self, prefix: str = "") -> int:
        """Number of files under ``prefix``."""
        return len(self.fs.list(prefix))

    def exists(self, path: str) -> bool:
        """True when the file exists."""
        return self.fs.exists(path)

    def settle(self) -> None:
        """Flush pending commits (so measurement windows are fair)."""
        self.fs.force()


class CfsAdapter:
    """Adapter over a mounted CFS volume."""

    name = "CFS"

    def __init__(self, fs: CFS):
        self.fs = fs

    def create(self, path: str, data: bytes = b"", keep: int = 2) -> CfsFile:
        """Create (the next version of) a file with content."""
        return self.fs.create(path, data, keep=keep)

    def open(self, path: str) -> CfsFile:
        """Open the newest version."""
        return self.fs.open(path)

    def read(self, handle: CfsFile) -> bytes:
        """Read the whole file."""
        return self.fs.read(handle)

    def read_at(self, handle: CfsFile, offset: int, length: int) -> bytes:
        """Read a byte range."""
        return self.fs.read(handle, offset, length)

    def delete(self, path: str) -> None:
        """Delete the newest version."""
        self.fs.delete(path)

    def list(self, prefix: str = "") -> int:
        """Number of files under ``prefix``."""
        return len(self.fs.list(prefix))

    def settle(self) -> None:
        """CFS writes through; nothing to flush."""


class FfsAdapter:
    """Adapter over a mounted FFS volume: path-based, no versions."""

    name = "4.3BSD"

    def __init__(self, fs: FFS):
        self.fs = fs
        self._dirs: set[str] = set()

    def _ensure_parent(self, path: str) -> None:
        parts = path.split("/")[:-1]
        walked = ""
        for component in parts:
            walked = f"{walked}/{component}" if walked else component
            if walked in self._dirs:
                continue
            try:
                self.fs.mkdir(walked)
            except FileExists:
                pass
            self._dirs.add(walked)

    def create(self, path: str, data: bytes = b"", keep: int = 2) -> FfsFile:
        """Create a file (unlink+create emulates a new version)."""
        self._ensure_parent(path)
        try:
            return self.fs.create(path, data)
        except FileExists:
            # "New version": FFS overwrites by unlink + create.
            self.fs.delete(path)
            return self.fs.create(path, data)

    def open(self, path: str) -> FfsFile:
        """Open the file at ``path``."""
        return self.fs.open(path)

    def read(self, handle: FfsFile) -> bytes:
        """Read the whole file."""
        return self.fs.read(handle)

    def read_at(self, handle: FfsFile, offset: int, length: int) -> bytes:
        """Read a byte range."""
        return self.fs.read(handle, offset, length)

    def delete(self, path: str) -> None:
        """Unlink the file."""
        self.fs.delete(path)

    def list(self, prefix: str = "") -> int:
        """Number of entries in the directory ``prefix``."""
        directory = prefix.rstrip("/")
        try:
            return len(self.fs.list(directory))
        except FileNotFound:
            return 0

    def settle(self) -> None:
        """FFS metadata is synchronous; nothing to flush."""
