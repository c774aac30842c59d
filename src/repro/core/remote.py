"""Remote files: symbolic links and cached copies (paper §4, §5.4).

The original FS was "a caching file system for a programmer's
workstation" [Schr85]: most local files were cached copies of files on
file servers, reached through symbolic links.  The paper leans on this
twice — the three name-table entry kinds of Table 1 (local, symlink,
cached), and the canonical group-commit example: "the last-used-time
for cached copies of remote files is an excellent example of data that
does not require exact update."

``RemoteFileServer`` is a minimal versioned store standing in for an
Alpine/IFS server; ``CachingFS`` layers Cedar's caching behaviour over
a mounted FSD volume:

* ``make_link(local, "server:path")`` creates a SYMLINK entry;
* opening a link fetches the newest remote version into a CACHED
  entry (immutable once fetched; new remote versions fetch alongside);
* every cache hit updates the entry's last-used-time — a one-page
  name-table change batched by group commit;
* ``flush(bytes_needed)`` evicts the least-recently-used cached copies
  ("old versions are immutable (except that they may be flushed)").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.fsd import FSD, FsdFile
from repro.core.types import FileKind
from repro.errors import FileNotFound, FsError

#: prefix under which cached copies live in the local name table.
CACHE_PREFIX = "cache"

#: modelled network fetch rate: a ~3 Mbit/s experimental-Ethernet era
#: link moves roughly 300 bytes per millisecond end to end.
NETWORK_BYTES_PER_MS = 300.0


class RemoteFileServer:
    """A versioned in-memory file server (the Alpine/IFS stand-in)."""

    def __init__(self, name: str):
        self.name = name
        self._files: dict[str, list[bytes]] = {}
        self.fetches = 0

    def store(self, path: str, data: bytes) -> int:
        """Store a new version; returns its version number (1-based)."""
        versions = self._files.setdefault(path, [])
        versions.append(bytes(data))
        return len(versions)

    def fetch(self, path: str, version: int | None = None) -> tuple[int, bytes]:
        """Return (version, data); newest when version is None."""
        versions = self._files.get(path)
        if not versions:
            raise FileNotFound(f"{self.name}:{path}")
        if version is None:
            version = len(versions)
        if not (1 <= version <= len(versions)):
            raise FileNotFound(f"{self.name}:{path}!{version}")
        self.fetches += 1
        return version, versions[version - 1]

    def highest_version(self, path: str) -> int | None:
        """Newest version number of ``path``, or None."""
        versions = self._files.get(path)
        return len(versions) if versions else None


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    fetched_bytes: int = 0
    flushed_files: int = 0
    flushed_bytes: int = 0


def parse_ref(ref: str) -> tuple[str, str]:
    """Split "server:path" into its parts."""
    server, sep, path = ref.partition(":")
    if not sep or not server or not path:
        raise FsError(f"bad remote reference {ref!r} (want 'server:path')")
    return server, path


class CachingFS:
    """Cedar's caching layer over a local FSD volume."""

    def __init__(self, fs: FSD, servers: dict[str, RemoteFileServer] | None = None):
        self.fs = fs
        self.servers = dict(servers or {})
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # links
    # ------------------------------------------------------------------
    def make_link(self, local_name: str, remote_ref: str) -> None:
        """Create (the next version of) a symbolic link."""
        parse_ref(remote_ref)  # validate early
        self.fs.create(
            local_name, kind=FileKind.SYMLINK, remote_target=remote_ref
        )

    def read_link(self, local_name: str) -> str:
        """The remote reference a symbolic link points at."""
        handle = self.fs.open(local_name)
        if handle.props.kind != FileKind.SYMLINK:
            raise FsError(f"{local_name} is not a symbolic link")
        return handle.props.remote_target

    # ------------------------------------------------------------------
    # opening through the cache
    # ------------------------------------------------------------------
    def open(self, name: str) -> FsdFile:
        """Open a name, following a symbolic link through the cache.

        Local files open directly; links resolve to the newest remote
        version, fetched into the cache on a miss.
        """
        handle = self.fs.open(name)
        if handle.props.kind != FileKind.SYMLINK:
            return handle
        return self.open_remote(handle.props.remote_target)

    def open_remote(self, remote_ref: str) -> FsdFile:
        """Open "server:path" via the cache (fetching if necessary)."""
        server_name, path = parse_ref(remote_ref)
        server = self.servers.get(server_name)
        if server is None:
            raise FileNotFound(f"no such server {server_name!r}")
        version = server.highest_version(path)
        if version is None:
            raise FileNotFound(remote_ref)
        cache_name = self._cache_name(server_name, path)
        stamp = f"{server_name}:{path}!{version}"
        for local_version in self.fs.versions(cache_name):
            entry = self.fs.name_table.get(cache_name, local_version)
            if entry is not None and entry[0].remote_target == stamp:
                self.stats.hits += 1
                # fs.open updates last-used-time for CACHED entries —
                # the paper's group-commit example happens right here.
                return self.fs.open(cache_name, version=local_version)
        self.stats.misses += 1
        return self._fetch(server, path, version, cache_name)

    def _fetch(
        self,
        server: RemoteFileServer,
        path: str,
        version: int,
        cache_name: str,
    ) -> FsdFile:
        remote_version, data = server.fetch(path, version)
        self.fs.clock.advance_idle(len(data) / NETWORK_BYTES_PER_MS)
        self.stats.fetched_bytes += len(data)
        # Local version numbers are dense per name, so the remote
        # version is recorded in the target stamp rather than reused as
        # the local version; keep=0 leaves retention to the flusher.
        handle = self.fs.create(
            cache_name,
            data,
            keep=0,
            kind=FileKind.CACHED,
            remote_target=f"{server.name}:{path}!{remote_version}",
        )
        return handle

    def _cache_name(self, server_name: str, path: str) -> str:
        return f"{CACHE_PREFIX}/{server_name}/{path}"

    # ------------------------------------------------------------------
    # flushing
    # ------------------------------------------------------------------
    def cached_entries(self) -> list[FsdFile]:
        """Every cached remote copy currently on the local volume."""
        out = []
        for props, runs in self.fs.name_table.enumerate(CACHE_PREFIX + "/"):
            if props.kind == FileKind.CACHED:
                out.append(FsdFile(props=props, runs=runs))
        return out

    def flush(self, bytes_needed: int) -> int:
        """Evict least-recently-used cached copies until at least
        ``bytes_needed`` of file data has been released."""
        victims = sorted(
            self.cached_entries(), key=lambda h: h.props.last_used_ms
        )
        released = 0
        for victim in victims:
            if released >= bytes_needed:
                break
            self.fs.delete(victim.props.name, victim.props.version)
            released += victim.props.byte_size
            self.stats.flushed_files += 1
            self.stats.flushed_bytes += victim.props.byte_size
        return released
