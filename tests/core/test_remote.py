"""Tests for the remote file server and the caching layer."""

from __future__ import annotations

import pytest

from repro.core.remote import (
    CachingFS,
    RemoteFileServer,
    parse_ref,
)
from repro.core.types import FileKind
from repro.errors import FileNotFound, FsError
from repro.workloads.generators import payload


@pytest.fixture
def server() -> RemoteFileServer:
    server = RemoteFileServer("ivy")
    server.store("cedar/defs.mesa", payload(2_000, 1))
    server.store("cedar/impl.mesa", payload(3_000, 2))
    return server


@pytest.fixture
def caching(fsd, server) -> CachingFS:
    return CachingFS(fsd, {server.name: server})


class TestServer:
    def test_store_and_fetch(self, server):
        version, data = server.fetch("cedar/defs.mesa")
        assert version == 1
        assert data == payload(2_000, 1)

    def test_versions_accumulate(self, server):
        assert server.store("cedar/defs.mesa", b"v2") == 2
        assert server.highest_version("cedar/defs.mesa") == 2
        assert server.fetch("cedar/defs.mesa", 1)[1] == payload(2_000, 1)
        assert server.fetch("cedar/defs.mesa", 2)[1] == b"v2"

    def test_missing(self, server):
        with pytest.raises(FileNotFound):
            server.fetch("nope")
        with pytest.raises(FileNotFound):
            server.fetch("cedar/defs.mesa", 9)
        assert server.highest_version("nope") is None


class TestRefs:
    def test_parse(self):
        assert parse_ref("ivy:cedar/defs.mesa") == ("ivy", "cedar/defs.mesa")

    @pytest.mark.parametrize("bad", ["noserver", ":path", "server:", ""])
    def test_bad_refs(self, bad):
        with pytest.raises(FsError):
            parse_ref(bad)


class TestCaching:
    def test_first_open_fetches(self, caching, server, fsd):
        handle = caching.open_remote("ivy:cedar/defs.mesa")
        assert fsd.read(handle) == payload(2_000, 1)
        assert caching.stats.misses == 1
        assert server.fetches == 1
        assert handle.props.kind == FileKind.CACHED

    def test_second_open_hits(self, caching, server, fsd):
        caching.open_remote("ivy:cedar/defs.mesa")
        handle = caching.open_remote("ivy:cedar/defs.mesa")
        assert caching.stats.hits == 1
        assert server.fetches == 1  # no second network round trip
        assert fsd.read(handle) == payload(2_000, 1)

    def test_hit_updates_last_used(self, caching, fsd):
        first = caching.open_remote("ivy:cedar/defs.mesa")
        fsd.force()
        fsd.clock.advance_idle(2_000)
        again = caching.open_remote("ivy:cedar/defs.mesa")
        assert again.props.last_used_ms > first.props.last_used_ms

    def test_new_remote_version_fetched_alongside(self, caching, server, fsd):
        caching.open_remote("ivy:cedar/defs.mesa")
        server.store("cedar/defs.mesa", b"fresh")
        handle = caching.open_remote("ivy:cedar/defs.mesa")
        assert fsd.read(handle) == b"fresh"
        assert caching.stats.misses == 2
        # Old version still cached locally (immutable).
        assert len(caching.cached_entries()) == 2

    def test_unknown_server(self, caching):
        with pytest.raises(FileNotFound):
            caching.open_remote("mars:x")

    def test_unknown_remote_file(self, caching):
        with pytest.raises(FileNotFound):
            caching.open_remote("ivy:ghost")

    def test_network_time_charged(self, caching, fsd):
        before = fsd.clock.now_ms
        caching.open_remote("ivy:cedar/impl.mesa")
        assert fsd.clock.now_ms - before >= 3_000 / 300.0


class TestLinks:
    def test_link_resolution(self, caching, fsd):
        caching.make_link("defs.mesa", "ivy:cedar/defs.mesa")
        handle = caching.open("defs.mesa")
        assert handle.props.kind == FileKind.CACHED
        assert fsd.read(handle) == payload(2_000, 1)

    def test_read_link(self, caching):
        caching.make_link("defs.mesa", "ivy:cedar/defs.mesa")
        assert caching.read_link("defs.mesa") == "ivy:cedar/defs.mesa"

    def test_read_link_on_regular_file(self, caching, fsd):
        fsd.create("plain", b"x")
        with pytest.raises(FsError):
            caching.read_link("plain")

    def test_open_local_passthrough(self, caching, fsd):
        fsd.create("local.txt", b"here")
        handle = caching.open("local.txt")
        assert fsd.read(handle) == b"here"
        assert caching.stats.misses == 0

    def test_bad_link_target_rejected_early(self, caching):
        with pytest.raises(FsError):
            caching.make_link("bad", "no-colon")


class TestFlushing:
    def test_lru_flush(self, caching, server, fsd):
        server.store("a", payload(1_000, 10))
        server.store("b", payload(1_000, 11))
        server.store("c", payload(1_000, 12))
        caching.open_remote("ivy:a")
        fsd.clock.advance_idle(100)
        caching.open_remote("ivy:b")
        fsd.clock.advance_idle(100)
        caching.open_remote("ivy:c")
        fsd.clock.advance_idle(100)
        caching.open_remote("ivy:a")  # refresh a's last-used
        released = caching.flush(bytes_needed=1_500)
        assert released >= 1_500
        remaining = {
            h.props.remote_target for h in caching.cached_entries()
        }
        # b was least recently used, then c; a stays.
        assert any(target.startswith("ivy:a") for target in remaining)
        assert not any(target.startswith("ivy:b") for target in remaining)

    def test_flush_survives_crash(self, caching, server, fsd, disk):
        from repro.core.fsd import FSD

        caching.open_remote("ivy:cedar/defs.mesa")
        caching.flush(bytes_needed=10_000)
        fsd.force()
        fsd.crash()
        recovered = FSD.mount(disk)
        fresh = CachingFS(recovered, {server.name: server})
        assert fresh.cached_entries() == []
        # Opening again refetches cleanly.
        handle = fresh.open_remote("ivy:cedar/defs.mesa")
        assert recovered.read(handle) == payload(2_000, 1)


class TestFlushEdges:
    def test_flush_zero_bytes_is_noop(self, caching):
        caching.open_remote("ivy:cedar/defs.mesa")
        assert caching.flush(bytes_needed=0) == 0
        assert len(caching.cached_entries()) == 1

    def test_flush_more_than_cached_releases_everything(self, caching):
        caching.open_remote("ivy:cedar/defs.mesa")
        caching.open_remote("ivy:cedar/impl.mesa")
        released = caching.flush(bytes_needed=10**9)
        assert released == 5_000  # both copies
        assert caching.cached_entries() == []

    def test_flush_on_empty_cache(self, caching):
        assert caching.flush(bytes_needed=1_000) == 0
