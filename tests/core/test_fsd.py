"""Unit tests for the FSD facade: the public file-system API."""

from __future__ import annotations

import pytest

from repro.core.types import FileKind
from repro.errors import FileNotFound, FsError, NotMounted, VolumeFull
from repro.workloads.generators import payload


class TestCreateReadWrite:
    def test_create_and_read(self, fsd):
        fsd.create("d/a.txt", b"hello")
        assert fsd.read(fsd.open("d/a.txt")) == b"hello"

    def test_empty_file(self, fsd):
        fsd.create("d/empty")
        handle = fsd.open("d/empty")
        assert handle.byte_size == 0
        assert fsd.read(handle) == b""

    def test_one_byte_file_costs_one_io_warm(self, fsd, disk):
        fsd.create("warm/first", b"x")
        writes_before = disk.stats.total_ios
        fsd.create("warm/second", b"y")
        assert disk.stats.total_ios - writes_before == 1

    def test_multi_sector_content(self, fsd):
        blob = payload(5_000, 1)
        fsd.create("d/big", blob)
        assert fsd.read(fsd.open("d/big")) == blob

    def test_ranged_read(self, fsd):
        blob = payload(3_000, 2)
        fsd.create("d/f", blob)
        handle = fsd.open("d/f")
        assert fsd.read(handle, 700, 900) == blob[700:1600]
        assert fsd.read(handle, 0, 1) == blob[:1]
        assert fsd.read(handle, 2_999, 1) == blob[2_999:]

    def test_read_beyond_eof_rejected(self, fsd):
        fsd.create("d/f", b"abc")
        with pytest.raises(FsError):
            fsd.read(fsd.open("d/f"), 0, 4)
        with pytest.raises(FsError):
            fsd.read(fsd.open("d/f"), -1, 1)

    def test_overwrite_within_file(self, fsd):
        fsd.create("d/f", payload(2_000, 3))
        handle = fsd.open("d/f")
        fsd.write(handle, 100, b"PATCH")
        data = fsd.read(fsd.open("d/f"))
        assert data[100:105] == b"PATCH"
        assert data[:100] == payload(2_000, 3)[:100]
        assert data[105:] == payload(2_000, 3)[105:]

    def test_extend_by_writing_past_eof(self, fsd):
        fsd.create("d/f", b"start")
        handle = fsd.open("d/f")
        fsd.write(handle, 5, b"-extended" * 300)
        data = fsd.read(fsd.open("d/f"))
        assert data.startswith(b"start-extended")
        assert len(data) == 5 + 9 * 300

    def test_sparse_extension_zero_filled(self, fsd):
        fsd.create("d/f", b"ab")
        handle = fsd.open("d/f")
        fsd.write(handle, 1_000, b"tail")
        data = fsd.read(fsd.open("d/f"))
        assert data[2:1_000] == b"\x00" * 998
        assert data[1_000:] == b"tail"

    def test_unaligned_boundary_writes(self, fsd):
        blob = payload(1_500, 4)
        fsd.create("d/f", blob)
        handle = fsd.open("d/f")
        fsd.write(handle, 510, b"ABCD")  # straddles sector 0/1 boundary
        expected = blob[:510] + b"ABCD" + blob[514:]
        assert fsd.read(fsd.open("d/f")) == expected


class TestVersions:
    def test_create_makes_next_version(self, fsd):
        fsd.create("d/v", b"one", keep=0)
        fsd.create("d/v", b"two", keep=0)
        assert fsd.versions("d/v") == [1, 2]
        assert fsd.read(fsd.open("d/v")) == b"two"
        assert fsd.read(fsd.open("d/v", version=1)) == b"one"

    def test_keep_trims_old_versions(self, fsd):
        for index in range(5):
            fsd.create("d/k", payload(100, index), keep=2)
        assert fsd.versions("d/k") == [4, 5]

    def test_keep_zero_retains_all(self, fsd):
        for _ in range(4):
            fsd.create("d/all", b"x", keep=0)
        assert len(fsd.versions("d/all")) == 4

    def test_set_keep_trims(self, fsd):
        for _ in range(4):
            fsd.create("d/s", b"x", keep=0)
        fsd.set_keep("d/s", 1)
        assert fsd.versions("d/s") == [4]

    def test_trimmed_version_pages_freed_at_commit(self, fsd):
        first = fsd.create("d/t", payload(600, 0), keep=1)
        sector = first.runs.runs[0].start
        fsd.create("d/t", payload(600, 1), keep=1)
        fsd.force()
        assert fsd.vam.is_free(sector)


class TestDeleteListRename:
    def test_delete_latest(self, fsd):
        fsd.create("d/del", b"x")
        fsd.delete("d/del")
        assert not fsd.exists("d/del")
        with pytest.raises(FileNotFound):
            fsd.open("d/del")

    def test_delete_specific_version(self, fsd):
        fsd.create("d/dv", b"one", keep=0)
        fsd.create("d/dv", b"two", keep=0)
        fsd.delete("d/dv", version=1)
        assert fsd.versions("d/dv") == [2]

    def test_delete_missing(self, fsd):
        with pytest.raises(FileNotFound):
            fsd.delete("ghost")

    def test_list_prefix(self, fsd):
        for name in ("a/1", "a/2", "b/3"):
            fsd.create(name, b"x")
        assert [p.name for p in fsd.list("a/")] == ["a/1", "a/2"]
        assert len(fsd.list()) == 3

    def test_list_needs_no_io_when_warm(self, fsd, disk):
        for index in range(10):
            fsd.create(f"d/l{index}", b"x")
        ios_before = disk.stats.total_ios
        props = fsd.list("d/")
        assert disk.stats.total_ios == ios_before
        assert len(props) == 10
        assert all(p.byte_size == 1 for p in props)

    def test_rename(self, fsd):
        fsd.create("d/old", b"content")
        fsd.rename("d/old", "d/new")
        assert not fsd.exists("d/old")
        assert fsd.read(fsd.open("d/new")) == b"content"

    def test_rename_then_read_verifies_new_leader(self, fsd):
        fsd.create("d/old", payload(900, 9))
        fsd.rename("d/old", "d/renamed")
        fsd.force()
        fsd.unmount()
        import repro.core.fsd as fsd_mod

        remounted = fsd_mod.FSD.mount(fsd.disk)
        assert remounted.read(remounted.open("d/renamed")) == payload(900, 9)

    def test_truncate(self, fsd):
        fsd.create("d/t", payload(4_000, 5))
        handle = fsd.open("d/t")
        fsd.truncate(handle, 1_000)
        assert fsd.read(fsd.open("d/t")) == payload(4_000, 5)[:1_000]

    def test_truncate_cannot_grow(self, fsd):
        fsd.create("d/t", b"ab")
        with pytest.raises(FsError):
            fsd.truncate(fsd.open("d/t"), 10)

    def test_truncate_frees_sectors_at_commit(self, fsd):
        fsd.create("d/t", payload(4_000, 5))
        handle = fsd.open("d/t")
        freed_sector = handle.runs.runs[-1].end - 1
        fsd.truncate(handle, 512)
        fsd.force()
        assert fsd.vam.is_free(freed_sector)


class TestKinds:
    def test_cached_file_open_updates_last_used(self, fsd):
        fsd.create("remote/c", b"df", kind=FileKind.CACHED)
        fsd.force()
        fsd.clock.advance_idle(1_000)
        before = fsd.name_table.get("remote/c", 1)[0].last_used_ms
        fsd.open("remote/c")
        after = fsd.name_table.get("remote/c", 1)[0].last_used_ms
        assert after > before

    def test_local_open_does_not_dirty(self, fsd):
        fsd.create("local/f", b"x")
        fsd.force()
        assert fsd.cache.pending_log_pages() == 0
        fsd.open("local/f")
        assert fsd.cache.pending_log_pages() == 0

    def test_symlink_entry(self, fsd):
        fsd.create(
            "links/l", kind=FileKind.SYMLINK, remote_target="server/real"
        )
        props = fsd.open("links/l").props
        assert props.kind == FileKind.SYMLINK
        assert props.remote_target == "server/real"


class TestLeaderChecking:
    def test_piggyback_read_verifies(self, fsd, disk):
        fsd.create("d/p", payload(700, 7))
        fsd.force()
        fsd.unmount()
        from repro.core.fsd import FSD as FSDClass

        fs = FSDClass.mount(disk)
        handle = fs.open("d/p")
        assert not handle.leader_verified
        fs.read(handle, 0, 100)
        assert handle.leader_verified
        assert fs.ops.leader_piggyback_reads == 1

    def test_wild_write_on_leader_detected(self, fsd, disk):
        from repro.errors import CorruptMetadata
        from repro.core.fsd import FSD as FSDClass

        fsd.create("d/w", payload(700, 8))
        fsd.force()
        fsd.unmount()
        fs = FSDClass.mount(disk)
        handle = fs.open("d/w")
        disk.poke(handle.props.leader_addr, b"\xbe\xef" * 100)
        with pytest.raises(CorruptMetadata):
            fs.read(handle, 0, 10)

    def test_leader_refreshed_on_extension(self, fsd):
        fsd.create("d/e", b"small")
        handle = fsd.open("d/e")
        fsd.write(handle, 5, payload(5_000, 3))  # forces new runs
        # The cached leader matches the new run table.
        fresh = fsd.open("d/e")
        fsd.read(fresh, 0, 10)  # verifies against cache copy
        assert fresh.leader_verified


class TestLifecycle:
    def test_unmounted_volume_rejects_ops(self, fsd):
        fsd.unmount()
        with pytest.raises(NotMounted):
            fsd.create("x", b"y")
        with pytest.raises(NotMounted):
            fsd.list()

    def test_crashed_volume_rejects_ops(self, fsd):
        fsd.crash()
        with pytest.raises(NotMounted):
            fsd.open("x")

    def test_volume_full(self, fsd):
        with pytest.raises(VolumeFull):
            fsd.create("d/huge", b"", keep=0)
            # allocate more sectors than the disk has
            handle = fsd.open("d/huge")
            fsd.write(handle, 0, payload(fsd.disk.geometry.total_bytes, 1))

    def test_mounted_property(self, fsd):
        assert fsd.list() == []
        fsd.unmount()
        with pytest.raises(NotMounted):
            fsd.list()
