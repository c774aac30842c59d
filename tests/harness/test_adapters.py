"""Unit tests: the adapters make all three systems interchangeable."""

from __future__ import annotations

import pytest

from repro.harness.scenarios import SMALL, cfs_volume, ffs_volume, fsd_volume
from repro.workloads.generators import payload

FACTORIES = {
    "fsd": fsd_volume,
    "cfs": cfs_volume,
    "ffs": ffs_volume,
}


@pytest.fixture(params=sorted(FACTORIES))
def adapter(request):
    _, _, adapter = FACTORIES[request.param](SMALL)
    return adapter


class TestUniformSurface:
    def test_create_open_read(self, adapter):
        blob = payload(1_234, 9)
        adapter.create("dir/file", blob)
        handle = adapter.open("dir/file")
        assert adapter.read(handle) == blob

    def test_read_at(self, adapter):
        blob = payload(2_000, 10)
        adapter.create("dir/f", blob)
        handle = adapter.open("dir/f")
        assert adapter.read_at(handle, 512, 512) == blob[512:1024]

    def test_recreate_is_new_version_or_overwrite(self, adapter):
        adapter.create("dir/v", b"one")
        adapter.create("dir/v", b"two")
        assert adapter.read(adapter.open("dir/v")) == b"two"

    def test_delete_and_exists(self, adapter):
        adapter.create("dir/d", b"x")
        assert adapter.list("dir/") == 1
        adapter.delete("dir/d")
        assert adapter.list("dir/") == 0

    def test_list_counts(self, adapter):
        for index in range(4):
            adapter.create(f"dir/f{index}", b"x")
        assert adapter.list("dir/") == 4

    def test_list_missing_prefix(self, adapter):
        assert adapter.list("nothing/") == 0

    def test_settle_is_safe(self, adapter):
        adapter.create("dir/s", b"x")
        adapter.settle()

    def test_nested_directories(self, adapter):
        adapter.create("a/b/c/file", b"deep")
        assert adapter.read(adapter.open("a/b/c/file")) == b"deep"

    def test_name_attribute(self, adapter):
        assert adapter.name in ("FSD", "CFS", "4.3BSD")
