"""Shared test fixtures: small, fast volumes on the simulated disk."""

from __future__ import annotations

import pytest

from repro.bsd.ffs import FFS
from repro.bsd.layout import FfsParams
from repro.cfs.cfs import CFS, CfsParams
from repro.core.fsd import FSD
from repro.core.layout import VolumeParams
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.serial import checksum
from repro.workloads.generators import payload


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--crashcheck-full",
        action="store_true",
        default=False,
        help="run the exhaustive crash-point sweeps (minutes, not "
        "seconds); the default run covers bounded windows only",
    )


TEST_GEOMETRY = DiskGeometry(cylinders=120, heads=8, sectors_per_track=24)
TEST_FSD_PARAMS = VolumeParams(
    nt_pages=512, log_record_sectors=300, cache_pages=48
)
TEST_CFS_PARAMS = CfsParams(nt_pages=256, cache_pages=32)
TEST_FFS_PARAMS = FfsParams(
    cylinders_per_group=12, inodes_per_group=128, buffer_cache_blocks=32
)


def create_until_nt_pages(fs: FSD, prefix: str, pages: int) -> dict[str, bytes]:
    """Create ``<prefix>0000``, ``<prefix>0001``, ... until the name
    table has allocated more than ``pages`` pages; returns name ->
    contents.  A boundary test is sized by the page it must reach, not
    by a file count that stops reaching it when the tree gets denser."""
    pager = fs.name_table.tree.pager
    contents: dict[str, bytes] = {}
    while pager.allocated_pages() <= pages:
        index = len(contents)
        name = f"{prefix}{index:04d}"
        contents[name] = payload(300 + index, index)
        fs.create(name, contents[name])
    return contents


#: where the root page's reserved byte sits: after the sector's magic,
#: checksum and payload length (10 bytes) and the payload's 45 bytes of
#: counts and volume parameters.
ROOT_RESERVED_OFFSET = 10 + 45


def vam_logging_root(sector: bytes) -> bytes:
    """An encoded volume root as a build with VAM logging wrote it: the
    reserved byte set and the checksum re-sealed, so the root is intact
    rather than corrupt."""
    image = bytearray(sector)
    assert image[ROOT_RESERVED_OFFSET] == 0
    image[ROOT_RESERVED_OFFSET] = 1
    length = int.from_bytes(image[8:10], "little")
    image[4:8] = checksum(bytes(image[10 : 10 + length])).to_bytes(4, "little")
    return bytes(image)


@pytest.fixture
def disk() -> SimDisk:
    return SimDisk(geometry=TEST_GEOMETRY)


@pytest.fixture
def fsd(disk: SimDisk) -> FSD:
    FSD.format(disk, TEST_FSD_PARAMS)
    return FSD.mount(disk)


@pytest.fixture
def cfs(disk: SimDisk) -> CFS:
    CFS.format(disk, TEST_CFS_PARAMS)
    return CFS.mount(disk, TEST_CFS_PARAMS)


@pytest.fixture
def ffs(disk: SimDisk) -> FFS:
    FFS.format(disk, TEST_FFS_PARAMS)
    return FFS.mount(disk, TEST_FFS_PARAMS)
