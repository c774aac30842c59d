"""One planned write-home (paper §5.3, priced as §6 prices it).

Every logged image reaches its home sectors through
:meth:`NameTableHome.write_pages`: a third entry, the checkpointer and
a clean unmount (all three via the metadata cache), recovery's redo
and format.  It hands the leaders and both copies of the name-table
pages to :meth:`IoScheduler.write_batch` as one batch, which
dispatches them in the order they would finish.  The log still holds
every image the batch carries, so the order is free; what must not
change is what the disk holds afterwards, and a crash at any I/O of
the batch must recover.
"""

from __future__ import annotations

import pytest

from repro.core.cache import MetadataCache
from repro.core.fsd import FSD
from repro.core.layout import VolumeLayout
from repro.core.name_table import NameTableHome
from repro.core.verify import verify_volume
from repro.disk.disk import SimDisk
from repro.errors import SimulatedCrash
from repro.workloads.generators import payload
from tests.conftest import TEST_FSD_PARAMS, TEST_GEOMETRY

LAYOUT = VolumeLayout.compute(TEST_GEOMETRY, TEST_FSD_PARAMS)
#: name-table pages logged in one third: runs and singles over four
#: stripes (one cylinder each) of the name table.
THIRD_PAGES = [5, 6, 7, 40, 92, 93, 94, 150, 200, 201, 300, 410]
#: leaders of the same third, in the small-file data area.
THIRD_LEADERS = [LAYOUT.small_area.start + offset for offset in (3, 61, 250)]


def image(tag: int) -> bytes:
    return tag.to_bytes(4, "little") * (TEST_GEOMETRY.sector_bytes // 4)


def logged_cache(disk: SimDisk) -> tuple[MetadataCache, NameTableHome]:
    """A cache whose third 1 holds ``THIRD_PAGES`` and ``THIRD_LEADERS``,
    logged and not yet home."""
    home = NameTableHome(disk, LAYOUT)
    cache = MetadataCache(64, home.read_page, home.write_pages)
    for page_no in THIRD_PAGES:
        cache.write_nt(page_no, image(page_no))
    for address in THIRD_LEADERS:
        cache.write_leader(address, image(address))
    cache.note_logged(cache.pages_needing_log(), third=1)
    return cache, home


def written_sectors(home: NameTableHome) -> list[int]:
    addresses = list(THIRD_LEADERS)
    for page_no in THIRD_PAGES:
        addresses += home.layout.nt_page_addresses(page_no)
    return addresses


class TestPlannedThird:
    def test_the_third_spans_the_name_table_and_the_data_area(self):
        cylinders = {
            address // TEST_GEOMETRY.sectors_per_cylinder
            for page_no in THIRD_PAGES
            for address in LAYOUT.nt_page_addresses(page_no)
        }
        assert len(cylinders) >= 3
        small = LAYOUT.small_area
        assert all(small.start <= a < small.end for a in THIRD_LEADERS)

    def test_leaves_program_orders_image_for_less_rotation(self):
        """The third goes home as one batch: both copies of every page
        and every leader hold their logged image, exactly as the
        program-order writes (each leader, then copy A before copy B
        per run of pages) leave them, and the arm waits less for the
        platter."""
        planned = SimDisk(geometry=TEST_GEOMETRY)
        cache, home = logged_cache(planned)
        assert cache.flush_third(1) == (
            len(THIRD_PAGES), len(THIRD_LEADERS), planned.stats.writes
        )

        in_order = SimDisk(geometry=TEST_GEOMETRY)
        io = NameTableHome(in_order, LAYOUT).io
        for address in THIRD_LEADERS:
            io.submit_write(address, [image(address)])
        for address, sectors in home.page_writes(
            [(page_no, image(page_no)) for page_no in THIRD_PAGES]
        ):
            io.submit_write(address, sectors)

        assert planned.stats.writes == in_order.stats.writes
        for address in written_sectors(home):
            assert planned.peek(address) == in_order.peek(address)
        for page_no in THIRD_PAGES:
            for address in LAYOUT.nt_page_addresses(page_no):
                assert planned.peek(address) == image(page_no)
        for address in THIRD_LEADERS:
            assert planned.peek(address) == image(address)
        assert planned.stats.rotational_ms < in_order.stats.rotational_ms
        assert planned.clock.now_ms < in_order.clock.now_ms

    def test_flush_all_home_is_one_batch(self):
        """Contiguous pages logged in three different thirds go home in
        one transfer per copy, not one per copy per third."""
        disk = SimDisk(geometry=TEST_GEOMETRY)
        home = NameTableHome(disk, LAYOUT)
        cache = MetadataCache(64, home.read_page, home.write_pages)
        for third, page_no in enumerate((20, 21, 22)):
            cache.write_nt(page_no, image(page_no))
            cache.note_logged(cache.pages_needing_log(), third=third)
        cache.flush_all_home()
        assert disk.stats.writes == 2
        assert disk.stats.sectors_written == 6
        for page_no in (20, 21, 22):
            for address in LAYOUT.nt_page_addresses(page_no):
                assert disk.peek(address) == image(page_no)
        assert cache.pinned_pages == 0


#: the files the crash sweep's volume holds before the measured run.
SETUP_FILES = 400


def third_entry_run(crash_io: int | None = None, surviving=None, damage=1):
    """Create and rename files of a populated volume, forcing every
    third operation, until a third entry writes home at least eight
    name-table pages and two leaders (a rename relogs its file's
    leader).  Every name is used once, so a name set is a volume state.

    Returns the disk, the name sets recovery may find (the last
    completed force's, then one per later operation, which the commit
    timer may have logged) and the contents of every name the run made.
    Without ``crash_io`` the run ends uncrashed and the last element is
    the I/O span, counted from the start of the run, of that third
    entry's batch; with it, a crash fires on that I/O of the run."""
    disk = SimDisk(geometry=TEST_GEOMETRY)
    FSD.format(disk, TEST_FSD_PARAMS)
    fs = FSD.mount(disk)
    for index in range(SETUP_FILES):
        fs.create(f"s/{index:04d}", payload(100 + index, index))
    fs.unmount()
    fs = FSD.mount(disk)
    start = disk.stats.total_ios
    entries = []
    flush_third = fs.wal.flush_third

    def recorded(third):
        before = disk.stats.total_ios - start
        written = flush_third(third)
        entries.append((before, disk.stats.total_ios - start, written))
        return written

    fs.wal.flush_third = recorded
    names = {f"s/{index:04d}" for index in range(SETUP_FILES)}
    states = [frozenset(names)]
    made: dict[str, bytes] = {}
    if crash_io is not None:
        disk.faults.arm_crash(
            after_ios=crash_io, surviving_sectors=surviving, damage_tail=damage
        )
    try:
        for step in range(300):
            if step % 4 == 1:
                old = f"s/{step * 53 % SETUP_FILES:04d}"
                fs.rename(old, f"{old}r")
                names.remove(old)
                names.add(f"{old}r")
                made[f"{old}r"] = payload(100 + int(old[2:]), int(old[2:]))
            else:
                name = f"s/{step * 37 % SETUP_FILES:04d}c{step}"
                made[name] = payload(50 + step, step + 7)
                fs.create(name, made[name])
                names.add(name)
            states.append(frozenset(names))
            if step % 3 == 2:
                fs.force()
                states = [frozenset(names)]
            if entries and entries[-1][2][0] >= 8 and entries[-1][2][1] >= 2:
                break
        else:
            raise AssertionError("no third entry wrote enough home")
    except SimulatedCrash:
        assert crash_io is not None
        fs.crash()
        return disk, states, made, None
    assert crash_io is None
    fs.crash()
    return disk, states, made, entries[-1][:2]


@pytest.fixture(scope="module")
def batch_span() -> tuple[int, int]:
    *_, span = third_entry_run()
    return span


@pytest.mark.parametrize(
    "surviving,damage", [(0, 0), (0, 1), (1, 1)],
    ids=["nothing-persists", "first-sector-damaged", "torn-after-one"],
)
def test_crash_at_every_io_of_a_planned_third_entry(batch_span, surviving, damage):
    """A crash on any I/O of the batch, or on the anchor and record
    writes after it, recovers to a clean volume in the state of the
    last completed force or of an operation after it."""
    first, end = batch_span
    assert end - first >= 10
    for crash_io in range(first, end + 2):
        disk, states, made, _ = third_entry_run(crash_io, surviving, damage)
        fs = FSD.mount(disk)
        report = verify_volume(fs)
        assert report.clean, (crash_io, report.problems)
        names = frozenset(props.name for props in fs.list())
        assert names in states, crash_io
        for name in names & made.keys():
            assert fs.read(fs.open(name)) == made[name], (crash_io, name)
