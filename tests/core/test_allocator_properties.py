"""Property-based tests for the allocator and run tables.

Invariants under arbitrary allocate/free interleavings:

* no sector is ever owned by two live allocations,
* every allocation delivers exactly the requested sector count,
* freeing returns the VAM to a consistent state (free_count balances),
* run tables map pages to sectors bijectively.

With the rotational gap between new small files, a pass that wraps
the small area finds the gaps the first pass left: the files stay
disjoint and exact, and a small file is one run whenever a free run
anywhere in the small area holds it whole — the gaps never split it.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.allocator import SMALL_FILE_GAP, RunAllocator
from repro.core.layout import VolumeLayout, VolumeParams
from repro.core.types import Run, RunTable
from repro.core.vam import VolumeAllocationMap
from repro.disk.geometry import DiskGeometry
from repro.errors import VolumeFull

GEO = DiskGeometry(cylinders=60, heads=4, sectors_per_track=16)
PARAMS = VolumeParams(nt_pages=64, log_record_sectors=99, max_file_runs=128)


def fresh_allocator() -> RunAllocator:
    layout = VolumeLayout.compute(GEO, PARAMS)
    vam = VolumeAllocationMap(GEO.total_sectors)
    for run in layout.metadata_runs():
        vam.mark_allocated(run)
    return RunAllocator(vam, layout)


operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("alloc"),
            st.integers(min_value=1, max_value=200),
            st.booleans(),
        ),
        st.tuples(st.just("free"), st.integers(min_value=0), st.booleans()),
    ),
    max_size=60,
)


@settings(
    max_examples=80, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=operations)
def test_allocations_never_overlap(ops):
    allocator = fresh_allocator()
    vam = allocator.vam
    live: list[RunTable] = []
    owned: set[int] = set()
    free_before = vam.free_count

    for kind, value, flag in ops:
        if kind == "alloc":
            try:
                table = allocator.allocate(value, big=flag)
            except VolumeFull:
                continue
            assert table.total_sectors == value
            sectors = {
                s for run in table.runs for s in range(run.start, run.end)
            }
            assert len(sectors) == value  # runs internally disjoint
            assert sectors.isdisjoint(owned)  # and disjoint from others
            owned |= sectors
            live.append(table)
        elif live:
            victim = live.pop(value % len(live))
            allocator.free(victim, deferred=flag)
            if flag:
                vam.commit_shadow()
            for run in victim.runs:
                owned -= set(range(run.start, run.end))

    # Conservation: free count balances exactly.
    assert vam.free_count == free_before - len(owned)
    # And every owned sector is marked allocated.
    for table in live:
        for run in table.runs:
            for sector in range(run.start, run.end):
                assert not vam.is_free(sector)


@given(
    runs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=100_000),
            st.integers(min_value=1, max_value=50),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_run_table_page_mapping_is_bijective(runs):
    # Make the runs disjoint by spacing them out deterministically.
    spaced = []
    cursor = 0
    for start, count in runs:
        spaced.append(Run(cursor, count))
        cursor += count + 3
    table = RunTable(list(spaced))
    total = table.total_sectors
    sectors = [table.sector_of_page(page) for page in range(total)]
    assert len(set(sectors)) == total  # no two pages share a sector
    # extents_for over any window covers exactly those pages, in order.
    if total >= 2:
        window = table.extents_for(1, total - 1)
        flattened = [
            sector
            for start, count in window
            for sector in range(start, start + count)
        ]
        assert flattened == sectors[1:]


@given(
    runs=st.lists(
        st.integers(min_value=1, max_value=30), min_size=1, max_size=8
    ),
    keep=st.integers(min_value=0, max_value=200),
)
def test_truncate_conserves_sectors(runs, keep):
    cursor = 0
    table = RunTable()
    for count in runs:
        table.append(Run(cursor, count))
        cursor += count + 2
    total = table.total_sectors
    freed = table.truncate_sectors(keep)
    kept = table.total_sectors
    assert kept == min(keep, total)
    assert kept + sum(run.count for run in freed) == total


#: usable small-area sectors in the wrap test: a blocker holds the rest
#: of the area, so a few dozen files are enough to wrap it.
WRAP_SPAN = 120


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    sizes=st.lists(
        st.integers(min_value=1, max_value=12), min_size=1, max_size=60
    ),
    frees=st.lists(st.integers(min_value=0), max_size=10),
)
def test_wrapping_the_small_area_with_gaps(sizes, frees):
    allocator = fresh_allocator()
    vam, area = allocator.vam, allocator.layout.small_area
    vam.mark_allocated(
        Run(area.start + WRAP_SPAN, area.count - WRAP_SPAN)
    )
    top = area.start + WRAP_SPAN
    free_before = vam.free_count
    live: list[RunTable] = []
    owned: set[int] = set()
    pending_frees = list(frees)
    cursor, wrapped = area.start, False
    for size in sizes * 4:  # enough requests to wrap WRAP_SPAN
        free = [vam.is_free(s) for s in range(area.start, area.end)]
        fits_whole = any(
            all(free[i : i + size]) for i in range(len(free) - size + 1)
        )
        try:
            table = allocator.allocate(size, big=False, new_file=True)
        except VolumeFull:
            break
        sectors = [s for run in table.runs for s in range(run.start, run.end)]
        assert len(sectors) == size and len(set(sectors)) == size
        assert owned.isdisjoint(sectors)
        owned.update(sectors)
        live.append(table)
        # One run whenever one run anywhere in the area could hold it.
        assert (len(table.runs) == 1) or not fits_whole
        small = [run for run in table.runs if run.start >= area.start]
        if not wrapped and cursor + SMALL_FILE_GAP + size <= top:
            # The first pass: one run, a gap past the last file.
            assert table.runs == [Run(cursor + SMALL_FILE_GAP, size)]
        wrapped = wrapped or any(run.start < cursor for run in small)
        if small:
            cursor = small[-1].end
        if pending_frees and wrapped:
            victim = live.pop(pending_frees.pop() % len(live))
            allocator.free(victim, deferred=False)
            for run in victim.runs:
                owned.difference_update(range(run.start, run.end))
    assert vam.free_count == free_before - len(owned)
    for table in live:
        for run in table.runs:
            assert not any(vam.is_free(s) for s in range(run.start, run.end))


@given(
    total=st.integers(min_value=1, max_value=300),
    used=st.lists(st.integers(min_value=0, max_value=299), max_size=60),
    window=st.tuples(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=0, max_value=300),
    ),
    want=st.integers(min_value=1, max_value=40),
)
def test_find_whole_run_matches_a_sector_scan(total, used, window, want):
    """The aged-area search's C-speed passes agree with a sector scan:
    the lowest start of ``want`` free sectors inside the window."""
    vam = VolumeAllocationMap(total)
    for sector in {u for u in used if u < total}:
        vam.mark_allocated(Run(sector, 1))
    start, end = min(window), min(max(window), total)
    expect = next(
        (
            Run(s, want)
            for s in range(start, end - want + 1)
            if all(vam.is_free(t) for t in range(s, s + want))
        ),
        None,
    )
    assert vam.find_whole_run(start, end, want) == expect


@given(
    total=st.integers(min_value=1, max_value=300),
    used=st.lists(st.integers(min_value=0, max_value=299), max_size=20),
    window=st.tuples(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=0, max_value=300),
    ),
)
def test_last_allocated_matches_a_sector_scan(total, used, window):
    """The cursor's C-speed scan agrees with a sector-by-sector one,
    and never reports the padding bits past the disk's end."""
    vam = VolumeAllocationMap(total)
    for sector in {u for u in used if u < total}:
        vam.mark_allocated(Run(sector, 1))
    start, end = min(window), min(max(window), total)
    expect = next(
        (s for s in range(end - 1, start - 1, -1) if not vam.is_free(s)),
        None,
    )
    assert vam.last_allocated(start, end) == expect
