"""The read-ahead buffer of a default mount (``data_cache_pages=0``).

A default mount and a twin mounted with ``readahead_pages=0`` (the
paper's mount) must be indistinguishable to a client: every read
returns the same bytes, whatever was prefetched in between.  What the
buffer may hold is pinned down too — only sectors of live files, each
equal to the platter's — together with the fault and waste edges.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core import data_cache
from repro.core.fsd import FSD
from repro.disk.disk import SimDisk
from repro.errors import DamagedSectorError
from repro.obs import Observer
from repro.workloads.generators import payload
from tests.conftest import TEST_FSD_PARAMS, TEST_GEOMETRY

SECTOR = 512
NAMES = [f"d/f{index}" for index in range(3)]


def _volume(**mount) -> FSD:
    disk = SimDisk(geometry=TEST_GEOMETRY)
    FSD.format(disk, TEST_FSD_PARAMS)
    return FSD.mount(disk, **mount)


def _remounted(fs: FSD, **mount) -> FSD:
    fs.unmount()
    return FSD.mount(fs.disk, **mount)


def _addresses(handle) -> list[int]:
    return [a for run in handle.runs.runs for a in range(run.start, run.end)]


# ----------------------------------------------------------------------
# (a) the twin-volume machine
# ----------------------------------------------------------------------
class BufferTwinMachine(RuleBasedStateMachine):
    """Every operation goes to a default mount and to its paper twin."""

    def __init__(self):
        super().__init__()
        self.buffered = _volume(readahead_pages=4)
        self.paper = _volume(readahead_pages=0)
        self.seeds = 0

    # -- helpers -------------------------------------------------------
    def _both(self, op):
        return op(self.buffered), op(self.paper)

    def _live(self) -> list[str]:
        return [p.name for p in self.paper.list()]

    def _fresh(self, size: int) -> bytes:
        self.seeds += 1
        return payload(size, self.seeds)

    # -- rules ---------------------------------------------------------
    @rule(name=st.sampled_from(NAMES), pages=st.integers(1, 12),
          tail=st.integers(0, SECTOR - 1))
    def create(self, name, pages, tail):
        """A new version; after a forced delete it reuses freed sectors."""
        data = self._fresh(pages * SECTOR - tail)
        self._both(lambda fs: fs.create(name, data))

    @precondition(lambda self: self._live())
    @rule(data=st.data(), first=st.integers(0, 11), count=st.integers(2, 8))
    def read_pages_in_order(self, data, first, count):
        """Page-at-a-time sequential reads: what triggers read-ahead
        (a pass that stops mid-window leaves sectors buffered)."""
        self._read_in_order(data, first, count)

    @precondition(lambda self: self._live())
    @rule(data=st.data(), count=st.integers(1, 12))
    def read_from_page_zero(self, data, count):
        """A fresh open read from its first page: page 0 starts the
        stream, and its transfer carries the leader and the window."""
        self._read_in_order(data, 0, count)

    def _read_in_order(self, data, first, count):
        name = data.draw(st.sampled_from(self._live()))
        handles = self._both(lambda fs: fs.open(name))
        pages = -(-handles[1].byte_size // SECTOR)
        first = max(0, min(first, pages - 1))
        for page in range(first, min(first + count, pages)):
            length = min(SECTOR, handles[1].byte_size - page * SECTOR)
            got, expected = (
                fs.read(handle, page * SECTOR, length)
                for fs, handle in zip((self.buffered, self.paper), handles)
            )
            assert got == expected

    @precondition(lambda self: self._live())
    @rule(data=st.data(), offset=st.integers(0, 6_000),
          length=st.integers(0, 6_000))
    def read_at(self, data, offset, length):
        name = data.draw(st.sampled_from(self._live()))
        size = self.paper.open(name).byte_size
        offset = min(offset, size)
        length = min(length, size - offset)
        got, expected = self._both(
            lambda fs: fs.read(fs.open(name), offset, length)
        )
        assert got == expected

    @precondition(lambda self: self._live())
    @rule(data=st.data(), offset=st.integers(0, 6_000),
          length=st.integers(1, 2_000))
    def write(self, data, offset, length):
        """Overwrite (and maybe extend): a write after a prefetch must
        drop the buffered image, nothing repopulates it."""
        name = data.draw(st.sampled_from(self._live()))
        offset = min(offset, self.paper.open(name).byte_size)
        fresh = self._fresh(length)
        self._both(lambda fs: fs.write(fs.open(name), offset, fresh))

    def _buffered_page(self, data) -> tuple[str, int, int]:
        """(file, version, logical page) of a sector the buffer holds."""
        fs = self.buffered
        held = [
            (props.name, props.version, page)
            for props in fs.list()
            for page, address in enumerate(
                _addresses(fs.open(props.name, props.version))
            )
            if fs.data_cache.contains(address)
        ]
        return data.draw(st.sampled_from(held))

    @precondition(lambda self: len(self.buffered.data_cache))
    @rule(data=st.data())
    def write_over_a_prefetched_page(self, data):
        """The new case at capacity 0: the image must go, since
        nothing repopulates it."""
        name, version, page = self._buffered_page(data)
        at = page * SECTOR
        fresh = self._fresh(SECTOR)
        self._both(lambda fs: fs.write(fs.open(name, version), at, fresh))
        got, expected = self._both(
            lambda fs: fs.read(fs.open(name, version), at, SECTOR)
        )
        assert got == expected == fresh

    @precondition(lambda self: len(self.buffered.data_cache))
    @rule(data=st.data(), regrow=st.integers(1, 6))
    def truncate_into_the_prefetched_span(self, data, regrow):
        """Free buffered sectors, then grow the file over them again."""
        name, version, page = self._buffered_page(data)
        at = page * SECTOR
        self._both(lambda fs: fs.truncate(fs.open(name, version), at))
        fresh = self._fresh(regrow * SECTOR)
        self._both(lambda fs: fs.write(fs.open(name, version), at, fresh))

    @precondition(lambda self: self._live())
    @rule(data=st.data(), keep=st.floats(0.0, 1.0))
    def truncate(self, data, keep):
        name = data.draw(st.sampled_from(self._live()))
        size = int(self.paper.open(name).byte_size * keep)
        self._both(lambda fs: fs.truncate(fs.open(name), size))

    @precondition(lambda self: self._live())
    @rule(data=st.data(), force=st.booleans())
    def delete(self, data, force):
        name = data.draw(st.sampled_from(self._live()))
        self._both(lambda fs: fs.delete(name))
        if force:  # freed sectors become allocatable again
            self._both(lambda fs: fs.force())

    @precondition(lambda self: self._live())
    @rule(data=st.data(), new_name=st.sampled_from(NAMES))
    def rename(self, data, new_name):
        name = data.draw(st.sampled_from(self._live()))
        self._both(lambda fs: fs.rename(name, new_name))

    @rule()
    def crash_and_mount(self):
        self._both(lambda fs: fs.force())
        self._both(lambda fs: fs.crash())
        assert len(self.buffered.data_cache) == 0
        self.buffered = FSD.mount(self.buffered.disk, readahead_pages=4)
        self.paper = FSD.mount(self.paper.disk, readahead_pages=0)
        assert len(self.buffered.data_cache) == 0

    # -- invariants ----------------------------------------------------
    @invariant()
    def buffer_holds_only_current_sectors_of_live_files(self):
        fs = self.buffered
        cache = fs.data_cache
        live = {
            address: props.uid
            for props in fs.list()
            for address in _addresses(fs.open(props.name, props.version))
        }
        for address, uid, image, prefetched in cache.entries():
            assert live.get(address) == uid, f"sector {address} outlived its file"
            assert image == fs.disk.peek(address), f"stale sector {address}"
            assert prefetched
        assert len(cache) <= cache.room
        assert len(self.paper.data_cache) == 0

    @invariant()
    def same_files(self):
        listing = self._both(
            lambda fs: [(p.name, p.version, p.byte_size) for p in fs.list()]
        )
        assert listing[0] == listing[1]


BufferTwinMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None
)
TestBufferTwinMachine = BufferTwinMachine.TestCase


# ----------------------------------------------------------------------
# (b) faults inside and outside the prefetch span
# ----------------------------------------------------------------------
class TestFaults:
    def _sequential_file(self):
        obs = Observer()
        fs = _volume()
        blob = payload(12 * SECTOR, 3)
        fs.create("d/seq", blob)
        fs = _remounted(fs, obs=obs)
        return fs, obs, fs.open("d/seq"), blob

    def test_damage_in_the_prefetch_span_never_fails_the_demand_read(self):
        fs, obs, handle, blob = self._sequential_file()
        fs.disk.faults.damage(handle.runs.sector_of_page(5))
        # page 0 starts the stream: its transfer would carry the leader,
        # page 0 and pages 1-11
        assert fs.read(handle, 0, SECTOR) == blob[:SECTOR]
        assert obs.snapshot().counter("cache.data.readahead_aborted") == 1
        assert len(fs.data_cache) == 0
        assert handle.leader_verified
        for page in (1, 2, 3, 4):
            at = page * SECTOR
            assert fs.read(handle, at, SECTOR) == blob[at : at + SECTOR]

    def test_damaged_demanded_sector_still_raises(self):
        fs, obs, handle, blob = self._sequential_file()
        fs.disk.faults.damage(handle.runs.sector_of_page(1))
        assert fs.read(handle, 0, SECTOR) == blob[:SECTOR]
        with pytest.raises(DamagedSectorError):
            fs.read(handle, SECTOR, SECTOR)
        assert fs.data_cache.readahead_issued == 0


# ----------------------------------------------------------------------
# (c) the window of a default mount, seen from the disk
# ----------------------------------------------------------------------
def _recording(fs: FSD, monkeypatch) -> list[tuple[int, int]]:
    """Every ``(address, count)`` the mount's data path reads from now
    on, in order."""
    requests: list[tuple[int, int]] = []
    read_maybe = fs.io.read_maybe

    def recording(address, count, **kwargs):
        requests.append((address, count))
        return read_maybe(address, count, **kwargs)

    monkeypatch.setattr(fs.io, "read_maybe", recording)
    return requests


class TestDefaultWindow:
    def test_a_source_file_read_page_by_page_is_one_transfer(
        self, monkeypatch
    ):
        """A MakeDo source file (24 pages, one run) on a cold default
        mount: page 0's transfer carries the leader and pages 1-23,
        which then are buffer hits."""
        fs = _volume()
        blob = payload(24 * SECTOR, 5)
        fs.create("d/src", blob)
        fs = _remounted(fs)
        handle = fs.open("d/src")
        requests = _recording(fs, monkeypatch)
        for page in range(24):
            at = page * SECTOR
            assert fs.read(handle, at, SECTOR) == blob[at : at + SECTOR]
        assert requests == [(handle.props.leader_addr, 25)]
        assert fs.data_cache.readahead_used == 23 == len(blob) // SECTOR - 1


# ----------------------------------------------------------------------
# (d) the per-stream waste rule, seen from the disk
# ----------------------------------------------------------------------
class TestWasteRule:
    def _two_readers(self, monkeypatch):
        """Files A (30 pages) and B (6 pages) on a cold mount whose
        buffer holds one 8-page window.  ``page(name, n)`` reads page n
        and returns the transfers that read issued."""
        monkeypatch.setattr(data_cache, "BUFFER_WINDOWS", 1)
        fs = _volume(readahead_pages=8)
        blobs = {"a": payload(30 * SECTOR, 1), "b": payload(6 * SECTOR, 2)}
        for name, blob in blobs.items():
            fs.create(f"d/{name}", blob)
        fs = _remounted(fs, readahead_pages=8)
        handles = {name: fs.open(f"d/{name}") for name in blobs}
        requests = _recording(fs, monkeypatch)

        def page(name, number):
            at = number * SECTOR
            assert fs.read(handles[name], at, SECTOR) == (
                blobs[name][at : at + SECTOR]
            )
            done = list(requests)
            requests.clear()
            return done

        return fs, handles["a"].runs.sector_of_page(0), page

    def test_wasted_window_stops_prefetch_until_the_stream_hits_again(
        self, monkeypatch
    ):
        """Two interleaved sequential readers on a one-window buffer:
        B's prefetch pushes half of A's window out unused, A falls back
        to one-sector demand reads, and prefetches again once one of
        its surviving sectors has been hit.  Each stream's page 0 read
        carries its leader and its first window."""
        fs, first_a, page = self._two_readers(monkeypatch)
        assert page("a", 0) == [(first_a - 1, 10)]        # leader, 0, 1..8
        assert page("a", 1) == []                          # a hit
        assert [count for _, count in page("b", 0)] == [7]
        assert fs.data_cache.evictions == 4                # a's 2..5, unused
        for number in (2, 3, 4, 5):                        # backed off
            assert page("a", number) == [(first_a + number, 1)]
        assert page("a", 6) == []                          # a survivor: a hit
        assert page("a", 7) == []
        assert page("a", 8) == [(first_a + 9, 8)]          # prefetching again
        assert page("a", 9) == []

    def test_a_page_zero_read_then_a_jump_wastes_one_window(
        self, monkeypatch
    ):
        """A reads its first page and jumps: the window page 0 carried
        is all A wastes.  Once B's window has pushed it out unused, A's
        reads from the jump on are one-sector demand reads."""
        fs, first_a, page = self._two_readers(monkeypatch)
        assert page("a", 0) == [(first_a - 1, 10)]        # leader, 0, 1..8
        assert page("a", 20) == [(first_a + 20, 1)]       # a jump
        assert [count for _, count in page("b", 0)] == [7]
        assert fs.data_cache.evictions == 5                # a's 1..5, unused
        for number in (21, 22, 23):                        # backed off
            assert page("a", number) == [(first_a + number, 1)]
        assert fs.data_cache.readahead_issued == 8 + 5
        assert fs.data_cache.readahead_used == 0
