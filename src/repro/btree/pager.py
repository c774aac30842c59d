"""Page storage interface for the B-tree.

The same B-tree implementation backs both file name tables in the
reproduction; only the pager differs:

* CFS uses a write-through pager over multi-sector pages written in
  place (non-atomically — the corruption source the paper fixes),
* FSD uses a pager over the logged, double-written page cache, whose
  writeback goes home through the volume's I/O port
  (:mod:`repro.disk.sched`) only after the log records that cover it.

``MemoryPager`` exists for unit and property tests.
"""

from __future__ import annotations

from typing import Protocol

from repro.errors import CorruptMetadata
from repro.obs import NULL_OBS


class Pager(Protocol):
    """What the B-tree needs from its page store.

    Page 0 is reserved for the tree's meta page.  ``allocate`` never
    returns 0.
    """

    page_size: int

    def read(self, page_no: int) -> bytes:
        """Return the page (zeroes for a never-written meta page).

        May raise :class:`~repro.errors.CorruptMetadata` — including
        its :class:`~repro.errors.DegradedVolumeError` subclass when a
        backing store's read-escalation ladder (retry, duplicate-copy
        repair, mirror fallback) is exhausted.  The B-tree propagates
        it; it never partially applies a mutation whose page reads
        failed.
        """
        ...

    def write(self, page_no: int, data: bytes) -> None:
        """Store the page, padded to the page size."""
        ...

    def allocate(self) -> int:
        """Hand out an unused page number (never 0)."""
        ...

    def free(self, page_no: int) -> None:
        """Recycle a page for later allocation."""
        ...

    def prefetch(self, page_nos: list[int]) -> None:
        """Hint from a range scan: ``page_nos`` are pages it will
        ``read``, in the order it reads them: the current node's
        children, then the rest of the scan's frontier (a page may be
        hinted again by a later call).  Other reads may come between
        them; a scan that is drained reads every page it hinted.

        A pager may use the hint to fetch them in fewer, larger
        transfers; it must not change what a later ``read`` returns or
        accounts for, and it may ignore the hint altogether.
        """
        ...


class MemoryPager:
    """In-memory pager for tests; enforces the page-size contract."""

    def __init__(self, page_size: int = 512, page_limit: int | None = None):
        self.page_size = page_size
        self.page_limit = page_limit
        self._pages: dict[int, bytes] = {}
        self._free: list[int] = []
        self._next = 1  # page 0 is the meta page
        self.reads = 0
        self.writes = 0
        #: observability attach point (no-op unless a test attaches one).
        self.obs = NULL_OBS

    def read(self, page_no: int) -> bytes:
        """Return the page; raises for never-allocated non-meta pages."""
        self.reads += 1
        self.obs.count("btree.page_reads")
        if page_no != 0 and page_no not in self._pages:
            raise CorruptMetadata(f"read of unallocated page {page_no}")
        return self._pages.get(page_no, b"\x00" * self.page_size)

    def write(self, page_no: int, data: bytes) -> None:
        """Store the page, padded to the page size."""
        if len(data) > self.page_size:
            raise CorruptMetadata(
                f"page write of {len(data)} bytes > page size {self.page_size}"
            )
        self.writes += 1
        self.obs.count("btree.page_writes")
        self._pages[page_no] = data.ljust(self.page_size, b"\x00")

    def allocate(self) -> int:
        """Hand out an unused page number (never 0)."""
        if self._free:
            page_no = self._free.pop()
        else:
            page_no = self._next
            self._next += 1
        if self.page_limit is not None and page_no >= self.page_limit:
            raise CorruptMetadata("pager out of pages")
        self._pages[page_no] = b"\x00" * self.page_size
        return page_no

    def free(self, page_no: int) -> None:
        """Recycle a page for later allocation."""
        if page_no == 0:
            raise CorruptMetadata("cannot free the meta page")
        self._pages.pop(page_no, None)
        self._free.append(page_no)

    def prefetch(self, page_nos: list[int]) -> None:
        """Scan hint; memory has nothing to batch, so it is ignored."""

    @property
    def allocated_pages(self) -> int:
        return len(self._pages)
