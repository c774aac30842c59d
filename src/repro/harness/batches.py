"""The batch workloads of Tables 3 and 4: 100 small creates, list 100
files, read 100 small files — "all for different files in the same
directory" — plus the MakeDo build, measured in disk I/Os."""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.runner import measure
from repro.workloads.generators import payload
from repro.workloads.makedo import MakeDoWorkload

#: files per batch, as in the paper.
BATCH_FILES = 100
#: a "small file": two sectors of data.
SMALL_BYTES = 900
#: virtual think time between operations (lets group commit batch the
#: way it would under a real client).
THINK_MS = 25.0


@dataclass
class BatchResult:
    """Disk I/Os (and elapsed virtual ms) per batch phase."""

    create_ios: int
    list_ios: int
    read_ios: int
    create_ms: float
    list_ms: float
    read_ms: float


def measure_batches(
    disk,
    adapter,
    directory: str = "bench",
    think_ms: float = THINK_MS,
    pollute: list[str] | None = None,
) -> BatchResult:
    """Create, list and read ``BATCH_FILES`` files in one directory,
    counting disk I/Os per phase (think time included in the window, so
    group-commit log writes are charged to the phase that caused them).

    ``pollute`` names files touched (unmeasured) between phases: the
    paper ran each phase as a separate program, so caches saw other
    traffic in between.
    """
    names = [f"{directory}/f-{i:03d}" for i in range(BATCH_FILES)]

    def create_phase() -> None:
        for index, name in enumerate(names):
            adapter.create(name, payload(SMALL_BYTES, index))
            disk.clock.drain(think_ms)
        adapter.settle()

    creates = measure(disk, create_phase)

    def touch_others() -> None:
        for name in pollute or []:
            adapter.read(adapter.open(name))

    touch_others()
    listing = measure(disk, lambda: adapter.list(f"{directory}/"))
    touch_others()

    def read_phase() -> None:
        for name in names:
            handle = adapter.open(name)
            data = adapter.read(handle)
            assert len(data) == SMALL_BYTES
            disk.clock.drain(think_ms)

    reads = measure(disk, read_phase)

    return BatchResult(
        create_ios=creates.io.total_ios,
        list_ios=listing.io.total_ios,
        read_ios=reads.io.total_ios,
        create_ms=creates.elapsed_ms,
        list_ms=listing.elapsed_ms,
        read_ms=reads.elapsed_ms,
    )


def measure_makedo(
    disk, adapter, modules: int = 30, think_ms: float = THINK_MS
) -> tuple[int, float]:
    """Run the MakeDo build (sources pre-created, unmeasured); returns
    (disk I/Os, elapsed virtual ms)."""
    workload = MakeDoWorkload(modules=modules)
    workload.setup(adapter)
    adapter.settle()
    disk.clock.drain(1_000)
    took = measure(disk, lambda: workload.run(adapter))
    adapter.settle()
    return took.io.total_ios, took.elapsed_ms
