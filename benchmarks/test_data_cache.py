"""Data cache + read-ahead benchmark — the read-path speedup.

Runs the MakeDo build (the paper's software-build workload, whose
compiler streams sources one 512-byte page at a time) on three mounts
and writes the comparison to ``BENCH_data_cache.json``:

* ``paper``   — ``PAPER``: a disk request per page read.
  At full scale it must reproduce the ``paper`` row of the committed
  ``BENCH_data_cache.json`` bit-for-bit.
* ``default`` — what ``FSD.mount`` gives with no arguments: nothing
  retained but the read-ahead buffer.
* ``cached``  — a retaining cache of ``BENCH_DATA_CACHE_PAGES``.

Both read-ahead arms must cut elapsed time by at least 30%.

Environment knobs (used by the CI bench-smoke job to run tiny):

* ``BENCH_DATA_CACHE_OUT``      — output path (default
  ``.bench_build/BENCH_data_cache.json``, a scratch path; name the
  committed ``BENCH_data_cache.json`` to re-capture it),
* ``BENCH_DATA_CACHE_SCALE``    — ``full`` (default) or ``small``,
* ``BENCH_DATA_CACHE_MODULES``  — modules in the MakeDo build,
* ``BENCH_DATA_CACHE_PAGES``    — capacity of the ``cached`` arm,
* ``BENCH_DATA_CACHE_BASELINE`` — committed baseline JSON; when set,
  the ``paper`` and ``default`` elapsed times may not regress more than
  2% against it.
"""

from __future__ import annotations

import json
import os
import random
import sys
from pathlib import Path

from repro.core.data_cache import DEFAULT_DATA_CACHE_PAGES
from repro.core.fsd import FSD, PAPER
from repro.disk.disk import SimDisk
from repro.harness.adapters import FsdAdapter
from repro.harness.batches import measure_makedo
from repro.harness.report import Table
from repro.harness.scenarios import FULL, SMALL
from repro.obs.instrument import instrument
from repro.workloads.generators import payload

REPO_ROOT = Path(__file__).resolve().parent.parent
SECTOR_BYTES = 512

SCALE = SMALL if os.environ.get("BENCH_DATA_CACHE_SCALE") == "small" else FULL
MAKEDO_MODULES = int(os.environ.get("BENCH_DATA_CACHE_MODULES", "30"))
CACHE_PAGES = int(
    os.environ.get("BENCH_DATA_CACHE_PAGES", str(DEFAULT_DATA_CACHE_PAGES))
)
OUT_PATH = Path(
    os.environ.get(
        "BENCH_DATA_CACHE_OUT",
        REPO_ROOT / ".bench_build" / "BENCH_data_cache.json",
    )
)
BASELINE_PATH = os.environ.get("BENCH_DATA_CACHE_BASELINE")
COMMITTED_PATH = REPO_ROOT / "BENCH_data_cache.json"

#: the target: read-ahead elapsed <= 70% of the paper mount's.
TARGET_RATIO = 0.70
#: the CI gate: elapsed within 2% of the committed baseline.
REGRESSION_TOLERANCE = 0.02

#: arm -> mount options.
MOUNTS = {
    "paper": {"options": PAPER},
    "default": {},
    "cached": {"data_cache_pages": CACHE_PAGES},
}


def makedo(mount: dict) -> dict:
    """The MakeDo build on a fresh volume."""
    disk = SimDisk(geometry=SCALE.geometry)
    FSD.format(disk, SCALE.fsd_params)
    kit = instrument(disk)
    fs = FSD.mount(disk, obs=kit.obs, **mount)
    ios, elapsed = measure_makedo(
        disk, FsdAdapter(fs), modules=MAKEDO_MODULES
    )
    fs.unmount()
    st = disk.stats
    dc = fs.data_cache
    return {
        "total_ios": st.total_ios,
        "writes": st.writes,
        "reads": st.reads,
        "seek_ms": round(st.seek_ms, 3),
        "rotational_ms": round(st.rotational_ms, 3),
        "transfer_ms": round(st.transfer_ms, 3),
        "elapsed_ms": round(disk.clock.now_ms, 3),
        "makedo_ios": ios,
        "makedo_ms": round(elapsed, 3),
        "sched": {
            "submitted": fs.io.sched_stats.submitted,
            "dispatched": fs.io.sched_stats.dispatched,
            "read_merged": fs.io.sched_stats.read_merged,
        },
        "cache": {
            "capacity_pages": dc.capacity,
            "readahead_pages": dc.readahead_pages,
            "hits": dc.hits,
            "misses": dc.misses,
            "hit_ratio": round(dc.hit_ratio, 4),
            "evictions": dc.evictions,
            "readahead_issued": dc.readahead_issued,
            "readahead_used": dc.readahead_used,
            "readahead_accuracy": round(dc.readahead_accuracy, 4),
        },
    }


def test_data_cache(once):
    def run():
        return {arm: makedo(mount) for arm, mount in MOUNTS.items()}

    results = once(run)
    paper = results["paper"]
    # Read before OUT_PATH (when it names the committed file) is
    # overwritten.
    committed = json.loads(COMMITTED_PATH.read_text())

    document = {
        "benchmark": "data_cache",
        "scale": SCALE.name,
        "makedo_modules": MAKEDO_MODULES,
        "cache_pages": CACHE_PAGES,
        "target_ratio": TARGET_RATIO,
        "workloads": {"makedo": results},
    }
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(json.dumps(document, indent=2) + "\n")

    table = Table("Data cache + read-ahead (MakeDo)")
    for arm, m in results.items():
        table.add(
            f"{arm} mount",
            f"{m['makedo_ios']} IOs, {m['makedo_ms']:.0f} ms "
            f"(x{m['makedo_ms'] / paper['makedo_ms']:.3f})",
            f"reads {m['reads']}, rot {m['rotational_ms']:.0f} ms",
            f"hit ratio {m['cache']['hit_ratio']:.0%}, "
            f"RA used {m['cache']['readahead_used']}"
            f"/{m['cache']['readahead_issued']}",
        )
    table.print()
    print(f"wrote {OUT_PATH}")

    # -- the target: >= 30% elapsed-time reduction on both arms --------
    for arm in ("default", "cached"):
        m = results[arm]
        ratio = m["makedo_ms"] / paper["makedo_ms"]
        assert ratio <= TARGET_RATIO, (
            f"{arm} makedo took {m['makedo_ms']} ms vs "
            f"{paper['makedo_ms']} ms on the paper mount (ratio {ratio:.3f})"
        )
        # The win must come from fewer rotational waits, not accounting.
        assert m["reads"] < paper["reads"]
        assert m["rotational_ms"] < paper["rotational_ms"]
        assert m["cache"]["readahead_used"] > 0
    # The buffer retains nothing it did not prefetch, and wastes nothing
    # on one sequential reader.
    default = results["default"]["cache"]
    assert default["hits"] == default["readahead_used"]
    assert default["readahead_used"] == default["readahead_issued"]

    # -- bit-compat: the paper mount must reproduce the committed row --
    assert paper["cache"]["hits"] == 0 and paper["cache"]["misses"] == 0
    if (
        committed.get("scale") == SCALE.name
        and committed.get("makedo_modules") == MAKEDO_MODULES
    ):
        expected = committed["workloads"]["makedo"]["paper"]
        for key in (
            "total_ios", "writes", "reads", "seek_ms",
            "rotational_ms", "transfer_ms", "elapsed_ms",
            "makedo_ios", "makedo_ms",
        ):
            assert paper[key] == expected[key], (
                f"paper-mount {key} drifted from the committed row: "
                f"{paper[key]} != {expected[key]}"
            )

    # -- CI gate: elapsed within 2% of the committed baseline ----------
    if BASELINE_PATH:
        baseline = json.loads(Path(BASELINE_PATH).read_text())
        for arm in ("paper", "default"):
            base = baseline["workloads"]["makedo"][arm]
            limit = base["elapsed_ms"] * (1 + REGRESSION_TOLERANCE)
            assert results[arm]["elapsed_ms"] <= limit, (
                f"{arm}-mount elapsed {results[arm]['elapsed_ms']} ms "
                f"regressed more than {REGRESSION_TOLERANCE:.0%} over the "
                f"baseline {base['elapsed_ms']} ms"
            )


# ----------------------------------------------------------------------
# host cost of a data read, counted rather than timed
# ----------------------------------------------------------------------
#: the volume of the call-count gate: six 128 KB files (1 536 pages)
#: read through a retaining cache of 512 pages, so every store evicts,
#: as on ``read_stream``'s 4 096-page mount.
_GATE_FILES = 6
_GATE_FILE_PAGES = 256
_GATE_CACHE_PAGES = 512
_GATE_RANDOM_READS = 400

#: Python-level calls (``sys.setprofile`` ``call`` events) per read.
#: One entry per cached sector, a lone request planned as it is, plain
#: ``(start, count)`` extents and the retry rung on ``read_maybe`` make
#: them 21.64 per cold random one-page read and 18.86 per 4 KB
#: sequential read; before them they were 27.64 and 28.01.  Each bound
#: sits within 10 % above the current number.
RANDOM_READ_CALLS_BOUND = 23.5
SEQUENTIAL_READ_CALLS_BOUND = 20.7


def _counted_calls(body) -> int:
    calls = 0

    def count(frame, event, arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        body()
    finally:
        sys.setprofile(None)
    return calls


def test_data_read_python_calls():
    """A host-cost gate that does not read a clock: the calls one
    ``FSD.read`` makes on a retaining mount whose cache is full, per
    4 KB read of a sequential pass over every file and then per cold
    random one-page read (a miss that neither starts nor continues a
    stream: one disk read, one store, one eviction)."""
    disk = SimDisk(geometry=SMALL.geometry)
    FSD.format(disk, SMALL.fsd_params)
    fs = FSD.mount(disk)
    names = [f"gate/f{index}" for index in range(_GATE_FILES)]
    for index, name in enumerate(names):
        fs.create(name, payload(_GATE_FILE_PAGES * SECTOR_BYTES, index))
    fs.unmount()
    fs = FSD.mount(disk, data_cache_pages=_GATE_CACHE_PAGES)
    handles = [fs.open(name) for name in names]
    chunk = 8 * SECTOR_BYTES
    chunks = [
        (handle, at)
        for handle in handles
        for at in range(0, _GATE_FILE_PAGES * SECTOR_BYTES, chunk)
    ]

    def sequential() -> None:
        for handle, at in chunks:
            fs.read(handle, at, chunk)

    per_sequential = _counted_calls(sequential) / len(chunks)
    assert fs.data_cache.evictions > 0

    rng = random.Random(1)
    picks: list[tuple[object, int]] = []
    picked: set[int] = set()
    ends: dict[int, int] = {}
    while len(picks) < _GATE_RANDOM_READS:
        file, page = rng.randrange(_GATE_FILES), rng.randrange(1, _GATE_FILE_PAGES)
        address = handles[file].runs.sector_of_page(page)
        if (
            ends.get(file) == page
            or address in picked
            or fs.data_cache.contains(address)
        ):
            continue
        ends[file] = page + 1
        picked.add(address)
        picks.append((handles[file], page * SECTOR_BYTES))
    misses, reads, evictions = (
        fs.data_cache.misses, disk.stats.reads, fs.data_cache.evictions
    )

    def random_reads() -> None:
        for handle, at in picks:
            fs.read(handle, at, SECTOR_BYTES)

    per_random = _counted_calls(random_reads) / len(picks)
    assert fs.data_cache.misses - misses == len(picks)
    assert disk.stats.reads - reads == len(picks)
    assert fs.data_cache.evictions - evictions == len(picks)

    table = Table("Data read host cost (retaining mount, full cache)")
    table.add("Python calls per 4 KB sequential read", "-",
              f"{per_sequential:.2f}",
              note=f"{len(chunks)} reads, bound {SEQUENTIAL_READ_CALLS_BOUND}")
    table.add("Python calls per cold random page read", "-",
              f"{per_random:.2f}",
              note=f"{len(picks)} reads, bound {RANDOM_READ_CALLS_BOUND}")
    table.print()
    assert per_sequential <= SEQUENTIAL_READ_CALLS_BOUND
    assert per_random <= RANDOM_READ_CALLS_BOUND
