"""Operation scripts for CFS and FSD (paper §6).

These reproduce the paper's design-time analysis: each file-system
operation is scripted as seeks, short seeks, latencies, lost
revolutions and transfers, using any known rotational/radial locality.
The CFS one-sector-file create script below is the paper's own §6
example, verbatim, continued through the remaining steps of the
implementation.

The paper's model ignored CPU time; each script optionally carries
``Cpu`` steps so the validation bench can report both the
paper-faithful prediction and a CPU-corrected one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.data_cache import DEFAULT_READAHEAD_PAGES
from repro.core.layout import NT_TWIN_SKEW
from repro.disk.clock import CpuCostModel
from repro.model.primitives import (
    Cpu,
    Fraction,
    Latency,
    MinusTransfer,
    Revolution,
    Script,
    Seek,
    ShortSeek,
    SlotAhead,
    Step,
    Transfer,
)


@dataclass(frozen=True)
class ModelAssumptions:
    """The probability distributions and amortization constants of §6.

    "The caches were assumed to hit if the information is small, and to
    hit except for the leaf nodes for large structures such as the file
    name table.  Hits for leaf nodes were modeled by simple probability
    distributions."
    """

    #: FSD name-table leaf misses per open, from the counters of the
    #: measured run: 6 ``cache.misses_leaf`` (no interior miss) in the
    #: 40 opens of the Table 2 open phase.  FSD entries are fat (run
    #: tables inline), six or seven to a leaf, so the tree has many
    #: more leaf pages than CFS's and they do not all stay cached.
    leaf_miss_probability: float = 0.15
    #: creates append adjacent keys, so they hit the leaf they dirtied
    #: moments ago: 0 misses in the 40 creates of the create phase.
    create_miss_probability: float = 0.0
    #: deletes touch more pages (leaf + allocation bitmap + rebalance):
    #: 6 misses, all leaves, in the 40 deletes of the delete phase.
    delete_miss_probability: float = 0.15
    #: CFS entries are tiny (uid + header address); its whole name
    #: table fits the page cache, so leaf misses are rare.
    cfs_leaf_miss_probability: float = 0.05
    #: operations sharing one group-commit log force.
    ops_per_commit: float = 16.0
    #: pages in a typical commit record (paper: 14 → 33 sectors).
    pages_per_record: float = 14.0
    cpu: CpuCostModel = field(default_factory=CpuCostModel)

    @property
    def record_sectors(self) -> float:
        return 5.0 + 2.0 * self.pages_per_record


#: client compute between two page reads of a sequential pass (the
#: mean of the 0-2 ms the ``makedo_build`` client draws).
SEQUENTIAL_THINK_MS = 1.0
#: pages of a MakeDo source file (12 288 bytes), the file a sequential
#: pass reads.
SOURCE_FILE_PAGES = 24
#: pages past page 0 in a Table 2 ``open+read`` file, which a default
#: mount's first read carries as its window: the 40 aged files of the
#: open set hold at most 4 000 bytes (8 pages), 5.2 pages past page 0
#: on average.
OPEN_READ_REST_PAGES = 5.2


def _io_cpu(cpu: CpuCostModel, sectors: float) -> Cpu:
    return Cpu(ms=cpu.io_setup_ms + cpu.per_sector_copy_ms * sectors)


# ======================================================================
# CFS scripts
# ======================================================================
def cfs_small_create(assume: ModelAssumptions) -> Script:
    """The paper's §6 example, continued to the end of the operation.

    1) Verify free pages: 1 seek, 1 latency, 3 page transfers
    2) Write header labels: (revolution − 3 page transfers), 2 transfers
    3) Write data labels: revolution − 1 transfer, 1 page transfer
    4) Write header: revolution − 3 transfers, 2 transfers
    5) Update name table: seek, latency, 2 transfers (write-through page)
    6) Write the byte: seek, latency, 1 transfer
    7) Rewrite header: revolution − 3 transfers... (same track again)
    """
    cpu = assume.cpu
    steps: list[Step] = [
        # 1 verify free pages
        _io_cpu(cpu, 3), Seek(), Latency(), Transfer(sectors=3),
        # 2 write header labels (rotationally synced: CPU absorbed)
        Revolution(), MinusTransfer(sectors=3), Transfer(sectors=2),
        # 3 write data label
        Revolution(), MinusTransfer(sectors=1), Transfer(sectors=1),
        # 4 write the header contents
        Revolution(), MinusTransfer(sectors=3), Transfer(sectors=2),
        # 5 update the file name table (write-through, elsewhere on disk)
        _io_cpu(cpu, 2), Cpu(ms=4 * cpu.btree_node_ms),
        Seek(), Latency(), Transfer(sectors=2),
        # 6 write the data sector (seek back to the file)
        _io_cpu(cpu, 1), Seek(), Latency(), Transfer(sectors=1),
        # 7 rewrite the header (same track as the data)
        Revolution(), MinusTransfer(sectors=2), Transfer(sectors=2),
    ]
    miss = [
        # name-table leaf miss: read the leaf before updating it
        _io_cpu(cpu, 2), ShortSeek(), Latency(), Transfer(sectors=2),
    ]
    return Script(
        name="cfs small create",
        steps=steps,
        miss_steps=miss,
        miss_probability=assume.cfs_leaf_miss_probability,
    )


def cfs_open(assume: ModelAssumptions) -> Script:
    """Name-table lookup (cached) + header read: always one I/O."""
    cpu = assume.cpu
    return Script(
        name="cfs open",
        steps=[
            Cpu(ms=3 * cpu.btree_node_ms),
            _io_cpu(cpu, 2), Seek(), Latency(), Transfer(sectors=2),
        ],
        miss_steps=[
            _io_cpu(cpu, 2), Seek(), Latency(), Transfer(sectors=2),
        ],
        miss_probability=assume.cfs_leaf_miss_probability,
    )


def cfs_read_page(assume: ModelAssumptions) -> Script:
    """One random page read on an open CFS file."""
    cpu = assume.cpu
    return Script(
        name="cfs read page",
        steps=[_io_cpu(cpu, 1), Seek(), Latency(), Transfer(sectors=1)],
    )


def cfs_open_read(assume: ModelAssumptions) -> Script:
    """Open + read first page: the data is near its header, so the read
    costs a short seek, not an average one."""
    cpu = assume.cpu
    script = cfs_open(assume)
    return Script(
        name="cfs open+read",
        steps=script.steps
        + [_io_cpu(cpu, 1), ShortSeek(), Latency(), Transfer(sectors=1)],
        miss_steps=script.miss_steps,
        miss_probability=script.miss_probability,
    )


def cfs_small_delete(assume: ModelAssumptions) -> Script:
    """Read header; free data labels; free header labels; name table."""
    cpu = assume.cpu
    return Script(
        name="cfs small delete",
        steps=[
            _io_cpu(cpu, 2), Seek(), Latency(), Transfer(sectors=2),
            # free the data run's labels (same track as the header)
            Revolution(), MinusTransfer(sectors=2), Transfer(sectors=1),
            # free the header labels
            Revolution(), MinusTransfer(sectors=1), Transfer(sectors=2),
            # name-table update (write-through)
            _io_cpu(cpu, 2), Cpu(ms=4 * cpu.btree_node_ms),
            Seek(), Latency(), Transfer(sectors=2),
        ],
        miss_steps=[
            _io_cpu(cpu, 2), ShortSeek(), Latency(), Transfer(sectors=2),
        ],
        miss_probability=assume.cfs_leaf_miss_probability,
    )


def cfs_list_per_file(assume: ModelAssumptions) -> Script:
    """Listing reads one header per file (plus amortized leaf reads)."""
    cpu = assume.cpu
    return Script(
        name="cfs list (per file)",
        steps=[
            Cpu(ms=cpu.entry_interpret_ms),
            _io_cpu(cpu, 2), ShortSeek(), Latency(), Transfer(sectors=2),
        ],
    )


# ======================================================================
# FSD scripts
# ======================================================================
def _fsd_commit_share(assume: ModelAssumptions) -> Fraction:
    """One operation's share of the group-commit log force: a short
    seek to the central log plus the record write."""
    cpu = assume.cpu
    return Fraction(
        label="log force share",
        steps=(
            _io_cpu(cpu, assume.record_sectors),
            ShortSeek(),
            Latency(),
            Transfer(sectors=assume.record_sectors),
        ),
        weight=1.0 / assume.ops_per_commit,
    )


def fsd_nt_page_miss(assume: ModelAssumptions) -> Script:
    """A name-table page miss: both home copies are read and compared.

    Copy A is a seek, a latency and a transfer.  Copy B is in the same
    cylinder on another head, ``NT_TWIN_SKEW`` slots round the track
    from copy A (:mod:`repro.core.layout`): when copy A's transfer
    ends its slot starts ``NT_TWIN_SKEW - 1`` sector times later, the
    I/O set-up fits inside that gap, and the read costs the gap and a
    transfer — no seek, no lost revolution (1.7 ms on the Trident,
    where a twin in an extent of its own cost 25.0)."""
    cpu = assume.cpu
    return Script(
        name="fsd name-table page miss",
        steps=[
            _io_cpu(cpu, 1), Seek(), Latency(), Transfer(sectors=1),
            SlotAhead(
                label="copy B: set-up, rest of the skew",
                sectors=NT_TWIN_SKEW - 1,
                after=(_io_cpu(cpu, 1),),
            ),
            Transfer(sectors=1),
        ],
    )


def fsd_small_create(assume: ModelAssumptions) -> Script:
    """Two free pages from the (memory) VAM, a cached name-table
    update, one combined leader+data write, and a share of the log.

    The allocator hands out small files sequentially in the small-file
    area, so the combined write needs no seek — only the rotational
    wait (this is *why* FSD creates are fast; the model knows it)."""
    cpu = assume.cpu
    return Script(
        name="fsd small create",
        steps=[
            Cpu(ms=6 * cpu.btree_node_ms + 2 * cpu.entry_interpret_ms),
            _io_cpu(cpu, 2), Latency(), Transfer(sectors=2),
            _fsd_commit_share(assume),
        ],
        miss_steps=fsd_nt_page_miss(assume).steps,
        miss_probability=assume.create_miss_probability,
    )


def fsd_open(assume: ModelAssumptions) -> Script:
    """Open usually does no I/O; a leaf miss costs the double read."""
    cpu = assume.cpu
    return Script(
        name="fsd open",
        steps=[Cpu(ms=4 * cpu.btree_node_ms + 2 * cpu.entry_interpret_ms)],
        miss_steps=fsd_nt_page_miss(assume).steps,
        miss_probability=assume.leaf_miss_probability,
    )


def fsd_read_page(assume: ModelAssumptions) -> Script:
    """One random page read on an open FSD file."""
    cpu = assume.cpu
    return Script(
        name="fsd read page",
        steps=[_io_cpu(cpu, 1), Seek(), Latency(), Transfer(sectors=1)],
    )


def fsd_sequential_page_read(
    assume: ModelAssumptions, window: int = 0
) -> Script:
    """One page of a page-at-a-time pass over a MakeDo source file
    (``SOURCE_FILE_PAGES``) lying in one disk run, client think time
    (``SEQUENTIAL_THINK_MS``) between two pages included.

    ``window == 0`` is the paper's mount, page 0 left out (it is the
    ``open+read`` script's): while the client thinks, the next sector's
    start passes under the head, so think plus wait is one lost
    revolution whatever the think time, then one transfer.

    With a read-ahead ``window`` the pass is priced whole, page 0
    included, because page 0's read fetches the window: one transfer
    of the leader, page 0 and pages 1 to ``window`` after a latency, so
    a file within one window is buffer hits after page 0 and each later
    page costs the think.  A longer file fetches a further window each
    time it has used one up.  That window starts at the sector after
    the previous transfer, whose start has passed under the head, so it
    waits a full revolution, not a latency (exact for a client that
    does not think between pages; thinking can only shorten it)."""
    if not window:
        return Script(
            name="fsd sequential page read",
            steps=[Revolution(), Transfer(sectors=1)],
        )
    cpu, pages = assume.cpu, SOURCE_FILE_PAGES
    first = 2 + min(window, pages - 1)
    steps: list[Step] = [
        Cpu(label="client think", ms=SEQUENTIAL_THINK_MS * (pages - 1) / pages),
        Fraction(
            label="page 0 share",
            steps=(_io_cpu(cpu, first), Latency(), Transfer(sectors=first)),
            weight=1.0 / pages,
        ),
    ]
    rest = pages - 1 - window
    if rest > 0:
        windows = -(-rest // window)
        steps.append(
            Fraction(
                label="window fetch share",
                steps=(
                    Cpu(ms=windows * cpu.io_setup_ms
                        + rest * cpu.per_sector_copy_ms),
                    Revolution(count=float(windows)),
                    Transfer(sectors=rest),
                ),
                weight=1.0 / pages,
            )
        )
    return Script(name="fsd sequential page read (read-ahead)", steps=steps)


def fsd_open_read(assume: ModelAssumptions) -> Script:
    """Open + first read, which piggybacks the leader: one I/O of the
    leader, data page 0 and, on the default mount Table 2 runs on, the
    rest of the file up to a read-ahead window."""
    cpu = assume.cpu
    base = fsd_open(assume)
    sectors = 2 + min(DEFAULT_READAHEAD_PAGES, OPEN_READ_REST_PAGES)
    return Script(
        name="fsd open+read",
        steps=base.steps
        + [_io_cpu(cpu, sectors), Seek(), Latency(), Transfer(sectors=sectors)],
        miss_steps=base.miss_steps,
        miss_probability=base.miss_probability,
    )


def fsd_small_delete(assume: ModelAssumptions) -> Script:
    """No synchronous I/O: cached tree update, shadow-bitmap free, and
    a share of the next log force."""
    cpu = assume.cpu
    return Script(
        name="fsd small delete",
        steps=[
            Cpu(ms=6 * cpu.btree_node_ms + 2 * cpu.entry_interpret_ms),
            _fsd_commit_share(assume),
        ],
        miss_steps=fsd_nt_page_miss(assume).steps,
        miss_probability=assume.delete_miss_probability,
    )


def fsd_list_per_file(assume: ModelAssumptions) -> Script:
    """Properties come from the name table; the only I/O is the rare
    leaf fetch, amortized over the ~6 files per leaf (the Table 2
    volume's tree: 1 310 entries on 204 leaves)."""
    cpu = assume.cpu
    per_leaf = Fraction(
        label="leaf fetch share",
        steps=(
            _io_cpu(cpu, 1), ShortSeek(), Latency(), Transfer(sectors=1),
            _io_cpu(cpu, 1), ShortSeek(), Latency(), Transfer(sectors=1),
        ),
        weight=assume.leaf_miss_probability / 6.0,
    )
    return Script(
        name="fsd list (per file)",
        steps=[Cpu(ms=cpu.entry_interpret_ms + cpu.btree_node_ms), per_leaf],
    )


# ======================================================================
# large transfers (the §5 scaling case: streaming in big chunks)
# ======================================================================
#: sectors in a "large" file for the large-create scripts (2 MB).
LARGE_FILE_SECTORS = 4096
#: largest single transfer (VolumeParams.max_io_sectors).
CHUNK_SECTORS = 120


def _streaming_pass(sectors: int, chunk: int) -> list[Step]:
    """One sequential pass over ``sectors``: each chunk transfers at
    media rate, then the inter-chunk request gap costs a revolution
    (the chunks are contiguous, so the missed sector start forces a
    full turn)."""
    chunks = -(-sectors // chunk)
    steps: list[Step] = [Transfer(sectors=sectors)]
    if chunks > 1:
        steps.append(Revolution(count=float(chunks - 1)))
    return steps


def fsd_large_create(assume: ModelAssumptions) -> Script:
    """Allocate one big run and stream it in max-sized chunks."""
    cpu = assume.cpu
    chunks = -(-LARGE_FILE_SECTORS // CHUNK_SECTORS)
    return Script(
        name="fsd large create",
        steps=[
            Cpu(ms=cpu.vam_bit_ms * LARGE_FILE_SECTORS
                + chunks * cpu.io_setup_ms),
            Seek(), Latency(),
            *_streaming_pass(LARGE_FILE_SECTORS, CHUNK_SECTORS),
            _fsd_commit_share(assume),
        ],
    )


def cfs_large_create(assume: ModelAssumptions) -> Script:
    """Three sequential passes over the data: verify the labels free,
    write the labels to claim, then write the data (verifying labels) —
    why CFS large creates cost ~3x FSD's (Table 2: 7674 vs 2730 ms)."""
    cpu = assume.cpu
    chunks = -(-LARGE_FILE_SECTORS // CHUNK_SECTORS)
    per_pass = _streaming_pass(LARGE_FILE_SECTORS, CHUNK_SECTORS)
    return Script(
        name="cfs large create",
        steps=[
            Cpu(ms=3 * chunks * cpu.io_setup_ms),
            # pass 1: verify free (label read)
            Seek(), Latency(), *per_pass,
            # pass 2: claim (label write) — same region, re-approached
            Revolution(), *per_pass,
            # pass 3: data write
            Revolution(), *per_pass,
            # header write + rewrite and the name-table update
            Revolution(), Transfer(sectors=2),
            _io_cpu(cpu, 2), Seek(), Latency(), Transfer(sectors=2),
            Revolution(), Transfer(sectors=2),
        ],
    )


# ======================================================================
# catalogue
# ======================================================================
def all_scripts(assume: ModelAssumptions | None = None) -> dict[str, Script]:
    """Every operation script, keyed by name."""
    assume = assume or ModelAssumptions()
    builders = [
        cfs_small_create, cfs_open, cfs_open_read, cfs_read_page,
        cfs_small_delete, cfs_list_per_file, cfs_large_create,
        fsd_nt_page_miss, fsd_small_create, fsd_open, fsd_open_read,
        fsd_read_page,
        fsd_sequential_page_read,
        lambda a: fsd_sequential_page_read(a, DEFAULT_READAHEAD_PAGES),
        fsd_small_delete, fsd_list_per_file, fsd_large_create,
    ]
    return {script.name: script for script in (b(assume) for b in builders)}
