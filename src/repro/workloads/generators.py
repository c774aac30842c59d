"""Workload generators matching the paper's stated distributions.

§5.6: "A large fraction of files are small.  A measurement of one
system shows 50% of files are less than 4,000 bytes but use only 8% of
the sectors."  :class:`PaperFileSizes` reproduces both moments; a unit
test pins them.

§5.4: "Bulk updates are often done to the file name table.  These
updates are normally localized to a subdirectory" — the bulk-update
generator creates new versions of every file in one subdirectory,
repeatedly dirtying the same few name-table pages (the hot spot that
group commit absorbs).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass
class PaperFileSizes:
    """Sampler for the paper's file-size distribution.

    Mixture: 50% small (256–4,000 bytes), 40% medium (4 KB–20 KB),
    10% large (20 KB–60 KB).  Small files are ~50% by count and ~8–10%
    by volume.
    """

    seed: int = 1987
    rng: random.Random = field(init=False)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)

    def sample(self) -> int:
        """One file size drawn from the paper's mixture."""
        roll = self.rng.random()
        if roll < 0.50:
            return self.rng.randint(256, 4_000)
        if roll < 0.90:
            return self.rng.randint(4_001, 20_000)
        return self.rng.randint(20_001, 60_000)

    def sample_many(self, count: int) -> list[int]:
        """A list of ``count`` samples."""
        return [self.sample() for _ in range(count)]


def small_fraction_stats(sizes: list[int]) -> tuple[float, float]:
    """(fraction of files < 4,000 bytes, fraction of bytes they hold)."""
    if not sizes:
        return 0.0, 0.0
    small = [size for size in sizes if size < 4_000]
    count_fraction = len(small) / len(sizes)
    byte_fraction = sum(small) / sum(sizes)
    return count_fraction, byte_fraction


def payload(size: int, seed: int = 0) -> bytes:
    """Deterministic file contents of ``size`` bytes (cheap, repeating
    pattern keyed by seed so reads can be verified)."""
    if size == 0:
        return b""
    stamp = f"<{seed:08x}>".encode()
    reps = -(-size // len(stamp))
    return (stamp * reps)[:size]


@dataclass
class BulkUpdateWorkload:
    """The §5.4 hot spot: re-release every file in one subdirectory.

    :meth:`setup` creates the files; each of the ``rounds`` a bench then
    runs creates a new (small) version of every file with ``keep=2``,
    so the old-old version is deleted as well — three name-table
    updates per file, all landing on the same few pages.  The benches
    run the rounds themselves because each forces the log on its own
    schedule.
    """

    directory: str = "bulk"
    files: int = 40
    rounds: int = 3
    size_bytes: int = 1_500

    def setup(self, adapter) -> None:
        """Create the subdirectory's initial file versions."""
        for index in range(self.files):
            adapter.create(
                f"{self.directory}/module-{index:03d}",
                payload(self.size_bytes, index),
            )
