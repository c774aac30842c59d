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

    Each round creates a new (small) version of each file with
    ``keep=2``, so the old-old version is deleted as well — three
    name-table updates per file, all landing on the same few pages.
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

    def run(self, adapter) -> int:
        """Run the bulk update; returns number of operations issued."""
        operations = 0
        for round_index in range(1, self.rounds + 1):
            for index in range(self.files):
                adapter.create(
                    f"{self.directory}/module-{index:03d}",
                    payload(self.size_bytes, index * 31 + round_index),
                )
                operations += 1
        return operations


@dataclass
class OperationMix:
    """A randomized open/read/create/delete mix for soak tests."""

    seed: int = 7
    create_weight: float = 0.3
    open_weight: float = 0.4
    delete_weight: float = 0.1
    read_weight: float = 0.2

    def run(self, adapter, names: list[str], operations: int) -> dict[str, int]:
        """Run the mix; returns per-kind operation counts."""
        rng = random.Random(self.seed)
        sizes = PaperFileSizes(seed=self.seed)
        live = list(names)
        counts = {"create": 0, "open": 0, "delete": 0, "read": 0}
        serial = 0
        total = (
            self.create_weight
            + self.open_weight
            + self.delete_weight
            + self.read_weight
        )
        for _ in range(operations):
            roll = rng.random() * total
            if roll < self.create_weight or not live:
                serial += 1
                name = f"mix/gen-{serial:05d}"
                adapter.create(name, payload(sizes.sample(), serial))
                live.append(name)
                counts["create"] += 1
            elif roll < self.create_weight + self.open_weight:
                adapter.open(rng.choice(live))
                counts["open"] += 1
            elif roll < self.create_weight + self.open_weight + self.delete_weight:
                victim = live.pop(rng.randrange(len(live)))
                adapter.delete(victim)
                counts["delete"] += 1
            else:
                handle = adapter.open(rng.choice(live))
                adapter.read(handle)
                counts["read"] += 1
        return counts
