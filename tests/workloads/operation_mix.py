"""A seeded open/read/create/delete mix that drives the same adapter
surface on FSD, CFS and 4.3 BSD (cross-system and determinism tests)."""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.workloads.generators import PaperFileSizes, payload


@dataclass
class OperationMix:
    """A randomized open/read/create/delete mix."""

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
