"""Fixed calibration kernel: the unit host time is reported in.

Raw wall-clock seconds on a shared 2-core box swing with whatever the
neighbours are doing — the same round took 1.15 s and 2.35 s minutes
apart while this benchmark was built, at full CPU and no steal.  The
swings last around a second, so a kernel timed once before and once
after a 1.5 s round missed most of them (10 % spread between
invocations); short slices of the kernel interleaved *inside* the round
track them (1.5 %).  ``host_wall_rel`` is therefore the timed region's
wall — the slices excluded — divided by the mean slice, scaled to one
full kernel.

The kernel does the kinds of work the simulator does — ``struct``
packing, dict churn, bytes slicing, bound-method calls — in fixed
amounts, so it is the same work on every machine and commit.  Nothing
here imports the program under test.
"""

from __future__ import annotations

import struct
import time

_HEADER = struct.Struct(">IHHQ")

#: iterations of one full kernel, the unit of every ``*_rel`` metric
#: (~0.15 s on the box the benchmark was built on).  Changing it, or
#: the kernel's body, changes that unit.
ITERATIONS = 240_000

#: iterations of one interleaved slice (~15 ms).
SLICE_ITERATIONS = 24_000

#: seconds one full kernel is deemed to take when a time has to be
#: reported in seconds yet comparable between a fast and a slow minute
#: of the same box (``setup_s``).
REFERENCE_S = 0.150


class _Counter:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, amount: int) -> int:
        self.value += amount
        return self.value


def kernel(iterations: int) -> int:
    """The fixed work; returns a checksum so nothing is optimised out."""
    pack = _HEADER.pack
    unpack = _HEADER.unpack
    counter = _Counter()
    bump = counter.bump
    table: dict[int, bytes] = {}
    page = bytes(range(256)) * 2
    total = 0
    for index in range(iterations):
        record = pack(index, index & 0xFFFF, 7, index * 2654435761)
        table[index & 1023] = record
        a, b, _, d = unpack(table[(index * 7) & 1023] if index > 1023 else record)
        chunk = page[(index & 255) : (index & 255) + 64]
        total += bump(a + b + (d & 0xFF) + chunk[0] + len(chunk))
        if index & 15 == 0:
            total ^= hash(chunk + record) & 0xFFFF
    return total


def slice_s() -> float:
    """One timed slice, as the seconds a full kernel would have taken."""
    start = time.perf_counter()
    kernel(SLICE_ITERATIONS)
    return (time.perf_counter() - start) * (ITERATIONS / SLICE_ITERATIONS)


if __name__ == "__main__":
    samples = sorted(slice_s() for _ in range(31))
    print(
        f"calibration kernel: median {samples[15]:.4f} s, "
        f"min {samples[0]:.4f} s, max {samples[-1]:.4f} s per full kernel, "
        f"from 31 slices"
    )
